"""The package's surface: modules share only public names, and `dcset` exports
exactly each module's `__all__`."""

import ast
import importlib
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "dcset"
EXPORTING = ("duality", "generators", "grid_measure", "selector", "stats")


def relative_imports(path: Path) -> list[tuple[str | None, str]]:
    """(module, name) for every `from .module import name` in a source file."""
    return [
        (node.module, alias.name)
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names
    ]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_no_module_imports_a_private_name(path):
    private = [f"{module}.{name}" for module, name in relative_imports(path) if name.startswith("_")]
    assert private == []


@pytest.mark.parametrize("module", EXPORTING)
def test_package_exports_each_modules_all(module):
    taken = {name for source, name in relative_imports(SRC / "__init__.py") if source == module}
    assert taken == set(importlib.import_module(f"dcset.{module}").__all__)
