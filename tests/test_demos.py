"""Every demo script runs to completion and prints fixed output."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# sha256 of each demo's stdout.
STDOUT_SHA256 = {
    "01_duality_walkthrough.py": "3e6663d8923835a31b1d562a2ee1b40b9958bb8609ccba877a035669e4167768",
    "02_random_set_gallery.py": "a76fa94581881e0147a01c93d2a6e3f4c10d75e0064f50921b049e9990b5e761",
    "03_counterexample_story.py": "7ac8cba87b9255c4cfaa3fbdd29dc52bf3f098ff9e0f17cd43335ca01596cc21",
    "04_uniform_selector.py": "b5af1dde3cf57ad720cac9e17c8c7b8773438b4167e8b053f3cbaf2f90f627bc",
    "05_interleaved_enumeration.py": "406b3863e369afe2ac4a8c022f2d1d216e8b1e69bdf7b02f3098a4c9e7b76dff",
}


def test_all_demos_found():
    assert len(DEMOS) == 5 and set(STDOUT_SHA256) == {demo.name for demo in DEMOS}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo, tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    if demo.name in STDOUT_SHA256:
        assert hashlib.sha256(done.stdout.encode()).hexdigest() == STDOUT_SHA256[demo.name]
