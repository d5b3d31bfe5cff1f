"""Text and JSON formats for masks, caps, Cantor sets and reports.

Rationals travel as strings "p/q" (or plain integers) so every file holds
them exactly.
"""

from __future__ import annotations

import json
from fractions import Fraction

import numpy as np

from .duality import Coupling, Cover, MarginalCaps, SupportMask
from .errors import ParseError, check_budget
from .generators import Enumeration, RevealingSelectors
from .records import Record
from .selector import SelectorTable
from .stats import ShiftHitCurve, TestReport

__all__ = [
    "parse_fraction",
    "format_fraction",
    "parse_mask",
    "parse_caps_side",
    "coupling_to_json",
    "cover_to_json",
    "enumeration_to_csv",
    "revealing_to_csv",
    "selector_to_csv",
    "report_to_json",
    "report_to_csv",
    "curve_to_csv",
]


def parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational {text!r}: {exc}") from exc


def format_fraction(value: Fraction) -> str:
    return str(Fraction(value))


def parse_mask(text: str) -> SupportMask:
    """Mask file: first line "n m", then n lines of m characters '0'/'1'."""
    lines = text.splitlines()
    if not lines:
        raise ParseError("empty mask file", line=1)
    head = lines[0].split()
    if len(head) != 2 or not all(p.isdigit() for p in head):
        raise ParseError(f"expected 'n m', got {lines[0]!r}", line=1)
    rows, cols = int(head[0]), int(head[1])
    if rows < 1 or cols < 1:
        raise ParseError("mask dimensions must be positive", line=1)
    check_budget("mask rows * cols", rows * cols)
    if len(lines) < rows + 1:
        raise ParseError(
            f"expected {rows} mask rows, found {len(lines) - 1}", line=len(lines) + 1
        )
    cells = np.zeros((rows, cols), dtype=bool)
    for i in range(rows):
        raw = lines[1 + i].strip()
        if len(raw) != cols or any(c not in "01" for c in raw):
            raise ParseError(f"row must be {cols} characters of 0/1, got {raw!r}", line=i + 2)
        cells[i] = [c == "1" for c in raw]
    return SupportMask(cells)


def parse_caps_side(text: str, count: int) -> tuple:
    """One caps file side: CSV lines "index,p/q", every index exactly once."""
    values = [None] * count
    for lineno, raw in enumerate(text.splitlines(), start=1):
        raw = raw.strip()
        if not raw or raw.startswith("#"):
            continue
        parts = raw.split(",")
        if len(parts) != 2:
            raise ParseError(f"expected 'index,p/q', got {raw!r}", line=lineno)
        try:
            idx = int(parts[0])
        except ValueError as exc:
            raise ParseError(f"bad index {parts[0]!r}", line=lineno) from exc
        if not 0 <= idx < count:
            raise ParseError(f"index {idx} outside [0, {count})", line=lineno)
        if values[idx] is not None:
            raise ParseError(f"duplicate index {idx}", line=lineno)
        values[idx] = parse_fraction(parts[1])
    missing = [i for i, v in enumerate(values) if v is None]
    if missing:
        raise ParseError(f"missing caps for indices {missing}")
    return tuple(values)


def coupling_to_json(coupling: Coupling) -> dict:
    return {
        "mass": [[format_fraction(x) for x in row] for row in coupling.mass],
        "total": format_fraction(coupling.total_mass()),
    }


def cover_to_json(cover: Cover, caps: MarginalCaps) -> dict:
    return {"U": sorted(cover.U), "V": sorted(cover.V), "cost": format_fraction(cover.cost(caps))}


def enumeration_to_csv(enum: Enumeration) -> str:
    lines = ["index,point,component"]
    tags = enum.tags or (enum.provenance,) * len(enum)
    for i, (p, tag) in enumerate(zip(enum.points, tags)):
        lines.append(f"{i},{float(p)!r},{tag}")
    return "\n".join(lines) + "\n"


def revealing_to_csv(family: RevealingSelectors) -> str:
    lines = ["k,low,mid,high,event,chosen"]
    for k in range(family.depth):
        lines.append(
            f"{k},{float(family.low.points[k])!r},{float(family.mid.points[k])!r},"
            f"{float(family.high.points[k])!r},{int(family.events[k])},"
            f"{float(family.chosen.points[k])!r}"
        )
    return "\n".join(lines) + "\n"


def selector_to_csv(table: SelectorTable) -> str:
    lines = ["replica,value,enumeration_index"]
    for r in range(len(table)):
        lines.append(f"{r},{float(table.values[r])!r},{int(table.memberships[r])}")
    return "\n".join(lines) + "\n"


def report_to_json(record: Record) -> dict:
    """Any value record as a JSON-ready dict of its fields: a test report, a
    shift-hit curve, a fat Cantor set (what `dcset cantor --out` writes)."""
    return {name: _plain(getattr(record, name)) for name in record._fields}


def report_to_csv(report: TestReport) -> str:
    return (
        "name,statistic,threshold,level,passed,replicas,seed\n"
        f"{report.name},{report.statistic!r},{report.threshold!r},"
        f"{report.level!r},{int(report.passed)},{report.replicas},{report.seed}\n"
    )


def curve_to_csv(curve: ShiftHitCurve) -> str:
    lines = ["depth,mean,median,expected"]
    for d, mean, median, exp in zip(curve.depths, curve.means, curve.medians, curve.expected):
        lines.append(f"{d},{mean!r},{median!r},{exp!r}")
    return "\n".join(lines) + "\n"


def _plain(value):
    """Make details JSON-serializable (fractions to strings, arrays to lists)."""
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, Fraction):
        return format_fraction(value)
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value


def dump_json(data: dict) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"
