"""Per-layer tracing of the dcset package, installed from outside `src/`.

`Tracer.install()` replaces the public functions named in `LAYERS` with thin
wrappers, everywhere a `dcset` module holds a reference to them (the CLI binds
most of them with `from .x import y`).  Each wrapper records one span: its
duration is added to the function's inclusive time and, minus the time of the
wrapped calls it made, to its self time.  Spans are folded into per-function
totals as they close instead of being kept, so tracing 130k solver calls stays
cheap.  A few counters are taken at the same boundaries (mask cells solved,
points generated, selector rows drawn, bytes written).

`layer_metrics()` turns one or more summaries into the per-layer metrics.  It
needs no numpy, so the benchmark's parent process can import this module.
"""

from __future__ import annotations

import functools
import sys
import time

LAYERS = {
    "duality": (
        "dcset.duality",
        ("duality_gap", "max_coupling", "min_cover", "full_coupling", "SupportMask.from_bits"),
    ),
    "selector": (
        "dcset.selector",
        (
            "sample_ensemble",
            "build_support_mask",
            "uniform_selector",
            "selector_from_coupling",
            "interleaved_enumeration",
            "verify_selector",
            "interleave_containment",
        ),
    ),
    "generators": (
        "dcset.generators",
        ("sample_uniform", "poisson_on_cantor", "counterexample_mix", "Seed.stream"),
    ),
    "grid_measure": (
        "dcset.grid_measure",
        (
            "FatCantor.contains_points",
            "BinSet.contains_points",
            "FatCantor.kept_segments",
            "fat_cantor_build",
            "UnitGrid.bins",
        ),
    ),
    "stats": (
        "dcset.stats",
        ("distinguish_counterexample", "two_sample_test", "ks_uniform", "chi_square_independence"),
    ),
    # Every public `*_to_csv` writer is added to this layer at install time.
    "formats": ("dcset.formats", ("dump_json", "report_to_json")),
    "cli": ("dcset.cli", ("main",)),
}

_SOLVES = ("duality_gap", "max_coupling", "min_cover", "full_coupling")
_GENERATORS = ("sample_uniform", "poisson_on_cantor", "counterexample_mix")
_DRAWING = ("uniform_selector", "selector_from_coupling", "interleaved_enumeration")
_TESTS = ("two_sample_test", "ks_uniform", "chi_square_independence")
_COUNTERS = ("cells", "points", "draws", "bytes_out")

# The metric names `layer_metrics` returns, in report order, with their units.
PER_LAYER_UNITS = {
    "duality.calls": "count",
    "duality.cells": "count",
    "duality.self_s": "s",
    "duality.us_per_call": "us",
    "duality.share": "frac",
    "selector.draws": "count",
    "selector.mask_s": "s",
    "selector.verify_s": "s",
    "selector.self_s": "s",
    "selector.share": "frac",
    "generators.calls": "count",
    "generators.points": "count",
    "generators.streams": "count",
    "generators.stream_s": "s",
    "generators.self_s": "s",
    "generators.share": "frac",
    "grid_measure.contains_calls": "count",
    "grid_measure.contains_s": "s",
    "grid_measure.segments_s": "s",
    "grid_measure.build_s": "s",
    "grid_measure.self_s": "s",
    "grid_measure.share": "frac",
    "stats.tests": "count",
    "stats.self_s": "s",
    "stats.share": "frac",
    "formats.bytes_out": "count",
    "formats.self_s": "s",
    "cli.self_s": "s",
    "cli.share": "frac",
}

# Metrics that are exact counts: equal inputs must give equal values.
COUNT_METRICS = tuple(name for name, unit in PER_LAYER_UNITS.items() if unit == "count")


class _Stat:
    __slots__ = ("layer", "calls", "total_s", "self_s")

    def __init__(self, layer: str):
        self.layer = layer
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0


class Tracer:
    """Span accounting for the wrapped functions of one process."""

    def __init__(self):
        self.stats: dict[str, _Stat] = {}
        self.counters = dict.fromkeys(_COUNTERS, 0)
        self.stack: list[list] = []  # open spans: [function name, child seconds]
        self.missing: list[str] = []

    @classmethod
    def install(cls) -> "Tracer":
        import dcset.cli  # noqa: F401  (loads every dcset module)

        tracer = cls()
        modules = [m for n, m in sys.modules.items() if n == "dcset" or n.startswith("dcset.")]
        for layer, (module_name, names) in LAYERS.items():
            module = sys.modules[module_name]
            if layer == "formats":
                names = names + tuple(n for n in dir(module) if n.endswith("_to_csv"))
            for qualname in names:
                tracer._patch(layer, module, qualname, modules)
        return tracer

    def _patch(self, layer, module, qualname, modules) -> None:
        owner_name, _, attr = qualname.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        if owner is None or attr not in vars(owner):
            self.missing.append(f"{module.__name__}.{qualname}")
            return
        raw = vars(owner)[attr]
        if isinstance(raw, (classmethod, staticmethod)):
            setattr(owner, attr, type(raw)(self._wrap(layer, qualname, raw.__func__)))
        elif owner is not module:
            setattr(owner, attr, self._wrap(layer, qualname, raw))
        else:
            wrapped = self._wrap(layer, qualname, raw)
            for mod in modules:
                for key in [k for k, v in vars(mod).items() if v is raw]:
                    setattr(mod, key, wrapped)

    def _wrap(self, layer: str, name: str, fn):
        stat = self.stats.setdefault(name, _Stat(layer))
        stack = self.stack
        clock = time.perf_counter
        count = self._counter_for(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dt = clock() - t0
                stack.pop()
                stat.calls += 1
                stat.total_s += dt
                stat.self_s += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
                if count is not None:
                    count(args, kwargs, result)

        return traced

    def _counter_for(self, name: str):
        """Counter taken when a span of `name` closes; `stack` then holds its callers."""
        counters, stack = self.counters, self.stack

        def nested_in(names):
            return any(frame[0] in names for frame in stack)

        if name in _SOLVES:
            import numpy as np

            def cells(args, kwargs, result):
                mask = args[0] if args else kwargs["mask"]
                counters["cells"] += int(np.count_nonzero(mask.cells))
            return cells
        if name in _GENERATORS:
            def points(args, kwargs, result):
                if result is not None and not nested_in(_GENERATORS):
                    counters["points"] += len(result)
            return points
        if name in _DRAWING:
            def draws(args, kwargs, result):
                if result is None or nested_in(_DRAWING):
                    return
                if name == "interleaved_enumeration":
                    # Table 1 copies first points; each round draws one even table.
                    counters["draws"] += (len(result) - 1) // 2 * len(result[0])
                else:
                    counters["draws"] += len(result)
            return draws
        if name == "dump_json" or name.endswith("_to_csv"):
            def written(args, kwargs, result):
                if result is not None:
                    counters["bytes_out"] += len(result.encode())
            return written
        return None

    def summary(self) -> dict:
        """Plain-data totals, for sending to the parent process as JSON."""
        return {
            "functions": {
                name: {"layer": s.layer, "calls": s.calls, "total_s": s.total_s, "self_s": s.self_s}
                for name, s in self.stats.items()
            },
            "counters": dict(self.counters),
            "missing": list(self.missing),
        }


def layer_metrics(summaries: list[dict], run_s: float) -> dict:
    """Per-layer metrics of one experiment made of one or more invocations.

    `run_s` is the traced wall time of the experiment; every `*.share` is a
    layer's self time divided by it.
    """
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    self_by_layer = {layer: 0.0 for layer in LAYERS}
    counters = dict.fromkeys(_COUNTERS, 0)
    for summary in summaries:
        for name, f in summary["functions"].items():
            calls[name] = calls.get(name, 0) + f["calls"]
            total[name] = total.get(name, 0.0) + f["total_s"]
            self_by_layer[f["layer"]] += f["self_s"]
        for key, value in summary["counters"].items():
            counters[key] += value

    def n(*names):
        return sum(calls.get(x, 0) for x in names)

    def t(*names):
        return sum(total.get(x, 0.0) for x in names)

    def share(layer):
        return self_by_layer[layer] / run_s if run_s > 0 else 0.0

    solves = n(*_SOLVES)
    return {
        "duality.calls": solves,
        "duality.cells": counters["cells"],
        "duality.self_s": self_by_layer["duality"],
        "duality.us_per_call": 1e6 * self_by_layer["duality"] / solves if solves else 0.0,
        "duality.share": share("duality"),
        "selector.draws": counters["draws"],
        "selector.mask_s": t("build_support_mask"),
        "selector.verify_s": t("verify_selector", "interleave_containment"),
        "selector.self_s": self_by_layer["selector"],
        "selector.share": share("selector"),
        "generators.calls": n(*_GENERATORS),
        "generators.points": counters["points"],
        "generators.streams": n("Seed.stream"),
        "generators.stream_s": t("Seed.stream"),
        "generators.self_s": self_by_layer["generators"],
        "generators.share": share("generators"),
        "grid_measure.contains_calls": n("FatCantor.contains_points", "BinSet.contains_points"),
        "grid_measure.contains_s": t("FatCantor.contains_points", "BinSet.contains_points"),
        "grid_measure.segments_s": t("FatCantor.kept_segments"),
        "grid_measure.build_s": t("fat_cantor_build"),
        "grid_measure.self_s": self_by_layer["grid_measure"],
        "grid_measure.share": share("grid_measure"),
        "stats.tests": n(*_TESTS),
        "stats.self_s": self_by_layer["stats"],
        "stats.share": share("stats"),
        "formats.bytes_out": counters["bytes_out"],
        "formats.self_s": self_by_layer["formats"],
        "cli.self_s": self_by_layer["cli"],
        "cli.share": share("cli"),
    }
