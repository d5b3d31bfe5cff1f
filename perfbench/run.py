"""End-to-end benchmark of the `dcset` command line, one workload per run.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 40 --trace 0

An experiment is one workload's CLI invocations, each in a fresh interpreter
(perfbench/child.py) that imports the package from `src/` and calls the
unchanged `dcset.cli.main(argv)`, since a CLI user pays imports and cold caches
on every run.  Children run one at a time with BLAS/OpenMP pinned to one
thread, after one untimed start that compiles the bytecode.  Experiments repeat
until the next one would overrun `--seconds`.  Every output is checked, and
repeats at one seed must be byte-identical.  Reported times are scaled to a
reference CPU speed measured alongside (perfbench/speed.py).

`--trace 0` reports the end-to-end metrics.  `--trace 1` alternates untraced
and traced experiments and reports the per-layer metrics of perfbench/layertrace.py
plus the tracing overhead.  Human-readable lines and a JSON record of the
environment come first; the last stdout line is the JSON result.  Exit codes:
0 all checks passed, 1 a check failed (the result is still printed), 2 the
benchmark could not run (no result printed).  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from layertrace import COUNT_METRICS, PER_LAYER_UNITS, layer_metrics
from speed import SpeedProbe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"

END_TO_END_UNITS = {
    "run_s": "s",
    "run_s.tail": "s",
    "work_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = dict(PER_LAYER_UNITS, trace_overhead_frac="frac")

# Each run must end within 180 s; a child that is still going here is killed.
RUN_LIMIT_S = 170.0
TAIL_BEYOND = 10


class HarnessError(Exception):
    """The benchmark itself could not run; no result is printed."""


def clock() -> float:
    # CLOCK_MONOTONIC is system-wide, so parent and child stamps compare.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


@dataclass(frozen=True)
class Workload:
    invocations: tuple  # CLI argv lists, run in order, each in a fresh interpreter
    units: int  # work units in one experiment
    unit: str
    # Problems found in one experiment's child reports, plus notes to record.
    check: Callable[[list], tuple]


def _output(report: dict, what: str, problems: list) -> dict:
    if report["rc"] is None:
        problems.append(f"{what}: raised\n{report['stderr']}")
        return {}
    try:
        return json.loads(report["stdout"])
    except ValueError:
        problems.append(f"{what}: output is not JSON: {report['stdout'][:200]!r}")
        return {}


def sweep(seed: int, tiny: bool) -> Workload:
    n = 2 if tiny else 4
    masks = 1 << (n * n)

    def check(reports):
        problems = []
        out = _output(reports[0], "duality", problems)
        if reports[0]["rc"] != 0:
            problems.append(f"duality: exit code {reports[0]['rc']}")
        if out.get("masks") != masks or out.get("nonzero_gaps") != 0:
            problems.append(f"duality: masks={out.get('masks')} nonzero_gaps={out.get('nonzero_gaps')}")
        return problems, {}

    argv = ("duality", "--sweep", str(n), str(n), "--jobs", "1")
    return Workload((argv,), masks, "masks certified", check)


def counterexample(seed: int, tiny: bool) -> Workload:
    replicas = 40 if tiny else 500
    argv = ("distinguish", "--seed", str(seed), "--level", "1e-6", "--jobs", "1")
    if tiny:
        argv += ("--replicas", str(replicas), "--depth", "50")

    def check(reports):
        problems = []
        out = _output(reports[0], "distinguish", problems)
        if reports[0]["rc"] != 0 or out.get("passed") is not False:
            problems.append(f"distinguish: exit code {reports[0]['rc']}, passed={out.get('passed')}")
        return problems, {}

    return Workload((argv,), replicas, "replica pairs", check)


def ensemble(seed: int, tiny: bool) -> Workload:
    sel_replicas, enum_replicas, rounds = (200, 40, 2) if tiny else (5000, 500, 10)
    common = ("--seed", str(seed), "--level", "0.01", "--jobs", "1")
    selector = ("selector",) + common
    enumerate_ = ("enumerate",) + common
    if tiny:
        selector += ("--replicas", str(sel_replicas))
        enumerate_ += ("--replicas", str(enum_replicas), "--rounds", str(rounds))

    def check(reports):
        problems = []
        sel = _output(reports[0], "selector", problems)
        # KS at level 0.01 falsely rejects 1% of seeds: recorded, not a failure.
        ks_passed = sel.get("passed")
        if sel.get("membership_exact") is not True:
            problems.append(f"selector: membership_exact={sel.get('membership_exact')}")
        if reports[0]["rc"] != (0 if ks_passed else 1):
            problems.append(f"selector: exit code {reports[0]['rc']} with KS passed={ks_passed}")
        enum = _output(reports[1], "enumerate", problems)
        if reports[1]["rc"] != 0 or enum.get("containment") is not True:
            problems.append(f"enumerate: exit code {reports[1]['rc']}, containment={enum.get('containment')}")
        return problems, {"ks_passed": ks_passed}

    units = sel_replicas + rounds * enum_replicas
    return Workload((selector, enumerate_), units, "selector rows drawn", check)


# Why each workload is here: see "why" in BENCHMARK.json and perfbench/README.md.
WORKLOADS = {"sweep": sweep, "counterexample": counterexample, "ensemble": ensemble}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # the untimed start must leave bytecode
    env["PYTHONHASHSEED"] = "0"  # same dict and set layouts in every child
    return env


def spawn(mode: str, argv, env: dict, started: float) -> dict:
    """Run one child to completion and return its report plus `setup_s`."""
    limit = max(5.0, RUN_LIMIT_S - (clock() - started))
    t0 = clock()
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), mode, json.dumps(list(argv))],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=limit,
        )
    except subprocess.TimeoutExpired as exc:
        raise HarnessError(f"child {mode} {list(argv)} exceeded {limit:.0f} s") from exc
    if proc.returncode != 0:
        raise HarnessError(f"child {mode} {list(argv)} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    try:
        report = json.loads(proc.stdout)
    except ValueError as exc:
        raise HarnessError(f"child {mode} wrote no report: {proc.stdout[-400:]!r}") from exc
    report["setup_s"] = report["setup_end"] - t0
    report["span"] = (t0, clock())
    return report


def experiment(workload: Workload, mode: str, env: dict, started: float, probe: SpeedProbe) -> dict:
    """Run and check one experiment; its times are scaled to the reference speed."""
    reports = [spawn(mode, argv, env, started) for argv in workload.invocations]
    problems, notes = workload.check(reports)
    digest = hashlib.sha256()
    for r in reports:
        digest.update(r["stdout"].encode())
        digest.update(b"\0")
        r["speed"] = probe.factor(*r["span"])
        if r["trace"]:
            for f in r["trace"]["functions"].values():
                f["total_s"] *= r["speed"]
                f["self_s"] *= r["speed"]
    return {
        "mode": mode,
        "run_s": sum(r["run_s"] * r["speed"] for r in reports),
        "wall_run_s": sum(r["run_s"] for r in reports),
        "setup_s": [r["setup_s"] * r["speed"] for r in reports],
        "wall_setup_s": [r["setup_s"] for r in reports],
        "speed": [r["speed"] for r in reports],
        "rss_mb": max(r["maxrss_kb"] for r in reports) / 1024,
        "digest": digest.hexdigest(),
        "traces": [r["trace"] for r in reports],
        "problems": problems,
        "notes": notes,
    }


def measure(workload: Workload, seconds: float, trace: bool, env: dict, started: float,
            probe: SpeedProbe) -> list:
    """Experiments until the next round would overrun `seconds`; at least one round."""
    modes = ("plain", "trace") if trace else ("plain",)
    walls = {mode: [] for mode in modes}
    done = []
    start = clock()
    while True:
        for mode in modes:
            t0 = clock()
            done.append(experiment(workload, mode, env, started, probe))
            walls[mode].append(clock() - t0)
        next_round = sum(statistics.median(w) for w in walls.values())
        if clock() - start + next_round > seconds:
            return done


def tail(values: list) -> tuple:
    """Highest percentile with at least TAIL_BEYOND samples above it.

    With too few samples for that the maximum is reported, as percentile 100
    with nothing beyond it.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    k = n - TAIL_BEYOND  # the k-th smallest sample has TAIL_BEYOND above it
    return ordered[k - 1], 100.0 * k / n, TAIL_BEYOND


def cross_check(done: list) -> None:
    """Equal seeds must give byte-identical output and equal layer counts."""
    first = done[0]["digest"]
    for e in done:
        if e["digest"] != first:
            e["problems"].append(f"{e['mode']} output differs from the first experiment's")
    counts = None
    for e in done:
        if e["mode"] != "trace":
            continue
        mine = {name: e["layers"][name] for name in COUNT_METRICS}
        if counts is None:
            counts = mine
        elif mine != counts:
            e["problems"].append(f"layer counts differ from the first traced experiment: {mine} != {counts}")


def end_to_end(done: list, workload: Workload) -> tuple:
    runs = [e["run_s"] for e in done]
    run_s = statistics.median(runs)
    tail_s, pct, beyond = tail(runs)
    metrics = {
        "run_s": run_s,
        "run_s.tail": tail_s,
        "work_per_s": workload.units / run_s,
        "setup_s": statistics.median(s for e in done for s in e["setup_s"]),
        "peak_rss_mb": statistics.median(e["rss_mb"] for e in done),
    }
    return metrics, {"percentile": pct, "samples_beyond": beyond, "samples": len(runs)}


def per_layer(done: list) -> tuple:
    plain = statistics.median(e["run_s"] for e in done if e["mode"] == "plain")
    traced = [e for e in done if e["mode"] == "trace"]
    # Counts are equal in every traced experiment (cross_check); times take the median.
    metrics = {
        name: traced[0]["layers"][name] if name in COUNT_METRICS
        else statistics.median(e["layers"][name] for e in traced)
        for name in PER_LAYER_UNITS
    }
    traced_run = statistics.median(e["run_s"] for e in traced)
    metrics["trace_overhead_frac"] = (traced_run - plain) / plain
    return metrics, {"plain_run_s": plain, "traced_run_s": traced_run}


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main(argv=None) -> int:
    started = clock()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="workload seed")
    parser.add_argument("--seconds", type=float, required=True, help="measuring time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny sizes, for perfbench/selftest.py")
    args = parser.parse_args(argv)

    if not (SRC / "dcset" / "cli.py").is_file():
        print(f"error: no dcset sources under {SRC}", file=sys.stderr)
        return 2
    program_seed = args.seed % 2**32
    workload = WORKLOADS[args.workload](program_seed, args.tiny)
    env = child_env()
    # Children inherit this: they and the speed probe share one CPU.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    try:
        with SpeedProbe(clock) as probe:
            versions = spawn("setup", [], env, started)["versions"]  # untimed: compiles bytecode
            done = measure(workload, args.seconds, bool(args.trace), env, started, probe)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    not_traced = set()  # wrapped names the program no longer has
    for e in done:
        if e["mode"] == "trace":
            traces = e.pop("traces")
            not_traced.update(name for t in traces for name in t["missing"])
            e["layers"] = layer_metrics(traces, e["run_s"])
    cross_check(done)

    if args.trace:
        metrics, extra = per_layer(done)
        units = PER_LAYER
    else:
        metrics, extra = end_to_end(done, workload)
        units = END_TO_END_UNITS
    failed = sum(1 for e in done if e["problems"])
    for e in done:
        for problem in e["problems"]:
            print(f"check failed ({e['mode']}): {problem}", file=sys.stderr)

    for name, value in metrics.items():
        print(f"{name:<28} {value:>14.6g} {units[name]}")
    print(f"{'failed_frac':<28} {failed / len(done):>14.6g} frac")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "argv": [list(a) for a in workload.invocations],
        "work_unit": workload.unit,
        "units_per_experiment": workload.units,
        "experiments": {m: sum(1 for e in done if e["mode"] == m) for m in ("plain", "trace")},
        "setup_samples": sum(len(e["setup_s"]) for e in done),
        "run_s_samples": [e["run_s"] for e in done if e["mode"] == "plain"],
        "wall_run_s_samples": [e["wall_run_s"] for e in done if e["mode"] == "plain"],
        "wall_setup_s_samples": [s for e in done for s in e["wall_setup_s"]],
        "speed_factors": [f for e in done for f in e["speed"]],
        "failed_frac": failed / len(done),
        "output_sha256": sorted({e["digest"] for e in done}),
        "notes": [e["notes"] for e in done if e["notes"]],
        "nproc": os.cpu_count(),
        "versions": versions,
        "commit": git_commit(),
    }
    if args.trace:
        record["run_s"] = extra
        record["layer_counts"] = {name: metrics[name] for name in COUNT_METRICS}
        record["not_traced"] = sorted(not_traced)
    else:
        record["tail"] = extra
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(done),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
