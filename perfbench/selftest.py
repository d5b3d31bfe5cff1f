"""Self-test of the benchmark harness at tiny sizes; takes about a minute.

    python3 perfbench/selftest.py

Runs every workload of perfbench/run.py with `--tiny` in both trace modes and
checks that:
- every metric named in BENCHMARK.json is emitted, with its unit, and nothing else;
- all outputs pass their checks, and traced and untraced runs write identical output;
- the predicted zeros hold: no duality solves on `counterexample`, no generator
  calls and no selector draws on `sweep`;
- the layer counts repeat exactly when a run is repeated at the same seed;
- in a directory holding only BENCHMARK.json and perfbench/, the benchmark
  exits non-zero without printing a result.
It is not part of the repository's test suite.  Exits 1 at the first failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int, seed: int = 7, root: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


def result_of(workload: str, trace: int, seed: int = 7) -> tuple[dict, dict, str]:
    proc = bench(workload, trace, seed)
    check(proc.returncode == 0, f"{workload} trace={trace} exited {proc.returncode}: {proc.stderr}")
    lines = proc.stdout.splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["record"], proc.stdout


def check(ok: bool, what: str) -> None:
    if not ok:
        print(f"FAIL: {what}")
        sys.exit(1)


def main() -> int:
    workloads = [w["name"] for w in SPEC["workloads"]]
    layers = {}
    for workload in workloads:
        for trace, spec_key in ((0, "end_to_end"), (1, "per_layer")):
            result, record, text = result_of(workload, trace)
            where = f"{workload} trace={trace}"
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{where}: checks failed: {result}")
            expected = {m["name"]: m["unit"] for m in SPEC[spec_key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            check(got == expected, f"{where}: metrics {got} != {expected}")
            for name, unit in expected.items():
                check(any(line.split()[:1] == [name] and line.split()[-1] == unit
                          for line in text.splitlines()), f"{where}: no printed line for {name}")
            if trace == 0:
                check(all(m["value"] > 0 for m in result["metrics"].values()),
                      f"{where}: an end-to-end metric is not positive")
            else:
                check(record["experiments"]["plain"] >= 1 and record["experiments"]["trace"] >= 1,
                      f"{where}: needs one traced and one untraced experiment")
                check(len(record["output_sha256"]) == 1, f"{where}: traced output differs")
                layers[workload] = {name: m["value"] for name, m in result["metrics"].items()}
                _, again, _ = result_of(workload, 1)
                check(again["layer_counts"] == record["layer_counts"],
                      f"{where}: counts changed on repeat: {again['layer_counts']} != {record['layer_counts']}")
        print(f"ok {workload}")

    check(layers["counterexample"]["duality.calls"] == 0, "counterexample calls duality")
    check(layers["sweep"]["generators.calls"] == 0, "sweep calls generators")
    check(layers["sweep"]["selector.draws"] == 0, "sweep draws selector rows")
    check(layers["sweep"]["duality.calls"] == 16 and layers["sweep"]["duality.cells"] == 32,
          "sweep --sweep 2 2 should solve 16 masks holding 32 cells in all")
    check(layers["counterexample"]["generators.calls"] > 0, "counterexample calls no generator")
    check(layers["ensemble"]["selector.draws"] == 200 + 2 * 40, "ensemble draw count")
    print("ok predicted zeros and counts")

    with tempfile.TemporaryDirectory() as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, Path(bare) / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench(workloads[0], 0, root=Path(bare))
        check(proc.returncode != 0 and '"correct"' not in proc.stdout,
              f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
    print("ok bare directory")
    return 0


if __name__ == "__main__":
    sys.exit(main())
