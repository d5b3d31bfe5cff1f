"""Characterization ("golden master") table of CLI runs.

Each row of `golden_runs.json` is one in-process `main` call: its argv, the
input files it reads, and what it did: the exit code (a `SystemExit` code
counts) and the sha256 of stdout, of stderr and of each `--out`/`--csv` file.
The rows cover every subcommand at its default flags, `simulate` with each
generator and `stationarity`/`independence` with each `--gen`, each at seeds
1, 5 and 2023, plus four `distinguish` runs and four fat Cantor runs off
their defaults, one refusal of each kind and three config runs.

`{tmp}` in an argv stands for the row's own temporary directory; a row's
inputs are written there first.  No row echoes that path to stdout or stderr.
argparse wraps its usage lines to the terminal width, so every row runs with
COLUMNS=80.  argparse's messages differ between Python versions, so the
refusal rows pin the messages of the Python the table was written with.

After a deliberate change, rewrite the table with

    PYTHONPATH=src python tests/test_golden.py

and name every moved row, and why it moved, in CHANGES.md.
"""

import hashlib
import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

from dcset.cli import GENERATORS, main

TABLE = Path(__file__).with_name("golden_runs.json")
SEEDS = (1, 5, 2023)
OUTPUT_FLAGS = ("--out", "--csv")

_SEEDED = [
    *(["simulate", gen] for gen in GENERATORS),
    ["distinguish", "--csv", "{tmp}/report.csv"],
    *(["stationarity", "--gen", gen, "--csv", "{tmp}/report.csv"]
      for gen in ("sample", "minima", "counterexample")),
    *(["independence", "--gen", gen, "--csv", "{tmp}/report.csv"] for gen in ("sample", "minima")),
    ["shifthit", "--csv", "{tmp}/curve.csv"],
    ["selector", "--csv", "{tmp}/table.csv"],
    ["enumerate"],
]
_SMALL_CONFIG = {"config.json": json.dumps({"depth": 20, "replicas": 30})}

# (argv, inputs) of every row, in table order.
ROWS = [
    (["duality", "--sweep", "4", "4"], {}),
    (["duality", "{tmp}/mask.txt", "--out", "{tmp}/out.json"], {"mask.txt": "3 3\n110\n011\n101\n"}),
    (["cantor", "--out", "{tmp}/cantor.json"], {}),
    *(([*argv, "--seed", str(seed)], {}) for seed in SEEDS for argv in _SEEDED),
    # The thin ensemble: every point in (1/2, 1), so the selector meets a cover.
    (["selector", "--gen", "sample-upper", "--expect", "obstruction", "--seed", "1"], {}),
    # distinguish away from its defaults: no sample arm, one sample point,
    # a coarse Cantor set with a small gap, and a fine one with a large gap.
    (["distinguish", "--depth", "0", "--seed", "1"], {}),
    (["distinguish", "--depth", "1", "--replicas", "40", "--seed", "1"], {}),
    (["distinguish", "--gap", "1/4", "--cantor-depth", "3", "--depth", "50", "--seed", "1"], {}),
    (["distinguish", "--gap", "3/4", "--cantor-depth", "12", "--seed", "5"], {}),
    # Fat Cantor sets away from the default: coarse, fine with a large gap,
    # a gap outside (0, 1), and a fine one under the counterexample.
    (["cantor", "--gap", "1/3", "--cantor-depth", "5", "--out", "{tmp}/cantor.json"], {}),
    (["cantor", "--gap", "99/100", "--cantor-depth", "12", "--out", "{tmp}/cantor.json"], {}),
    (["cantor", "--gap", "3/2"], {}),
    (["stationarity", "--gen", "counterexample", "--gap", "3/4", "--cantor-depth", "12", "--seed", "5"], {}),
    # Refusals, one of each kind.
    (["distinguish", "--seed", "1", "--replicas", "100000000"], {}),
    (["selector", "--seed", "1", "--level", "0"], {}),
    (["enumerate", "--seed", "1", "--config", "{tmp}/config.json"],
     {"config.json": json.dumps({"replicas": 2.5})}),
    (["duality", "{tmp}/mask.txt"], {"mask.txt": "2 2\n1x\n01\n"}),
    (["stationarity", "--gen", "bogus", "--seed", "1"], {}),
    (["simulate", "bogus", "--seed", "1"], {}),
    # Too few replicas for the test.
    (["stationarity", "--replicas", "5", "--seed", "1"], {}),
    (["selector", "--replicas", "10", "--seed", "1"], {}),
    (["distinguish", "--replicas", "5", "--depth", "10", "--seed", "1"], {}),
    # Config files: a default, a flag over it, a list for a two-value flag.
    (["distinguish", "--seed", "1", "--config", "{tmp}/config.json"], _SMALL_CONFIG),
    (["distinguish", "--seed", "1", "--depth", "10", "--config", "{tmp}/config.json"], _SMALL_CONFIG),
    (["duality", "--config", "{tmp}/config.json"], {"config.json": json.dumps({"sweep": [2, 3]})}),
]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_row(argv: list[str], inputs: dict[str, str], tmp: Path) -> dict:
    """Run one row in `tmp` and return its record."""
    for name, text in inputs.items():
        (tmp / name).write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        try:
            code = main([a.replace("{tmp}", str(tmp)) for a in argv])
        except SystemExit as exc:
            code = exc.code
    written = [path.removeprefix("{tmp}/") for flag, path in zip(argv, argv[1:]) if flag in OUTPUT_FLAGS]
    files = {name: _sha((tmp / name).read_bytes()) for name in written if (tmp / name).exists()}
    return {
        "argv": argv,
        "inputs": inputs,
        "exit": code,
        "stdout": _sha(out.getvalue().encode()),
        "stderr": _sha(err.getvalue().encode()),
        "files": files,
    }


def test_golden_runs(tmp_path):
    table = json.loads(TABLE.read_text())
    assert [[row["argv"], row["inputs"]] for row in table] == [list(row) for row in ROWS]
    moved = []
    for i, row in enumerate(table):
        tmp = tmp_path / str(i)
        tmp.mkdir()
        got = run_row(row["argv"], row["inputs"], tmp)
        changes = [f"    {key}: {row[key]} -> {got[key]}"
                   for key in ("exit", "stdout", "stderr", "files") if got[key] != row[key]]
        if changes:
            moved.append("  " + " ".join(row["argv"]) + "\n" + "\n".join(changes))
    assert not moved, f"{len(moved)} of {len(table)} golden runs moved:\n" + "\n".join(moved)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as root:
        records = []
        for i, (argv, inputs) in enumerate(ROWS):
            tmp = Path(root, str(i))
            tmp.mkdir()
            records.append(run_row(argv, inputs, tmp))
    TABLE.write_text(json.dumps(records, indent=1) + "\n")
    print(f"wrote {len(records)} rows to {TABLE}", file=sys.stderr)
