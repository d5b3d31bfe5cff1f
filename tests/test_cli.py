"""CLI subcommands: outputs, exit codes, reproducibility."""

import argparse
import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dcset import cli
from dcset.selector import Ensemble
from dcset.cli import build_parser, main
from dcset.errors import WORK_BUDGET


def run(tmp_path, *argv, out_name="out.json"):
    out = tmp_path / out_name
    code = main([*argv, "--out", str(out)])
    return code, out.read_text() if out.exists() else None


class TestDuality:
    def test_sweep_3x3_all_zero(self, tmp_path):
        code, text = run(tmp_path, "duality", "--sweep", "3", "3")
        assert code == 0
        data = json.loads(text)
        assert data["masks"] == 512 and data["all_zero"]

    def test_sweep_with_jobs_matches_serial(self, capsys):
        # --jobs is accepted and ignored.
        results = []
        for jobs in ("1", "2"):
            code = main(["duality", "--sweep", "3", "3", "--jobs", jobs])
            results.append((code, capsys.readouterr().out))
        assert results[0] == results[1]

    def test_sweep_4x4_benchmark_invocation(self, capsys):
        # The benchmark's sweep workload runs exactly this argv.
        assert main(["duality", "--sweep", "4", "4", "--jobs", "1"]) == 0
        assert capsys.readouterr().out == (
            '{\n  "all_zero": true,\n  "cols": 4,\n  "masks": 65536,\n  "max_gap": "0",\n'
            '  "mode": "sweep",\n  "nonzero_gaps": 0,\n  "rows": 4\n}\n'
        )

    def test_sweep_too_large(self, tmp_path):
        assert main(["duality", "--sweep", "5", "4"]) == 2

    @pytest.mark.parametrize(
        "extra",
        [["{mask}"], ["--row-caps", "{caps}", "--col-caps", "{caps}"], ["--col-caps", "{caps}"],
         ["--config", "{conf}"]],
        ids=["mask-file", "caps-flags", "one-caps-flag", "caps-from-config"],
    )
    def test_sweep_refuses_a_mask_file_or_caps(self, tmp_path, capsys, extra):
        # The sweep runs under uniform caps over every mask, so a mask file or
        # caps, from a flag or a config file, would go unused: exit 2.
        paths = {"mask": tmp_path / "m.txt", "caps": tmp_path / "r.csv", "conf": tmp_path / "conf.json"}
        paths["mask"].write_text("2 2\n10\n01\n")
        paths["caps"].write_text("0,1/2\n1,1/2\n")
        paths["conf"].write_text(json.dumps({"row-caps": str(paths["caps"]), "col-caps": str(paths["caps"])}))
        assert main(["duality", "--sweep", "2", "2", *(a.format(**paths) for a in extra)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: --sweep takes no mask file, --row-caps or --col-caps: it sweeps under uniform caps\n"
        )

    def test_diagonal_mask_file(self, tmp_path):
        mask = tmp_path / "diag.txt"
        mask.write_text("2 2\n10\n01\n")
        code, text = run(tmp_path, "duality", str(mask))
        assert code == 0
        data = json.loads(text)
        assert data["coupling_value"] == "1" and data["cover_value"] == "1"
        assert data["gap"] == "0"

    def test_caps_files(self, tmp_path):
        mask = tmp_path / "m.txt"
        mask.write_text("2 2\n11\n11\n")
        (tmp_path / "rows.csv").write_text("0,1/4\n1,3/4\n")
        (tmp_path / "cols.csv").write_text("0,1/2\n1,1/2\n")
        code, text = run(
            tmp_path, "duality", str(mask),
            "--row-caps", str(tmp_path / "rows.csv"),
            "--col-caps", str(tmp_path / "cols.csv"),
        )
        assert code == 0 and json.loads(text)["coupling_value"] == "1"

    def test_malformed_mask_exits_2(self, tmp_path, capsys):
        mask = tmp_path / "bad.txt"
        mask.write_text("2 2\n1x\n01\n")
        assert main(["duality", str(mask)]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_no_mask_no_sweep(self, tmp_path):
        assert main(["duality"]) == 2


class TestSimulate:
    def test_sample_row_count(self, tmp_path):
        code, text = run(tmp_path, "simulate", "sample", "--depth", "100", "--seed", "7", out_name="s.csv")
        assert code == 0
        assert len(text.strip().splitlines()) == 101

    def test_minima_row_count_quarter_law(self, tmp_path):
        # Strict 3-point minima of a 10^4-step walk: ~(K-1)/4 = 2500 times.
        code, text = run(tmp_path, "simulate", "minima", "--steps", "10000", "--seed", "7", out_name="m.csv")
        assert code == 0
        rows = len(text.strip().splitlines()) - 1
        assert 2300 <= rows <= 2700

    def test_unknown_generator(self, capsys):
        # argparse refuses a name outside the generator's choices.
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "bogus", "--seed", "1"])
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert "argument generator: invalid choice: 'bogus'" in err and "Traceback" not in err

    def test_seed_required(self, tmp_path):
        assert main(["simulate", "sample"]) == 2

    def test_reruns_byte_identical(self, tmp_path):
        _, a = run(tmp_path, "simulate", "counterexample", "--depth", "30", "--seed", "3", out_name="a.csv")
        _, b = run(tmp_path, "simulate", "counterexample", "--depth", "30", "--seed", "3", out_name="b.csv")
        assert a == b

    def test_revealing_csv(self, tmp_path):
        code, text = run(tmp_path, "simulate", "revealing", "--depth", "5", "--seed", "2", out_name="r.csv")
        assert code == 0 and text.startswith("k,low,mid,high,event,chosen")

    def test_poisson_members(self, tmp_path):
        code, text = run(tmp_path, "simulate", "poisson", "--seed", "8", out_name="p.csv")
        assert code == 0


class TestDistinguish:
    def test_rejects_and_exits_zero(self, tmp_path):
        code, text = run(
            tmp_path, "distinguish", "--seed", "5", "--depth", "100", "--replicas", "200"
        )
        assert code == 0
        data = json.loads(text)
        assert data["passed"] is False and data["expected_outcome"] == "reject"


    @pytest.mark.parametrize(
        "flags", [["--replicas", "100000000"], ["--depth", "20000000", "--replicas", "10"]],
        ids=["replicas", "depth"],
    )
    def test_work_budget_exits_2(self, capsys, flags):
        # Refused before anything is allocated.
        assert main(["distinguish", "--seed", "1", *flags]) == 2
        assert "exceeds the work budget" in capsys.readouterr().err

    @pytest.mark.parametrize("depth", ["-1", "-2", "-1000000000000"])
    def test_negative_depth_exits_2(self, capsys, depth):
        # Depth 0 runs (a pinned run in TestFrozenSeedOutputs); below it is refused.
        assert main(["distinguish", "--seed", "1", "--depth", depth]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"error: depth must be >= 0, got {depth}" in captured.err


class TestStationarity:
    def test_sample_passes(self, tmp_path):
        code, text = run(
            tmp_path, "stationarity", "--gen", "sample", "--seed", "5",
            "--depth", "80", "--replicas", "150",
        )
        assert code == 0 and json.loads(text)["passed"] is True

    def test_counterexample_expected_fail(self, tmp_path):
        code, text = run(
            tmp_path, "stationarity", "--gen", "counterexample", "--seed", "5",
            "--depth", "120", "--replicas", "150",
        )
        assert code == 0
        data = json.loads(text)
        assert data["passed"] is False and data["expected_outcome"] == "fail"

    def test_wrong_expectation_exits_one(self, tmp_path):
        code, _ = run(
            tmp_path, "stationarity", "--gen", "sample", "--seed", "5",
            "--depth", "80", "--replicas", "150", "--expect", "fail",
        )
        assert code == 1


class TestIndependence:
    def test_sample_passes(self, tmp_path):
        code, text = run(tmp_path, "independence", "--gen", "sample", "--seed", "5", "--replicas", "300")
        assert code == 0 and json.loads(text)["passed"] is True

    def test_minima_maps_to_walk(self, tmp_path):
        code, text = run(
            tmp_path, "independence", "--gen", "minima", "--seed", "5",
            "--replicas", "300", "--steps", "1024",
        )
        assert code == 0 and json.loads(text)["name"] == "fragment-independence-walk"

    @pytest.mark.parametrize("steps", ["0", "-5"])
    @pytest.mark.parametrize("gen", ["sample", "minima"])
    def test_steps_below_one_exits_2(self, tmp_path, capsys, gen, steps):
        # The sample kind does not walk, yet a step count below 1 is still refused.
        code, text = run(tmp_path, "independence", "--gen", gen, "--seed", "1", "--steps", steps)
        assert code == 2 and text is None
        assert capsys.readouterr().err == f"error: steps must be >= 1, got {steps}\n"


class TestShiftHit:
    def test_half_measure_curve(self, tmp_path):
        code, text = run(
            tmp_path, "shifthit", "--seed", "5", "--depths", "64,256", "--shifts", "100",
            "--csv", str(tmp_path / "curve.csv"),
        )
        assert code == 0
        data = json.loads(text)
        assert data["expected"] == [32.0, 128.0]
        assert (tmp_path / "curve.csv").read_text().startswith("depth,")


@pytest.mark.parametrize(
    "argv",
    [
        ["shifthit", "--seed", "1", "--depths", "2000000000"],
        ["shifthit", "--seed", "1", "--grid", "2000000000"],
        ["simulate", "sample", "--seed", "1", "--depth", "2000000000"],
        ["selector", "--seed", "1", "--replicas", "2000000000"],
        ["selector", "--seed", "1", "--gen", "sample-upper", "--replicas", "2000000000"],
        ["stationarity", "--seed", "1", "--replicas", "2000000000"],
        ["stationarity", "--seed", "1", "--replicas", "100000", "--depth", "200"],
        ["stationarity", "--seed", "1", "--gen", "minima", "--replicas", "10000"],
        ["independence", "--seed", "1", "--replicas", "2000000000"],
        ["independence", "--seed", "1", "--gen", "minima", "--replicas", "10000"],
        ["enumerate", "--seed", "1", "--rounds", "2000000000"],
    ],
    ids=["shifthit", "shifthit-grid", "simulate", "selector", "selector-upper", "stationarity",
         "stationarity-depth", "stationarity-minima", "independence", "independence-minima",
         "enumerate"],
)
def test_work_budget_exits_2(capsys, argv):
    # Refused before anything is allocated.
    assert main(argv) == 2
    assert "exceeds the work budget" in capsys.readouterr().err


def test_tiny_gap_exits_2_before_drawing():
    # A gap of 1/10**6 takes about 10**6 draws per gap pick.  Unrefused, the
    # picks run on for minutes, so each call runs in a child under a timeout.
    code = (
        "import contextlib, io\n"
        "from dcset.cli import main\n"
        "for command in (['simulate', 'counterexample'], ['stationarity', '--gen', 'counterexample'],\n"
        "                ['distinguish']):\n"
        "    err = io.StringIO()\n"
        "    with contextlib.redirect_stderr(err):\n"
        "        code = main(command + ['--gap', '1/1000000', '--seed', '1'])\n"
        "    print(code, err.getvalue().splitlines()[-1])\n"
    )
    lines = _fresh_interpreter(code).splitlines()
    assert len(lines) == 3
    for line in lines:
        assert line.startswith("2 error: depth / gap measure = ")
        assert line.endswith(" exceeds the work budget 10000000")


_OVER_BUDGET_DRAWS = [
    (["stationarity", "--gen", "counterexample", "--depth", "50", "--gap", "1/1000"],
     "replicas * depth / gap measure = 20019600"),
    (["stationarity", "--gen", "counterexample", "--depth", "50", "--gap", "1/3000"],
     "replicas * depth / gap measure = 60058800"),
    (["stationarity", "--gen", "counterexample", "--depth", "50", "--gap", "1/10000"],
     "replicas * depth / gap measure = 200195600"),
    (["distinguish", "--depth", "0", "--replicas", "10000000"], "replicas * 24 Poisson draws = 240000000"),
    (["distinguish", "--depth", "0", "--replicas", "1000000"], "replicas * 24 Poisson draws = 24000000"),
]


@pytest.mark.parametrize("argv,refusal", _OVER_BUDGET_DRAWS, ids=[" ".join(argv) for argv, _ in _OVER_BUDGET_DRAWS])
def test_draws_over_budget_exit_2_before_drawing(argv, refusal):
    # Unrefused, the gap picks run for seconds to minutes and the Poisson rows
    # take gigabytes, so each call runs in a capped child under a timeout.
    assert _exit_in_child([*argv, "--seed", "1"]) == f"2 error: {refusal} exceeds the work budget {WORK_BUDGET}"


class TestSelector:
    def test_pass_with_csv(self, tmp_path):
        code, text = run(
            tmp_path, "selector", "--seed", "9", "--depth", "64", "--replicas", "800",
            "--csv", str(tmp_path / "table.csv"),
        )
        assert code == 0
        data = json.loads(text)
        assert data["outcome"] == "pass" and data["membership_exact"] is True
        assert (tmp_path / "table.csv").read_text().startswith("replica,")

    def test_obstruction_expected(self, tmp_path):
        code, text = run(
            tmp_path, "selector", "--gen", "sample-upper", "--seed", "9",
            "--depth", "16", "--replicas", "60", "--expect", "obstruction",
        )
        assert code == 0
        data = json.loads(text)
        assert data["outcome"] == "obstruction"
        assert 0 in data["thin_bins"]

    @pytest.mark.parametrize("gen", ["sample", "sample-upper"])
    def test_depth_times_replicas_over_budget_exits_2(self, capsys, gen):
        # 2001 x 5000 points exceed the work budget; refused before any is drawn.
        argv = ["selector", "--gen", gen, "--depth", "2001", "--replicas", "5000", "--seed", "7"]
        assert main(argv) == 2
        assert "depth * replicas = 10005000 exceeds the work budget" in capsys.readouterr().err

    def test_obstruction_unexpected_exits_one(self, tmp_path):
        code, _ = run(
            tmp_path, "selector", "--gen", "sample-upper", "--seed", "9",
            "--depth", "16", "--replicas", "60",
        )
        assert code == 1

    @pytest.mark.parametrize(
        "rows, message",
        [
            # 0.5 + 0.5 * (1 - 2**-53) rounds to 1.0.
            ([[0.1, 0.2], [0.3, 1 - 2**-53], [0.5, 0.5 + 2**-53]], "must lie in open \\(0,1\\)"),
            # 0.5 and 0.5 + 2**-53 both move to 0.75.
            ([[0.1, 0.2], [0.5, 0.5 + 2**-53], [0.3, 1 - 2**-53]], "must be pairwise distinct"),
        ],
        ids=["rounds-to-one", "repeat"],
    )
    def test_thin_row_refused_by_first_failing_row(self, monkeypatch, capsys, rows, message):
        # Only the first row that rounds badly is built as an Enumeration, so
        # the refusal names what that row breaks.
        def fixed(depth, count, grid, seed):
            return Ensemble._packed(np.array(rows), np.full(len(rows), 2), grid)

        monkeypatch.setattr(cli, "sample_ensemble", fixed)
        argv = ["selector", "--gen", "sample-upper", "--seed", "1", "--depth", "2", "--replicas", "3"]
        assert main(argv) == 2
        assert re.search(message, capsys.readouterr().err)


class TestEnumerate:
    def test_containment_and_steps(self, tmp_path):
        code, text = run(
            tmp_path, "enumerate", "--seed", "11", "--rounds", "3", "--replicas", "300"
        )
        assert code == 0
        data = json.loads(text)
        assert data["containment"] is True
        assert len(data["steps"]) == 3

    @pytest.mark.parametrize(
        "argv, cell, thin",
        [
            (["--seed", "1", "--replicas", "10", "--depth", "8", "--rounds", "2"], 1, 3),
            (["--seed", "2", "--replicas", "200", "--depth", "32", "--rounds", "6"], 97, 4),
        ],
    )
    def test_failing_cell_named_by_coarse_bins(self, capsys, argv, cell, thin):
        # The cell label is the mixed-radix int of the coarse bins of every table so far.
        assert main(["enumerate", *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: no uniform selector in conditioning cell {cell}: "
            f"cover cost 7/8 < 1, thin bins [{thin}]\n"
        )


class TestFrozenSeedOutputs:
    # sha256 of outputs at frozen seeds.  A change that moves one of them
    # changes what users see at those seeds and must say so.
    SELECTOR_STDOUT = "a6b725e74ccdbb6060213786dedc34dc7cff714b4a4faacdcfd2b01acf6f94b8"
    SELECTOR_CSV = "146bed7264cfb90611e8885933da6ec9784ac14321c34f7edb4c3e715b532930"
    ENUMERATE_STDOUT = "11bca3a298b2a3235d054032320c313856683c38585cf324c606307dc99671b5"
    DISTINGUISH_STDOUT = "3b35467893fa1effb32247ff853e74b5c86706c548b4b609e26ddebf72012cab"
    DISTINGUISH_CSV = "649964ea106c08dc04dc6884e5ac0a73d275a9b97342aef17dbc074c024a0b7f"
    # (argv, exit code, stdout sha256) of runs that pin the other code paths.
    PINNED_RUNS = [
        (
            ["distinguish", "--seed", "3", "--depth", "0", "--replicas", "40"],
            1, "20e2f2292be3d119c1e83f5c7a369c2b8220da71037b37ada41002f3b44a81a3",
        ),
        (
            ["distinguish", "--seed", "5", "--gap", "1/4", "--cantor-depth", "6",
             "--depth", "17", "--replicas", "30"],
            0, "457867ecea9dd648f3f2fbc1f528ae940a8f7b22479a1c9ad030bebc17d3d81f",
        ),
        (
            ["stationarity", "--gen", "counterexample", "--seed", "1"],
            0, "9c169102ce5d05a89d41afdb1ca20be7e152dc45c2bcc2756396558630a04182",
        ),
    ]

    def test_selector_seed_1(self, tmp_path, capsys):
        table = tmp_path / "table.csv"
        code = main(
            ["selector", "--seed", "1", "--level", "0.01", "--jobs", "1", "--csv", str(table)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.SELECTOR_STDOUT
        assert hashlib.sha256(table.read_bytes()).hexdigest() == self.SELECTOR_CSV

    def test_enumerate_seed_1(self, capsys):
        code = main(["enumerate", "--seed", "1", "--level", "0.01", "--jobs", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.ENUMERATE_STDOUT

    def test_distinguish_seed_1(self, tmp_path, capsys):
        report = tmp_path / "report.csv"
        code = main(["distinguish", "--seed", "1", "--csv", str(report)])
        out = capsys.readouterr().out
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.DISTINGUISH_STDOUT
        assert hashlib.sha256(report.read_bytes()).hexdigest() == self.DISTINGUISH_CSV

    @pytest.mark.parametrize(
        "argv,code,digest", PINNED_RUNS,
        ids=["distinguish-depth-0", "distinguish-gap-quarter", "stationarity-counterexample"],
    )
    def test_pinned_run(self, capsys, argv, code, digest):
        assert main(argv) == code
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


class TestCantor:
    def test_json_schema(self, tmp_path):
        code, text = run(tmp_path, "cantor", "--gap", "1/2", "--cantor-depth", "1")
        assert code == 0
        assert json.loads(text) == {"depth": 1, "removed": [["3/8", "5/8"]]}


class TestConfig:
    def test_config_supplies_defaults_flags_win(self, tmp_path):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"seed": 123, "depth": 40}))
        code, text = run(
            tmp_path, "simulate", "sample", "--config", str(conf), out_name="c.csv"
        )
        assert code == 0 and len(text.strip().splitlines()) == 41
        for flags in (["--depth", "10"], ["--depth=10"]):
            code, text = run(
                tmp_path, "simulate", "sample", "--config", str(conf), *flags,
                out_name="d.csv",
            )
            assert code == 0 and len(text.strip().splitlines()) == 11
        _, seeded = run(
            tmp_path, "simulate", "sample", "--seed", "7", "--depth", "40", out_name="e.csv"
        )
        for flags in (["--seed", "7"], ["--seed=7"]):
            code, text = run(
                tmp_path, "simulate", "sample", "--config", str(conf), *flags,
                out_name="f.csv",
            )
            assert code == 0 and text == seeded

    def test_bad_config(self, tmp_path):
        conf = tmp_path / "broken.json"
        for text in ("{not json", "[1, 2]"):
            conf.write_text(text)
            assert main(["simulate", "sample", "--config", str(conf)]) == 2

    def test_config_numbers_for_list_flags(self, tmp_path, capsys):
        conf = tmp_path / "conf.json"
        for key, value in (("bins", 3), ("depths", 64)):
            conf.write_text(json.dumps({key: value}))
            flagged = main(["shifthit", "--seed", "1", f"--{key}", str(value)])
            expected = capsys.readouterr().out
            configured = main(["shifthit", "--seed", "1", "--config", str(conf)])
            assert (configured, capsys.readouterr().out) == (flagged, expected)
        conf.write_text(json.dumps({"cuts": 0.5}))
        assert main(["independence", "--seed", "1", "--config", str(conf)]) == 2
        assert "error: " in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv,config,message",
        [
            (["selector", "--seed", "1"], {"replicas": 2.5}, "argument --replicas: invalid int value: '2.5'"),
            (["simulate", "sample"], {"seed": 1.5}, "argument --seed: invalid int value: '1.5'"),
            (["simulate", "sample", "--seed", "1"], {"depth": [1, 2]}, "unrecognized arguments: 2"),
        ],
    )
    def test_config_value_of_wrong_type_exits_2(self, tmp_path, capsys, argv, config, message):
        # Each config value is read as its flag's text, by the flag's own type.
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps(config))
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--config", str(conf)])
        err = capsys.readouterr().err
        assert exc.value.code == 2 and message in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv,flag,choices",
        [
            (["selector", "--seed", "1", "--replicas", "20", "--depth", "16"], "expect",
             "'pass', 'obstruction'"),
            (["stationarity", "--seed", "1", "--replicas", "20", "--depth", "16"], "expect",
             "'pass', 'fail'"),
            (["stationarity", "--seed", "1"], "gen", "'sample', 'minima', 'counterexample'"),
            (["independence", "--seed", "1"], "gen", "'sample', 'minima'"),
            (["selector", "--seed", "1"], "gen", "'sample', 'sample-upper'"),
            (["stationarity", "--seed", "1"], "observable", "'count-half', 'count-cantor'"),
        ],
        ids=["selector", "stationarity", "stationarity-gen", "independence-gen", "selector-gen",
             "stationarity-observable"],
    )
    def test_config_value_outside_choices_exits_2(self, tmp_path, capsys, argv, flag, choices):
        # A config value is checked against the flag's choices, as the flag itself is.
        message = f"error: argument --{flag}: invalid choice: 'bogus' (choose from {choices})"
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({flag: "bogus"}))
        for extra in (["--config", str(conf)], [f"--{flag}", "bogus"]):
            with pytest.raises(SystemExit) as exc:
                main([*argv, *extra])
            err = capsys.readouterr().err
            assert exc.value.code == 2 and message in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv,config",
        [
            (["distinguish", "--seed", "1", "--depth", "20", "--replicas", "30"], {"level": None}),
            (["distinguish", "--seed", "1", "--replicas", "30"], {"depth": None}),
            (["duality"], {"mask": "MASK"}),
            (["duality", "--sweep", "2", "2"], {"command": "cantor", "func": "cantor"}),
            (["cantor"], {"bogus": 1, "row-caps": "r.csv", "sweep": [1, 1]}),
        ],
        ids=["level-null", "depth-null", "mask", "command-func", "unknown"],
    )
    def test_config_keys_that_set_no_flag(self, tmp_path, capsys, argv, config):
        # A null value means absent; a key that names no flag of the subcommand,
        # duality's positional mask included, is ignored.
        mask = tmp_path / "mask.txt"
        mask.write_text("2 2\n10\n01\n")
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({k: str(mask) if v == "MASK" else v for k, v in config.items()}))
        expected = main(argv), capsys.readouterr()
        assert (main([*argv, "--config", str(conf)]), capsys.readouterr()) == expected

    def test_config_command_key_leaves_echo(self, tmp_path, capsys):
        # The echoed config names the subcommand run; depth 3 gives 3 rows.
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"command": "cantor", "depth": 3}))
        assert main(["simulate", "sample", "--seed", "1", "--config", str(conf)]) == 0
        captured = capsys.readouterr()
        assert '"command": "simulate"' in captured.err and '"depth": 3' in captured.err
        assert len(captured.out.splitlines()) == 4

    def test_config_negative_fraction_is_a_value(self, tmp_path, capsys):
        # The value reaches argparse as --gap=-1/2, never as an option of its own.
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"gap": "-1/2"}))
        assert main(["cantor", "--config", str(conf)]) == 2
        assert capsys.readouterr().err == "error: target gap -1/2 outside (0,1)\n"

    def test_config_list_for_multi_value_flag(self, tmp_path, capsys):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"sweep": [2, 3], "level": 0.5}))
        flagged = main(["duality", "--sweep", "2", "3"])
        expected = capsys.readouterr().out
        assert main(["duality", "--config", str(conf)]) == flagged == 0
        assert capsys.readouterr().out == expected
        # A flag on the command line still wins over the config's list.
        assert main(["duality", "--sweep", "1", "1", "--config", str(conf)]) == 0
        assert json.loads(capsys.readouterr().out)["masks"] == 2


def _parse_outcome(parse, argv, capsys):
    """The Namespace `parse(argv)` returns, or the code it exits with, and
    what it printed."""
    try:
        outcome = parse(argv)
    except SystemExit as exc:
        outcome = ("exit", exc.code)
    captured = capsys.readouterr()
    return outcome, captured.out, captured.err


_DEFAULT_ARGV = [
    ["duality"],
    ["simulate", "sample"],
    ["distinguish"],
    ["stationarity"],
    ["independence"],
    ["shifthit"],
    ["selector"],
    ["enumerate"],
    ["cantor"],
]


@pytest.mark.parametrize(
    "argv",
    [
        *_DEFAULT_ARGV,
        ["duality", "mask.txt", "--row-caps", "r.csv", "--col-caps", "c.csv"],
        ["simulate", "sample", "--seed", "1", "2"],  # a stray positional
        ["cantor", "--no-such-flag"],
        ["duality", "--sweep", "2", "x"],  # a bad int
        ["selector", "--gen", "nope"],  # a bad choice
        ["bogus"],
        [],
        ["-h"],
        *([command, "-h"] for command, *_ in _DEFAULT_ARGV),
    ],
    ids=lambda argv: " ".join(argv) or "no arguments",
)
def test_lean_parser_matches_full(capsys, argv):
    # A run builds only its subcommand's parser; what it parses, prints and
    # exits with must be what the full parser gives.
    lean = _parse_outcome(cli._parse, argv, capsys)
    full = _parse_outcome(build_parser().parse_args, argv, capsys)
    assert lean == full


@pytest.mark.parametrize(
    "config",
    ['{"gap": "1/3", "cantor_depth": 3, "seed": 4}', "{not json", '{"cantor_depth": "x"}'],
    ids=["good", "unreadable", "bad value"],
)
def test_config_run_matches_full_parser(tmp_path, monkeypatch, capsys, config):
    conf = tmp_path / "conf.json"
    conf.write_text(config)
    argv = ["cantor", "--gap", "1/4", "--config", str(conf)]
    lean = _parse_outcome(main, argv, capsys)
    full_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda defaults=None, command=None: full_parser(defaults))
    assert _parse_outcome(main, argv, capsys) == lean


README = (Path(__file__).parents[1] / "README.md").read_text()


def _readme_block(section: str, fence: str) -> str:
    """The first fenced block of the given kind after a README heading."""
    return README.split(section, 1)[1].split(f"```{fence}\n", 1)[1].split("```", 1)[0]


def _readme_calls() -> list[list[str]]:
    """The `dcset` lines of README's command-line block, comments dropped."""
    block = _readme_block("## Command line", "sh")
    return [shlex.split(line, comments=True) for line in block.splitlines() if line.startswith("dcset ")]


@pytest.fixture
def readme_dir(tmp_path, monkeypatch):
    """A working directory holding the input files README's calls name."""
    (tmp_path / "mask.txt").write_text("2 2\n11\n01\n")
    (tmp_path / "r.csv").write_text("0,1/2\n1,1/2\n")
    (tmp_path / "c.csv").write_text("0,1/3\n1,2/3\n")
    monkeypatch.chdir(tmp_path)
    return tmp_path


def _readme_budgets() -> list[tuple[str, str]]:
    """(subcommand, product) for each product a `budget:` comment names in
    README's command-line block.  A comment-only line goes on with the comment
    of the call above it, and products are joined by "and"."""
    calls = []  # [subcommand, comment] per call
    for line in _readme_block("## Command line", "sh").splitlines():
        call, _, comment = line.partition("#")
        if call.strip():
            calls.append([shlex.split(call)[1], ""])
        calls[-1][1] += " " + comment.strip()
    return [
        (command, product.strip())
        for command, comment in calls
        for text in comment.split("budget:")[1:]
        for product in text.split(" and ")
    ]


# One call per README budget product, a little over it: the argv and the name
# the refusal gives the product.  OVER_MASK is a header-only mask file that
# test_readme_budget_exits_2 writes.
OVER_MASK = "over-budget-mask.txt"
_BUDGET_CALLS = {
    ("duality", "mask rows x cols"): (["duality", OVER_MASK], "mask rows * cols"),
    ("simulate", "depth"): (["simulate", "sample", "--depth", "10000001"], "depth"),
    ("distinguish", "replicas x (depth + 1)"):
        (["distinguish", "--depth", "0", "--replicas", "10000001"], "replicas * (depth + 1)"),
    ("distinguish", "replicas x 24 Poisson draws"):
        (["distinguish", "--depth", "0", "--replicas", "416667"], "replicas * 24 Poisson draws"),
    ("stationarity", "replicas x depth"): (["stationarity", "--depth", "25001"], "replicas * depth"),
    ("stationarity", "replicas x depth / gap measure"):
        (["stationarity", "--gen", "counterexample", "--depth", "12489"], "replicas * depth / gap measure"),
    ("independence", "replicas x (fragments + walk steps)"):
        (["independence", "--gen", "minima", "--steps", "24999"], "replicas * (fragments + walk steps)"),
    ("shifthit", "shifts x largest depth"): (["shifthit", "--depths", "64,50001"], "shifts * largest depth"),
    ("selector", "replicas x grid"): (["selector", "--replicas", "1250001"], "replicas * bins"),
    ("selector", "depth x replicas"): (["selector", "--depth", "2001"], "depth * replicas"),
    ("enumerate", "rounds x replicas"): (["enumerate", "--rounds", "20001"], "rounds * replicas"),
}


@pytest.mark.parametrize("budget", _readme_budgets(), ids=": ".join)
def test_readme_budget_exits_2(tmp_path, monkeypatch, budget):
    # Every documented budget binds: a call a little over it exits 2 before
    # drawing, naming its product.  A budget with no call fails here.
    assert budget in _BUDGET_CALLS, f"README budget {budget} has no call in _BUDGET_CALLS"
    argv, name = _BUDGET_CALLS[budget]
    (tmp_path / OVER_MASK).write_text("5000 2001\n")  # 10,005,000 cells
    monkeypatch.chdir(tmp_path)
    line = _exit_in_child([*argv, "--seed", "1"])
    refusal = re.fullmatch(rf"2 error: {re.escape(name)} = (\d+) exceeds the work budget {WORK_BUDGET}", line)
    assert refusal, line
    assert WORK_BUDGET < int(refusal[1]) <= WORK_BUDGET * 1.001


def test_readme_names_every_budget_call():
    assert sorted(_readme_budgets()) == sorted(_BUDGET_CALLS)


@pytest.mark.parametrize("call", _readme_calls(), ids=" ".join)
def test_readme_call_parses(readme_dir, call):
    # Every documented call parses, names and all, and runs to exit 0.
    assert main(call[1:]) == 0


def test_readme_artifact_exits_1(capsys):
    # README's known artifact: minima times on the grid k/4096 over-hit the Cantor set.
    assert main(["stationarity", "--gen", "minima", "--observable", "count-cantor", "--seed", "1"]) == 1
    assert json.loads(capsys.readouterr().out)["passed"] is False


def test_readme_quickstart_prints_true(capsys):
    exec(_readme_block("## Library quickstart", "python"), {})
    assert capsys.readouterr().out == "True\n"


@pytest.mark.parametrize(
    "command,level",
    [
        ("duality", 0.01),
        ("simulate", 0.01),
        ("distinguish", 1e-6),
        ("stationarity", 0.01),
        ("independence", 0.01),
        ("shifthit", 0.01),
        ("selector", 0.01),
        ("enumerate", 0.01),
        ("cantor", 0.01),
    ],
)
def test_level_default_per_subcommand(command, level):
    positional = ["sample"] if command == "simulate" else []
    assert build_parser().parse_args([command, *positional]).level == level


@pytest.mark.parametrize(
    "argv",
    [
        ["cantor", "--gap", "abc"],
        ["cantor", "--gap", "1/0"],
        ["cantor", "--cantor-depth", "17"],
        ["simulate", "poisson", "--seed", "1", "--gap", "0.5.5"],
        ["independence", "--seed", "1", "--cuts", "0,x,1"],
        ["shifthit", "--seed", "1", "--bins", "a"],
        ["shifthit", "--seed", "1", "--depths", "64,x"],
    ],
    ids=" ".join,
)
def test_malformed_flag_exits_2(tmp_path, capsys, argv):
    code, text = run(tmp_path, *argv)
    assert code == 2 and text is None
    assert "\nerror: " in "\n" + capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["distinguish", "--seed", "1", "--replicas", "20", "--depth", "10", "--level", "1.5"],
        ["distinguish", "--seed", "1", "--replicas", "20", "--depth", "10", "--level", "nan"],
        ["distinguish", "--seed", "1", "--replicas", "20", "--depth", "10", "--level", "0"],
        ["selector", "--seed", "1", "--replicas", "200", "--level", "0"],
        ["selector", "--seed", "1", "--replicas", "200", "--level", "-0.1"],
        [
            "selector", "--gen", "sample-upper", "--seed", "9", "--depth", "16",
            "--replicas", "60", "--expect", "obstruction", "--level", "0",
        ],
        ["enumerate", "--seed", "1", "--level", "0"],
        ["duality", "--sweep", "2", "2", "--level", "2"],
        ["simulate", "sample", "--seed", "1", "--level", "nan"],
        ["shifthit", "--seed", "1", "--level", "1"],
        ["cantor", "--level", "-1"],
    ],
    ids=" ".join,
)
def test_level_outside_unit_interval_exits_2(tmp_path, capsys, argv):
    code, text = run(tmp_path, *argv)
    err = capsys.readouterr().err
    assert code == 2 and text is None
    assert "\nerror: " in "\n" + err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["selector", "--seed", "1", "--replicas", "-1"],
        ["enumerate", "--seed", "1", "--replicas", "-3"],
        ["shifthit", "--seed", "1", "--shifts", "-1"],
        ["shifthit", "--seed", "1", "--shifts", "0"],
        ["independence", "--seed", "1", "--replicas", "0"],
        ["distinguish", "--seed", "1", "--replicas", "-2"],
        ["stationarity", "--gen", "sample", "--seed", "1", "--replicas", "-5"],
    ],
    ids=" ".join,
)
def test_size_below_one_exits_2(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "\nerror: " in "\n" + captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize(
    "argv,message",
    [
        (["stationarity", "--seed", "1", "--replicas", "5"], "needs >= 10 replicas per arm"),
        (["selector", "--seed", "1", "--replicas", "10"], "KS needs >= 20 values"),
        (["distinguish", "--seed", "1", "--replicas", "5", "--depth", "10"],
         "two-sample test needs >= 10 values per arm"),
        # A contingency table too sparse for the chi-square test.
        (["independence", "--seed", "1", "--replicas", "10"], "minimum expected cell count 0.4 below 5"),
        (["independence", "--gen", "minima", "--steps", "3", "--seed", "1"],
         "minimum expected cell count 0 below 5"),
    ],
    ids=["stationarity", "selector", "distinguish", "independence", "independence-minima"],
)
def test_too_few_replicas_exits_2(capsys, argv, message):
    # The flags alone decide these refusals, so they are usage errors.
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err and "Traceback" not in captured.err


def test_level_checked_before_dispatch(tmp_path, monkeypatch, capsys):
    # A bad level, from a flag or a config file, stops the run before any work.
    def no_work(*args, **kwargs):
        raise AssertionError("the subcommand ran")

    monkeypatch.setattr(cli, "sample_ensemble", no_work)
    monkeypatch.setattr(cli, "sweep", no_work)
    assert main(["enumerate", "--seed", "1", "--level", "0"]) == 2
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"level": 1.5}))
    assert main(["duality", "--sweep", "2", "2", "--config", str(conf)]) == 2
    assert capsys.readouterr().err.count("error: level must lie strictly") == 2


def _fresh_interpreter(code: str) -> str:
    """What `code` prints in a new interpreter that imports dcset from this tree."""
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=60
    )
    return done.stdout.strip()


def _exit_in_child(argv: list[str]) -> str:
    """"<exit code> <last stderr line>" of `main(argv)` in a fresh interpreter
    whose address space is capped at 3 GiB, so a run that draws instead of
    refusing fails rather than swapping."""
    code = (
        "import contextlib, io, resource\n"
        "from dcset.cli import main\n"
        "resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))\n"
        "err = io.StringIO()\n"
        "with contextlib.redirect_stderr(err):\n"
        f"    code = main({argv!r})\n"
        "print(code, (err.getvalue().splitlines() or [''])[-1])\n"
    )
    return _fresh_interpreter(code).splitlines()[-1]


class TestStartup:
    """Start-up stays at the Python-plus-numpy floor, and runs load nothing
    they do not use.

    Default runs read their chi-square thresholds from a frozen table, so no
    command imports scipy.  The record classes are slotted classes with a
    hand-written `__init__`, so `dataclasses` never loads.  Distinct values and
    medians are found by sorting, since numpy's plain `np.unique` and
    `np.median` import `numpy.ma` on first use; no run loads it.  Runs that
    draw only through `Seed.uniforms` never load numpy.random; `simulate` and
    the minima runs, which draw through `Seed.stream`, do.
    """

    def test_run_builds_only_its_subparser(self, monkeypatch, capsys):
        built = []
        add_parser = argparse._SubParsersAction.add_parser

        def spy(self, name, **kwargs):
            built.append(name)
            return add_parser(self, name, **kwargs)

        monkeypatch.setattr(argparse._SubParsersAction, "add_parser", spy)
        assert main(["duality", "--sweep", "2", "2"]) == 0
        assert built == ["duality"]
        built.clear()
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0 and len(built) == 9
        listing = capsys.readouterr().out.split("positional arguments:")[1]
        assert all(f"\n    {name} " in listing for name in built)

    def test_parser_leaves_scipy_out(self):
        code = (
            "import sys, dcset.cli; dcset.cli.build_parser(); "
            "print(sorted(m for m in sys.modules if m.partition('.')[0] in ('scipy', 'dataclasses')"
            " or m.split('.')[:2] in (['numpy', 'ma'], ['numpy', 'random'])))"
        )
        assert _fresh_interpreter(code) == "[]"

    @pytest.mark.parametrize(
        "argv",
        [
            ["duality", "--sweep", "2", "2"],
            ["distinguish", "--seed", "1", "--replicas", "40", "--depth", "50"],
            ["stationarity", "--gen", "sample", "--seed", "1", "--replicas", "40", "--depth", "50"],
            ["stationarity", "--gen", "counterexample", "--seed", "1", "--replicas", "40", "--depth", "50"],
            ["independence", "--gen", "sample", "--seed", "1", "--replicas", "100"],
            ["shifthit", "--seed", "1", "--shifts", "20", "--depths", "64,256"],
            ["selector", "--seed", "1", "--replicas", "200", "--depth", "64"],
            ["enumerate", "--seed", "1", "--replicas", "40", "--rounds", "3"],
        ],
        ids=" ".join,
    )
    def test_run_imports_no_scipy_or_numpy_ma(self, argv):
        code = "\n".join([
            "import contextlib, io, sys",
            "import dcset.cli",
            "dcset.cli.build_parser()",
            "before = set(sys.modules)",
            "with contextlib.redirect_stdout(io.StringIO()):",
            f"    rc = dcset.cli.main({argv!r})",
            "new = set(sys.modules) - before",
            "print(rc, sorted(m for m in new if m.partition('.')[0] == 'scipy'",
            "                 or m.split('.')[:2] in (['numpy', 'ma'], ['numpy', 'random'])))",
        ])
        assert _fresh_interpreter(code) == "0 []"

    def test_no_default_run_loads_numpy_ma(self):
        # Every subcommand at its default flags, one after another in one
        # interpreter; numpy.ma, once loaded, would stay in sys.modules.
        runs = [
            ["duality", "--sweep", "4", "4"],
            *(["simulate", gen, "--seed", "1"] for gen in cli.GENERATORS),
            ["distinguish", "--seed", "1"],
            *(["stationarity", "--gen", gen, "--seed", "1"]
              for gen in ("sample", "counterexample", "minima")),
            *(["independence", "--gen", gen, "--seed", "1"] for gen in ("sample", "minima")),
            ["shifthit", "--seed", "1"],
            ["selector", "--seed", "1"],
            ["enumerate", "--seed", "1"],
            ["cantor"],
        ]
        code = "\n".join([
            "import contextlib, io, sys",
            "import dcset.cli",
            "dcset.cli.build_parser()",
            "faults = []",
            f"for argv in {runs!r}:",
            "    with contextlib.redirect_stdout(io.StringIO()):",
            "        rc = dcset.cli.main(argv)",
            "    if rc != 0 or 'numpy.ma' in sys.modules:",
            "        faults.append((' '.join(argv), rc, 'numpy.ma' in sys.modules))",
            "print(faults)",
        ])
        assert _fresh_interpreter(code) == "[]"
