"""Command-line front end: reproducible experiments with JSON/CSV outputs.

Every subcommand is a pure function of its flags (plus an optional JSON config
file supplying defaults); all randomness flows from --seed.  Exit codes:
0 = expectations met (including expected-fail modes), 1 = an asserted property
was violated, 2 = usage or parse errors, too few replicas or too sparse a table
for a test, or a work budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial
from pathlib import Path


from . import formats
from .duality import MarginalCaps, solve, sweep
from .errors import (
    BadParameter,
    DcsetError,
    InsufficientDensity,
    ParseError,
    SparseTable,
    SweepTooLarge,
    TooFewSamples,
    check_budget,
)
from .generators import (
    Enumeration,
    Seed,
    _counterexample_rows,
    _distinct_rows,
    _minima_rows,
    _sample_rows,
    brownian_minima,
    counterexample_mix,
    poisson_on_cantor,
    revealing_selectors,
    sample_uniform,
)
from .grid_measure import BinSet, UnitGrid, fat_cantor_build
from .selector import (
    Ensemble,
    interleave_containment,
    interleaved_enumeration,
    sample_ensemble,
    uniform_selector,
    verify_selector,
)
from .stats import (
    _check_level,
    chi_square_independence,
    distinguish_counterexample,
    fragment_independence_test,
    ks_uniform,
    shift_hit_curve,
    stationarity_test,
)

GENERATORS = ("sample", "minima", "poisson", "counterexample", "revealing")


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _emit_report(record, args, to_csv=None, **extra) -> None:
    """Write the record's JSON, with `extra` keys added, to --out and its CSV,
    by `to_csv` or else `formats.report_to_csv`, to --csv.  The writer is
    looked up when called, so a wrapper installed on `formats` sees it."""
    _emit(formats.dump_json({**formats.report_to_json(record), **extra}), args.out)
    if args.csv:
        Path(args.csv).write_text((to_csv or formats.report_to_csv)(record))


def _echo_config(args: argparse.Namespace) -> None:
    config = {
        k: v for k, v in sorted(vars(args).items()) if k != "func" and v is not None
    }
    print(f"# config: {json.dumps(config, default=str, sort_keys=True)}", file=sys.stderr)


def _need_seed(args) -> int:
    if args.seed is None:
        raise BadParameter("--seed is required for stochastic subcommands")
    return args.seed


def _cantor_of(args):
    return fat_cantor_build(formats.parse_fraction(args.gap), args.cantor_depth)


def _int_list(text: str, flag: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise ParseError(f"{flag} needs comma-separated integers, got {text!r}") from None


def cmd_duality(args) -> int:
    if args.sweep:
        rows, cols = args.sweep
        count, nonzero, worst = sweep(rows, cols)
        report = {
            "mode": "sweep",
            "rows": rows,
            "cols": cols,
            "masks": count,
            "nonzero_gaps": nonzero,
            "max_gap": str(worst),
            "all_zero": nonzero == 0,
        }
        _emit(formats.dump_json(report), args.out)
        return 0 if nonzero == 0 else 1

    if not args.mask:
        raise BadParameter("give a mask file or --sweep n m")
    mask = formats.parse_mask(Path(args.mask).read_text())
    caps = None
    if args.row_caps or args.col_caps:
        if not (args.row_caps and args.col_caps):
            raise BadParameter("--row-caps and --col-caps must be given together")
        caps = MarginalCaps(
            formats.parse_caps_side(Path(args.row_caps).read_text(), mask.rows),
            formats.parse_caps_side(Path(args.col_caps).read_text(), mask.cols),
        )
    cert = solve(mask, caps)
    report = {
        "mode": "single",
        "rows": mask.rows,
        "cols": mask.cols,
        "coupling_value": str(cert.value),
        "cover_value": str(cert.cover_cost),
        "gap": str(cert.gap),
        "coupling": formats.coupling_to_json(cert.coupling()),
        "cover": formats.cover_to_json(cert.cover, cert.caps),
    }
    _emit(formats.dump_json(report), args.out)
    return 0 if cert.gap == 0 else 1


def cmd_simulate(args) -> int:
    seed = _need_seed(args)
    name = args.generator
    _echo_config(args)
    if name == "sample":
        text = formats.enumeration_to_csv(sample_uniform(args.depth, Seed(seed)))
    elif name == "minima":
        text = formats.enumeration_to_csv(brownian_minima(args.steps, Seed(seed)))
    elif name == "poisson":
        points = poisson_on_cantor(_cantor_of(args), Seed(seed))
        enum = Enumeration(points, depth=len(points), provenance="poisson")
        text = formats.enumeration_to_csv(enum)
    elif name == "counterexample":
        text = formats.enumeration_to_csv(
            counterexample_mix(args.depth, _cantor_of(args), Seed(seed))
        )
    else:
        text = formats.revealing_to_csv(revealing_selectors(args.depth, Seed(seed)))
    _emit(text, args.out)
    return 0


def cmd_distinguish(args) -> int:
    seed = _need_seed(args)
    report = distinguish_counterexample(_cantor_of(args), args.depth, args.replicas, seed, level=args.level)
    _emit_report(report, args, expected_outcome="reject")
    return 0 if report.rejected else 1


_OBSERVABLES = ("count-half", "count-cantor")


def cmd_stationarity(args) -> int:
    seed = _need_seed(args)
    depth = args.steps if args.gen == "minima" else args.depth
    check_budget("replicas * depth", args.replicas * depth)
    cantor = _cantor_of(args)
    if args.gen == "sample":
        rows = partial(_sample_rows, args.depth)
    elif args.gen == "minima":
        rows = partial(_minima_rows, args.steps)
    else:
        rows = partial(_counterexample_rows, args.depth, cantor)
    observable_name = args.observable or (
        "count-cantor" if args.gen == "counterexample" else "count-half"
    )
    if observable_name == "count-half":
        region = BinSet(UnitGrid(2), frozenset({0}))
    else:
        region = cantor
    expect = args.expect or ("fail" if args.gen == "counterexample" else "pass")
    report = stationarity_test(rows, region, args.replicas, seed, level=args.level)
    _emit_report(report, args, expected_outcome=expect, observable=observable_name)
    return 0 if report.passed == (expect == "pass") else 1


def cmd_independence(args) -> int:
    seed = _need_seed(args)
    kind = {"sample": "sample", "minima": "walk"}[args.gen]
    cuts = [float(formats.parse_fraction(c)) for c in args.cuts.split(",")]
    report = fragment_independence_test(
        kind, cuts, args.replicas, seed, level=args.level, steps=args.steps
    )
    _emit_report(report, args)
    return 0 if report.passed else 1


def cmd_shifthit(args) -> int:
    seed = _need_seed(args)
    grid = UnitGrid(args.grid)
    check_budget("grid", args.grid)
    if args.bins:
        members = frozenset(_int_list(args.bins, "--bins"))
    else:
        members = frozenset(range(0, grid.n, 2))
    region = BinSet(grid, members)
    depths = _int_list(args.depths, "--depths")
    curve = shift_hit_curve(region, depths, args.shifts, seed)
    _emit_report(curve, args, to_csv=formats.curve_to_csv)
    means_ok = all(
        abs(mean - exp) <= 0.1 * exp for mean, exp in zip(curve.means, curve.expected)
    )
    growing = all(a < b for a, b in zip(curve.means, curve.means[1:]))
    return 0 if (means_ok and growing and curve.medians_nondecreasing) else 1


def cmd_selector(args) -> int:
    seed = _need_seed(args)
    grid = UnitGrid(args.grid)
    ensemble = sample_ensemble(args.depth, args.replicas, grid, seed)
    if args.gen == "sample-upper":
        # A deliberately thin ensemble: all points in (1/2, 1), lower bins empty.
        # Rounding can repeat a point or reach 1.0; the first such row is
        # refused by Enumeration, with its message.
        upper = 0.5 + 0.5 * ensemble.points
        bad = ~_distinct_rows(upper)
        if bad.any():
            Enumeration(upper[bad.argmax()], depth=args.depth, provenance="sample-upper")
        ensemble = Ensemble._packed(upper, ensemble.lengths, grid)
    expect = args.expect or "pass"
    try:
        table = uniform_selector(ensemble, Seed(seed))
    except InsufficientDensity as exc:
        payload = {
            "outcome": "obstruction",
            "cover": {"U_size": len(exc.cover.U), "V": sorted(exc.cover.V)},
            "cover_cost": str(exc.cost),
            "thin_bins": sorted(exc.thin_bins),
        }
        _emit(formats.dump_json(payload), args.out)
        return 0 if expect == "obstruction" else 1
    report = ks_uniform(table.values, level=args.level, seed=seed)
    sound = verify_selector(ensemble, table)
    if args.csv:
        Path(args.csv).write_text(formats.selector_to_csv(table))
    payload = formats.report_to_json(report)
    payload["outcome"] = "pass" if (report.passed and sound) else "fail"
    payload["membership_exact"] = sound
    _emit(formats.dump_json(payload), args.out)
    return 0 if (payload["outcome"] == expect) else 1


def cmd_enumerate(args) -> int:
    seed = _need_seed(args)
    check_budget("rounds * replicas", args.rounds * args.replicas)
    ensemble = sample_ensemble(args.depth, args.replicas, UnitGrid(args.grid), seed)
    tables = interleaved_enumeration(ensemble, args.rounds, UnitGrid(args.coarse), Seed(seed))
    contained = interleave_containment(ensemble, tables)
    all_contained = bool(contained.all())
    by_round = [bool(contained[:, j].all()) for j in range(contained.shape[1])]
    first_bins = ensemble.grid.bins(tables[0].values)
    steps = []
    for j in range(1, args.rounds + 1):
        even = tables[2 * j - 1]
        entry = {"table": 2 * j, "ks_statistic": None, "chi2_statistic": None}
        ks = ks_uniform(even.values, level=args.level, seed=seed)
        entry["ks_statistic"] = ks.statistic
        entry["ks_passed"] = ks.passed
        try:
            chi = chi_square_independence(
                first_bins, ensemble.grid.bins(even.values),
                ensemble.grid.n, ensemble.grid.n, args.level, seed,
            )
            entry["chi2_statistic"] = chi.statistic
            entry["chi2_passed"] = chi.passed
        except DcsetError as exc:
            entry["chi2_skipped"] = str(exc)
        steps.append(entry)
    payload = {
        "rounds": args.rounds,
        "replicas": args.replicas,
        "containment": all_contained,
        "containment_by_round": by_round,
        "steps": steps,
    }
    _emit(formats.dump_json(payload), args.out)
    return 0 if all_contained else 1


def cmd_cantor(args) -> int:
    cantor = _cantor_of(args)
    _emit(formats.dump_json(formats.report_to_json(cantor)), args.out)
    print(
        f"# fat Cantor: depth {cantor.depth}, gap {cantor.gap_measure}, "
        f"measure {cantor.measure}",
        file=sys.stderr,
    )
    return 0


def _common_flags(level: float) -> argparse.ArgumentParser:
    # A parent parser's actions are shared by every subcommand built from it,
    # so a command with its own --level default gets its own parent.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None, help="root seed (required for stochastic commands)")
    common.add_argument("--jobs", type=int, default=1, help="accepted and ignored")
    common.add_argument("--out", default=None, help="output path (default stdout)")
    common.add_argument("--level", type=float, default=level, help="significance level (default %(default)s)")
    common.add_argument("--config", default=None, help="JSON file with flag defaults")
    return common


def build_parser(defaults: dict | None = None) -> argparse.ArgumentParser:
    """The dcset parser; `defaults` overrides flag defaults of every subcommand."""
    common = _common_flags(level=0.01)

    cantorish = argparse.ArgumentParser(add_help=False)
    cantorish.add_argument("--gap", default="1/2", help="fat-Cantor target gap p/q")
    cantorish.add_argument("--cantor-depth", type=int, default=10, help="fat-Cantor construction depth")

    parser = argparse.ArgumentParser(
        prog="dcset",
        description="Exact marginal/cover duality, random-set simulators, selectors and tests.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("duality", parents=[common], help="solve one mask or sweep all masks")
    p.add_argument("mask", nargs="?", help="mask file: 'n m' then rows of 0/1")
    p.add_argument("--sweep", nargs=2, type=int, metavar=("N", "M"), help="sweep all masks up to n*m <= 16")
    p.add_argument("--row-caps", help="CSV 'index,p/q' for row budgets")
    p.add_argument("--col-caps", help="CSV 'index,p/q' for column budgets")
    p.set_defaults(func=cmd_duality)

    p = sub.add_parser("simulate", parents=[common, cantorish], help="write one truncated enumeration")
    p.add_argument("generator", choices=GENERATORS)
    p.add_argument("--depth", type=int, default=100)
    p.add_argument("--steps", type=int, default=10000)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser(
        "distinguish", parents=[_common_flags(level=1e-6), cantorish], help="tell the counterexample from the sample"
    )
    p.add_argument("--depth", type=int, default=200)
    p.add_argument("--replicas", type=int, default=500)
    p.add_argument("--csv", default=None, help="also write the report as flat CSV here")
    p.set_defaults(func=cmd_distinguish)

    p = sub.add_parser("stationarity", parents=[common, cantorish], help="two-sample shift-invariance test")
    p.add_argument("--gen", choices=("sample", "minima", "counterexample"), default="sample")
    p.add_argument("--observable", choices=_OBSERVABLES, default=None,
                   help="counted region (default: count-cantor for counterexample, else count-half)")
    p.add_argument("--expect", choices=("pass", "fail"), default=None,
                   help="expected outcome (default: fail for counterexample, else pass)")
    p.add_argument("--depth", type=int, default=200)
    p.add_argument("--steps", type=int, default=4096)
    p.add_argument("--replicas", type=int, default=400)
    p.add_argument("--csv", default=None, help="also write the report as flat CSV here")
    p.set_defaults(func=cmd_stationarity)

    p = sub.add_parser("independence", parents=[common], help="fragment independence test")
    p.add_argument("--gen", choices=("sample", "minima"), default="sample")
    p.add_argument("--cuts", default="0,1/2,1", help="comma-separated cut points")
    p.add_argument("--replicas", type=int, default=400)
    p.add_argument("--steps", type=int, default=2048)
    p.add_argument("--csv", default=None, help="also write the report as flat CSV here")
    p.set_defaults(func=cmd_independence)

    p = sub.add_parser("shifthit", parents=[common], help="hit counts of shifted dyadic prefixes")
    p.add_argument("--grid", type=int, default=8)
    p.add_argument("--bins", default=None, help="comma-separated bin indices (default every other bin)")
    p.add_argument("--depths", default="64,256,1024")
    p.add_argument("--shifts", type=int, default=200)
    p.add_argument("--csv", default=None, help="also write the curve as CSV here")
    p.set_defaults(func=cmd_shifthit)

    p = sub.add_parser("selector", parents=[common], help="uniform selector over a sample ensemble")
    p.add_argument("--gen", choices=("sample", "sample-upper"), default="sample",
                   help="sample-upper is thin, for obstructions")
    p.add_argument("--depth", type=int, default=64)
    p.add_argument("--grid", type=int, default=8)
    p.add_argument("--replicas", type=int, default=5000)
    p.add_argument("--expect", choices=("pass", "obstruction"), default=None)
    p.add_argument("--csv", default=None, help="write the selector table as CSV here")
    p.set_defaults(func=cmd_selector)

    p = sub.add_parser("enumerate", parents=[common], help="interleaved enumeration with containment check")
    p.add_argument("--rounds", type=int, default=10)
    # Conditioning cells shrink to single replicas, so every replica must
    # cover every bin: depth far above grid*log(grid) keeps that sure.
    p.add_argument("--depth", type=int, default=256)
    p.add_argument("--grid", type=int, default=8)
    p.add_argument("--coarse", type=int, default=2)
    p.add_argument("--replicas", type=int, default=500)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("cantor", parents=[common, cantorish], help="build and serialize a fat Cantor set")
    p.set_defaults(func=cmd_cantor)

    for p in sub.choices.values():
        p.set_defaults(**(defaults or {}))
    return parser


# Keys of a config file that name no flag: the subcommand, its handler and
# duality's positional mask file.
_NOT_FLAGS = {"command", "func", "mask"}
_ABSENT = object()


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = build_parser().parse_args(argv)
    # A config file supplies flag defaults: each key that names a flag of the
    # chosen subcommand, and that no flag on the command line gave in any
    # spelling, is appended to argv as that flag, so argparse reads its value
    # as it reads the flag.  Null values and other keys are ignored.
    if args.config:
        try:
            config = json.loads(Path(args.config).read_text())
            if not isinstance(config, dict):
                raise ValueError("expected a JSON object")
        except (OSError, ValueError) as exc:
            print(f"error: bad --config: {exc}", file=sys.stderr)
            return 2
        given = build_parser(dict.fromkeys(vars(args), _ABSENT)).parse_args(argv)
        for key, value in config.items():
            dest = key.replace("-", "_")
            if value is None or dest in _NOT_FLAGS or getattr(given, dest, None) is not _ABSENT:
                continue
            flag = "--" + dest.replace("_", "-")
            # `--flag=value` keeps a value such as -1/2 from reading as an option.
            argv += [flag, *map(str, value)] if isinstance(value, list) else [f"{flag}={value}"]
        args = build_parser().parse_args(argv)
    try:
        # Every subcommand takes --level, so one check covers flags and config.
        _check_level(args.level)
        return args.func(args)
    except (ParseError, SweepTooLarge, TooFewSamples, SparseTable, BadParameter, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DcsetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
