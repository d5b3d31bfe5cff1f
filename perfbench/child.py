"""One `dcset` CLI invocation in a fresh interpreter, as the benchmark times it.

    python3 perfbench/child.py <setup|plain|trace> '<json list of CLI args>'

The parent notes the clock before it spawns this process; set-up ends once
`dcset.cli` is imported and `build_parser()` has returned.  Then `main(argv)`
runs with its stdout and stderr captured in memory, optionally under the layer
tracer, and one JSON report goes to the real stdout.  `setup` mode stops after
set-up and reports library versions instead.  Needs `src/` on PYTHONPATH.
"""

import sys
import time

import dcset.cli

dcset.cli.build_parser()
SETUP_END = time.clock_gettime(time.CLOCK_MONOTONIC)

# Imported after the set-up window: these serve the benchmark, not the CLI.
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402


def run(mode: str, argv: list) -> dict:
    report = {"setup_end": SETUP_END}
    if mode == "setup":
        import numpy
        import scipy

        report["versions"] = {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        }
        return report
    tracer = None
    if mode == "trace":
        from layertrace import Tracer

        tracer = Tracer.install()
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = dcset.cli.main(argv)
    except SystemExit as exc:  # argparse rejects bad argv this way
        rc = exc.code
    except Exception:
        rc = None
        err.write(traceback.format_exc())
    report["run_s"] = time.perf_counter() - t0
    report.update(
        rc=rc,
        stdout=out.getvalue(),
        stderr=err.getvalue(),
        maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        trace=tracer.summary() if tracer else None,
    )
    return report


if __name__ == "__main__":
    json.dump(run(sys.argv[1], json.loads(sys.argv[2])), sys.stdout)
