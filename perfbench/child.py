"""One fresh interpreter: set up, run a workload's invocations in turn, report.

Usage (started by run.py):

    python3 child.py MODE WORKLOAD SEED WORKDIR LAUNCH_TIME

MODE is ``setup`` (set up and exit), ``plain`` (one untraced pass) or
``traced`` (one traced pass, then an untraced warm replay in the same
process).  LAUNCH_TIME is the parent's ``time.monotonic()`` just before it
started this interpreter.  The report goes to WORKDIR/report.json and the
tables to WORKDIR/cold (and WORKDIR/warm).
"""

import sys
import time

_LAUNCH = float(sys.argv[5])

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from afpopt import cli  # noqa: E402

import workloads  # noqa: E402


def run_pass(argvs: list[list[str]]) -> tuple[float, list[dict]]:
    """Call cli.run for each argument list; returns (seconds in cli.run, per-call records)."""
    wall = 0.0
    calls = []
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                rc = cli.run(argv)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 1
            except Exception:
                rc = -1
                err.write(traceback.format_exc())
            t1 = time.perf_counter()
        wall += t1 - t0
        calls.append({"rc": rc, "seconds": t1 - t0, "stdout": out.getvalue(), "stderr": err.getvalue()})
    return wall, calls


def main() -> None:
    mode, workload, seed, workdir = sys.argv[1], sys.argv[2], int(sys.argv[3]), Path(sys.argv[4])
    argvs = workloads.build_argv(workload, seed, workdir / "cold")
    report: dict = {"setup_s": time.monotonic() - _LAUNCH}
    if mode != "setup":
        (workdir / "cold").mkdir()
        if mode == "traced":
            import tracing  # only here, so that untraced set-up imports exactly what a user's does

            tracer = tracing.Tracer()
            tracer.install()
            report["wall_s"], report["calls"] = run_pass(argvs)
            tracer.uninstall()
            report["layers"] = tracer.layer_metrics()
            tracer.write_spans(workdir / "spans.csv")
            (workdir / "warm").mkdir()
            report["warm_wall_s"], report["warm_calls"] = run_pass(
                workloads.build_argv(workload, seed, workdir / "warm")
            )
        else:
            report["wall_s"], report["calls"] = run_pass(argvs)
        report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    (workdir / "report.json").write_text(json.dumps(report))


if __name__ == "__main__":
    main()
