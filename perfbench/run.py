"""afpopt benchmark: cold-process CLI workloads, timed end to end and per layer.

    python3 perfbench/run.py --workload mc_interval --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table

Run from the root of a source checkout (the package is imported from
``src/``).  One client runs a closed loop: every pass over a workload is a
fresh interpreter (child.py) that imports afpopt, builds the workload's
argument lists and calls ``afpopt.cli.run`` on each in turn, so every module
cache starts cold, as it does for a CLI user.  BLAS and OpenMP threads are
capped at the number of usable cores.

``--trace 0`` measures for ``--seconds``: a few set-up-only launches, then at
least MIN_PASSES passes, and reports medians of setup_s, wall_s and
peak_rss_mb.  ``--trace 1`` runs one untraced pass and one traced pass
followed by a warm replay in the same interpreter, and reports the layer
metrics of tracing.py.  Every table row is checked against references.json
(check.py).  The last line of stdout is one JSON object; a result file with
the environment goes to perfbench/results/.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import check
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_LAUNCHES = 3
MIN_PASSES = 2
CHILD_TIMEOUT_S = 120.0
# no pass starts later than this, so a run ends well inside 180 s
LAST_START_S = 150.0
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


class ChildFailed(RuntimeError):
    """A benchmark interpreter crashed, timed out or wrote no report."""


RATIO_UNITS = {"simulate.us_per_trial_block": "us", "codebook.rvq_ns_per_entry": "ns",
               "finite.ms_per_ntx2_distinct": "ms"}


def layer_unit(name: str) -> str:
    return RATIO_UNITS.get(name) or ("s" if name.endswith(("_s", ".s")) else "count")


def environment(seed: int, nproc: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": nproc,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "blas_thread_cap": nproc,
        "git_commit": git_commit(),
        "seed": seed,
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git (which could climb out of it)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


class Launcher:
    """Starts child.py interpreters one at a time and collects their reports."""

    def __init__(self, workload: str, seed: int, nproc: int, scratch: Path) -> None:
        self.workload, self.seed, self.scratch = workload, seed, scratch
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        self.env.update({var: str(nproc) for var in THREAD_VARS})

    def launch(self, mode: str) -> tuple[dict, Path]:
        workdir = Path(tempfile.mkdtemp(dir=self.scratch))
        cmd = [sys.executable, str(HERE / "child.py"), mode, self.workload, str(self.seed), str(workdir)]
        cmd.append(repr(time.monotonic()))  # last, so setup_s starts as close to the launch as possible
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=ROOT, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired as exc:
            raise ChildFailed(f"{mode} pass exceeded {CHILD_TIMEOUT_S:.0f} s") from exc
        report = workdir / "report.json"
        if proc.returncode != 0 or not report.is_file():
            raise ChildFailed(f"{mode} interpreter exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        return json.loads(report.read_text()), workdir


def checked(launcher: Launcher, mode: str, refs: dict, outcome: check.Outcome) -> tuple[dict, Path]:
    """Launch one pass, check its tables and add the result to ``outcome``.

    The report gains ``mismatch_rows``, the budget-mismatch count of its cold pass.
    """
    report, workdir = launcher.launch(mode)
    result = check.check_pass(launcher.workload, launcher.seed, report["calls"], workdir / "cold", refs)
    report["mismatch_rows"] = result.mismatch_rows
    if mode == "traced":
        result.add(check.check_pass(launcher.workload, launcher.seed, report["warm_calls"], workdir / "warm", refs))
    outcome.add(result)
    return report, workdir


def measure(launcher: Launcher, seconds: float, refs: dict, outcome: check.Outcome) -> tuple[dict, dict]:
    """--trace 0: set-up launches plus whole passes for ``seconds``; medians."""
    launcher.launch("setup")  # warms the page cache and bytecode; not measured
    start = time.monotonic()
    setups = [launcher.launch("setup")[0]["setup_s"] for _ in range(SETUP_LAUNCHES)]
    passes, durations = [], []
    while True:
        t0 = time.monotonic()
        report, workdir = checked(launcher, "plain", refs, outcome)
        shutil.rmtree(workdir)
        durations.append(time.monotonic() - t0)
        passes.append({k: report[k] for k in ("setup_s", "wall_s", "peak_rss_mb", "mismatch_rows")}
                      | {"invocation_s": [c["seconds"] for c in report["calls"]]})
        elapsed = time.monotonic() - start
        next_end = elapsed + statistics.median(durations)
        if len(passes) >= MIN_PASSES and (next_end > seconds or elapsed > LAST_START_S):
            break
    metrics = {
        "setup_s": statistics.median(setups + [p["setup_s"] for p in passes]),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    return metrics, {"setup_only_s": setups, "passes": passes, "mismatch_rows": passes[-1]["mismatch_rows"]}


def trace(launcher: Launcher, refs: dict, outcome: check.Outcome) -> tuple[dict, dict]:
    """--trace 1: untraced pass, traced pass, warm replay; per-layer metrics."""
    launcher.launch("setup")  # as in measure(), so both passes see the same caches
    plain, workdir = checked(launcher, "plain", refs, outcome)
    shutil.rmtree(workdir)
    traced, workdir = checked(launcher, "traced", refs, outcome)
    spans = workloads.RESULTS / f"spans_{launcher.workload}_seed{launcher.seed}.csv"
    shutil.move(workdir / "spans.csv", spans)
    shutil.rmtree(workdir)
    metrics = dict(traced["layers"])
    metrics["simulate.analytic_budget_mismatch_rows"] = traced["mismatch_rows"]
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - plain["wall_s"]
    metrics["trace.warm_wall_s"] = traced["warm_wall_s"]
    return metrics, {"untraced_wall_s": plain["wall_s"], "traced_wall_s": traced["wall_s"],
                     "mismatch_rows": traced["mismatch_rows"], "spans_file": str(spans.relative_to(ROOT))}


def static_trial_blocks(workload: str, refs: dict) -> int:
    """Sum of trials x K over the workload's Monte Carlo rows."""
    total = 0
    for inv in workloads.WORKLOADS[workload]:
        n = workloads.trials(inv)
        for row in refs["invocations"][inv]["rows"]:
            if n is not None and row["kind"] != "exact":
                total += n * int(row["columns"][4])
    return total


def run_workload(workload: str, seed: int, seconds: float, traced: bool, nproc: int,
                 refs: dict) -> tuple[check.Outcome, dict]:
    outcome = check.Outcome()
    workloads.RESULTS.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="work-", dir=workloads.RESULTS))
    try:
        launcher = Launcher(workload, seed, nproc, scratch)
        if traced:
            metrics, detail = trace(launcher, refs, outcome)
        else:
            metrics, detail = measure(launcher, seconds, refs, outcome)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    blocks = static_trial_blocks(workload, refs)
    record = {
        "workload": workload, "seconds": seconds, "trace": int(traced),
        "environment": environment(seed, nproc)
        | {"trials_per_cell": {inv: workloads.trials(inv) for inv in workloads.WORKLOADS[workload]}},
        "metrics": metrics,
        "error_rate": outcome.failed / outcome.attempted,
        "trial_blocks": blocks,
        "attempted_rows": outcome.attempted, "failed_rows": outcome.failed, "problems": outcome.problems,
        "detail": detail,
    }
    out = workloads.RESULTS / f"BENCH_{workload}_seed{seed}_trace{int(traced)}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    return outcome, record


def print_summary(workload: str, record: dict, traced: bool) -> None:
    m = record["metrics"]
    for name, value in m.items():
        unit = layer_unit(name) if traced else END_TO_END_UNITS[name]
        print(f"{workload:12s} {name:40s} {value:14.6g} {unit}")
    if not traced:
        print(f"{workload:12s} {'error_rate':40s} {record['error_rate']:14.6g} failed/attempted rows")
        if record["trial_blocks"]:
            rate = record["trial_blocks"] / m["wall_s"]
            print(f"{workload:12s} {'trial_blocks_per_s':40s} {rate:14.6g} 1/s "
                  f"({record['trial_blocks']} trial blocks per pass)")
        print(f"{workload:12s} {'simulate.analytic_budget_mismatch_rows':40s} "
              f"{record['detail']['mismatch_rows']:14d} count (reported, not failures)")
    else:
        layer_sum = sum(m[k] for k in ("cli.self_s", "simulate.self_s", "codebook.self_s",
                                       "finite.self_s", "largesys.s", "channel.s"))
        print(f"{workload:12s} layer self times sum to {layer_sum:.6f} s; traced wall {m['trace.wall_s']:.6f} s")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "afpopt" / "cli.py").is_file():
        print(f"error: no afpopt sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    refs = check.load_references()
    nproc = len(os.sched_getaffinity(0))
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    total = check.Outcome()
    metrics: dict[str, dict] = {}
    try:
        for name in names:
            outcome, record = run_workload(name, args.seed, args.seconds, bool(args.trace), nproc, refs)
            total.add(outcome)
            print_summary(name, record, bool(args.trace))
            prefix = f"{name}." if args.workload == "all" else ""
            for key, value in record["metrics"].items():
                unit = layer_unit(key) if args.trace else END_TO_END_UNITS[key]
                metrics[prefix + key] = {"value": value, "unit": unit}
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for problem in total.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"correct": total.failed == 0, "attempted": total.attempted,
                      "failed": total.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
