"""Regenerate references.json from the current program.

    PYTHONPATH=src python3 perfbench/make_references.py

Runs every workload invocation once in this process to record its columns,
headline and deterministic values.  Each Monte Carlo row then gets a
reference: the closed form at the budget the simulator uses,
``round_half_up(B*K)`` bits, where one exists; otherwise the program's own
estimate with HIGH_TRIAL_FACTOR times the trials under REFERENCE_SEED, a seed
whose streams are independent of the benchmark's.  Takes a few minutes.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import platform
import shutil
import tempfile
from pathlib import Path

import numpy
import scipy

from afpopt import cli, finite, simulate
from afpopt.channel import FadingModel, SystemShape

import check
import workloads

Z = 5.0
HIGH_TRIAL_FACTOR = 16
REFERENCE_SEED = 1_000_003
RHO = 10.0  # the CLI's default --rho-db of 10 dB


def closed_form(nt: int, nr: int, alpha: float, bits: float, k: int, metric: str) -> float | None:
    """Interval-average power at the simulated budget, or None without a closed form."""
    if not ((nt == 2 and nr >= 2) or (nr == 2 and nt > 2)) or bits <= 0:
        return None
    if metric not in ("avg_power", "normalized_power"):
        return None
    budget = simulate.round_half_up(bits * k)
    g = finite.rvq_power_2xnr(nr, budget) if nt == 2 else finite.rvq_power_ntx2(nt, budget)
    value = finite.interval_average_power(float(nr), g, alpha, k)
    if metric == "normalized_power":
        value /= finite.mean_max_eigenvalue(max(nt, nr))
    return value


def row_reference(row: dict, trials: int | None) -> dict:
    ref = {"columns": [row[c] for c in check.STATIC]}
    attached = float(row["analytic"]) if row["analytic"] else None
    if not row["source"].startswith("simulation"):
        value = float(row["value"])
        return ref | {"kind": "exact", "value": value, "se": 0.0, "analytic_ok": [value], "mismatch": None}
    nt, nr, k = int(row["nt"]), int(row["nr"]), int(row["K"])
    alpha, bits, metric = float(row["alpha"]), float(row["bits_per_block"]), row["metric"]
    kind = "maximin" if row["source"] == "simulation-maximin" else "rvq"
    exact = closed_form(nt, nr, alpha, bits, k, metric) if kind == "rvq" else None
    if exact is not None:
        mismatch = None if attached is None or check.close(attached, exact) else attached
        ok = [exact] + ([mismatch] if mismatch is not None else [])
        return ref | {"kind": "closed_form", "value": exact, "se": 0.0, "analytic_ok": ok, "mismatch": mismatch}
    spec = simulate.ExperimentSpec(
        SystemShape(nt, nr), FadingModel(alpha), bits, k,
        trials=HIGH_TRIAL_FACTOR * trials, seed=REFERENCE_SEED, codebook_kind=kind, metric=metric,
    )
    est = simulate.run_spec(spec, RHO)
    if est.error is not None:
        raise RuntimeError(f"reference cell failed: {est.error}")
    return ref | {
        "kind": "high_trial", "value": est.value, "se": est.stderr, "trials": spec.trials,
        "analytic_ok": [attached] if attached is not None else [], "mismatch": None,
    }


def main() -> None:
    refs = {
        "generated_with": {
            "python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__,
            "high_trial_factor": HIGH_TRIAL_FACTOR, "reference_seed": REFERENCE_SEED,
        },
        "z": Z,
        "invocations": {},
    }
    workloads.RESULTS.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=workloads.RESULTS))
    try:
        for name, invocations in workloads.WORKLOADS.items():
            for i, (inv, argv) in enumerate(zip(invocations, workloads.build_argv(name, 0, tmp))):
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    if cli.run(argv) != 0:
                        raise RuntimeError(f"{inv} failed")
                with open(workloads.table_path(tmp, i, inv), newline="") as fh:
                    rows = list(csv.DictReader(fh))
                trials = workloads.trials(inv)
                stdout = None if inv.startswith("compare-codebooks") else out.getvalue()
                refs["invocations"][inv] = {
                    "stdout": stdout,
                    "rows": [row_reference(r, trials) for r in rows],
                }
                print(f"{name}: {inv}: {len(rows)} rows", flush=True)
    finally:
        shutil.rmtree(tmp)
    check.REFERENCES.write_text(json.dumps(refs, indent=1) + "\n")


if __name__ == "__main__":
    main()
