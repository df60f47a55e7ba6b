"""Output checker: every table row and stdout headline against references.json.

The references come from the program itself (make_references.py), not from
the paper's target windows:

* rows that no random number touches (``exact``) must match to a relative
  tolerance of 1e-6; the Nt x 2 quadrature runs at rel_tol 1e-7;
* Monte Carlo rows must lie within ``z`` combined standard errors of their
  reference: the closed form at the budget the simulator actually used,
  ``round_half_up(B*K)`` bits (``closed_form``), or a stored run with many
  more trials under another seed (``high_trial``);
* headlines must match exactly; the seed-dependent ``compare-codebooks``
  headlines must name the argmax of the table they came with.

A row fails when its invocation exited non-zero, its value is empty, or any
check on it or on its invocation's headline fails.  A Monte Carlo row whose
attached ``analytic`` value is the closed form at the fractional budget
``B*K`` rather than at the simulated ``round_half_up(B*K)`` is counted as a
budget mismatch, not as a failure.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import workloads

REFERENCES = Path(__file__).with_name("references.json")
HEADER = ["nt", "nr", "alpha", "bits_per_block", "K", "metric", "value", "stderr", "analytic", "source", "seed"]
STATIC = ("nt", "nr", "alpha", "bits_per_block", "K", "metric", "source")
REL_TOL = 1e-6


def load_references() -> dict:
    return json.loads(REFERENCES.read_text())


@dataclass
class Outcome:
    """Rows checked, rows failed, budget-mismatch rows and the first problems seen."""

    attempted: int = 0
    failed: int = 0
    mismatch_rows: int = 0
    problems: list[str] = field(default_factory=list)

    def add(self, other: "Outcome") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.mismatch_rows += other.mismatch_rows
        self.problems.extend(other.problems[: max(0, 20 - len(self.problems))])


def close(a: float, b: float) -> bool:
    """Equal within the tolerance of deterministic rows."""
    return a == b or math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-12)


def _codebook_headline(rows: list[dict]) -> str:
    best: dict[str, tuple[float, str]] = {}
    for r in rows:
        kind = "maximin" if r["source"] == "simulation-maximin" else "rvq"
        v = float(r["value"])
        if kind not in best or v > best[kind][0]:
            best[kind] = (v, r["K"])
    return "".join(f"{kind} K*={best[kind][1]}\n" for kind in ("rvq", "maximin") if kind in best)


def _row_problem(row: dict, ref: dict, z: float, seed: int) -> tuple[str | None, bool]:
    """(problem or None, whether the attached analytic value is the mismatched one)."""
    got = tuple(row[c] for c in STATIC)
    if list(got) != ref["columns"]:
        return f"columns {got} != {tuple(ref['columns'])}", False
    if row["seed"] != str(seed):
        return f"seed column {row['seed']!r}", False
    if not row["value"]:
        return "empty value", False
    value = float(row["value"])
    if ref["kind"] == "exact":
        if not close(value, ref["value"]):
            return f"value {value!r} != {ref['value']!r}", False
    else:
        se = float(row["stderr"]) if row["stderr"] else math.nan
        if not math.isfinite(se) or se < 0:
            return f"stderr {row['stderr']!r}", False
        dist = abs(value - ref["value"]) / math.hypot(se, ref["se"])
        if not dist <= z:
            return f"value {value!r} is {dist:.1f} SE from {ref['kind']} {ref['value']!r}", False
    if not ref["analytic_ok"]:
        return (f"unexpected analytic {row['analytic']!r}" if row["analytic"] else None), False
    if not row["analytic"]:
        return "missing analytic", False
    analytic = float(row["analytic"])
    if not any(close(analytic, ok) for ok in ref["analytic_ok"]):
        return f"analytic {analytic!r} not in {ref['analytic_ok']}", False
    mismatch = ref["mismatch"] is not None and close(analytic, ref["mismatch"])
    return None, mismatch


def check_invocation(invocation: str, call: dict, table: Path, seed: int, refs: dict) -> Outcome:
    ref = refs["invocations"][invocation]
    out = Outcome(attempted=len(ref["rows"]))

    def fail_all(why: str) -> Outcome:
        out.failed = out.attempted
        out.problems.append(f"{invocation}: {why}")
        return out

    if call["rc"] != 0:
        return fail_all(f"exit code {call['rc']}: {call['stderr'].strip()[-300:]}")
    try:
        with open(table, newline="") as fh:
            reader = csv.DictReader(fh)
            rows = list(reader)
            header = reader.fieldnames
    except OSError as exc:
        return fail_all(f"no table: {exc}")
    if header != HEADER or len(rows) != len(ref["rows"]):
        return fail_all(f"table has header {header} and {len(rows)} rows, expected {len(ref['rows'])}")
    expected = ref["stdout"]
    if expected is None:
        try:
            expected = _codebook_headline(rows)
        except ValueError:
            expected = "<no headline: empty value>"
    if call["stdout"] != expected:
        return fail_all(f"stdout {call['stdout']!r} != {expected!r}")
    for i, (row, row_ref) in enumerate(zip(rows, ref["rows"])):
        problem, mismatch = _row_problem(row, row_ref, refs["z"], seed)
        if problem:
            out.failed += 1
            out.problems.append(f"{invocation}: row {i}: {problem}")
        out.mismatch_rows += mismatch
    return out


def check_pass(workload: str, seed: int, calls: list[dict], outdir: Path, refs: dict) -> Outcome:
    """Check every invocation of one pass over ``workload``."""
    total = Outcome()
    for i, (invocation, call) in enumerate(zip(workloads.WORKLOADS[workload], calls)):
        table = workloads.table_path(outdir, i, invocation)
        total.add(check_invocation(invocation, call, table, seed, refs))
    return total
