"""The benchmark's workloads: fixed, ordered lists of ``afpopt`` CLI invocations.

Each invocation is the argument list a user would type after ``afpopt``,
without ``--seed`` and ``--output``; :func:`build_argv` appends those.  The
trial counts are part of the invocation (and of its reference key), so
changing one means regenerating ``references.json``.  README.md says why
each workload exists and which layer metrics it should move.
"""

from __future__ import annotations

from pathlib import Path

#: result files, spans and scratch tables; nothing else is written
RESULTS = Path(__file__).with_name("results")

WORKLOADS: dict[str, tuple[str, ...]] = {
    # RVQ at small budgets over long stale intervals: the per-trial loop and
    # the per-call cost of selection dominate; the only workload that builds
    # a maximin codebook once and selects from it every trial
    "mc_interval": (
        "simulate --nt 2 --nr 2 --bits 1 --alpha 0.8 --k-max 10 --trials 500",
        "simulate --nt 2 --nr 4 --bits 0.5 --alpha 0.99 --k-max 20 --metric normalized_power --trials 500",
        "simulate --nt 4 --nr 4 --bits 1 --alpha 0.9 --k-max 10 --metric rate_difference --trials 500",
        # pays the 100k-trial eigenvalue normaliser (no closed form for 3x3)
        "simulate --nt 3 --nr 3 --bits 1 --alpha 0.95 --k-max 6 --metric normalized_power --trials 500",
        "compare-codebooks --nt 2 --nr 3 --bits 1 --alpha 0.95 --k-max 6 --trials 500",
        "simulate --nt 2 --nr 2 --bits 1 --alpha 1 --k-max 4 --trials 500",
        "simulate --nt 2 --nr 3 --bits 1 --alpha 0 --k-max 4 --trials 500",
    ),
    # pooled budgets of 12-16 bits with K <= 2: streaming selection over
    # 2^bits entries is nearly all of the time, the trial loop is idle
    "mc_budget": (
        "simulate --nt 2 --nr 4 --bits 12 --k-max 1 --trials 800",
        "simulate --nt 2 --nr 2 --bits 8 --k-min 2 --k-max 2 --trials 120",
        "simulate --nt 4 --nr 4 --bits 7 --k-min 2 --k-max 2 --metric rate_difference --trials 250",
        # a fig4 cell
        "simulate --nt 8 --nr 8 --bits 8 --k-min 2 --k-max 2 --metric rate_difference --trials 60",
    ),
    # no Monte Carlo: the cold Nt x 2 quadrature is nearly all of the time
    "analytic": (
        "reproduce-figure --id fig7",
        "optimal-k --nt 5 --nr 2 --bits 1 --alpha 0.95",
        "afp-range --nt 4 --nr 2 --bits 1 --alpha 0.9",
        "analytic --nt 5 --nr 2 --bits 1 --alpha 0.8 --k-max 10",
        "optimal-k --nt 2 --nr 3 --bits 1 --alpha 0.8",
        "afp-range --nt 2 --nr 2 --bits 1 --alpha 0.8",
        "large-system --nr-bar 0 --b-bar 1 --alpha 0.9",
        "reproduce-figure --id fig3",
        "reproduce-figure --id fig6",
    ),
}


def table_path(outdir: Path, index: int, invocation: str) -> Path:
    """Where invocation ``index`` of a workload writes its CSV table."""
    return outdir / f"{index:02d}_{invocation.split()[0]}.csv"


def build_argv(workload: str, seed: int, outdir: Path) -> list[list[str]]:
    """The argument lists the program sees for one pass over ``workload``."""
    return [
        inv.split() + ["--seed", str(seed), "--output", str(table_path(outdir, i, inv))]
        for i, inv in enumerate(WORKLOADS[workload])
    ]


def trials(invocation: str) -> int | None:
    """Monte Carlo trials per cell of an invocation (None when it runs none)."""
    words = invocation.split()
    return int(words[words.index("--trials") + 1]) if "--trials" in words else None
