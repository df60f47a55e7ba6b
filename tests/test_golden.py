"""Golden outputs: the CLI's tables and stdout, compared with recorded files.

Commands that run no Monte Carlo are compared byte for byte.  The Monte
Carlo presets run at two trials and are compared on every column except
``value`` and ``stderr``, which depend on the platform's LAPACK.

Regenerate the files (only when an output change is intended) with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from afpopt.cli import CSV_HEADER, run

GOLDEN = Path(__file__).with_name("golden")
STDOUT_FILE = GOLDEN / "stdout.json"

EXACT = {
    "fig3": "reproduce-figure --id fig3",
    "fig6": "reproduce-figure --id fig6",
    "fig7": "reproduce-figure --id fig7",
    "optimal_k_2x3_a0.8": "optimal-k --nt 2 --nr 3 --bits 1 --alpha 0.8",
    "optimal_k_5x2_a0.95": "optimal-k --nt 5 --nr 2 --bits 1 --alpha 0.95",
    "optimal_k_2x2_a1_k8": "optimal-k --nt 2 --nr 2 --bits 1 --alpha 1 --k-max 8",
    "optimal_k_b1e308_k3": "optimal-k --bits 1e308 --k-max 3",
    "afp_range_2x2_a0.8": "afp-range --nt 2 --nr 2 --bits 1 --alpha 0.8",
    "afp_range_4x2_a0.9": "afp-range --nt 4 --nr 2 --bits 1 --alpha 0.9",
    "afp_range_6x2_b0.25": "afp-range --nt 6 --nr 2 --bits 0.25",
    "afp_range_2x2_a1_k3": "afp-range --nt 2 --nr 2 --bits 1 --alpha 1 --k-max 3",
    "analytic_5x2_k10": "analytic --nt 5 --nr 2 --bits 1 --alpha 0.8 --k-max 10",
    "analytic_2x4": "analytic --nt 2 --nr 4",
    "large_system_0_1_0.9": "large-system --nr-bar 0 --b-bar 1 --alpha 0.9",
    "large_system_1_0.5_0.9": "large-system --nr-bar 1 --b-bar 0.5 --alpha 0.9",
    "large_system_a1": "large-system --alpha 1",
    "large_system_0_a0": "large-system --nr-bar 0 --alpha 0",
}

MONTE_CARLO = {
    fig: f"reproduce-figure --id {fig} --trials 2 --seed 7"
    for fig in ("fig1", "fig2", "fig4", "fig5")
}

# value and stderr: their digits follow the platform's eigensolver
_NOISY = {CSV_HEADER.split(",").index(name) for name in ("value", "stderr")}


def _run(invocation: str, out: Path) -> tuple[str, str]:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = run(invocation.split() + ["--output", str(out)])
    assert code == 0, invocation
    return out.read_text(), stdout.getvalue()


def _stable_columns(table: str) -> list[list[str]]:
    return [
        [cell for i, cell in enumerate(line.split(",")) if i not in _NOISY]
        for line in table.splitlines()
    ]


@pytest.fixture(scope="module")
def recorded_stdout() -> dict[str, str]:
    return json.loads(STDOUT_FILE.read_text())


@pytest.mark.parametrize("name", sorted(EXACT))
def test_exact_outputs_match(name, recorded_stdout, tmp_path):
    table, stdout = _run(EXACT[name], tmp_path / "table.csv")
    assert table == (GOLDEN / f"{name}.csv").read_text()
    assert stdout == recorded_stdout[name]


@pytest.mark.parametrize("name", sorted(MONTE_CARLO))
def test_monte_carlo_presets_match_outside_value_and_stderr(name, recorded_stdout, tmp_path):
    table, stdout = _run(MONTE_CARLO[name], tmp_path / "table.csv")
    assert _stable_columns(table) == _stable_columns((GOLDEN / f"{name}.csv").read_text())
    assert stdout == recorded_stdout[name]


def _regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    stdouts = {}
    for name, invocation in {**EXACT, **MONTE_CARLO}.items():
        _, stdouts[name] = _run(invocation, GOLDEN / f"{name}.csv")
    STDOUT_FILE.write_text(json.dumps(stdouts, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    _regenerate()
    sys.exit(0)
