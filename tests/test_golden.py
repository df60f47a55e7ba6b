"""Golden outputs: the CLI's tables and stdout, compared with recorded files.

Commands that run no Monte Carlo are compared byte for byte.  The Monte
Carlo tables run at a few trials and are compared byte for byte on every
column except ``value`` and ``stderr``, whose last digits follow the
platform's LAPACK; those two are compared to a relative 1e-9.  A moved draw
shifts a mean of a few trials far past that, LAPACK rounding does not.  Help
texts and usage errors (stdout, stderr and exit code, at ``COLUMNS=80``
so that wrapping is fixed) are compared byte for byte as well.

Regenerate the files (only when an output change is intended) with

    PYTHONPATH=src python tests/test_golden.py [NAME ...]

Given names (the keys of EXACT, MONTE_CARLO and USAGE), it rewrites only
those tables, their stdout entries and those usage entries; with none, every
file, including the Monte Carlo tables, whose ``value`` columns follow the
local LAPACK.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest

from afpopt.cli import CSV_HEADER, run

GOLDEN = Path(__file__).with_name("golden")
STDOUT_FILE = GOLDEN / "stdout.json"
USAGE_FILE = GOLDEN / "usage.json"

EXACT = {
    "fig3": "reproduce-figure --id fig3",
    "fig6": "reproduce-figure --id fig6",
    "fig7": "reproduce-figure --id fig7",
    "optimal_k_2x3_a0.8": "optimal-k --nt 2 --nr 3 --bits 1 --alpha 0.8",
    "optimal_k_5x2_a0.95": "optimal-k --nt 5 --nr 2 --bits 1 --alpha 0.95",
    "optimal_k_2x2_a1_k8": "optimal-k --nt 2 --nr 2 --bits 1 --alpha 1 --k-max 8",
    "optimal_k_b1e308_k3": "optimal-k --bits 1e308 --k-max 3",
    "optimal_k_250x2_a0.8": "optimal-k --nt 250 --nr 2 --bits 1 --alpha 0.8",
    "optimal_k_3x2_b1e-10": "optimal-k --nt 3 --nr 2 --bits 1e-10 --alpha 0.9 --k-max 20",
    "afp_range_2x2_a0.8": "afp-range --nt 2 --nr 2 --bits 1 --alpha 0.8",
    "afp_range_4x2_a0.9": "afp-range --nt 4 --nr 2 --bits 1 --alpha 0.9",
    "afp_range_6x2_b0.25": "afp-range --nt 6 --nr 2 --bits 0.25",
    "afp_range_2x2_a1_k3": "afp-range --nt 2 --nr 2 --bits 1 --alpha 1 --k-max 3",
    "afp_range_3x2_b1e-10": "afp-range --nt 3 --nr 2 --bits 1e-10 --alpha 0.9 --k-max 20",
    "analytic_5x2_k10": "analytic --nt 5 --nr 2 --bits 1 --alpha 0.8 --k-max 10",
    "analytic_2x4": "analytic --nt 2 --nr 4",
    "analytic_2x250_k4": "analytic --nt 2 --nr 250 --bits 1 --k-max 4",
    "large_system_0_1_0.9": "large-system --nr-bar 0 --b-bar 1 --alpha 0.9",
    "large_system_1_0.5_0.9": "large-system --nr-bar 1 --b-bar 0.5 --alpha 0.9",
    "large_system_a1": "large-system --alpha 1",
    "large_system_0_a0": "large-system --nr-bar 0 --alpha 0",
}

MONTE_CARLO = {
    **{
        fig: f"reproduce-figure --id {fig} --trials 2 --seed 7"
        for fig in ("fig1", "fig2", "fig4", "fig5")
    },
    "simulate_3x3_normalized": "simulate --nt 3 --nr 3 --bits 1 --alpha 0.95 --k-max 6 "
    "--metric normalized_power --trials 20 --seed 7",
    "compare_codebooks_2x3": "compare-codebooks --nt 2 --nr 3 --bits 1 --alpha 0.95 --k-max 6 "
    "--trials 20 --seed 7",
}

# help and usage errors; a relative config and output path keep the
# messages free of the working directory
USAGE = {
    "help": "--help",
    "no_arguments": "",
    "unknown_command": "frobnicate --nt 2",
    **{f"help_{command}": f"{command} --help" for command in (
        "analytic", "large-system", "simulate", "optimal-k", "afp-range",
        "compare-codebooks", "reproduce-figure",
    )},
    "unknown_flag": "optimal-k --nonsense 1",
    "abbreviated_flag": "simulate --trial 5 --k-max 1 --output table.csv",
    "ambiguous_flag": "simulate --k 3",
    "flag_before_command": "--nt 2 simulate",
    "joined_flag_before_command": "--seed=1 reproduce-figure",
    "config_key_of_another_command": "simulate --config cfg.json",
    "stray_positional": "simulate --k-max 1 stray",
    "short_help": "optimal-k -h",
    "missing_config": "simulate --config missing.json",
}
USAGE_CONFIG = {"trials": 5, "id": "fig3"}

# value and stderr: their last digits follow the platform's eigensolver
_NOISY = {CSV_HEADER.split(",").index(name) for name in ("value", "stderr")}
_NOISY_REL = 1e-9


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


def _noisy_columns(table: str) -> list[list[str]]:
    return [
        [cell for i, cell in enumerate(line.split(",")) if i in _NOISY]
        for line in table.splitlines()[1:]
    ]


@functools.cache
def _monte_carlo_run(name: str) -> tuple[str, str]:
    # each Monte Carlo table runs once for both of its tests
    with tempfile.TemporaryDirectory() as workdir:
        return _run(MONTE_CARLO[name], Path(workdir) / "table.csv")


@pytest.fixture(scope="module")
def recorded_stdout() -> dict[str, str]:
    return json.loads(STDOUT_FILE.read_text())


@pytest.mark.parametrize("name", sorted(EXACT))
def test_exact_outputs_match(name, recorded_stdout, tmp_path):
    table, stdout = _run(EXACT[name], tmp_path / "table.csv")
    assert table == (GOLDEN / f"{name}.csv").read_text()
    assert stdout == recorded_stdout[name]


@pytest.mark.parametrize("name", sorted(MONTE_CARLO))
def test_monte_carlo_presets_match_outside_value_and_stderr(name, recorded_stdout):
    table, stdout = _monte_carlo_run(name)
    assert _stable_columns(table) == _stable_columns((GOLDEN / f"{name}.csv").read_text())
    assert stdout == recorded_stdout[name]


@pytest.mark.parametrize("name", sorted(MONTE_CARLO))
def test_monte_carlo_values_match_to_relative_1e9(name):
    table, _ = _monte_carlo_run(name)
    recorded = _noisy_columns((GOLDEN / f"{name}.csv").read_text())
    for row, want in zip(_noisy_columns(table), recorded, strict=True):
        for cell, want_cell in zip(row, want):
            if not (cell and want_cell):  # a failed or rate-free cell: both empty
                assert cell == want_cell, (row, want)
            else:
                assert float(cell) == pytest.approx(float(want_cell), rel=_NOISY_REL), (row, want)


def _usage(invocation: str, workdir: Path) -> dict:
    (workdir / "cfg.json").write_text(json.dumps(USAGE_CONFIG))
    stdout, stderr = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with (
            mock.patch.dict(os.environ, {"COLUMNS": "80"}),
            contextlib.redirect_stdout(stdout),
            contextlib.redirect_stderr(stderr),
        ):
            code = run(invocation.split())
    except SystemExit as exc:
        code = exc.code
    finally:
        os.chdir(cwd)
    return {"code": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}


@pytest.fixture(scope="module")
def recorded_usage() -> dict[str, dict]:
    return json.loads(USAGE_FILE.read_text())


@pytest.mark.parametrize("name", sorted(USAGE))
def test_help_and_usage_match(name, recorded_usage, tmp_path):
    assert _usage(USAGE[name], tmp_path) == recorded_usage[name]


def _regenerate(names: list[str]) -> None:
    """Rewrite the named tables, stdout and usage entries; with no names, every file."""
    tables = {**EXACT, **MONTE_CARLO}
    unknown = sorted(set(names) - set(tables) - set(USAGE))
    if unknown:
        known = ", ".join(sorted({*tables, *USAGE}))
        raise SystemExit(f"unknown golden name(s): {', '.join(unknown)}; known: {known}")
    GOLDEN.mkdir(exist_ok=True)
    table_names = [name for name in names if name in tables] if names else list(tables)
    usage_names = [name for name in names if name in USAGE] if names else list(USAGE)
    if table_names:
        stdouts = json.loads(STDOUT_FILE.read_text()) if names else {}
        for name in table_names:
            _, stdouts[name] = _run(tables[name], GOLDEN / f"{name}.csv")
        STDOUT_FILE.write_text(json.dumps(stdouts, indent=1, sort_keys=True) + "\n")
    if usage_names:
        usage = json.loads(USAGE_FILE.read_text()) if names else {}
        with tempfile.TemporaryDirectory() as workdir:
            for name in usage_names:
                usage[name] = _usage(USAGE[name], Path(workdir))
        USAGE_FILE.write_text(json.dumps(usage, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    _regenerate(sys.argv[1:])
    sys.exit(0)
