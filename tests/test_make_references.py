"""The benchmark's reference generator must agree with the program it checks.

``perfbench/make_references.py`` computes the closed form of each
simulated cell itself (``closed_form``), through the ``finite`` functions,
and the benchmark's correctness check compares the program's ``analytic``
column with it.  Running it here against the column that ``simulate.sweep``
attaches makes a change to one of those ``finite`` signatures, or to the
budget rounding, fail the test suite, not the next regeneration of the
references.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from afpopt import simulate
from afpopt.channel import FadingModel, SystemShape
from afpopt.simulate import ExperimentSpec

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def make_references(monkeypatch):
    # the script imports its sibling modules (check, workloads) by name
    monkeypatch.syspath_prepend(str(PERFBENCH))
    path = PERFBENCH / "make_references.py"
    spec = importlib.util.spec_from_file_location("perfbench_make_references", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# a 2 x Nr closed form, an Nt x 2 quadrature and a normalized Nt x 2 cell;
# fractional budgets exercise the rounding of B * K
CELLS = [
    (SystemShape(2, 4), 0.9, 1.0, "avg_power"),
    (SystemShape(4, 2), 0.8, 1.5, "avg_power"),
    (SystemShape(3, 2), 0.95, 0.5, "normalized_power"),
]


@pytest.mark.parametrize("shape,alpha,bits,metric", CELLS)
def test_closed_form_equals_the_analytic_column(make_references, shape, alpha, bits, metric):
    specs = [
        ExperimentSpec(shape, FadingModel(alpha), bits, k, trials=2, seed=3, metric=metric)
        for k in range(1, 5)
    ]
    for spec, record in zip(specs, simulate.sweep(specs)):
        assert record.analytic is not None
        k = spec.num_blocks
        assert record.analytic == make_references.closed_form(shape.nt, shape.nr, alpha, bits, k, metric)
