"""Every count and every alpha of the package passes one check.

Counts (antenna counts, block counts, trial and candidate counts, search
horizons and block indices) go through ``channel.check_count``: a value
that is not an integer, a bool or a value below 1 raises a ValueError that
names the field, whether it reaches a config at construction or a
function at its call.  Every alpha goes through ``FadingModel``'s check.
"""

from __future__ import annotations

import re

import numpy as np
import pytest

from afpopt.channel import FadingModel, RandomStream, SystemShape, trajectory
from afpopt.codebook import maximin_codebooks, rvq_codebook
from afpopt.finite import AfpConfig, avg_power, block_power_2xnr
from afpopt.largesys import LargeSystemConfig, rate_difference
from afpopt.simulate import ExperimentSpec

SHAPE, MODEL = SystemShape(2, 2), FadingModel(0.8)

# (field, call that passes the value to that field)
COUNTS = {
    "SystemShape.nt": ("nt", lambda v: SystemShape(v, 2)),
    "SystemShape.nr": ("nr", lambda v: SystemShape(2, v)),
    "trajectory": ("num_blocks", lambda v: trajectory(MODEL, SHAPE, v, RandomStream(0))),
    "ExperimentSpec.num_blocks": ("num_blocks", lambda v: ExperimentSpec(SHAPE, MODEL, 1.0, v)),
    "ExperimentSpec.trials": ("trials", lambda v: ExperimentSpec(SHAPE, MODEL, 1.0, 2, trials=v)),
    "ExperimentSpec.candidates": (
        "candidates", lambda v: ExperimentSpec(SHAPE, MODEL, 1.0, 2, candidates=v)
    ),
    "AfpConfig.k_max": ("k_max", lambda v: AfpConfig(SHAPE, 1.0, MODEL, v)),
    "LargeSystemConfig.k_max": ("k_max", lambda v: LargeSystemConfig(1.0, 1.0, 0.8, v)),
    "avg_power": ("num_blocks", lambda v: avg_power(AfpConfig(SHAPE, 1.0, MODEL), v)),
    "block_power_2xnr": ("k", lambda v: block_power_2xnr(2, 1.0, 0.8, v)),
    "rate_difference": ("num_blocks", lambda v: rate_difference(v, LargeSystemConfig(1.0, 1.0, 0.8))),
    "rvq_codebook": ("nt", lambda v: rvq_codebook(v, 1, RandomStream(0))),
    "maximin_codebooks.nt": ("nt", lambda v: maximin_codebooks(v, [1], 10, RandomStream(0))),
    "maximin_codebooks.candidates": (
        "candidates", lambda v: maximin_codebooks(2, [1], v, RandomStream(0))
    ),
}


@pytest.mark.parametrize("bad", [2.5, True, 0, -3, 2.0])
@pytest.mark.parametrize("where", list(COUNTS))
def test_bad_counts_raise_a_value_error_naming_the_field(where, bad):
    field, call = COUNTS[where]
    with pytest.raises(ValueError, match=f"^{field} must be an integer >= 1, got {re.escape(repr(bad))}$"):
        call(bad)


@pytest.mark.parametrize("where", list(COUNTS))
def test_integer_counts_pass(where):
    _, call = COUNTS[where]
    call(1)
    call(np.int64(2))  # numpy integers are integers too


@pytest.mark.parametrize("bad", [-0.1, 1.5, float("nan")])
@pytest.mark.parametrize(
    "call",
    [
        lambda a: LargeSystemConfig(1.0, 1.0, a),
        lambda a: block_power_2xnr(2, 1.0, a, 1),
        FadingModel,
    ],
)
def test_alpha_has_one_check(call, bad):
    with pytest.raises(ValueError, match=re.escape(f"alpha must lie in [0, 1], got {bad}")):
        call(bad)
