"""Literal Monte Carlo engine: the test oracle for ``afpopt.simulate``.

Every trial draws its first-block channel, draws all 2**bits RVQ entries
(or scores the per-configuration maximin codebook), selects the best one,
and then evolves the channel matrix itself block by block while the stale
vector stays in use.  Trial t consumes only the substream (seed, t), so a
range of trials can be run on its own and reproduces the full run's rows.

Its cost grows as trials x 2^(B*K), which is why the package draws each
trial through its sufficient statistic instead; the two engines must agree
in distribution.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from afpopt.codebook import Selection, select_beamformer, select_beamformer_streaming
from afpopt.simulate import ExperimentSpec, fixed_codebook


class _TrialStreams:
    """Reused Philox generator repositioned to (seed, trial) per trial.

    Bit-identical to RandomStream(seed, trial).generator() but without the
    per-trial construction cost.
    """

    def __init__(self, seed: int) -> None:
        key = np.array([seed & 0xFFFFFFFFFFFFFFFF, 0], dtype=np.uint64)
        self._bitgen = np.random.Philox(key=key)
        self._gen = np.random.Generator(self._bitgen)
        self._template = self._bitgen.state

    def trial(self, index: int) -> np.random.Generator:
        st = self._template
        st["state"]["key"][1] = index
        st["state"]["counter"][:] = 0
        st["buffer_pos"] = 4
        st["has_uint32"] = 0
        st["uinteger"] = 0
        self._bitgen.state = st
        return self._gen


def block_power_trials(
    spec: ExperimentSpec,
    first_trial: int = 0,
    num_trials: int | None = None,
    on_select: Callable[[int, Selection], None] | None = None,
) -> np.ndarray:
    """Per-trial, per-block received powers; shape (trials, num_blocks).

    The beamformer is selected exactly once per trial, at block 1, from a
    fresh RVQ codebook (or the per-configuration maximin codebook) of
    budget_bits bits; blocks 2..K reuse it while the channel evolves.
    """
    nt, nr = spec.shape.nt, spec.shape.nr
    count = spec.trials if num_trials is None else num_trials
    fixed = fixed_codebook(spec)
    streams = _TrialStreams(spec.seed)
    alpha = spec.model.alpha
    decay = math.sqrt(max(0.0, 1.0 - alpha * alpha))
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    out = np.empty((count, spec.num_blocks))
    for t in range(count):
        gen = streams.trial(first_trial + t)
        z = gen.standard_normal((nr, nt, 2))
        h = (z[..., 0] + 1j * z[..., 1]) * inv_sqrt2
        if fixed is None:
            sel = select_beamformer_streaming(h, nt, spec.budget_bits, gen)
        else:
            sel = select_beamformer(h, fixed)
        if on_select is not None:
            on_select(first_trial + t, sel)
        row = out[t]
        row[0] = sel.power
        for k in range(1, spec.num_blocks):
            if alpha < 1.0:
                z = gen.standard_normal((nr, nt, 2))
                h = alpha * h + decay * ((z[..., 0] + 1j * z[..., 1]) * inv_sqrt2)
            hv = h @ sel.vector
            row[k] = np.vdot(hv, hv).real
    return out
