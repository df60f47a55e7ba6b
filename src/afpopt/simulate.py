"""Seeded Monte Carlo engine for feedback-interval experiments.

A trial draws the first-block channel, quantizes the beamformer once with
the pooled bit budget, then lets the channel evolve while the stale vector
stays in use.  Trial t consumes only the substream (seed, t), so estimates
are reproducible and independent of execution order or worker count.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from afpopt import finite
from afpopt.channel import FadingModel, RandomStream, SystemShape
from afpopt.codebook import (
    STREAM_CAP_BITS,
    Codebook,
    Selection,
    maximin_codebook,
    select_beamformer,
    select_beamformer_streaming,
)

#: substream reserved for per-configuration codebook construction; trial
#: indices stay safely below this
CODEBOOK_STREAM = 1 << 62

METRICS = ("avg_power", "avg_rate", "rate_difference", "normalized_power")


def round_half_up(x: float) -> int:
    """Deterministic bit-budget rounding: .5 always rounds up."""
    return int(math.floor(x + 0.5))


@dataclass(frozen=True)
class ExperimentSpec:
    """One Monte Carlo configuration."""

    shape: SystemShape
    model: FadingModel
    bits_per_block: float
    num_blocks: int
    trials: int = 3000
    seed: int = 0
    codebook_kind: str = "rvq"
    metric: str = "avg_power"

    def __post_init__(self) -> None:
        if self.bits_per_block < 0:
            raise ValueError("bits_per_block must be nonnegative")
        if self.num_blocks < 1:
            raise ValueError("num_blocks must be >= 1")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.codebook_kind not in ("rvq", "maximin"):
            raise ValueError(f"unknown codebook kind {self.codebook_kind!r}")
        if self.metric not in METRICS:
            raise ValueError(f"unknown metric {self.metric!r}")
        if self.budget_bits > STREAM_CAP_BITS:
            raise ValueError(
                f"bit budget {self.budget_bits} exceeds the streaming cap ({STREAM_CAP_BITS})"
            )

    @property
    def budget_bits(self) -> int:
        """Pooled quantization budget round(B * K)."""
        return round_half_up(self.bits_per_block * self.num_blocks)


@dataclass(frozen=True)
class Estimate:
    """Sample mean with its standard error."""

    mean: float
    stderr: float
    trials: int


def _estimate(values: np.ndarray) -> Estimate:
    n = values.size
    sd = float(values.std(ddof=1)) if n > 1 else 0.0
    return Estimate(float(values.mean()), sd / math.sqrt(n), n)


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


_maximin_cache: dict[tuple[int, int, int, int], Codebook] = {}


def _fixed_codebook(spec: ExperimentSpec, candidates: int = 10_000) -> Codebook | None:
    if spec.codebook_kind != "maximin":
        return None
    key = (spec.shape.nt, spec.budget_bits, candidates, spec.seed)
    if key not in _maximin_cache:
        _maximin_cache[key] = maximin_codebook(
            spec.shape.nt,
            spec.budget_bits,
            candidates,
            RandomStream(spec.seed, CODEBOOK_STREAM),
        )
    return _maximin_cache[key]


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
    fixed = _fixed_codebook(spec)
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


def simulate_avg_power(spec: ExperimentSpec) -> Estimate:
    """Mean over trials of the interval-average received power."""
    return _estimate(block_power_trials(spec).mean(axis=1))


def simulate_avg_rate(spec: ExperimentSpec, rho: float) -> Estimate:
    """Mean achievable rate log2(1 + rho * power), averaged over the interval."""
    if rho <= 0:
        raise ValueError("rho must be positive")
    powers = block_power_trials(spec)
    return _estimate(np.log2(1.0 + rho * powers).mean(axis=1))


def simulate_rate_difference(spec: ExperimentSpec, rho: float) -> Estimate:
    """Mean rate offset log2(1/(rho*nt) + power/nt) over the interval.

    Per trial this equals the average rate minus log2(rho * nt).
    """
    if rho <= 0:
        raise ValueError("rho must be positive")
    nt = spec.shape.nt
    powers = block_power_trials(spec)
    return _estimate(np.log2(1.0 / (rho * nt) + powers / nt).mean(axis=1))


def perfect_feedback_power(shape: SystemShape, trials: int, seed: int) -> Estimate:
    """Monte Carlo mean of the top Gram eigenvalue (unquantized beamforming)."""
    streams = _TrialStreams(seed)
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    vals = np.empty(trials)
    small = min(shape.nt, shape.nr)
    for t in range(trials):
        gen = streams.trial(t)
        z = gen.standard_normal((shape.nr, shape.nt, 2))
        h = (z[..., 0] + 1j * z[..., 1]) * inv_sqrt2
        g = h @ h.conj().T if shape.nr < shape.nt else h.conj().T @ h
        if small == 1:
            vals[t] = g[0, 0].real
        elif small == 2:
            half = 0.5 * (g[0, 0].real + g[1, 1].real)
            vals[t] = half + np.hypot(0.5 * (g[0, 0].real - g[1, 1].real), abs(g[0, 1]))
        else:
            vals[t] = np.linalg.eigvalsh(g)[-1]
    return _estimate(vals)


@functools.lru_cache(maxsize=None)
def perfect_feedback_mean(shape: SystemShape, trials: int = 100_000, seed: int = 0) -> float:
    """Normalizer for normalized-power metrics; closed form when available."""
    if min(shape.nt, shape.nr) == 2:
        return finite.mean_max_eigenvalue(max(shape.nt, shape.nr))
    if min(shape.nt, shape.nr) == 1:
        return float(max(shape.nt, shape.nr))  # mean of a chi-square top "eigenvalue"
    return perfect_feedback_power(shape, trials, seed).mean


@dataclass(frozen=True)
class SweepRecord:
    """One grid point of experiment output."""

    nt: int
    nr: int
    alpha: float
    bits_per_block: float
    num_blocks: int
    metric: str
    value: float | None
    stderr: float | None
    analytic: float | None
    source: str
    seed: int
    error: str | None = None


def _analytic_value(spec: ExperimentSpec) -> float | None:
    shape = spec.shape
    if not finite.has_closed_form(shape) or spec.codebook_kind != "rvq" or spec.bits_per_block <= 0:
        return None
    if spec.metric not in ("avg_power", "normalized_power"):
        return None
    cfg = finite.AfpConfig(shape, spec.bits_per_block, spec.model, k_max=spec.num_blocks)
    # the closed form at the rounded budget the simulation quantizes with,
    # not at the fractional B * K
    g = finite.quantized_first_block_power(cfg, spec.budget_bits)
    value = finite.interval_average_power(
        finite.isotropic_power(cfg), g, spec.model.alpha, spec.num_blocks
    )
    if spec.metric == "normalized_power":
        value /= perfect_feedback_mean(shape)
    return value


def _source(codebook_kind: str) -> str:
    return "simulation" if codebook_kind == "rvq" else "simulation-maximin"


def failed_record(
    shape: SystemShape, model: FadingModel, bits_per_block: float, num_blocks: int,
    metric: str, codebook_kind: str, seed: int, exc: Exception,
) -> SweepRecord:
    """The row of a grid point that could not be evaluated: no value, the error kept."""
    return SweepRecord(
        shape.nt, shape.nr, model.alpha, bits_per_block, num_blocks, metric,
        None, None, None, _source(codebook_kind), seed,
        error=f"{type(exc).__name__}: {exc}",
    )


def run_spec(spec: ExperimentSpec, rho: float = 10.0) -> SweepRecord:
    """Evaluate one grid point, attaching the closed form when one exists."""
    try:
        if spec.metric == "avg_power":
            est = simulate_avg_power(spec)
        elif spec.metric == "avg_rate":
            est = simulate_avg_rate(spec, rho)
        elif spec.metric == "rate_difference":
            est = simulate_rate_difference(spec, rho)
        else:
            norm = perfect_feedback_mean(spec.shape)
            raw = simulate_avg_power(spec)
            est = Estimate(raw.mean / norm, raw.stderr / norm, raw.trials)
        analytic = _analytic_value(spec)
    except Exception as exc:
        return failed_record(
            spec.shape, spec.model, spec.bits_per_block, spec.num_blocks,
            spec.metric, spec.codebook_kind, spec.seed, exc,
        )
    return SweepRecord(
        spec.shape.nt, spec.shape.nr, spec.model.alpha, spec.bits_per_block,
        spec.num_blocks, spec.metric, est.mean, est.stderr, analytic,
        _source(spec.codebook_kind), spec.seed,
    )


def sweep(specs: list[ExperimentSpec], rho: float = 10.0) -> list[SweepRecord]:
    """Evaluate a grid in order; failures are reported per record, never raised."""
    if not specs:
        raise ValueError("sweep requires a nonempty grid")
    return [run_spec(spec, rho) for spec in specs]
