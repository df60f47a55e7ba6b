"""Rayleigh MIMO channel generation with first-order Gauss-Markov memory.

Channel matrices are plain complex ndarrays of shape ``(nr, nt)`` whose
entries are unit-variance circularly symmetric Gaussians.  Temporal
correlation between fading blocks follows

    H(k) = alpha * H(k-1) + sqrt(1 - alpha**2) * W(k)

with W(k) drawn independently from the same distribution, so the marginal
law is stationary for any alpha in [0, 1].
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

# numpy loads numpy.random on first use; importing it here keeps that load
# in start-up, next to numpy's own, for every command that draws
from numpy.random import Generator, Philox

_SQRT2 = np.sqrt(2.0)


@dataclass(frozen=True)
class RandomStream:
    """Counter-based random stream keyed by (seed, stream_id).

    Streams with distinct keys are statistically independent, and an
    identical key reproduces the identical value sequence on any platform
    (Philox is a pure counter cipher).  The Monte Carlo engine draws each
    chunk of trials from its own stream, so results do not depend on
    execution order.
    """

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this stream."""
        key = np.array(
            [self.seed & 0xFFFFFFFFFFFFFFFF, self.stream_id & 0xFFFFFFFFFFFFFFFF],
            dtype=np.uint64,
        )
        return Generator(Philox(key=key))


def as_generator(rng: RandomStream | np.random.Generator) -> np.random.Generator:
    """Accept either a RandomStream or an already-running Generator."""
    if isinstance(rng, RandomStream):
        return rng.generator()
    return rng


def check_count(name: str, value: object, least: int = 1) -> None:
    """Raise a ValueError naming ``name`` unless ``value`` is an integer >= ``least`` (not a bool).

    Counts are at least 1; a bit budget, at least 0.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


@dataclass(frozen=True)
class SystemShape:
    """Antenna counts: nt transmit, nr receive."""

    nt: int
    nr: int

    def __post_init__(self) -> None:
        check_count("nt", self.nt)
        check_count("nr", self.nr)


@dataclass(frozen=True)
class FadingModel:
    """Temporal correlation coefficient alpha of the Gauss-Markov fading.

    The background SNR of the rate metrics is not part of the model: it is
    the ``rho_db`` argument (in dB) of the rate functions,
    ``simulate.run_spec`` and ``simulate.sweep``.
    """

    alpha: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha}")


def complex_normal(
    rng: RandomStream | np.random.Generator, shape: tuple[int, ...], out: np.ndarray | None = None
) -> np.ndarray:
    """i.i.d. CN(0, 1) array; real/imag parts drawn interleaved per entry.

    The interleaved normals are scaled in place and viewed as complex, which
    is bit-identical to (re + 1j im) / sqrt(2): numpy divides a complex
    array by a real scalar by multiplying with its reciprocal.  ``out``, a
    C-contiguous float array of shape ``shape + (2,)``, takes the same draws
    in place of a new array.
    """
    gen = as_generator(rng)
    z = gen.standard_normal(shape + (2,), out=out)
    z *= 1.0 / _SQRT2
    return z.view(np.complex128)[..., 0]


def sample_channel(shape: SystemShape, rng: RandomStream | np.random.Generator) -> np.ndarray:
    """One (nr, nt) realization with i.i.d. CN(0, 1) entries."""
    return complex_normal(rng, (shape.nr, shape.nt))


def evolve(
    prev: np.ndarray, model: FadingModel, rng: RandomStream | np.random.Generator
) -> np.ndarray:
    """Advance one fading block: alpha * prev + sqrt(1 - alpha^2) * innovation.

    alpha = 1 returns ``prev`` unchanged (time-invariant channel); alpha = 0
    draws an independent realization.
    """
    a = model.alpha
    if a >= 1.0:
        return prev.copy()
    w = complex_normal(rng, prev.shape)
    return a * prev + np.sqrt(1.0 - a * a) * w


def trajectory(
    model: FadingModel,
    shape: SystemShape,
    num_blocks: int,
    rng: RandomStream | np.random.Generator,
) -> np.ndarray:
    """Channel matrices for ``num_blocks`` consecutive blocks, shape (K, nr, nt)."""
    check_count("num_blocks", num_blocks)
    gen = as_generator(rng)
    out = np.empty((num_blocks, shape.nr, shape.nt), dtype=complex)
    out[0] = sample_channel(shape, gen)
    for k in range(1, num_blocks):
        out[k] = evolve(out[k - 1], model, gen)
    return out


def gram_eigenvalues(h: np.ndarray) -> np.ndarray:
    """Nonzero-capable eigenvalues of H^H H in descending order.

    ``h`` is one channel ``(nr, nt)`` or a stack ``(..., nr, nt)``; the
    result has shape ``(..., min(nt, nr))``.  The smaller of the two Gram
    matrices (H H^H when nr < nt) is diagonalized.  The 2x2 case uses the
    Hermitian closed form for [[a, b], [conj(b), c]], which keeps the trace
    exact.
    """
    nr, nt = h.shape[-2:]
    hh = np.swapaxes(h.conj(), -1, -2)
    g = h @ hh if nr < nt else hh @ h
    if g.shape[-1] == 1:
        return g[..., 0, :].real
    if g.shape[-1] == 2:
        a = g[..., 0, 0].real
        c = g[..., 1, 1].real
        half_sum = 0.5 * (a + c)
        rad = np.hypot(0.5 * (a - c), np.abs(g[..., 0, 1]))
        vals = np.stack([half_sum + rad, half_sum - rad], axis=-1)
    else:
        vals = np.linalg.eigvalsh(g)[..., ::-1]
    return np.maximum(vals, 0.0)


def alpha_from_jakes(doppler_hz: float, block_seconds: float) -> float:
    """Temporal correlation J0(2*pi*Ds*Ts) for the Jakes/Clarke model.

    May be slightly negative for large arguments; callers wanting a
    Gauss-Markov coefficient clamp to [0, 1] themselves.  Needs scipy
    installed (the ``test`` extra); it is imported here so that nothing else
    in the package does.
    """
    from scipy.special import j0

    if block_seconds <= 0.0:
        raise ValueError("block duration must be positive")
    return float(j0(2.0 * np.pi * doppler_hz * block_seconds))
