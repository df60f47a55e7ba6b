"""Finite-size analysis of quantized beamforming over a feedback interval.

Everything here rests on the two ordered eigenvalues (l1 >= l2) of the
channel Gram matrix, whose joint density for a min(nt, nr) = 2 channel with
larger dimension n is

    f(l1, l2) = l1^(n-2) l2^(n-2) (l1 - l2)^2 exp(-(l1 + l2)) / ((n-1)!(n-2)!).

Expectations against this density reduce to the wedge moments

    M(m, n) = int_0^inf l1^m e^-l1 int_0^l1 l2^n e^-l2 dl2 dl1,

computed exactly by recursion from closed-form base rows.  Channels with
two transmit antennas admit fully closed-form average received power.  In
the transposed case (two receive antennas, nt > 2) the RVQ selection
shortfall is homogeneous of degree 1 in (l1, l2), so with s = l2 / l1 the
l1 integral is a closed-form Gamma integral and the average power is a
one-dimensional quadrature over s (with a nested head quadrature) against
the conditional distribution of the quantizer output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from scipy import integrate, special

from afpopt.channel import FadingModel, SystemShape

_MOMENT_CAP = 200
_LN2 = math.log(2.0)

# relative eigenvalue gap below which the rank-2 distributions are evaluated
# at a jittered l2; the coincident set has zero probability
_DEGENERATE_GAP = 1e-7


@lru_cache(maxsize=None)
def wedge_moment_exact(m: int, n: int) -> Fraction:
    """Exact wedge moment M(m, n) as a rational number.

    Base rows: M(m, 0) = m! (1 - 2^-(m+1)) and M(0, n) = n! 2^-(n+1);
    interior values follow the recursion
    M(m, n) = m n M(m-1, n-1) - (m - n)(m + n - 1)! / 2^(m+n+1).
    """
    if m < 0 or n < 0:
        raise ValueError("moment orders must be nonnegative")
    if m > _MOMENT_CAP or n > _MOMENT_CAP:
        raise ValueError(f"moment orders above {_MOMENT_CAP} are not supported")
    if n == 0:
        return Fraction(math.factorial(m)) * (1 - Fraction(1, 2 ** (m + 1)))
    if m == 0:
        return Fraction(math.factorial(n), 2 ** (n + 1))
    return m * n * wedge_moment_exact(m - 1, n - 1) - Fraction(
        (m - n) * math.factorial(m + n - 1), 2 ** (m + n + 1)
    )


def wedge_moment(m: int, n: int) -> float:
    """Float value of the wedge moment M(m, n)."""
    return float(wedge_moment_exact(m, n))


def _norm_const(n: int) -> int:
    return math.factorial(n - 1) * math.factorial(n - 2)


@lru_cache(maxsize=None)
def mean_max_eigenvalue(n: int) -> float:
    """E[l1] for the rank-2 Gram spectrum with larger dimension n >= 2."""
    if n < 2:
        raise ValueError("larger system dimension must be >= 2")
    s = (
        wedge_moment_exact(n + 1, n - 2)
        - 2 * wedge_moment_exact(n, n - 1)
        + wedge_moment_exact(n - 1, n)
    )
    return float(s / _norm_const(n))


@lru_cache(maxsize=None)
def mean_eigen_gap(n: int) -> float:
    """E[l1 - l2] for the rank-2 Gram spectrum with larger dimension n >= 2."""
    if n < 2:
        raise ValueError("larger system dimension must be >= 2")
    s = (
        wedge_moment_exact(n + 1, n - 2)
        - 3 * wedge_moment_exact(n, n - 1)
        + 3 * wedge_moment_exact(n - 1, n)
        - wedge_moment_exact(n - 2, n + 1)
    )
    return float(s / _norm_const(n))


def _codebook_deficit_factor(total_bits: float) -> float:
    # 1 / (2^b + 1), evaluated as 2^-b once the +1 is below double resolution
    if total_bits > 60.0:
        return math.exp(-total_bits * _LN2)
    return 1.0 / (2.0**total_bits + 1.0)


def rvq_power_2xnr(nr: int, total_bits: float) -> float:
    """Mean selected power E[v^H H^H H v] for a 2 x nr channel, RVQ quantized.

    Equals E[l1] - E[l1 - l2] / (2^bits + 1): the best of 2^bits isotropic
    entries closes the gap to the top eigenvalue geometrically in the bit
    budget.  total_bits = 0 recovers the isotropic power nr.
    """
    if nr < 2:
        raise ValueError("closed form requires nr >= 2")
    if total_bits < 0:
        raise ValueError("total_bits must be nonnegative")
    return mean_max_eigenvalue(nr) - mean_eigen_gap(nr) * _codebook_deficit_factor(total_bits)


def block_power_2xnr(nr: int, total_bits: float, alpha: float, k: int) -> float:
    """Expected power at block k under the beamformer quantized at block 1."""
    if k < 1:
        raise ValueError("block index starts at 1")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    g = rvq_power_2xnr(nr, total_bits)
    return nr + alpha ** (2 * k - 2) * (g - nr)


def _interval_decay_sum(alpha: float, num_blocks: int) -> float:
    # sum_{k=1..K} alpha^(2k-2) = (1 - alpha^2K) / (1 - alpha^2), K at alpha=1
    if alpha >= 1.0:
        return float(num_blocks)
    if alpha <= 0.0:
        return 1.0
    return math.expm1(2 * num_blocks * math.log(alpha)) / math.expm1(2 * math.log(alpha))


def interval_average_power(iso_power: float, quantized_power: float, alpha: float, num_blocks: int) -> float:
    """Average power over ``num_blocks`` blocks given the block-1 quantized power."""
    return iso_power + _interval_decay_sum(alpha, num_blocks) / num_blocks * (
        quantized_power - iso_power
    )


def ordered_eigen_pdf(l1: float, l2: float, n: int) -> float:
    """Joint density of the two ordered Gram eigenvalues, larger dimension n."""
    if n < 2:
        raise ValueError("larger system dimension must be >= 2")
    if l1 < l2 or l2 < 0:
        raise ValueError("require l1 >= l2 >= 0")
    return (
        l1 ** (n - 2) * l2 ** (n - 2) * (l1 - l2) ** 2 * math.exp(-(l1 + l2)) / _norm_const(n)
    )


def _checked_rank2_args(x: float, l1: float, l2: float, nt: int) -> tuple[float, float]:
    if nt <= 2:
        raise ValueError("rank-2 distributions require nt > 2")
    if not (l1 >= l2 > 0.0):
        raise ValueError("require l1 >= l2 > 0")
    if not (0.0 <= x <= l1 * (1 + 1e-12)):
        raise ValueError(f"x={x} outside [0, l1={l1}]")
    if (l1 - l2) / l1 < _DEGENERATE_GAP:
        l2 = l1 * (1.0 - _DEGENERATE_GAP)
    return min(x, l1), l2


def rank2_power_cdf(x: float, l1: float, l2: float, nt: int) -> float:
    """CDF of v^H diag(l1, l2, 0, ..., 0) v for an isotropic unit v in C^nt.

    Two branches meeting continuously at x = l2; supported on [0, l1].
    """
    x, l2 = _checked_rank2_args(x, l1, l2, nt)
    if x == 0.0:
        return 0.0
    if x >= l1:
        return 1.0
    gap = l1 - l2
    p = nt - 1
    if x <= l2:
        return (
            1.0
            - (l1 / gap) * (1.0 - x / l1) ** p
            + (l2 / gap) * (1.0 - x / l2) ** p
        )
    return 1.0 - (l1 - x) ** p / (gap * l1 ** (nt - 2))


def rank2_power_pdf(x: float, l1: float, l2: float, nt: int) -> float:
    """Density matching :func:`rank2_power_cdf`."""
    x, l2 = _checked_rank2_args(x, l1, l2, nt)
    gap = l1 - l2
    q = nt - 2
    if x <= l2:
        return (nt - 1) / gap * ((1.0 - x / l1) ** q - (1.0 - x / l2) ** q)
    return (nt - 1) * (l1 - x) ** q / (gap * l1**q)


@dataclass(frozen=True)
class QuadratureSpec:
    """Controls for the two nested adaptive quadratures behind the nt x 2 form."""

    abs_tol: float = 1e-9
    rel_tol: float = 1e-7
    max_subdivisions: int = 200

    def __post_init__(self) -> None:
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise ValueError("tolerances must be positive")


DEFAULT_QUADRATURE = QuadratureSpec()

# quantizer sizes beyond this leave less than ~1e-120 of the selection gap;
# treat as perfect feedback instead of exponentiating toward overflow
_BITS_SATURATION = 400.0

_ntx2_cache: dict[tuple, float] = {}


def rvq_power_ntx2(
    nt: int, total_bits: float, quad: QuadratureSpec = DEFAULT_QUADRATURE
) -> float:
    """Mean selected power for an nt x 2 channel (nt > 2), RVQ quantized.

    E[l1] minus the expected selection shortfall int_0^l1 F(x)^N dx, the
    gap between l1 and the best of N = 2^bits isotropic entries, where F is
    :func:`rank2_power_cdf`.  The shortfall is homogeneous of degree 1 in
    (l1, l2), so it equals l1 phi(s) with s = l2 / l1.  Substituting
    l2 = s l1 in the joint eigenvalue density turns the l1 integral into
    int l1^(2n) e^(-l1 (1+s)) dl1 = (2n)! / (1+s)^(2n+1), which leaves

        E[shortfall] = (2n)! / ((n-1)!(n-2)!)
                       int_0^1 s^(n-2) (1-s)^2 (1+s)^-(2n+1) phi(s) ds,  n = nt.

    phi(s) is an exact incomplete-beta tail over [s, 1] plus a head over
    [0, s], so one adaptive quadrature over s runs another over the head.
    Strictly increasing in the bit budget, equal to 2 at zero bits.
    """
    if nt <= 2:
        raise ValueError("quadrature form requires nt > 2")
    if total_bits < 0:
        raise ValueError("total_bits must be nonnegative")
    if total_bits >= _BITS_SATURATION:
        return mean_max_eigenvalue(nt)
    key = (nt, round(total_bits, 9), quad)
    if key in _ntx2_cache:
        return _ntx2_cache[key]
    n_entries = 2.0**total_bits
    p = nt - 1
    a, b = 1.0 / p, n_entries + 1.0
    beta = math.exp(special.betaln(a, b))
    log_norm = math.lgamma(2 * nt + 1) - math.lgamma(nt) - math.lgamma(nt - 1)
    tols = dict(epsabs=quad.abs_tol, epsrel=quad.rel_tol, limit=quad.max_subdivisions)

    def unit_shortfall(s: float) -> float:
        # phi(s) = int_0^1 F(x)^N dx at (l1, l2) = (1, s).  Tail branch
        # (s <= x <= 1): substituting t = 1 - x gives the exact form
        # (c^(1/p)/p) B(1/p, N+1) I_(c^(nt-2))(1/p, N+1) with c = 1 - s
        gap = 1.0 - s
        tail = gap**a / p * beta * special.betainc(a, b, gap ** (nt - 2))

        def head(y: float) -> float:
            u = ((1.0 - y) ** p - s * (1.0 - y / s) ** p) / gap  # 1 - F(y)
            if u >= 1.0:
                return 0.0
            if u <= 0.0:
                return 1.0
            return math.exp(n_entries * math.log1p(-u))

        return integrate.quad(head, 0.0, s, **tols)[0] + tail

    def weighted(s: float) -> float:
        # (2n)!/((n-1)!(n-2)!) s^(n-2) (1-s)^2 (1+s)^-(2n+1), in logs
        log_w = (log_norm + (nt - 2) * math.log(s) + 2.0 * math.log1p(-s)
                 - (2 * nt + 1) * math.log1p(s))
        return math.exp(log_w) * unit_shortfall(s)

    shortfall, _ = integrate.quad(weighted, 0.0, 1.0, **tols)
    value = mean_max_eigenvalue(nt) - shortfall
    _ntx2_cache[key] = value
    return value


def has_closed_form(shape: SystemShape) -> bool:
    """Whether the average power has a closed-form path: 2 x nr (nr >= 2) or nt x 2 (nt > 2)."""
    return (shape.nt == 2 and shape.nr >= 2) or (shape.nr == 2 and shape.nt > 2)


@dataclass(frozen=True)
class AfpConfig:
    """Configuration for the finite-size interval search.

    Closed-form paths exist for nt = 2 with nr >= 2 and for nr = 2 with
    nt > 2; other shapes must go through the simulator.
    """

    shape: SystemShape
    bits_per_block: float
    model: FadingModel
    k_max: int = 64
    quadrature: QuadratureSpec = DEFAULT_QUADRATURE

    def __post_init__(self) -> None:
        if not has_closed_form(self.shape):
            raise ValueError(f"no closed-form path for a {self.shape.nt}x{self.shape.nr} channel")
        if self.bits_per_block <= 0:
            raise ValueError("bits_per_block must be positive")
        if self.k_max < 1:
            raise ValueError("k_max must be >= 1")


def quantized_first_block_power(cfg: AfpConfig, total_bits: float) -> float:
    """Dispatch to the 2 x nr closed form or the nt x 2 quadrature."""
    if cfg.shape.nt == 2:
        return rvq_power_2xnr(cfg.shape.nr, total_bits)
    return rvq_power_ntx2(cfg.shape.nt, total_bits, cfg.quadrature)


def isotropic_power(cfg: AfpConfig) -> float:
    """Received power with a random beamformer: E[trace] / nt = nr."""
    return float(cfg.shape.nr)


def avg_power(cfg: AfpConfig, num_blocks: int) -> float:
    """Average received power over a feedback interval of ``num_blocks``.

    The block-1 beamformer is quantized with bits_per_block * num_blocks
    bits and reused; staleness decays the excess over isotropic power by
    alpha^(2k-2) per block.  At alpha = 1 this reduces to the quantized
    first-block power itself.
    """
    if num_blocks < 1:
        raise ValueError("num_blocks must be >= 1")
    g = quantized_first_block_power(cfg, cfg.bits_per_block * num_blocks)
    return interval_average_power(isotropic_power(cfg), g, cfg.model.alpha, num_blocks)


@dataclass(frozen=True)
class IntervalResult:
    """Outcome of an exhaustive interval search."""

    k_star: int
    value: float
    horizon_limited: bool


def _search_envelope(cfg: AfpConfig, num_blocks: int) -> float:
    # upper bound on avg_power(K): quantized power can never exceed E[l1];
    # the resulting envelope is strictly decreasing in K for alpha < 1
    n = cfg.shape.nr if cfg.shape.nt == 2 else cfg.shape.nt
    return interval_average_power(
        isotropic_power(cfg), mean_max_eigenvalue(n), cfg.model.alpha, num_blocks
    )


def optimal_interval(cfg: AfpConfig) -> IntervalResult:
    """Exhaustive argmax of avg_power over K in [1, k_max]; smallest K wins ties.

    For alpha < 1 the scan stops once even perfect feedback could not beat
    the incumbent (a strictly decreasing envelope), which cannot change the
    argmax.  A maximum sitting at k_max is flagged horizon-limited.
    """
    alpha = cfg.model.alpha
    if alpha >= 1.0:
        # average power equals the quantized power at K*bits, increasing in K
        return IntervalResult(cfg.k_max, avg_power(cfg, cfg.k_max), True)
    best_k, best_v = 1, avg_power(cfg, 1)
    for k in range(2, cfg.k_max + 1):
        if _search_envelope(cfg, k) <= best_v:
            break
        v = avg_power(cfg, k)
        if v > best_v:
            best_k, best_v = k, v
    return IntervalResult(best_k, best_v, best_k == cfg.k_max)


@dataclass(frozen=True)
class AfpMfpComparison:
    """Feedback intervals where pooling bits beats per-block feedback."""

    winning_k: tuple[int, ...]
    pointwise_bound: tuple[float, ...]  # loose analytic bound at each winning K
    large_budget_bound: float  # 1 / (1 - alpha^2)


def afp_beats_mfp(cfg: AfpConfig) -> AfpMfpComparison:
    """All K in [2, k_max] whose interval-average power exceeds the K = 1 value."""
    alpha = cfg.model.alpha
    iso = isotropic_power(cfg)
    base = avg_power(cfg, 1)
    if alpha >= 1.0:
        # quantized power is strictly increasing in bits, so every K wins
        ks = tuple(range(2, cfg.k_max + 1))
        return AfpMfpComparison(ks, tuple(math.inf for _ in ks), math.inf)
    large_budget = 1.0 / (1.0 - alpha * alpha)
    ks: list[int] = []
    bounds: list[float] = []
    for k in range(2, cfg.k_max + 1):
        if _search_envelope(cfg, k) <= base:
            break
        if avg_power(cfg, k) > base:
            g = quantized_first_block_power(cfg, cfg.bits_per_block * k)
            ks.append(k)
            bounds.append(large_budget * (g - iso) / (base - iso))
    return AfpMfpComparison(tuple(ks), tuple(bounds), large_budget)
