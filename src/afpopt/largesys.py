"""Large-system rate-difference asymptotics for quantized beamforming.

All quantities live in the limit nt, nr, bits -> infinity with the ratios
nr_bar = nr / nt and b_bar = bits / nt held fixed.  The selected received
power per transmit antenna converges to a deterministic function of the
normalized bit budget; rates are measured as the stable offset
R - log2(rho * nt), which makes the feedback-interval trade-off finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from afpopt.channel import FadingModel, check_count
from afpopt.finite import _EPS, _LN2, AfpConfig, IntervalResult, _scan, best_interval, intervals_beating_first

_ROOT_MAX_ITER = 100


def _psi(u: float) -> float:
    """((1 + u) log1p(u) - u) / u^2 for u > 0, in (0, 1/2], with neither cancellation nor overflow.

    Below u = 0.1, where the closed form cancels, 16 terms of its series reach rounding.
    """
    if u < 0.1:
        return sum((-u) ** k / ((k + 1) * (k + 2)) for k in range(16))
    return ((1.0 + 1.0 / u) * math.log1p(u) - 1.0) / u


def bits_threshold(nr_bar: float) -> float:
    """Normalized bit budget where the asymptotic power law changes branch.

    (s - nr_bar log1p(1/s)) / ln 2 with s = sqrt(nr_bar), summed as
    s (1 - psi(1/s)) / ((1 + s) ln 2) to full precision for every finite nr_bar > 0.
    """
    if nr_bar <= 0:
        raise ValueError("threshold is defined for nr_bar > 0; use the MISO form")
    s = math.sqrt(nr_bar)
    return s * (1.0 - _psi(1.0 / s)) / ((1.0 + s) * _LN2)


def asymptotic_power(x: float, nr_bar: float) -> float:
    """Limit of the per-antenna selected power at normalized budget x, for every finite nr_bar >= 0.

    nr_bar = 0 gives the closed MISO form 1 - 2^-x.  For nr_bar > 0 and x
    below the branch threshold, the value is nr_bar + d at the root d > 0 of
    h(d) = nr_bar log1p(d / nr_bar) - d + x ln 2, the fixed point
    g^nr_bar exp(-g) = 2^-x (nr_bar / e)^nr_bar at g = nr_bar + d.  h is
    concave and decreasing, and h(s) = (x - threshold) ln 2 < 0 at
    s = sqrt(nr_bar), so Newton steps from d = s fall monotonically onto
    the root; each, d <- d psi(d / nr_bar) + x ln 2 (1 + nr_bar / d), sums
    positive terms.  Past the threshold g = (1 + s)^2 - (1 + s) 2^(threshold - x);
    the branches meet at nr_bar + s.  Continuous and non-decreasing in x,
    saturating at (1 + s)^2.
    """
    if x < 0:
        raise ValueError("normalized bits must be nonnegative")
    if nr_bar < 0:
        raise ValueError("nr_bar must be nonnegative")
    if nr_bar == 0.0:
        return 1.0 - 2.0 ** (-x)
    if x == 0.0:
        return nr_bar
    s = math.sqrt(nr_bar)
    threshold = bits_threshold(nr_bar)
    if x >= threshold:  # the closed form, written so that it cannot cancel
        return (1.0 + s) * (s - math.expm1((threshold - x) * _LN2))
    d = s
    for _ in range(_ROOT_MAX_ITER):
        d, last = d * _psi(d / nr_bar) + x * _LN2 * (1.0 + nr_bar / d), d
        if last - d <= _EPS * (nr_bar + d):
            break
    return nr_bar + d


@dataclass(frozen=True)
class LargeSystemConfig:
    """Antenna ratio, per-antenna feedback rate, correlation, search horizon."""

    nr_bar: float
    b_bar: float
    alpha: float
    k_max: int = AfpConfig.k_max

    def __post_init__(self) -> None:
        if not 0.0 <= self.nr_bar < math.inf:
            raise ValueError(f"nr_bar must be finite and nonnegative, got {self.nr_bar}")
        if not 0.0 < self.b_bar < math.inf:
            raise ValueError(f"b_bar must be finite and positive, got {self.b_bar}")
        FadingModel(self.alpha)  # its alpha check
        check_count("k_max", self.k_max)


def rate_difference(num_blocks: int, cfg: LargeSystemConfig) -> float:
    """Asymptotic rate difference averaged over a feedback interval.

    For nr_bar > 0: mean over blocks of log2(nr_bar + a^(2k-2) (g - nr_bar))
    with g the asymptotic power at budget b_bar * K.  For nr_bar = 0 the
    MISO form (K-1) log2(alpha) + log2(1 - 2^-(b_bar K)) applies; it is
    -inf when alpha = 0 and K > 1 (a stale beamformer earns nothing).
    """
    check_count("num_blocks", num_blocks)
    k = num_blocks
    if cfg.nr_bar == 0.0:
        gain = math.log2(-math.expm1(-cfg.b_bar * k * _LN2))
        if k == 1:
            return gain
        if cfg.alpha == 0.0:
            return -math.inf
        return (k - 1) * math.log2(cfg.alpha) + gain
    return _mean_block_rate(asymptotic_power(cfg.b_bar * k, cfg.nr_bar), k, cfg)


def _mean_block_rate(g: float, k: int, cfg: LargeSystemConfig) -> float:
    # mean over blocks 1..k of log2(nr_bar + a^(2i-2) (g - nr_bar)), nr_bar > 0
    total = 0.0
    for i in range(1, k + 1):
        total += math.log2(cfg.nr_bar + cfg.alpha ** (2 * i - 2) * (g - cfg.nr_bar))
    return total / k


def _rate_envelope(k: int, cfg: LargeSystemConfig) -> float:
    # An upper bound on rate_difference(k), non-increasing in k.  At
    # alpha = 1 it is inf, so a search runs to k_max.  For nr_bar > 0 it is
    # the rate difference with the power at its ceiling (1 + sqrt(nr_bar))^2:
    # each block's term then falls with the block index, so their mean falls
    # with k.  For nr_bar = 0 it is (k-1) log2(alpha), -inf at alpha = 0: the
    # MISO form without its nonpositive quantization term.
    if cfg.alpha >= 1.0:
        return math.inf
    if cfg.nr_bar > 0.0:
        return _mean_block_rate((1.0 + math.sqrt(cfg.nr_bar)) ** 2, k, cfg)
    if k == 1:
        return 0.0
    return -math.inf if cfg.alpha == 0.0 else (k - 1) * math.log2(cfg.alpha)


def optimal_interval(cfg: LargeSystemConfig) -> IntervalResult:
    """Argmax of the rate difference over K in [1, k_max]; smallest K wins ties.

    For alpha < 1 the scan stops once an upper bound on the rate
    difference, non-increasing in K, can no longer beat the best value so
    far: the rate with the power at its ceiling, or (K-1) log2(alpha) for
    nr_bar = 0.  K*, its value and the horizon flag are those of the full
    scan; ``curve`` ends where the scan stopped.  At alpha = 1 the rate
    difference grows with the pooled budget, so K* is k_max by rule, with
    the whole curve.  The scan is finite's plain interval scan.
    """
    curve = _scan(range(1, cfg.k_max + 1), lambda k: rate_difference(k, cfg), lambda k: _rate_envelope(k, cfg), max)
    if cfg.alpha >= 1.0:
        return IntervalResult(cfg.k_max, curve[-1], True, tuple(curve))
    return best_interval(tuple(curve), cfg.k_max)


def miso_interval_approx(b_bar: float, alpha: float) -> float:
    """Real-valued stationary point of the MISO rate difference.

    (1 / b_bar) log2(1 + b_bar ln 2 / ln(1/alpha)); rounding gives a good
    integer interval for moderate budgets.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("approximation requires 0 < alpha < 1")
    if b_bar <= 0:
        raise ValueError("b_bar must be positive")
    return math.log2(1.0 + b_bar * _LN2 / math.log(1.0 / alpha)) / b_bar


def afp_beats_mfp(cfg: LargeSystemConfig) -> tuple[int, ...]:
    """All K in [2, k_max] whose rate difference beats per-block feedback."""
    return intervals_beating_first(tuple(rate_difference(k, cfg) for k in range(1, cfg.k_max + 1)))
