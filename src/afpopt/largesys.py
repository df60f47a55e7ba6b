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
    """((1 + u) log1p(u) - u) / u^2 for u > 0, in (0, 1/2]: below u = 0.1, where it cancels, from 16 terms
    of its series, and above from a form that cannot overflow."""
    if u < 0.1:
        return sum((-u) ** k / ((k + 1) * (k + 2)) for k in range(16))
    return ((1.0 + 1.0 / u) * math.log1p(u) - 1.0) / u


def bits_threshold(nr_bar: float) -> float:
    """Normalized bit budget where the asymptotic power law changes branch: (s - nr_bar log1p(1/s)) / ln 2,
    s = sqrt(nr_bar), summed as s (1 - psi(1/s)) / ((1 + s) ln 2) for every finite nr_bar > 0."""
    if nr_bar <= 0:
        raise ValueError("threshold is defined for nr_bar > 0; use the MISO form")
    s = math.sqrt(nr_bar)
    return s * (1.0 - _psi(1.0 / s)) / ((1.0 + s) * _LN2)


def asymptotic_power(x: float, nr_bar: float) -> float:
    """Limit of the per-antenna selected power at normalized budget x, for every finite nr_bar >= 0: 1 - 2^-x
    at nr_bar = 0, else nr_bar + :func:`_excess`; non-decreasing in x, up to (1 + sqrt(nr_bar))^2."""
    if x < 0:
        raise ValueError("normalized bits must be nonnegative")
    if nr_bar < 0:
        raise ValueError("nr_bar must be nonnegative")
    return 1.0 - 2.0 ** (-x) if nr_bar == 0.0 else nr_bar + _excess(x, nr_bar)


def _excess(x: float, nr_bar: float) -> float:
    """The power's excess d = g - nr_bar, to full relative precision; -expm1(-x ln 2) at nr_bar = 0.

    Below the branch threshold d is the root of h(d) = nr_bar log1p(d / nr_bar) - d + c, c = x ln 2
    (the fixed point g^nr_bar exp(-g) = 2^-x (nr_bar / e)^nr_bar), concave and decreasing.  h < 0 at
    s = sqrt(nr_bar) and, as log1p(u) <= u (2 + u) / (2 (1 + u)), at c + sqrt(c^2 + 2 c nr_bar); Newton
    steps from the smaller, d <- d psi(d / nr_bar) + c (1 + nr_bar / d), sums of positive terms, fall
    monotonically onto the root.  Past the threshold d = s - (1 + s) expm1((threshold - x) ln 2), s at it.
    """
    if nr_bar == 0.0 or x == 0.0:
        return -math.expm1(-x * _LN2)
    s = math.sqrt(nr_bar)
    threshold = bits_threshold(nr_bar)
    if x >= threshold:  # the closed form, a sum of nonnegative terms
        return s - (1.0 + s) * math.expm1((threshold - x) * _LN2)
    c = x * _LN2
    d = c + math.sqrt(2.0 * c) * math.sqrt(nr_bar + 0.5 * c)
    if d < _EPS * nr_bar:  # within d^2 / (6 nr_bar) of the root, below rounding; nr_bar / d may overflow
        return d
    d = min(s, d)
    for _ in range(_ROOT_MAX_ITER):
        d, last = d * _psi(d / nr_bar) + c * (1.0 + nr_bar / d), d
        if last - d <= _EPS * d:
            break
    return d


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
    """Asymptotic rate difference averaged over a feedback interval: the mean over blocks of
    log2(nr_bar + alpha^(2k-2) d), d the power's excess over nr_bar at budget b_bar K; at nr_bar = 0,
    (K-1) log2(alpha) + log2(1 - 2^-(b_bar K)), -inf at alpha = 0 past K = 1."""
    check_count("num_blocks", num_blocks)
    return _gain_and_rate(num_blocks, _excess(cfg.b_bar * num_blocks, cfg.nr_bar), cfg)[1]


def _gain_and_rate(k: int, d: float, cfg: LargeSystemConfig) -> tuple[float, float]:
    # at excess d, the part of the rate difference that K moves, the mean over blocks of
    # log2(1 + alpha^(2i-2) d / nr_bar), and the rate, that plus log2(nr_bar); where nr_bar < d,
    # which log2(nr_bar) would cancel, the rate is the mean of log2(nr_bar + alpha^(2i-2) d) and
    # the gain that less log2(nr_bar); at nr_bar = 0 both are (K-1) log2(alpha) + log2(d)
    nr_bar, alpha, total = cfg.nr_bar, cfg.alpha, 0.0
    if nr_bar == 0.0:
        gain = (0.0 if k == 1 else (k - 1) * math.log2(alpha) if alpha > 0.0 else -math.inf) + math.log2(d)
        return gain, gain
    if nr_bar < d:
        for i in range(k):
            total += math.log2(nr_bar + alpha ** (2 * i) * d)
        return total / k - math.log2(nr_bar), total / k
    r = d / nr_bar
    for i in range(k):
        total += math.log1p(alpha ** (2 * i) * r)
    return total / (k * _LN2), total / (k * _LN2) + math.log2(nr_bar)


def _envelope(k: int, cfg: LargeSystemConfig) -> float:
    # an upper bound on the gain, non-increasing in K (each block's term falls with its index): the
    # gain at the ceiling excess 1 + 2 sqrt(nr_bar), summed as the closed form's at x = inf so that
    # no rounded excess exceeds it.  It is inf at alpha = 1, so a search runs to k_max.
    s = math.sqrt(cfg.nr_bar)
    return math.inf if cfg.alpha >= 1.0 else _gain_and_rate(k, s + (1.0 + s), cfg)[0]


def _scan_gains(cfg: LargeSystemConfig, incumbent) -> tuple[list[float], list[float]]:
    # the gains of K = 1, 2, ... up to where their envelope falls to the incumbent, and their rates
    rates: list[float] = []

    def gain(k: int) -> float:
        gain, rate = _gain_and_rate(k, _excess(cfg.b_bar * k, cfg.nr_bar), cfg)
        rates.append(rate)
        return gain

    return _scan(range(1, cfg.k_max + 1), gain, lambda k: _envelope(k, cfg), incumbent), rates


def optimal_interval(cfg: LargeSystemConfig) -> IntervalResult:
    """Argmax of the rate difference over K in [1, k_max]; smallest K wins ties.

    The scan compares the gains, the part of the rate that K moves, which log2(nr_bar) would round
    away at large nr_bar, and for alpha < 1 stops once their envelope, the gain at the ceiling power,
    can no longer beat the best so far.  K*, its value and the horizon flag are those of the full scan;
    ``curve`` holds :func:`rate_difference` up to where the scan stopped.  At alpha = 1 the rate grows
    with the pooled budget, so K* is k_max by rule.
    """
    gains, curve = _scan_gains(cfg, max)
    k = cfg.k_max if cfg.alpha >= 1.0 else best_interval(tuple(gains), cfg.k_max).k_star
    return IntervalResult(k, curve[k - 1], k == cfg.k_max, tuple(curve))


def miso_interval_approx(b_bar: float, alpha: float) -> float:
    """Real-valued stationary point of the MISO rate difference, (1 / b_bar) log2(1 + b_bar ln 2 / ln(1/alpha));
    rounding gives a good integer interval for moderate budgets."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("approximation requires 0 < alpha < 1")
    if b_bar <= 0:
        raise ValueError("b_bar must be positive")
    return math.log2(1.0 + b_bar * _LN2 / math.log(1.0 / alpha)) / b_bar


def afp_beats_mfp(cfg: LargeSystemConfig) -> tuple[int, ...]:
    """All K in [2, k_max] whose rate difference beats per-block feedback; the scan of the gains
    stops where their envelope falls to the K = 1 gain."""
    return intervals_beating_first(tuple(_scan_gains(cfg, lambda first, _: first)[0]))
