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
the conditional distribution of the quantizer output.  The quadratures are
adaptive Gauss-Kronrod rules written in numpy, vectorised over panels.  The
perfect-feedback power E[l1] of any shape comes from Khatri's CDF of the
largest Wishart eigenvalue, by the same quadrature.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable

import numpy as np

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
    """Controls for the adaptive quadratures behind the nt x 2 form.

    Each integral is refined until its error estimate is at most
    max(abs_tol, rel_tol * |value|), as QUADPACK does; max_subdivisions caps
    the panels of each integral.  Reaching the cap returns the best
    estimate with a RuntimeWarning that states its error estimate.
    """

    abs_tol: float = 1e-9
    rel_tol: float = 1e-7
    max_subdivisions: int = 200

    def __post_init__(self) -> None:
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")


DEFAULT_QUADRATURE = QuadratureSpec()

# quantizer sizes beyond this leave less than ~1e-120 of the selection gap;
# treat as perfect feedback instead of exponentiating toward overflow
_BITS_SATURATION = 400.0

# F^N below exp(-50) ~ 2e-22 is dropped: the head where N (1 - F) exceeds it,
# the tail profile beyond q^p = 50
_NEGLIGIBLE_EXPONENT = 50.0

# 15-point Gauss-Kronrod rule on [-1, 1] (QUADPACK's qk15 table): Kronrod
# nodes from the end inward to the midpoint, their weights, and the weights
# of the embedded 7-point Gauss rule on every second node
_XGK = (0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
        0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
        0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
        0.207784955007898467600689403773245, 0.0)
_WGK = (0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
        0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
        0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
        0.204432940075298892414161999234649, 0.209482141084727828012999174891714)
_WG = (0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
       0.381830050505118944950369775488975, 0.417959183673469387755102040816327)
_GK_NODES = np.array([-x for x in _XGK[:7]] + list(_XGK[::-1]))
_GK_KRONROD = np.array(_WGK[:7] + _WGK[::-1])
_GK_GAUSS = np.zeros(15)
_GK_GAUSS[1::2] = _WG + _WG[2::-1]
_EPS = float(np.finfo(float).eps)


def _gk15(f, owner, a, b) -> tuple[np.ndarray, np.ndarray]:
    """Kronrod estimate and QUADPACK error estimate of int_a^b f, per panel.

    ``f(x, owner)`` gets the (panels, 15) node array and each panel's
    integral index, and returns the integrand at the nodes.
    """
    half = 0.5 * (b - a)
    y = f((0.5 * (a + b))[:, None] + half[:, None] * _GK_NODES, owner)
    kronrod = y @ _GK_KRONROD
    err = np.abs(kronrod - y @ _GK_GAUSS) * half
    resasc = np.abs(y - 0.5 * kronrod[:, None]) @ _GK_KRONROD * half
    scaled = resasc * np.minimum(1.0, (200.0 * err / resasc) ** 1.5)
    err = np.where((resasc > 0.0) & (err > 0.0), scaled, err)
    err = np.maximum(err, 50.0 * _EPS * (np.abs(y) @ _GK_KRONROD) * half)
    return kronrod * half, err


def _adaptive_gk15(f, owner, a, b, count: int, quad: QuadratureSpec):
    """Integrate ``count`` integrals at once by locally adaptive bisection.

    Integral i starts as the panels [a, b] with owner == i.  Every round
    evaluates all live panels in one call of ``f``.  An integral is done
    once its summed error estimate is within max(abs_tol, rel_tol |value|);
    until then a panel is kept only if its error is within its length's
    share of that tolerance, and the others are halved.  An integral whose
    halving would pass max_subdivisions panels, or whose panels reach
    rounding width, stops where it is and is flagged.

    Returns per integral (value, error estimate, flagged) and the kept
    panels as (a, b, value) arrays.
    """
    length = np.bincount(owner, b - a, minlength=count)
    panels = np.bincount(owner, minlength=count)
    value, error = np.zeros(count), np.zeros(count)
    flagged = np.zeros(count, dtype=bool)
    kept = []
    while True:
        k, e = _gk15(f, owner, a, b)
        total = value + np.bincount(owner, k, minlength=count)
        tol = np.maximum(quad.abs_tol, quad.rel_tol * np.abs(total))
        split = (error + np.bincount(owner, e, minlength=count) > tol)[owner]
        split &= e > tol[owner] * (b - a) / length[owner]
        if split.any():
            stuck = split & (b - a <= 1e4 * _EPS * (np.abs(a) + np.abs(b)))
            halved = np.bincount(owner[split], minlength=count)
            over = panels + halved > quad.max_subdivisions
            over |= np.bincount(owner[stuck], minlength=count) > 0
            flagged |= over & (halved > 0)
            split &= ~over[owner]
            panels += np.where(over, 0, halved)
        done = ~split
        value += np.bincount(owner[done], k[done], minlength=count)
        error += np.bincount(owner[done], e[done], minlength=count)
        kept.append((a[done], b[done], k[done]))
        if not split.any():
            return value, error, flagged, kept
        mid = 0.5 * (a[split] + b[split])
        owner = np.tile(owner[split], 2)
        a, b = np.concatenate([a[split], mid]), np.concatenate([mid, b[split]])


def _ntx2_shortfall(nt: int, n_entries: float, quad: QuadratureSpec) -> tuple[float, float, bool]:
    """E[l1 - selected power] for nt x 2 as (value, error estimate, flagged)."""
    p = nt - 1
    log_norm = math.lgamma(2 * nt + 1) - math.lgamma(nt) - math.lgamma(nt - 1)

    # Tail branch of phi(s), x in [s, 1].  With t = 1 - x scaled by the
    # width (gap/N)^(1/p) of F^N's tail mass it is (gap/N)^(1/p) G(Q), where
    # G(Q) = int_0^Q (1 - q^p/N)^N dq and Q = (N gap^(p-1))^(1/p).  G does not
    # depend on s: it is integrated once, and read off at each Q from the
    # kept panels.  (1 - q^p/N)^N <= exp(-q^p) bounds the range.
    def profile(q, _owner):
        return np.exp(n_entries * np.log1p(-(q**p) / n_entries))

    q_top = min(n_entries, _NEGLIGIBLE_EXPONENT) ** (1.0 / p)
    _, _, flagged, kept = _adaptive_gk15(
        profile, np.zeros(1, dtype=np.intp), np.zeros(1), np.array([q_top]), 1, quad
    )
    left, _, part = (np.concatenate(c) for c in zip(*kept))
    order = np.argsort(left)
    left, part = left[order], part[order]
    below = np.concatenate([[0.0], np.cumsum(part)])
    tail_scale = n_entries ** (-1.0 / p)
    # head branch, x in [0, s]: N (1 - F(s - d)) >= N max(gap, d)^(p-1), so
    # only d below head_reach and gap with N gap^(p-1) below it contribute
    head_reach = (_NEGLIGIBLE_EXPONENT / n_entries) ** (1.0 / (p - 1))
    flags = [bool(flagged[0])]

    def weighted(s, _owner):
        # C s^(n-2) (1-s)^2 (1+s)^-(2n+1) phi(s) at the outer nodes
        shape, s = s.shape, s.ravel()
        gap = 1.0 - s
        q = np.minimum((n_entries * gap ** (p - 1)) ** (1.0 / p), q_top)
        j = np.searchsorted(left, q, side="right") - 1
        half = 0.5 * (q - left[j])
        nodes = left[j, None] + half[:, None] * (_GK_NODES + 1.0)
        partial = profile(nodes, None) @ _GK_KRONROD * half
        phi = gap ** (1.0 / p) * tail_scale * (below[j] + partial)
        live = np.flatnonzero(n_entries * gap ** (p - 1) < _NEGLIGIBLE_EXPONENT)
        if live.size:
            s_l, gap_l = s[live, None], gap[live, None]

            def head(d, owner):
                # F^N at x = s - d:  1 - F = ((gap + d)^p - s (d/s)^p) / gap
                sl, gl = s_l[owner], gap_l[owner]
                u = ((gl + d) ** p - sl * (d / sl) ** p) / gl
                return np.exp(n_entries * np.log1p(-np.minimum(u, 1.0)))

            heads, _, head_flags, _ = _adaptive_gk15(
                head, np.arange(live.size), np.zeros(live.size),
                np.minimum(s[live], head_reach), live.size, quad,
            )
            phi[live] += heads
            flags.append(bool(head_flags.any()))
        log_w = (log_norm + (nt - 2) * np.log(s) + 2.0 * np.log1p(-s)
                 - (2 * nt + 1) * np.log1p(s))
        return (np.exp(log_w) * phi).reshape(shape)

    edges = np.linspace(0.0, 1.0, min(4, quad.max_subdivisions) + 1)
    value, error, flagged, _ = _adaptive_gk15(
        weighted, np.zeros(edges.size - 1, dtype=np.intp), edges[:-1], edges[1:], 1, quad
    )
    return float(value[0]), float(error[0]), bool(flagged[0]) or any(flags)


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

    phi(s) is a tail over [s, 1] plus a head over [0, s].  The tail is an
    incomplete-beta integral; scaled to the width of its mass it becomes one
    profile integral shared by every s.  The head is a nested integral per
    s, dropped where F^N is below exp(-50).  All three are adaptive 15-point
    Gauss-Kronrod quadratures held to ``quad``; reaching max_subdivisions
    gives a RuntimeWarning.  Strictly increasing in the bit budget, equal to
    2 at zero bits.
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
    # log1p(-1) = -inf and the 0/0 of an exactly resolved panel are expected
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        shortfall, error, flagged = _ntx2_shortfall(nt, 2.0**total_bits, quad)
    value = mean_max_eigenvalue(nt) - shortfall
    if flagged:  # not cached, so a repeat call warns again
        warnings.warn(
            f"rvq_power_ntx2({nt}, {total_bits}): quadrature stopped short of its tolerance "
            f"(max_subdivisions={quad.max_subdivisions}); error estimate {error:.3g}",
            RuntimeWarning, stacklevel=2,
        )
    else:
        _ntx2_cache[key] = value
    return value


# the Khatri integral's quadrature: GK15's error estimate is pessimistic, so
# this holds E[l1] to a few ulp
_KHATRI_QUADRATURE = QuadratureSpec(abs_tol=1e-15, rel_tol=1e-13)

# the Khatri integral stops where 1 - F drops below this; its remaining tail
# is far below the rounding of E[l1] >= 1
_KHATRI_TAIL = 1e-20


def _laguerre_rule(count: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Laguerre rule for int_0^inf f(u) e^-u du, exact to degree 2 count - 1.

    The nodes are the eigenvalues of the Jacobi matrix; the weights are the
    Christoffel numbers 1 / sum_k L_k(u)^2.  (The squared eigenvector
    components give the same weights only while they stay well above
    rounding, which fails from about 30 nodes on.)
    """
    k = np.arange(1.0, count)
    nodes = np.linalg.eigvalsh(np.diag(2.0 * np.arange(count) + 1.0) - np.diag(k, 1) - np.diag(k, -1))
    prev, cur, total = np.zeros(count), np.ones(count), np.ones(count)
    for j in range(count - 1):
        prev, cur = cur, ((2 * j + 1 - nodes) * cur - j * prev) / (j + 1)
        total += cur * cur
    return nodes, 1.0 / total


@lru_cache(maxsize=None)
def mean_largest_eigenvalue(shape: SystemShape) -> float:
    """E[l1], the mean largest eigenvalue of H^H H: the power of perfect-CSI beamforming.

    With m <= n the smaller and larger of (nt, nr), m = 1 gives n (a
    chi-square mean) and m = 2 the exact :func:`mean_max_eigenvalue`.  For
    m >= 3 it is int_0^inf (1 - F(x)) dx with Khatri's CDF of the largest
    root of a complex Wishart matrix (Khatri 1964; Kang & Alouini, IEEE
    JSAC 2003), F(x) = det(I - K_x).  K_x is the m x m Gram matrix on
    [x, inf) of the orthonormal generalised-Laguerre functions
    p_k(t) t^(a/2) e^(-t/2), a = n - m, with the p_k from their three-term
    recurrence.  With t = x + u each entry is e^-x times the integral of a
    polynomial of degree at most a + 2m - 2 in u against e^-u, so a
    Gauss-Laguerre rule of m + a // 2 nodes gives it exactly up to rounding.
    The eigenvalues of K_x lie in [0, 1], and 1 - F is summed from them as
    -expm1(sum log1p(-kappa)), which keeps its relative precision in the
    tail.  The outer integral is the adaptive Gauss-Kronrod quadrature,
    stopped where 1 - F falls below 1e-20.
    """
    m, n = sorted((shape.nt, shape.nr))
    if m == 1:
        return float(n)
    if m == 2:
        return mean_max_eigenvalue(n)
    a = n - m
    nodes, weights = _laguerre_rule(m + a // 2)
    log_head = 0.5 * np.log(weights) - 0.5 * math.lgamma(a + 1)  # log(sqrt(w) p_0)
    coupling = np.sqrt(np.arange(m) * (np.arange(m) + a))  # recurrence's sqrt(k (k + a))

    def tail(x, _owner):
        # 1 - F(x) at every node: K_x = Phi^T Phi, Phi[i, k] the weighted
        # Laguerre function k at t_i = x + u_i
        t = x.reshape(-1, 1) + nodes
        phi = np.empty(t.shape + (m,))
        phi[..., 0] = np.exp(log_head + 0.5 * a * np.log(t) - 0.5 * x.reshape(-1, 1))
        prev = 0.0
        for k in range(m - 1):
            phi[..., k + 1] = ((t - (2 * k + a + 1)) * phi[..., k] - coupling[k] * prev) / coupling[k + 1]
            prev = phi[..., k]
        kappa = np.minimum(np.linalg.eigvalsh(np.swapaxes(phi, 1, 2) @ phi), 1.0)
        return -np.expm1(np.log1p(-kappa).sum(axis=1)).reshape(x.shape)

    # log1p(-1) = -inf where the spectrum sits above x, and the 0/0 of a
    # panel whose integrand is exactly zero, are expected
    with np.errstate(divide="ignore", invalid="ignore"):
        grid = (math.sqrt(m) + math.sqrt(n)) ** 2 * (1.0 + 0.25 * np.arange(1, 41))
        negligible = tail(grid, None) < _KHATRI_TAIL
        edges = np.linspace(0.0, grid[negligible.argmax()] if negligible.any() else grid[-1], 5)
        value, error, flagged, _ = _adaptive_gk15(
            tail, np.zeros(4, dtype=np.intp), edges[:-1], edges[1:], 1, _KHATRI_QUADRATURE
        )
    if flagged[0]:
        warnings.warn(
            f"mean_largest_eigenvalue({shape.nt}x{shape.nr}): quadrature stopped short of its "
            f"tolerance; error estimate {error[0]:.3g}",
            RuntimeWarning, stacklevel=2,
        )
    return float(value[0])


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
        if not 0.0 < self.bits_per_block < math.inf:
            raise ValueError(f"bits_per_block must be finite and positive, got {self.bits_per_block}")
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
    """Outcome of an interval search: the best K and the curve scanned for it.

    ``curve`` holds the objective at K = 1, 2, ... as far as the scan went;
    it is empty when no scan ran (``finite`` at alpha = 1 evaluates K = k_max
    alone).
    """

    k_star: int
    value: float
    horizon_limited: bool
    curve: tuple[float, ...] = ()


def scan_interval(
    objective: Callable[[int], float],
    k_max: int,
    stop: Callable[[int, list[float]], bool] | None = None,
) -> tuple[float, ...]:
    """objective(K) for K = 1, 2, ..., k_max; ``stop(K, curve)`` true ends the scan before K."""
    curve = [objective(1)]
    for k in range(2, k_max + 1):
        if stop is not None and stop(k, curve):
            break
        curve.append(objective(k))
    return tuple(curve)


def best_interval(curve: tuple[float, ...], k_max: int) -> IntervalResult:
    """First argmax of a scanned curve (smallest K wins ties); flagged when it is k_max."""
    best = max(range(len(curve)), key=curve.__getitem__)
    return IntervalResult(best + 1, curve[best], best + 1 == k_max, curve)


def intervals_beating_first(curve: tuple[float, ...]) -> tuple[int, ...]:
    """Every K > 1 of a scanned curve whose value exceeds the K = 1 value."""
    return tuple(k for k, v in enumerate(curve[1:], 2) if v > curve[0])


def _search_envelope(cfg: AfpConfig, num_blocks: int) -> float:
    # upper bound on avg_power(K): quantized power can never exceed E[l1];
    # the resulting envelope is strictly decreasing in K for alpha < 1
    return interval_average_power(
        isotropic_power(cfg), mean_largest_eigenvalue(cfg.shape), cfg.model.alpha, num_blocks
    )


def optimal_interval(cfg: AfpConfig) -> IntervalResult:
    """Exhaustive argmax of avg_power over K in [1, k_max]; smallest K wins ties.

    For alpha < 1 the scan stops once even perfect feedback could not beat
    the incumbent (a strictly decreasing envelope), which cannot change the
    argmax.  A maximum sitting at k_max is flagged horizon-limited.
    """
    if cfg.model.alpha >= 1.0:
        # average power equals the quantized power at K*bits, increasing in K
        return IntervalResult(cfg.k_max, avg_power(cfg, cfg.k_max), True)
    curve = scan_interval(
        lambda k: avg_power(cfg, k), cfg.k_max,
        lambda k, curve: _search_envelope(cfg, k) <= max(curve),
    )
    return best_interval(curve, cfg.k_max)


@dataclass(frozen=True)
class AfpMfpComparison:
    """Feedback intervals where pooling bits beats per-block feedback."""

    winning_k: tuple[int, ...]
    pointwise_bound: tuple[float, ...]  # loose analytic bound at each winning K
    large_budget_bound: float  # 1 / (1 - alpha^2)


def afp_beats_mfp(cfg: AfpConfig) -> AfpMfpComparison:
    """All K in [2, k_max] whose interval-average power exceeds the K = 1 value.

    For alpha < 1 the scan stops once the envelope falls to the K = 1 value.
    """
    alpha = cfg.model.alpha
    if alpha >= 1.0:
        # quantized power is strictly increasing in bits, so every K wins
        ks = tuple(range(2, cfg.k_max + 1))
        return AfpMfpComparison(ks, tuple(math.inf for _ in ks), math.inf)
    curve = scan_interval(
        lambda k: avg_power(cfg, k), cfg.k_max,
        lambda k, curve: _search_envelope(cfg, k) <= curve[0],
    )
    ks = intervals_beating_first(curve)
    iso, base = isotropic_power(cfg), curve[0]
    large_budget = 1.0 / (1.0 - alpha * alpha)
    bounds = tuple(
        large_budget * (quantized_first_block_power(cfg, cfg.bits_per_block * k) - iso) / (base - iso)
        for k in ks
    )
    return AfpMfpComparison(ks, bounds, large_budget)
