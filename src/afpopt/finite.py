"""Finite-size analysis of quantized beamforming over a feedback interval.

Everything here rests on the two ordered eigenvalues (l1 >= l2) of the
channel Gram matrix of a min(nt, nr) = 2 channel, the shapes
:func:`has_closed_form` admits.  With larger dimension n their joint density
is

    f(l1, l2) = l1^(n-2) l2^(n-2) (l1 - l2)^2 exp(-(l1 + l2)) / ((n-1)!(n-2)!),

and its two moments E[l1] = n + c and E[l1 - l2] = 2c, with
c = (2n-1) C(2n-2, n-1) / 4^(n-1), are exact rationals.  With two transmit
antennas the average received power is closed form in them.  With two
receive antennas the RVQ selection shortfall is homogeneous of degree 1 in
(l1, l2), so with s = l2 / l1 the l1 integral is a closed-form Gamma
integral and the average power is a one-dimensional quadrature over s (with
a nested head quadrature) against the conditional distribution of the
quantizer output.  The quadratures are adaptive Gauss-Kronrod rules written
in numpy, held to fixed tolerances and vectorised over panels and over bit
budgets: many budgets are the integrals of one batched pass, each with a
result that does not depend on the others (:func:`rvq_powers_ntx2`), and a
bounded cache keeps the values for later calls.  Every power, one or a
batch, comes through :func:`quantized_powers` to the caller that fetched
it: the interval searches run in lockstep (:func:`optimal_intervals`) and
fetch each window of K together, cut off by an envelope that bounds every
later interval, and the simulator and the CLI fetch their tables' budgets.
The perfect-feedback power E[l1] of any shape comes from Khatri's CDF of
the largest Wishart eigenvalue, by the same quadrature.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from itertools import takewhile
from typing import Callable, Iterable, Iterator

import numpy as np

from afpopt.channel import FadingModel, SystemShape, check_count


def _rank2_excess(n: int) -> tuple[int, int]:
    # E[l1] - n = E[l1 - l2] / 2 = (2n-1) C(2n-2, n-1) / 4^(n-1), as numerator
    # and denominator, so that one int division rounds it correctly
    if n < 2:
        raise ValueError("larger system dimension must be >= 2")
    return (2 * n - 1) * math.comb(2 * n - 2, n - 1), 4 ** (n - 1)


def mean_max_eigenvalue(n: int) -> float:
    """E[l1] for the rank-2 Gram spectrum with larger dimension n >= 2."""
    num, den = _rank2_excess(n)
    return (n * den + num) / den


def mean_eigen_gap(n: int) -> float:
    """E[l1 - l2] for the rank-2 Gram spectrum with larger dimension n >= 2.

    Twice the excess of E[l1] over n, since E[l1 + l2] = E[trace] = 2n.
    """
    num, den = _rank2_excess(n)
    return 2 * num / den


def rvq_power_2xnr(nr: int, total_bits: float) -> float:
    """Mean selected power E[v^H H^H H v] for a 2 x nr channel, RVQ quantized.

    Equals E[l1] - E[l1 - l2] / (2^bits + 1): the best of 2^bits isotropic
    entries closes the gap to the top eigenvalue geometrically in the bit
    budget.  total_bits = 0 recovers the isotropic power nr; 2^bits stops
    at 2^1023, below its overflow, where the deficit is far below rounding.
    """
    if nr < 2:
        raise ValueError("closed form requires nr >= 2")
    if not total_bits >= 0:
        raise ValueError("total_bits must be nonnegative")
    return mean_max_eigenvalue(nr) - mean_eigen_gap(nr) * (1.0 / (2.0 ** min(total_bits, 1023.0) + 1.0))


def block_power_2xnr(nr: int, total_bits: float, alpha: float, k: int) -> float:
    """Expected power at block k under the beamformer quantized at block 1."""
    check_count("k", k)
    FadingModel(alpha)  # its alpha check
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


# (abs_tol, rel_tol) of the adaptive quadratures: each integral is refined
# until its error estimate is at most max(abs_tol, rel_tol |value|), as
# QUADPACK does.  GK15's error estimate is pessimistic, so the Khatri
# tolerance holds E[l1] to a few ulp.  Every integral stops at
# _MAX_SUBDIVISIONS panels, with its best estimate and a RuntimeWarning.
_NTX2_TOLERANCE = (1e-9, 1e-7)
_KHATRI_TOLERANCE = (1e-15, 1e-13)
_MAX_SUBDIVISIONS = 200

# past this budget the nt x 2 quadrature runs at 2^_LAW_BITS entries, below
# the overflow of 2.0**bits, and its shortfall is scaled (see rvq_powers_ntx2)
_LAW_BITS = 1000.0

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
_LN2 = math.log(2.0)

# nodes per GK15 evaluation step, which bounds the temporaries of a batch
# of budgets: the nt x 2 integrand reads its tail profile at 15 nodes per
# node, so a step holds about 15 x 8192 doubles (1 MB) per temporary
_GK_BLOCK = 1 << 13

# cache caps: nt x 2 powers (past the cap the oldest entry goes) and E[l1]
# values (the least recently used goes)
_NTX2_CACHE_SIZE = 4096
_EIGENVALUE_CACHE_SIZE = 256


def _gk15(f, owner, a, b) -> tuple[np.ndarray, np.ndarray]:
    """Kronrod estimate and QUADPACK error estimate of int_a^b f, per panel.

    ``f(x, owner)`` gets a (panels, 15) node array and each panel's
    integral index, and returns the integrand at the nodes.  Panels are
    evaluated in blocks of at most ``_GK_BLOCK`` nodes, which bounds the
    temporaries.  Every panel's result depends on its own nodes alone: the
    weighted sums are row sums, not BLAS products, whose rounding can
    depend on where a row sits in the stack.
    """
    step = max(1, _GK_BLOCK // _GK_NODES.size)
    kronrod, err = zip(*(
        _gk15_block(f, owner[i : i + step], a[i : i + step], b[i : i + step])
        for i in range(0, a.size, step)
    ))
    return np.concatenate(kronrod), np.concatenate(err)


def _gk15_block(f, owner, a, b) -> tuple[np.ndarray, np.ndarray]:
    half = 0.5 * (b - a)
    y = f((0.5 * (a + b))[:, None] + half[:, None] * _GK_NODES, owner)
    kronrod = (y * _GK_KRONROD).sum(axis=1)
    err = np.abs(kronrod - (y * _GK_GAUSS).sum(axis=1)) * half
    resasc = (np.abs(y - 0.5 * kronrod[:, None]) * _GK_KRONROD).sum(axis=1) * half
    scaled = resasc * np.minimum(1.0, (200.0 * err / resasc) ** 1.5)
    err = np.where((resasc > 0.0) & (err > 0.0), scaled, err)
    err = np.maximum(err, 50.0 * _EPS * (np.abs(y) * _GK_KRONROD).sum(axis=1) * half)
    return kronrod * half, err


def _adaptive_gk15(f, owner, a, b, count: int, tolerance: tuple[float, float]):
    """Integrate ``count`` integrals at once by locally adaptive bisection.

    Integral i starts as the panels [a, b] with owner == i.  Every round
    evaluates all live panels in one call of ``f``.  An integral is done
    once its summed error estimate is within max(abs_tol, rel_tol |value|),
    with (abs_tol, rel_tol) = ``tolerance``; until then a panel is kept only
    if its error is within its length's share of that tolerance, and the
    others are halved.  An integral whose halving would pass
    ``_MAX_SUBDIVISIONS`` panels, or whose panels reach
    rounding width, stops where it is and is flagged.  Each integral's
    panels keep their relative order and are summed in that order, so its
    result does not depend on the other integrals of the call.

    Returns per integral (value, error estimate, flagged) and the kept
    panels as (owner, left end, value) arrays.
    """
    abs_tol, rel_tol = tolerance
    length = np.bincount(owner, b - a, minlength=count)
    panels = np.bincount(owner, minlength=count)
    value, error = np.zeros(count), np.zeros(count)
    flagged = np.zeros(count, dtype=bool)
    kept = []
    while True:
        k, e = _gk15(f, owner, a, b)
        total = value + np.bincount(owner, k, minlength=count)
        tol = np.maximum(abs_tol, rel_tol * np.abs(total))
        split = (error + np.bincount(owner, e, minlength=count) > tol)[owner]
        split &= e > tol[owner] * (b - a) / length[owner]
        if split.any():
            stuck = split & (b - a <= 1e4 * _EPS * (np.abs(a) + np.abs(b)))
            halved = np.bincount(owner[split], minlength=count)
            over = panels + halved > _MAX_SUBDIVISIONS
            over |= np.bincount(owner[stuck], minlength=count) > 0
            flagged |= over & (halved > 0)
            split &= ~over[owner]
            panels += np.where(over, 0, halved)
        done = ~split
        value += np.bincount(owner[done], k[done], minlength=count)
        error += np.bincount(owner[done], e[done], minlength=count)
        kept.append((owner[done], a[done], k[done]))
        if not split.any():
            return value, error, flagged, kept
        mid = 0.5 * (a[split] + b[split])
        owner = np.tile(owner[split], 2)
        a, b = np.concatenate([a[split], mid]), np.concatenate([mid, b[split]])


def _ntx2_shortfall(nt: int, sizes: list[float]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """E[l1 - selected power] for nt x 2 at each quantizer size N in ``sizes``.

    Returns (values, error estimates, flagged), one entry per size.  The
    sizes are the owners of one set of adaptive quadratures, each held to
    ``_NTX2_TOLERANCE``, and each value depends on its own size alone.
    """
    p, tol = nt - 1, _NTX2_TOLERANCE
    count = len(sizes)
    log_norm = math.lgamma(2 * nt + 1) - math.lgamma(nt) - math.lgamma(nt - 1)
    # per-size constants, in scalar arithmetic
    n_entries = np.array(sizes)
    log_n = np.array([math.log(n) for n in sizes])
    q_top = np.array([min(n, _NEGLIGIBLE_EXPONENT) ** (1.0 / p) for n in sizes])
    tail_scale = np.array([n ** (-1.0 / p) for n in sizes])
    # head branch, x in [0, s]: N (1 - F(s - d)) >= N max(gap, d)^(p-1), so
    # only d below head_reach and gap with N gap^(p-1) below it contribute
    head_reach = np.array([(_NEGLIGIBLE_EXPONENT / n) ** (1.0 / (p - 1)) for n in sizes])

    # Tail branch of phi(s), x in [s, 1].  With t = 1 - x scaled by the
    # width (gap/N)^(1/p) of F^N's tail mass it is (gap/N)^(1/p) G(Q), where
    # G(Q) = int_0^Q (1 - q^p/N)^N dq and Q = (N gap^(p-1))^(1/p).  G does not
    # depend on s: it is integrated once per size, and read off at each Q
    # from that size's kept panels.  (1 - q^p/N)^N <= exp(-q^p) bounds the
    # range.
    def profile(q, owner):
        n = n_entries[owner, None]
        return np.exp(n * np.log1p(-(q**p) / n))

    # a size is flagged when any of its integrals is: its profile, its
    # outer integral or one of its head integrals
    _, _, flagged, kept = _adaptive_gk15(profile, np.arange(count), np.zeros(count), q_top, count, tol)
    owner, left, part = (np.concatenate(c) for c in zip(*kept))
    order = np.lexsort((left, owner))
    owner, left, part = owner[order], left[order], part[order]
    # each size's table, in (size, left end) order: the complex keys sort
    # lexicographically, so one searchsorted finds a node's panel within
    # its own size's table; below[j] is the profile integral up to left[j]
    keys = owner + 1j * left
    below = np.empty_like(part)
    starts = np.searchsorted(owner, np.arange(count + 1))
    for lo, hi in zip(starts[:-1], starts[1:]):
        below[lo] = 0.0
        below[lo + 1 : hi] = np.cumsum(part[lo : hi - 1])

    def weighted(s, owner):
        # C s^(n-2) (1-s)^2 (1+s)^-(2n+1) phi(s) at the outer nodes
        shape, s = s.shape, s.ravel()
        size = np.repeat(owner, shape[1])
        gap = 1.0 - s
        # log(N gap^(p-1)), formed in logs: gap^(p-1) alone is subnormal
        # near s = 1 once nt is past about 120
        log_mass = log_n[size] + (p - 1) * np.log(gap)
        q = np.minimum(np.exp(log_mass / p), q_top[size])
        j = np.searchsorted(keys, size + 1j * q, side="right") - 1
        half = 0.5 * (q - left[j])
        nodes = left[j, None] + half[:, None] * (_GK_NODES + 1.0)
        partial = (profile(nodes, size) * _GK_KRONROD).sum(axis=1) * half
        phi = gap ** (1.0 / p) * tail_scale[size] * (below[j] + partial)
        live = np.flatnonzero(log_mass < math.log(_NEGLIGIBLE_EXPONENT))
        if live.size:
            s_l, gap_l, n_l = s[live, None], gap[live, None], n_entries[size[live], None]

            def head(d, owner):
                # F^N at x = s - d:  1 - F = ((gap + d)^p - s (d/s)^p) / gap
                sl, gl = s_l[owner], gap_l[owner]
                u = ((gl + d) ** p - sl * (d / sl) ** p) / gl
                return np.exp(n_l[owner] * np.log1p(-np.minimum(u, 1.0)))

            heads, _, head_flags, _ = _adaptive_gk15(
                head, np.arange(live.size), np.zeros(live.size),
                np.minimum(s[live], head_reach[size[live]]), live.size, tol,
            )
            phi[live] += heads
            flagged[size[live[head_flags]]] = True
        log_w = (log_norm + (nt - 2) * np.log(s) + 2.0 * np.log1p(-s)
                 - (2 * nt + 1) * np.log1p(s))
        return (np.exp(log_w) * phi).reshape(shape)

    edges = np.linspace(0.0, 1.0, min(4, _MAX_SUBDIVISIONS) + 1)
    value, error, outer_flagged, _ = _adaptive_gk15(
        weighted, np.repeat(np.arange(count), edges.size - 1),
        np.tile(edges[:-1], count), np.tile(edges[1:], count), count, tol,
    )
    return value, error, flagged | outer_flagged


# a memo across calls, as later calls in one process reuse earlier budgets:
# in the analytic benchmark's one-process pass (2-vCPU VM), optimal-k 5x2
# took 0.5 ms with it and 4.5-6 ms with it cleared before each call
_ntx2_cache: dict[tuple, float] = {}


def rvq_powers_ntx2(nt: int, budgets: Iterable[float]) -> list[float]:
    """Mean selected power of an nt x 2 channel (nt > 2), RVQ quantized, at each bit budget.

    E[l1] minus the expected selection shortfall int_0^l1 F(x)^N dx, the
    gap between l1 and the best of N = 2^bits isotropic entries.  F is the
    CDF of v^H diag(l1, l2, 0, ..., 0) v for an isotropic unit v in C^nt:
    1 - (l1 - x)^(nt-1) / ((l1 - l2) l1^(nt-2)) above l2, and
    1 - (l1 (1 - x/l1)^(nt-1) - l2 (1 - x/l2)^(nt-1)) / (l1 - l2) below it.
    The shortfall is homogeneous of degree 1 in
    (l1, l2), so it equals l1 phi(s) with s = l2 / l1.  Substituting
    l2 = s l1 in the joint eigenvalue density turns the l1 integral into
    int l1^(2n) e^(-l1 (1+s)) dl1 = (2n)! / (1+s)^(2n+1), which leaves

        E[shortfall] = (2n)! / ((n-1)!(n-2)!)
                       int_0^1 s^(n-2) (1-s)^2 (1+s)^-(2n+1) phi(s) ds,  n = nt.

    phi(s) is a tail over [s, 1] plus a head over [0, s].  The tail is an
    incomplete-beta integral; scaled to the width of its mass it becomes one
    profile integral shared by every s.  The head is a nested integral per
    s, dropped where F^N is below exp(-50).  All three are adaptive 15-point
    Gauss-Kronrod quadratures held to ``_NTX2_TOLERANCE``, each round
    vectorised over its panels.  The power is strictly increasing in the bit
    budget, equal to 2 at zero bits.

    Past ``_LAW_BITS`` = 1000 bits the quadrature runs at N = 2^1000 and its
    shortfall is scaled by 2^(-(bits - 1000)/(nt - 1)), the N^(-1/(nt-1))
    law of the single-term tail c (l1 - x)^(nt-1) near l1; so scaled, it
    agrees between 1000 and 1023 bits to 1e-8 for nt 3 to 2000.  An
    infinite budget gives E[l1].

    The budgets that are not cached become the integrals
    of one set of quadratures (each budget its own outer, profile and head
    integrals), a few numpy rounds in all, and each value equals the one
    its budget gets alone, bit for bit.  A budget whose quadrature reaches
    ``_MAX_SUBDIVISIONS`` warns on its own when it is fetched, even past
    where a search's scan stops, and is not cached; the others are, in a
    cache of at most ``_NTX2_CACHE_SIZE`` values.
    """
    if nt <= 2:
        raise ValueError("quadrature form requires nt > 2")
    budgets = list(budgets)
    if any(not bits >= 0 for bits in budgets):
        raise ValueError("total_bits must be nonnegative")
    top = mean_max_eigenvalue(nt)
    keys = [(nt, round(bits, 9)) for bits in budgets]
    # read the cached values first: caching this batch's may evict them
    values = {key: _ntx2_cache[key] for key in keys if key in _ntx2_cache}
    todo: dict[tuple, float] = {}
    for key, bits in zip(keys, budgets):
        if key not in values:
            todo.setdefault(key, bits)
    if todo:
        # log1p(-1) = -inf and the 0/0 of an exactly resolved panel are expected
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            shortfall, error, flagged = _ntx2_shortfall(nt, [2.0 ** min(b, _LAW_BITS) for b in todo.values()])
        for (key, bits), short, err, flag in zip(todo.items(), shortfall, error, flagged):
            values[key] = top - float(short) * 2.0 ** (-max(bits - _LAW_BITS, 0.0) / (nt - 1))
            if flag:  # not cached, so a repeat call warns again
                warnings.warn(
                    f"rvq_power_ntx2({nt}, {bits}): quadrature stopped short of its tolerance "
                    f"(max_subdivisions={_MAX_SUBDIVISIONS}); error estimate {err:.3g}",
                    RuntimeWarning, stacklevel=2,
                )
                continue
            if len(_ntx2_cache) >= _NTX2_CACHE_SIZE:
                del _ntx2_cache[next(iter(_ntx2_cache))]  # the oldest entry
            _ntx2_cache[key] = values[key]
    return [values[key] for key in keys]


def rvq_power_ntx2(nt: int, total_bits: float) -> float:
    """The RVQ-quantized power of an nt x 2 channel (nt > 2) at one budget: see :func:`rvq_powers_ntx2`."""
    return rvq_powers_ntx2(nt, [total_bits])[0]


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


@lru_cache(maxsize=_EIGENVALUE_CACHE_SIZE)
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
            tail, np.zeros(4, dtype=np.intp), edges[:-1], edges[1:], 1, _KHATRI_TOLERANCE
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


def _check_closed_form(shape: SystemShape) -> None:
    if not has_closed_form(shape):
        raise ValueError(f"no closed-form path for a {shape.nt}x{shape.nr} channel")


def quantized_powers(shape: SystemShape, budgets: Iterable[float]) -> list[float]:
    """The quantized first-block power of ``shape`` at each bit budget of ``budgets``.

    The one door to the exact powers: the 2 x nr closed form
    (:func:`rvq_power_2xnr`) at each budget, or one :func:`rvq_powers_ntx2`
    batch for an nt x 2 shape.  A shape that :func:`has_closed_form`
    rejects raises a ValueError.  Every batch of the package comes from
    here to the caller that reads it: one per shape and window of the
    lockstep searches (:func:`optimal_intervals`), one per shape of a
    sweep's analytic column, and one for the ``analytic`` command's table.
    """
    _check_closed_form(shape)
    if shape.nt == 2:
        return [rvq_power_2xnr(shape.nr, bits) for bits in budgets]
    return rvq_powers_ntx2(shape.nt, budgets)


@dataclass(frozen=True)
class AfpConfig:
    """Configuration for the finite-size interval search.

    The shape must pass :func:`has_closed_form`; other shapes must go
    through the simulator.
    """

    shape: SystemShape
    bits_per_block: float
    model: FadingModel
    k_max: int = 64

    def __post_init__(self) -> None:
        _check_closed_form(self.shape)
        if not 0.0 < self.bits_per_block < math.inf:
            raise ValueError(f"bits_per_block must be finite and positive, got {self.bits_per_block}")
        check_count("k_max", self.k_max)


def avg_power(cfg: AfpConfig, num_blocks: int) -> float:
    """Average received power over a feedback interval of ``num_blocks``.

    The block-1 beamformer is quantized with bits_per_block * num_blocks
    bits and reused; staleness decays the excess over isotropic power by
    alpha^(2k-2) per block.  At alpha = 1 this reduces to the quantized
    first-block power itself.
    """
    check_count("num_blocks", num_blocks)
    (g,) = quantized_powers(cfg.shape, [cfg.bits_per_block * num_blocks])
    return interval_average_power(cfg.shape.nr, g, cfg.model.alpha, num_blocks)


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
        cfg.shape.nr, mean_largest_eigenvalue(cfg.shape), cfg.model.alpha, num_blocks
    )


# the searches' windows of K: [1, 16), [16, 128), ...  An nt x 2 pass costs
# about 1.6 ms plus 0.15-0.2 ms per budget (2-core VM), so budgets fetched
# past a stop cost less than narrower windows' passes: first windows of 4, 8
# and 16 took about 35, 32 and 29 ms on the analytic benchmark's searches
_FIRST_WINDOW = 16
_WINDOW_GROWTH = 8


def _search(ks: range, value: Callable[[int], float], envelope: Callable[[int], float],
            incumbent: Callable[[float, float], float], curve: list[float]) -> Iterator[list[int]]:
    """One interval search over the Ks of ``ks``, appending each value to ``curve``.

    Before each window, from its first K to just below max(8 K, 16), it yields
    the window's Ks as a list, then appends ``value(K)`` to ``curve`` for each,
    up to where ``envelope(K)``, an upper bound on ``value(K)`` that does
    not grow with K, falls to the incumbent: the fold of
    ``incumbent(best, v)`` over the values so far (``max``: the best).
    """

    def beatable(k: int) -> bool:
        return not curve or envelope(k) > best

    end = ks.start
    for k in takewhile(beatable, ks):
        if k == end:
            end = max(k * _WINDOW_GROWTH, _FIRST_WINDOW)
            yield list(takewhile(beatable, range(k, min(end, ks.stop))))
        v = value(k)
        best = incumbent(best, v) if curve else v
        curve.append(v)


def _lockstep(cfgs: list[AfpConfig], incumbent: Callable[[float, float], float]) -> list[tuple[list, dict]]:
    # every config's _search, a window at a time: each round fetches every
    # live search's next window in one batch per shape, which the searches
    # then read; returns each config's curve and powers by K.  At alpha = 1
    # a search's range is K = k_max alone, so its curve is that one value.
    curves: list[list[float]] = [[] for _ in cfgs]
    powers: list[dict[int, float]] = [{} for _ in cfgs]

    def start(cfg: AfpConfig, fetched: dict[int, float], curve: list[float]) -> Iterator[list[int]]:
        ks = range(cfg.k_max, cfg.k_max + 1) if cfg.model.alpha >= 1.0 else range(1, cfg.k_max + 1)
        return _search(ks, lambda k: interval_average_power(cfg.shape.nr, fetched[k], cfg.model.alpha, k),
                       lambda k: _search_envelope(cfg, k), incumbent, curve)

    searches = {i: start(cfg, powers[i], curves[i]) for i, cfg in enumerate(cfgs)}
    while searches:
        wanted: dict[SystemShape, list[tuple[int, int]]] = {}
        for i, live in list(searches.items()):
            window = next(live, None)
            if window is None:
                del searches[i]
            else:
                wanted.setdefault(cfgs[i].shape, []).extend((i, k) for k in window)
        for shape, want in wanted.items():
            for (i, k), g in zip(want, quantized_powers(shape, [cfgs[i].bits_per_block * k for i, k in want])):
                powers[i][k] = g
    return list(zip(curves, powers))


def optimal_intervals(cfgs: Iterable[AfpConfig]) -> list[IntervalResult]:
    """The :func:`optimal_interval` of every config, each equal to the one its config gets alone.

    The searches run in lockstep, sharing one nt x 2 pass per shape and window of K.
    """
    cfgs = list(cfgs)
    return [
        best_interval(tuple(curve), cfg.k_max) if cfg.model.alpha < 1.0
        else IntervalResult(cfg.k_max, curve[0], True)
        for cfg, (curve, _) in zip(cfgs, _lockstep(cfgs, max))
    ]


def optimal_interval(cfg: AfpConfig) -> IntervalResult:
    """Exhaustive argmax of avg_power over K in [1, k_max]; smallest K wins ties.

    For alpha < 1 the scan stops once even perfect feedback could not beat
    the incumbent (a strictly decreasing envelope), which cannot change the
    argmax.  At alpha = 1 the average power is the quantized power at
    K bits, increasing in K, so K* = k_max.  A maximum sitting at k_max is
    flagged horizon-limited.  This is the one-config case of
    :func:`optimal_intervals`.
    """
    return optimal_intervals([cfg])[0]


@dataclass(frozen=True)
class AfpMfpComparison:
    """Feedback intervals where pooling bits beats per-block feedback."""

    winning_k: tuple[int, ...]
    pointwise_bound: tuple[float, ...]  # loose analytic bound at each winning K
    large_budget_bound: float  # 1 / (1 - alpha^2)


def afp_beats_mfp(cfg: AfpConfig) -> AfpMfpComparison:
    """All K in [2, k_max] whose interval-average power exceeds the K = 1 value.

    For alpha < 1 the scan stops once the envelope falls to the K = 1 value.
    It is the one-config case of the :func:`optimal_intervals` driver, with
    the K = 1 value as the incumbent that cuts off each window's fetch.
    """
    alpha = cfg.model.alpha
    if alpha >= 1.0:
        # quantized power is strictly increasing in bits, so every K wins
        ks = tuple(range(2, cfg.k_max + 1))
        return AfpMfpComparison(ks, tuple(math.inf for _ in ks), math.inf)
    ((curve, powers),) = _lockstep([cfg], lambda first, _: first)
    ks = intervals_beating_first(curve)
    iso, base = cfg.shape.nr, curve[0]
    large_budget = 1.0 / (1.0 - alpha * alpha)
    bounds = tuple(large_budget * (powers[k] - iso) / (base - iso) for k in ks)
    return AfpMfpComparison(ks, bounds, large_budget)
