"""Rank-2 distributions: the oracle of ``afpopt.finite``'s closed forms and quadrature.

The ordered Gram eigenvalues of a min(nt, nr) = 2 channel with larger
dimension n have the joint density

    f(l1, l2) = l1^(n-2) l2^(n-2) (l1 - l2)^2 exp(-(l1 + l2)) / ((n-1)!(n-2)!),

and the received power v^H diag(l1, l2, 0, ..., 0) v of an isotropic unit v
in C^nt has the piecewise CDF below.  The tests integrate them with
``scipy.integrate.dblquad``, independently of the package's own rules.

Polynomial expectations against the density reduce to the wedge moments

    M(m, n) = int_0^inf l1^m e^-l1 int_0^l1 l2^n e^-l2 dl2 dl1,

computed here as exact rationals by recursion from closed-form base rows;
they give E[l1] and E[l1 - l2] exactly.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

# relative eigenvalue gap below which the rank-2 distributions are evaluated
# at a jittered l2; the coincident set has zero probability
_DEGENERATE_GAP = 1e-7


def ordered_eigen_pdf(l1: float, l2: float, n: int) -> float:
    """Joint density of the two ordered Gram eigenvalues, larger dimension n."""
    if n < 2:
        raise ValueError("larger system dimension must be >= 2")
    if l1 < l2 or l2 < 0:
        raise ValueError("require l1 >= l2 >= 0")
    norm = math.factorial(n - 1) * math.factorial(n - 2)
    return l1 ** (n - 2) * l2 ** (n - 2) * (l1 - l2) ** 2 * math.exp(-(l1 + l2)) / norm


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


@lru_cache(maxsize=None)
def wedge_moment_exact(m: int, n: int) -> Fraction:
    """Exact wedge moment M(m, n) as a rational number.

    Base rows: M(m, 0) = m! (1 - 2^-(m+1)) and M(0, n) = n! 2^-(n+1);
    interior values follow the recursion
    M(m, n) = m n M(m-1, n-1) - (m - n)(m + n - 1)! / 2^(m+n+1).
    """
    if m < 0 or n < 0:
        raise ValueError("moment orders must be nonnegative")
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


def mean_max_eigenvalue_exact(n: int) -> Fraction:
    """E[l1] as an exact rational: the density's l1 moment in wedge moments."""
    s = (
        wedge_moment_exact(n + 1, n - 2)
        - 2 * wedge_moment_exact(n, n - 1)
        + wedge_moment_exact(n - 1, n)
    )
    return s / (math.factorial(n - 1) * math.factorial(n - 2))


def mean_eigen_gap_exact(n: int) -> Fraction:
    """E[l1 - l2] as an exact rational, from the wedge moments."""
    s = (
        wedge_moment_exact(n + 1, n - 2)
        - 3 * wedge_moment_exact(n, n - 1)
        + 3 * wedge_moment_exact(n - 1, n)
        - wedge_moment_exact(n - 2, n + 1)
    )
    return s / (math.factorial(n - 1) * math.factorial(n - 2))
