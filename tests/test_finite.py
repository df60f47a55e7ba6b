import decimal
import functools
import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from rank2_oracle import (
    mean_eigen_gap_exact,
    mean_max_eigenvalue_exact,
    ordered_eigen_pdf,
    rank2_power_cdf,
    rank2_power_pdf,
    wedge_moment,
    wedge_moment_exact,
)
from scipy import integrate, special, stats

from afpopt import finite
from afpopt.channel import FadingModel, RandomStream, SystemShape, complex_normal
from afpopt.finite import (
    AfpConfig,
    afp_beats_mfp,
    avg_power,
    best_interval,
    block_power_2xnr,
    has_closed_form,
    intervals_beating_first,
    mean_eigen_gap,
    mean_largest_eigenvalue,
    mean_max_eigenvalue,
    optimal_interval,
    rvq_power_2xnr,
    rvq_power_ntx2,
)


class TestWedgeMoments:
    def test_base_rows(self):
        for m in range(0, 31):
            assert wedge_moment_exact(m, 0) == Fraction(math.factorial(m)) * (
                1 - Fraction(1, 2 ** (m + 1))
            )
        for n in range(0, 31):
            assert wedge_moment_exact(0, n) == Fraction(math.factorial(n), 2 ** (n + 1))

    def test_recursion_identity_exact(self):
        for m in range(1, 31):
            for n in range(1, 31):
                lhs = wedge_moment_exact(m, n)
                rhs = m * n * wedge_moment_exact(m - 1, n - 1) - Fraction(
                    (m - n) * math.factorial(m + n - 1), 2 ** (m + n + 1)
                )
                assert lhs == rhs

    def test_wedge_plus_transpose_fills_product_space(self):
        # independent exact oracle: the two ordered wedges tile the quadrant
        for m in range(0, 31):
            for n in range(0, 31):
                total = wedge_moment_exact(m, n) + wedge_moment_exact(n, m)
                overlap = 0  # the diagonal has zero measure
                assert total - overlap == math.factorial(m) * math.factorial(n)

    def test_tabulated_low_orders(self):
        assert wedge_moment_exact(3, 0) == Fraction(45, 8)
        assert wedge_moment_exact(2, 1) == Fraction(11, 8)
        assert wedge_moment_exact(1, 2) == Fraction(5, 8)
        assert wedge_moment_exact(0, 3) == Fraction(3, 8)
        assert wedge_moment(4, 1) == 21.375

    def test_against_numerical_quadrature(self):
        def oracle(m, n):
            inner = lambda l1: integrate.quad(lambda l2: l2**n * math.exp(-l2), 0, l1)[0]
            val, _ = integrate.quad(
                lambda l1: l1**m * math.exp(-l1) * inner(l1), 0, 80, limit=300
            )
            return val

        for m in range(0, 9, 2):
            for n in range(0, 9, 2):
                exact = wedge_moment(m, n)
                assert oracle(m, n) == pytest.approx(exact, rel=1e-6)


class TestRank2ClosedForms:
    def test_closed_forms_are_the_rounded_wedge_combinations(self):
        for n in range(2, 200):
            assert mean_max_eigenvalue(n) == float(mean_max_eigenvalue_exact(n)), n
            assert mean_eigen_gap(n) == float(mean_eigen_gap_exact(n)), n

    def test_closed_form_matches_khatri_oracle_at_250(self):
        # E[l1 + l2] = 2n, so the gap is twice E[l1]'s excess over n
        exact = _exact_khatri_mean(2, 250)
        assert mean_max_eigenvalue(250) == float(exact)
        assert mean_eigen_gap(250) == float(2 * (exact - 250))


class TestPower2xNr:
    def test_anchors_2x2(self):
        assert rvq_power_2xnr(2, 0) == 2.0
        assert rvq_power_2xnr(2, 1) == 2.5
        assert rvq_power_2xnr(2, 1e6) == 3.5
        assert rvq_power_2xnr(2, 2) == pytest.approx(2.9, abs=1e-12)

    def test_zero_bits_is_isotropic_power(self):
        for nr in range(2, 7):
            assert rvq_power_2xnr(nr, 0) == pytest.approx(nr, rel=1e-12)

    def test_infinite_bits_is_mean_top_eigenvalue(self):
        assert mean_max_eigenvalue(2) == 3.5
        assert mean_max_eigenvalue(3) == 4.875
        assert mean_max_eigenvalue(4) == pytest.approx(6.1875, rel=1e-12)
        # one expression at every budget, past 60 bits and past the overflow
        # of 2^bits at 1024 alike
        for nr in (2, 5, 250):
            budgets = [59.0, 60.0, 61.0, 1023.0, 1024.0, 1e308, math.inf]
            values = [rvq_power_2xnr(nr, bits) for bits in budgets]
            assert values == sorted(values)
            assert values[-1] == mean_max_eigenvalue(nr)

    def test_strictly_increasing_and_concave_in_bits(self):
        grid = np.arange(0.0, 10.5, 0.5)
        for nr in (2, 3, 4):
            vals = np.array([rvq_power_2xnr(nr, b) for b in grid])
            assert np.all(np.diff(vals) > 0)
            assert np.all(np.diff(vals, 2) <= 1e-9)

    def test_rejects_nr_below_two(self):
        with pytest.raises(ValueError):
            rvq_power_2xnr(1, 3)

    @pytest.mark.parametrize("bad", [-1.0, math.nan])
    def test_rejects_negative_and_nan_budgets(self, bad):
        with pytest.raises(ValueError, match="^total_bits must be nonnegative$"):
            rvq_power_2xnr(2, bad)

    def test_block_decay_examples(self):
        assert block_power_2xnr(2, 3, 0.8, 1) == pytest.approx(rvq_power_2xnr(2, 3), rel=1e-12)
        g = rvq_power_2xnr(2, 3)
        assert block_power_2xnr(2, 3, 0.8, 2) == pytest.approx(2 + 0.64 * (g - 2), rel=1e-12)
        assert block_power_2xnr(2, 3, 0.8, 200) == pytest.approx(2.0, abs=1e-6)

    def test_block_decay_matches_simulated_trajectories(self):
        from afpopt.simulate import ExperimentSpec, block_power_trials

        for nr, alpha, bits in ((2, 0.8, 2.0), (3, 0.5, 1.0)):
            spec = ExperimentSpec(
                SystemShape(2, nr), FadingModel(alpha), bits, 3, trials=20_000, seed=97
            )
            powers = block_power_trials(spec)
            for k in range(1, 4):
                sample = powers[:, k - 1]
                stderr = sample.std(ddof=1) / math.sqrt(sample.size)
                expected = block_power_2xnr(nr, spec.budget_bits, alpha, k)
                assert abs(sample.mean() - expected) < 3 * stderr


class TestIntervalAverage2xNr:
    def cfg(self, nr=2, bits=1.0, alpha=0.8, k_max=64):
        return AfpConfig(SystemShape(2, nr), bits, FadingModel(alpha), k_max)

    def test_single_block_equals_quantized_power(self):
        cfg = self.cfg(nr=3, bits=2.0)
        assert avg_power(cfg, 1) == pytest.approx(rvq_power_2xnr(3, 2.0), rel=1e-12)

    def test_uncorrelated_two_blocks(self):
        cfg = self.cfg(alpha=0.0, bits=1.0)
        assert avg_power(cfg, 2) == pytest.approx(2 + 0.5 * (2.9 - 2), rel=1e-12)  # 2.45

    def test_alpha_one_limit(self):
        cfg = self.cfg(alpha=1.0)
        for k in (1, 3, 7):
            assert avg_power(cfg, k) == pytest.approx(rvq_power_2xnr(2, k), rel=1e-12)

    def test_alpha_near_one_approaches_limit(self):
        cfg = self.cfg(alpha=1.0 - 1e-9)
        assert avg_power(cfg, 5) == pytest.approx(rvq_power_2xnr(2, 5.0), rel=1e-6)


class TestRank2Distribution:
    def test_cdf_boundaries(self):
        assert rank2_power_cdf(0.0, 2.0, 1.0, 3) == 0.0
        assert rank2_power_cdf(2.0, 2.0, 1.0, 3) == 1.0

    def test_cdf_example_value(self):
        # 1 - 2 (0.75)^2 + (0.5)^2 = 0.125
        assert rank2_power_cdf(0.5, 2.0, 1.0, 3) == pytest.approx(0.125, rel=1e-12)

    def test_branches_meet_at_lower_eigenvalue(self):
        for nt, l1, l2 in ((3, 2.0, 1.0), (4, 5.0, 4.9), (6, 10.0, 0.1)):
            below = rank2_power_cdf(l2, l1, l2, nt)
            above = 1.0 - (l1 - l2) ** (nt - 1) / ((l1 - l2) * l1 ** (nt - 2))
            assert abs(below - above) < 1e-12
            eps = 1e-9 * l2
            assert abs(rank2_power_cdf(l2 - eps, l1, l2, nt) - rank2_power_cdf(l2 + eps, l1, l2, nt)) < 1e-6

    def test_cdf_monotone(self):
        xs = np.linspace(0.0, 3.0, 400)
        vals = [rank2_power_cdf(x, 3.0, 0.5, 4) for x in xs]
        assert np.all(np.diff(vals) >= -1e-14)

    @pytest.mark.parametrize("nt", [3, 4, 6])
    @pytest.mark.parametrize("eigs", [(2.0, 1.0), (5.0, 4.9), (10.0, 0.1)])
    def test_cdf_against_isotropic_draws(self, nt, eigs):
        l1, l2 = eigs
        v = complex_normal(RandomStream(60 + nt, int(10 * l1)), (100_000, nt))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        q = l1 * np.abs(v[:, 0]) ** 2 + l2 * np.abs(v[:, 1]) ** 2
        result = stats.kstest(q, lambda x: np.vectorize(rank2_power_cdf)(x, l1, l2, nt))
        assert result.pvalue > 0.01

    def test_pdf_example_value(self):
        # (2/1) ((0.75) - (0.5)) = 0.5
        assert rank2_power_pdf(0.5, 2.0, 1.0, 3) == pytest.approx(0.5, rel=1e-12)

    def test_pdf_integrates_to_one(self):
        for nt, l1, l2 in ((3, 2.0, 1.0), (5, 4.0, 0.7)):
            val, _ = integrate.quad(
                lambda x: rank2_power_pdf(x, l1, l2, nt), 0.0, l1, points=[l2], limit=200
            )
            assert val == pytest.approx(1.0, abs=1e-6)

    def test_pdf_matches_cdf_derivative(self):
        h = 1e-6
        for x in (0.3, 0.9, 1.4, 1.9):
            fd = (rank2_power_cdf(x + h, 2.0, 1.0, 4) - rank2_power_cdf(x - h, 2.0, 1.0, 4)) / (2 * h)
            assert abs(fd - rank2_power_pdf(x, 2.0, 1.0, 4)) < 1e-5

    def test_degenerate_eigenvalues_jittered(self):
        val = rank2_power_cdf(1.0, 2.0, 2.0 * (1 - 1e-9), 3)
        assert 0.0 < val < 1.0
        near = rank2_power_cdf(1.0, 2.0, 2.0 * (1 - 1e-6), 3)
        assert val == pytest.approx(near, abs=1e-5)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            rank2_power_cdf(0.5, 1.0, 2.0, 3)  # l1 < l2
        with pytest.raises(ValueError):
            rank2_power_cdf(3.0, 2.0, 1.0, 3)  # x > l1
        with pytest.raises(ValueError):
            rank2_power_cdf(0.5, 2.0, 1.0, 2)  # nt too small


class TestOrderedEigenPdf:
    def test_repulsion_at_coincidence(self):
        assert ordered_eigen_pdf(1.5, 1.5, 3) == 0.0

    def test_point_value(self):
        assert ordered_eigen_pdf(1.0, 0.0, 2) == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_normalization(self):
        for n in (2, 3):
            val, _ = integrate.dblquad(
                lambda l2, l1: ordered_eigen_pdf(l1, l2, n),
                0.0,
                60.0,
                0.0,
                lambda l1: l1,
                epsabs=1e-10,
                epsrel=1e-9,
            )
            assert val == pytest.approx(1.0, abs=1e-8)

    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            ordered_eigen_pdf(1.0, 2.0, 3)


def _oracle_shortfall(l1, l2, nt, n_entries, abs_tol):
    # int_0^l1 F(x)^n dx at one eigenvalue pair: exact incomplete-beta tail
    # over [l2, l1] plus an adaptive quadrature of the head over [0, l2],
    # restricted by bisection to where the head exceeds a negligibility floor
    p = nt - 1
    gap = l1 - l2
    x0 = (gap / l1) ** (nt - 2)
    tail = (
        (gap * l1 ** (nt - 2)) ** (1.0 / p)
        / p
        * math.exp(special.betaln(1.0 / p, n_entries + 1.0))
        * special.betainc(1.0 / p, n_entries + 1.0, x0)
    )
    if l2 <= 0.0:
        return tail
    a, b = l1 / gap, l2 / gap

    def log_body(x):
        u = a * (1.0 - x / l1) ** p - b * (1.0 - x / l2) ** p  # 1 - F(x)
        if u >= 1.0:
            return -math.inf
        if u <= 0.0:
            return 0.0
        return n_entries * math.log1p(-u)

    floor = math.log(0.01 * abs_tol) - math.log(max(l2, 1e-300))
    if log_body(l2) < floor:
        return tail
    lo = 0.0
    if log_body(0.0) < floor:
        hi = l2
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if log_body(mid) < floor:
                lo = mid
            else:
                hi = mid
        lo = max(0.0, lo - (hi - lo))
    head, _ = integrate.quad(
        lambda x: math.exp(log_body(x)), lo, l2, epsabs=abs_tol, epsrel=1e-7, limit=200
    )
    return head + tail


def dblquad_rvq_power_ntx2(nt, total_bits, abs_tol=1e-9):
    """Independent oracle: E[l1] minus the shortfall averaged by dblquad over
    the ordered-eigenvalue wedge, truncated at l1 = 60."""
    n_entries = 2.0**total_bits
    shortfall, _ = integrate.dblquad(
        lambda l2, l1: _oracle_shortfall(l1, l2, nt, n_entries, abs_tol)
        * ordered_eigen_pdf(l1, l2, nt),
        0.0,
        60.0,
        0.0,
        lambda l1: l1,
        epsabs=abs_tol,
        epsrel=1e-7,
    )
    return mean_max_eigenvalue(nt) - shortfall


# log of the smallest normal double
_LOG_TINY = math.log(np.finfo(float).tiny)


def quadpack_rvq_power_ntx2(nt, total_bits, abs_tol, rel_tol, limit):
    """Independent oracle: the same one-dimensional s = l2/l1 form, by nested
    QUADPACK quads with scipy's incomplete beta for the tail branch."""
    n_entries = 2.0**total_bits
    p = nt - 1
    a, b = 1.0 / p, n_entries + 1.0
    beta = math.exp(special.betaln(a, b))
    log_norm = math.lgamma(2 * nt + 1) - math.lgamma(nt) - math.lgamma(nt - 1)
    tols = dict(epsabs=abs_tol, epsrel=rel_tol, limit=limit)

    def unit_shortfall(s):
        # int_0^1 F(x)^N dx at (l1, l2) = (1, s): exact incomplete-beta tail
        # over [s, 1] plus a quadrature of the head over [0, s].  The tail is
        # gap^a / p int_0^x w^(a-1) (1 - w)^(b-1) dw with x = gap^(nt-2),
        # formed in logs: below the normal range (1 - w)^(b-1) = e^(-b w) to
        # double precision, which gives Gamma(a) P(a, b x) b^-a, and once b x
        # underflows too the tail is gap^a x^a = gap
        gap = 1.0 - s
        log_x = (nt - 2) * math.log(gap)
        if log_x >= _LOG_TINY:
            tail = gap**a / p * beta * special.betainc(a, b, math.exp(log_x))
        elif log_x + math.log(b) >= _LOG_TINY:
            tail = gap**a / p * math.gamma(a) * special.gammainc(a, math.exp(log_x + math.log(b))) * b**-a
        else:
            tail = gap

        def head(y):
            u = ((1.0 - y) ** p - s * (1.0 - y / s) ** p) / gap  # 1 - F(y)
            if u >= 1.0:
                return 0.0
            if u <= 0.0:
                return 1.0
            return math.exp(n_entries * math.log1p(-u))

        # F^N on the head can be a sliver next to s that a plain quad over
        # [0, s] never samples, so [0, s] is cut at s - 8^-k
        cuts = [s - 8.0**-k for k in range(1, 14) if s > 8.0**-k]
        return integrate.quad(head, 0.0, s, points=cuts, **tols)[0] + tail

    def weighted(s):
        log_w = (log_norm + (nt - 2) * math.log(s) + 2.0 * math.log1p(-s)
                 - (2 * nt + 1) * math.log1p(s))
        return math.exp(log_w) * unit_shortfall(s)

    return mean_max_eigenvalue(nt) - integrate.quad(weighted, 0.0, 1.0, **tols)[0]


class TestPowerNtx2:
    @pytest.mark.parametrize(
        "nt,bits",
        [(3, 0.2), (3, 10.0), (4, 1.0), (4, 24.0), (5, 4.0), (6, 10.0), (6, 24.0), (8, 1.0)],
    )
    def test_matches_dblquad_oracle(self, nt, bits):
        assert rvq_power_ntx2(nt, bits) == pytest.approx(dblquad_rvq_power_ntx2(nt, bits), rel=1e-9)

    @pytest.mark.parametrize("nt", [3, 4, 5, 6, 8, 12])
    def test_matches_quadpack_oracle(self, nt, monkeypatch):
        # budgets from fractional bits to 399; at large budgets the tail
        # mass sits within (gap/N)^(1/(nt-1)) of x = l1.
        # Both sides at tight tolerances, in a cache of their own.
        monkeypatch.setattr(finite, "_ntx2_cache", {})
        monkeypatch.setattr(finite, "_NTX2_TOLERANCE", (1e-13, 1e-12))
        monkeypatch.setattr(finite, "_MAX_SUBDIVISIONS", 1000)
        for bits in (0.0, 0.2, 0.5, 1.5, 4.0, 10.0, 24.0, 40.0, 64.0, 120.0, 200.0, 399.0):
            assert rvq_power_ntx2(nt, bits) == pytest.approx(
                quadpack_rvq_power_ntx2(nt, bits, 1e-13, 1e-12, 1000), rel=1e-9
            ), bits

    @pytest.mark.parametrize(
        "nt, bits",
        [(20, 400.0), (60, 400.0), (60, 1000.0), (60, 1023.0),
         (250, 400.0), (250, 600.0), (250, 1000.0), (250, 1023.0)],
    )
    def test_matches_quadpack_oracle_at_large_budgets(self, nt, bits, monkeypatch):
        # one quadrature below _LAW_BITS, the shortfall law past it, and no
        # cut-off at 400 bits on either side
        monkeypatch.setattr(finite, "_ntx2_cache", {})
        monkeypatch.setattr(finite, "_NTX2_TOLERANCE", (1e-13, 1e-12))
        monkeypatch.setattr(finite, "_MAX_SUBDIVISIONS", 1000)
        assert rvq_power_ntx2(nt, bits) == pytest.approx(
            quadpack_rvq_power_ntx2(nt, bits, 1e-13, 1e-12, 1000), rel=1e-9
        )

    @pytest.mark.parametrize("nt", [60, 250])
    def test_continuous_at_400_bits(self, nt, monkeypatch):
        monkeypatch.setattr(finite, "_ntx2_cache", {})
        below, at = finite.rvq_powers_ntx2(nt, [399.99, 400.0])
        assert below < at
        assert (at - below) / at < 1e-4

    def test_rejects_negative_and_nan_budgets(self):
        for bad in (-1.0, math.nan):
            with pytest.raises(ValueError, match="^total_bits must be nonnegative$"):
                finite.rvq_powers_ntx2(4, [1.0, bad])

    def test_subdivision_cap_warns_with_error_estimate(self, monkeypatch):
        monkeypatch.setattr(finite, "_ntx2_cache", {})
        converged = rvq_power_ntx2(4, 3.0)
        finite._ntx2_cache.clear()
        monkeypatch.setattr(finite, "_MAX_SUBDIVISIONS", 1)
        for _ in range(2):  # the unconverged value is not cached
            with pytest.warns(RuntimeWarning, match=r"max_subdivisions=1\); error estimate"):
                value = rvq_power_ntx2(4, 3.0)
        assert not finite._ntx2_cache
        assert value == pytest.approx(converged, rel=1e-2)

    def test_zero_bits_is_isotropic(self):
        for nt in (3, 4, 5):
            assert rvq_power_ntx2(nt, 0.0) == pytest.approx(2.0, abs=1e-6)

    def test_saturates_at_mean_top_eigenvalue(self, monkeypatch):
        assert rvq_power_ntx2(3, 500.0) == mean_max_eigenvalue(3) == 4.875
        monkeypatch.setattr(finite, "_ntx2_cache", {})
        for nt in (3, 60, 250):
            assert finite.rvq_powers_ntx2(nt, [math.inf]) == [mean_max_eigenvalue(nt)]

    def test_regression_values(self):
        # frozen from this quadrature, cross-validated against 1e6-trial
        # Monte Carlo selection (agreement well within 3 stderr)
        assert rvq_power_ntx2(3, 1.0) == pytest.approx(2.6, rel=1e-6)
        assert rvq_power_ntx2(3, 2.0) == pytest.approx(3.146919, rel=1e-5)
        assert rvq_power_ntx2(3, 4.0) == pytest.approx(3.954692, rel=1e-5)
        assert rvq_power_ntx2(5, 4.0) == pytest.approx(4.461686, rel=1e-5)

    @pytest.mark.parametrize("nt", [3, 10, 60, 120, 150, 199, 250, 400])
    def test_one_bit_rational_form(self, nt):
        # the one-bit power is 2 + 3(nt-1) / (2(2nt-1)): 2.5 at the 2x2
        # anchor, 2.6 at nt = 3, and the oracles' values at nt <= 12; large
        # nt probes the tail of F^N next to s = 1, where the gap underflows
        exact = 2.0 + 3.0 * (nt - 1) / (2.0 * (2 * nt - 1))
        assert rvq_power_ntx2(nt, 1.0) == pytest.approx(exact, rel=1e-9)

    def test_monte_carlo_agreement(self):
        from afpopt.simulate import ExperimentSpec, simulate_avg_power

        spec = ExperimentSpec(
            SystemShape(3, 2), FadingModel(0.8), 2.0, 1, trials=20_000, seed=101
        )
        est = simulate_avg_power(spec)
        assert abs(est.mean - rvq_power_ntx2(3, 2.0)) < 3 * est.stderr

    def test_strictly_increasing_and_concave_in_bits(self):
        grid = np.arange(0.0, 4.5, 0.5)
        vals = np.array([rvq_power_ntx2(3, b) for b in grid])
        assert np.all(np.diff(vals) > 0)
        assert np.all(np.diff(vals, 2) <= 1e-9)

    def test_requires_nt_above_two(self):
        with pytest.raises(ValueError):
            rvq_power_ntx2(2, 1.0)


def _cold_ntx2(nt, bits):
    finite._ntx2_cache.clear()
    return rvq_power_ntx2(nt, bits)


def _warned(call):
    # the call's value and the texts of the warnings it gave
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value = call()
    assert all(w.category is RuntimeWarning for w in caught)
    return value, [str(w.message) for w in caught]


class TestQuantizedPowers:
    # zero, fractional, large, past _LAW_BITS and repeated budgets
    BUDGETS = [0.0, 0.25, 1.0, 3.0, 12.0, 64.0, 400.0, 1010.0, 1.0]

    @pytest.fixture(autouse=True)
    def own_cache(self, monkeypatch):
        monkeypatch.setattr(finite, "_ntx2_cache", {})

    @pytest.mark.parametrize("nt, nr", [(3, 3), (4, 5), (2, 1), (1, 2)])
    def test_rejects_shapes_without_a_closed_form(self, nt, nr):
        with pytest.raises(ValueError, match=f"^no closed-form path for a {nt}x{nr} channel$"):
            finite.quantized_powers(SystemShape(nt, nr), [1.0])

    def test_admits_exactly_the_closed_form_shapes(self):
        for nt, nr in itertools.product(range(1, 7), repeat=2):
            shape = SystemShape(nt, nr)
            if has_closed_form(shape):
                assert finite.quantized_powers(shape, []) == []
            else:
                with pytest.raises(ValueError, match="no closed-form path"):
                    finite.quantized_powers(shape, [])

    @pytest.mark.parametrize("nt, nr", [(2, 2), (4, 2)])
    def test_rejects_nan_budgets(self, nt, nr):
        with pytest.raises(ValueError, match="^total_bits must be nonnegative$"):
            finite.quantized_powers(SystemShape(nt, nr), [1.0, math.nan])

    @pytest.mark.parametrize("nt, nr", [(2, 3), (2, 250), (4, 2), (250, 2)])
    def test_equals_its_path_bit_for_bit(self, nt, nr):
        shape = SystemShape(nt, nr)

        def path(bits):
            return rvq_power_2xnr(nr, bits) if nt == 2 else _cold_ntx2(nt, bits)

        want = [path(bits).hex() for bits in self.BUDGETS]
        one = []
        for bits in self.BUDGETS:
            finite._ntx2_cache.clear()
            one.append(finite.quantized_powers(shape, [bits])[0].hex())
        finite._ntx2_cache.clear()
        batch = [value.hex() for value in finite.quantized_powers(shape, self.BUDGETS)]
        assert one == want
        assert batch == want


class TestNtx2Batch:
    @pytest.fixture(autouse=True)
    def own_cache(self, monkeypatch):
        monkeypatch.setattr(finite, "_ntx2_cache", {})

    def test_batch_values_equal_each_budget_alone(self):
        # fractional, zero, past _LAW_BITS and repeated budgets
        budgets = [0.0, 0.25, 1.0, 1.0, 1.5, 3.0, 7.75, 12.0, 24.0, 64.0, 399.0, 400.0, 1e4, 0.25]
        for nt in range(3, 18):
            finite._ntx2_cache.clear()
            batch = finite.rvq_powers_ntx2(nt, budgets)
            for bits, value in zip(budgets, batch):
                assert value.hex() == _cold_ntx2(nt, bits).hex(), (nt, bits)

    def test_values_do_not_depend_on_the_evaluation_block(self, monkeypatch):
        budgets = [0.5 * k for k in range(41)]
        whole = finite.rvq_powers_ntx2(6, budgets)
        steps = []
        real = finite._gk15_block
        monkeypatch.setattr(
            finite, "_gk15_block", lambda f, owner, a, b: steps.append(a.size) or real(f, owner, a, b)
        )
        monkeypatch.setattr(finite, "_GK_BLOCK", 45)  # three panels per step
        finite._ntx2_cache.clear()
        split = finite.rvq_powers_ntx2(6, budgets)
        assert max(steps) == 3
        assert [v.hex() for v in split] == [v.hex() for v in whole]

    @pytest.mark.parametrize(
        "before, budgets", [([], [1e-10, 3e-10]), ([1e-10], [3e-10]), ([1.0], [1.0000000001])]
    )
    def test_close_budgets_are_their_own(self, before, budgets):
        # budgets less than 5e-10 apart, in one batch or after a cached one
        alone = [_cold_ntx2(3, bits).hex() for bits in budgets]
        finite._ntx2_cache.clear()
        finite.rvq_powers_ntx2(3, before)
        assert [v.hex() for v in finite.rvq_powers_ntx2(3, budgets)] == alone

    def test_flagged_budgets_warn_on_their_own_and_stay_uncached(self, monkeypatch):
        monkeypatch.setattr(finite, "_NTX2_TOLERANCE", (1e-11, 1e-11))
        monkeypatch.setattr(finite, "_MAX_SUBDIVISIONS", 4)
        budgets = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0]
        alone = {bits: _warned(lambda: _cold_ntx2(4, bits)) for bits in budgets}
        # with these settings only the high budgets reach the cap
        assert [bits for bits in budgets if alone[bits][1]] == [8.0, 16.0, 32.0, 64.0]
        finite._ntx2_cache.clear()
        batch, messages = _warned(lambda: finite.rvq_powers_ntx2(4, budgets))
        # one warning per flagged budget, each with its own error estimate
        assert messages == [text for bits in budgets for text in alone[bits][1]]
        assert all("(max_subdivisions=4); error estimate" in text for text in messages)
        assert [v.hex() for v in batch] == [alone[bits][0].hex() for bits in budgets]
        assert sorted(key[1] for key in finite._ntx2_cache) == [1.0, 2.0, 4.0]

    def test_ntx2_cache_is_capped(self, monkeypatch):
        monkeypatch.setattr(finite, "_NTX2_CACHE_SIZE", 5)
        budgets = [0.5 * k for k in range(1, 13)]
        first = finite.rvq_powers_ntx2(3, budgets[:7]) + [rvq_power_ntx2(3, b) for b in budgets[7:]]
        assert len(finite._ntx2_cache) == 5
        # a mix of cached and evicted budgets
        again = finite.rvq_powers_ntx2(3, budgets)
        assert len(finite._ntx2_cache) == 5
        cold = [_cold_ntx2(3, b) for b in budgets]
        assert [v.hex() for v in first] == [v.hex() for v in again] == [v.hex() for v in cold]

    def test_eigenvalue_cache_is_capped(self):
        cap = finite._EIGENVALUE_CACHE_SIZE
        cold = mean_largest_eigenvalue.__wrapped__
        shapes = [SystemShape(3, 3), SystemShape(4, 3)] + [SystemShape(1, n) for n in range(1, cap + 20)]
        for _ in range(2):  # the second pass recomputes what the cap evicted
            for shape in shapes:
                assert mean_largest_eigenvalue(shape) == cold(shape)
            info = mean_largest_eigenvalue.cache_info()
            assert info.maxsize == cap and info.currsize == cap


class TestPowerFloor:
    # the floor that sizes the searches' fetches
    NTS = list(range(3, 13)) + [16, 24, 32, 64, 128, 250]
    BUDGETS = ([i / 100 for i in range(1, 401)] + [4 + i / 2 for i in range(1, 133)]
               + [100.0, 300.0, 1000.0, 1023.0, 1100.0, 5000.0])

    def test_floor_bounds_the_ntx2_power(self, ntx2_passes):
        for nt in self.NTS:
            shape = SystemShape(nt, 2)
            powers = finite.quantized_powers(shape, [0.0] + self.BUDGETS)
            # at zero bits the floor is the isotropic power, which the
            # quadrature gives to its tolerance
            assert finite._power_floor(shape, 0.0) == 2.0
            assert powers[0] == pytest.approx(2.0, rel=0.0, abs=1e-9)
            for bits, power in zip(self.BUDGETS, powers[1:]):
                assert finite._power_floor(shape, bits) <= power, (nt, bits)
            # at one bit, two entries, the floor is the power held a millionth under
            assert 0.0 < powers[1 + self.BUDGETS.index(1.0)] - finite._power_floor(shape, 1.0) < 1e-6, nt

    def test_2xnr_floor_is_the_closed_form(self):
        for nr in (2, 3, 5, 200):
            for bits in (0.0, 0.5, 1.0, 7.25, 64.0, 2000.0):
                assert finite._power_floor(SystemShape(2, nr), bits) == rvq_power_2xnr(nr, bits)


def _khatri_orders(m, n):
    # Khatri's CDF of the largest root is F(x) = det[g(s_ij, x)] / det[Gamma(s_ij)]
    # with s_ij = n - m + i + j + 1 and g the lower incomplete gamma; for
    # integer s, g(s, x) = (s-1)! - e^-x sum_(k<s) (s-1)!/k! x^k
    return [[n - m + i + j + 1 for j in range(m)] for i in range(m)]


@functools.lru_cache(maxsize=None)
def _gamma_determinant(m, n):
    # det[Gamma(s_ij)], an integer
    s = _khatri_orders(m, n)
    return sum(
        _permutation_sign(perm) * math.prod(math.factorial(s[i][j] - 1) for i, j in enumerate(perm))
        for perm in itertools.permutations(range(m))
    )


def _permutation_sign(perm):
    return (-1) ** sum(perm[i] > perm[j] for i in range(len(perm)) for j in range(i + 1, len(perm)))


def _exact_khatri_mean(m, n):
    """E[l1] = int_0^inf (1 - F) dx exactly: F expanded into terms c x^k e^(-j x)."""
    s = _khatri_orders(m, n)

    def entry(s_ij):
        terms = {(0, 0): math.factorial(s_ij - 1)}
        for k in range(s_ij):
            terms[(1, k)] = -(math.factorial(s_ij - 1) // math.factorial(k))
        return terms

    def times(p, q):
        out = {}
        for (j1, k1), c1 in p.items():
            for (j2, k2), c2 in q.items():
                out[(j1 + j2, k1 + k2)] = out.get((j1 + j2, k1 + k2), 0) + c1 * c2
        return out

    entries = [[entry(v) for v in row] for row in s]
    det_x = {}
    for perm in itertools.permutations(range(m)):
        term = {(0, 0): _permutation_sign(perm)}
        for i, j in enumerate(perm):
            term = times(term, entries[i][j])
        for key, c in term.items():
            det_x[key] = det_x.get(key, 0) + c
    det_inf = _gamma_determinant(m, n)
    assert det_x.pop((0, 0)) == det_inf  # F(inf) = 1
    assert all(c == 0 for (j, _), c in det_x.items() if j == 0)
    # int_0^inf x^k e^(-j x) dx = k! / j^(k+1)
    return -sum(Fraction(c * math.factorial(k), j ** (k + 1)) for (j, k), c in det_x.items()) / det_inf


def _decimal_khatri_tail(m, n, x):
    """1 - F(x) from Khatri's determinant ratio in 50-digit decimal arithmetic.

    Both Hankel matrices are ill-conditioned (about 1e20 at 6 x 30), which
    double precision cannot carry; 50 digits can.
    """
    s = _khatri_orders(m, n)
    with decimal.localcontext(decimal.Context(prec=50)):
        xd, top = decimal.Decimal(x), s[-1][-1]
        powers = [decimal.Decimal(1)]  # x^k / k!
        while len(powers) <= top or (x < top and powers[-1] > decimal.Decimal("1e-60")):
            powers.append(powers[-1] * xd / len(powers))
        if x < top:  # P(s, x) = e^-x sum_(k >= s) x^k / k!, free of cancellation
            regularised = {v: (-xd).exp() * sum(powers[v:]) for v in range(1, top + 1)}
        else:
            regularised = {v: 1 - (-xd).exp() * sum(powers[:v]) for v in range(1, top + 1)}
        rows = [[math.factorial(v - 1) * regularised[v] for v in row] for row in s]
        det = decimal.Decimal(1)
        for c in range(m):  # Gaussian elimination with partial pivoting
            pivot = max(range(c, m), key=lambda r: abs(rows[r][c]))
            if pivot != c:
                rows[c], rows[pivot] = rows[pivot], rows[c]
                det = -det
            det *= rows[c][c]
            for r in range(c + 1, m):
                f = rows[r][c] / rows[c][c]
                rows[r] = [rows[r][q] - f * rows[c][q] for q in range(m)]
        return float(1 - det / _gamma_determinant(m, n))


def quad_khatri_mean(m, n):
    """QUADPACK quad of 1 - F(x) over [0, inf), split around the spectrum's edge."""
    edge = (math.sqrt(m) + math.sqrt(n)) ** 2
    cuts = [0.0, 0.5 * edge, edge, 1.5 * edge, 2.0 * edge, 3.0 * edge, 5.0 * edge, math.inf]
    return sum(
        integrate.quad(lambda x: _decimal_khatri_tail(m, n, x), lo, hi,
                       epsabs=1e-15, epsrel=1e-13, limit=200)[0]
        for lo, hi in zip(cuts[:-1], cuts[1:])
    )


class TestMeanLargestEigenvalue:
    def test_exact_oracle_reproduces_known_rationals(self):
        assert _exact_khatri_mean(3, 3) == Fraction(313, 48)
        assert _exact_khatri_mean(3, 4) == Fraction(41761, 5184)
        assert _exact_khatri_mean(4, 4) == Fraction(1367807, 139968)
        assert _exact_khatri_mean(2, 3) == Fraction(39, 8)  # = mean_max_eigenvalue(3)

    @pytest.mark.parametrize("m,n", [(3, 3), (3, 4), (3, 5), (3, 8), (4, 4), (4, 6)])
    def test_matches_exact_rationals(self, m, n):
        exact = _exact_khatri_mean(m, n)
        for shape in (SystemShape(m, n), SystemShape(n, m)):
            got = mean_largest_eigenvalue(shape)
            assert abs(Fraction(got) - exact) <= Fraction(1, 10**14) * exact, (m, n, got)

    def test_short_of_tolerance_warns_once(self, monkeypatch):
        # four panels leave the 3x3 quadrature short of its tolerance; the
        # lru_cache would keep the flagged value, so it is cleared after
        mean_largest_eigenvalue.cache_clear()
        monkeypatch.setattr(finite, "_MAX_SUBDIVISIONS", 4)
        try:
            value, messages = _warned(lambda: mean_largest_eigenvalue(SystemShape(3, 3)))
        finally:
            mean_largest_eigenvalue.cache_clear()
        assert len(messages) == 1
        assert messages[0].startswith("mean_largest_eigenvalue(3x3): quadrature stopped short of its tolerance")
        assert value == pytest.approx(6.52083328, rel=0.0, abs=5e-9) and 313 / 48 - value > 4e-8

    # (3, 60) needs 31 Laguerre nodes, where eigenvector-based weights fail
    @pytest.mark.parametrize("m,n", [(3, 30), (3, 60), (4, 17), (5, 5), (5, 20), (6, 6), (6, 30)])
    def test_matches_quadrature_of_khatri_determinant(self, m, n):
        assert mean_largest_eigenvalue(SystemShape(n, m)) == pytest.approx(quad_khatri_mean(m, n), rel=1e-12)

    def test_rank_one_and_two_are_the_closed_forms(self):
        for n in range(1, 12):
            assert mean_largest_eigenvalue(SystemShape(1, n)) == float(n)
            assert mean_largest_eigenvalue(SystemShape(n, 1)) == float(n)
        for n in range(2, 40):
            assert mean_largest_eigenvalue(SystemShape(2, n)) == mean_max_eigenvalue(n)
            assert mean_largest_eigenvalue(SystemShape(n, 2)) == mean_max_eigenvalue(n)

    @pytest.mark.parametrize("n", [8, 16])
    def test_monte_carlo_agreement(self, n):
        from afpopt.simulate import perfect_feedback_power

        est = perfect_feedback_power(SystemShape(n, n), 20_000, 900 + n)
        assert abs(est.mean - mean_largest_eigenvalue(SystemShape(n, n))) < 4 * est.stderr

    # past about 200 nodes the Laguerre recurrence is rescaled; 3 x 800 and
    # 5 x 1000 need 401 and 502 nodes
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("m,n", [(3, 450), (3, 800), (5, 1000)])
    def test_monte_carlo_agreement_past_the_rescale(self, m, n):
        from afpopt.simulate import perfect_feedback_power

        est = perfect_feedback_power(SystemShape(m, n), 2_000, 17)
        assert abs(est.mean - mean_largest_eigenvalue(SystemShape(m, n))) < 4 * est.stderr

    @pytest.mark.parametrize("count", [30, 150, 351, 502])
    def test_laguerre_rule_moments(self, count):
        # sum_i w_i u_i^k = k! for k <= 2 count - 1, compared in logs
        nodes, log_weights = finite._laguerre_rule(count)
        for k in (0, 1, count, 2 * count - 1):
            terms = log_weights + k * np.log(nodes)
            top = terms.max()
            log_moment = top + math.log(np.exp(terms - top).sum())
            assert log_moment == pytest.approx(math.lgamma(k + 1), abs=1e-11), k

    def test_below_the_spectrum_edge_and_increasing(self):
        # l1 dominates every column's squared norm and, by interlacing, the
        # top eigenvalue of any two columns, so E[l1] > max(n, E_rank2(n));
        # at these sizes it stays below the large-system edge
        # (sqrt(m) + sqrt(n))^2, and it grows with n
        for m in range(3, 9):
            vals = [mean_largest_eigenvalue(SystemShape(m, n)) for n in range(m, m + 6)]
            assert np.all(np.diff(vals) > 0)
            for n, v in zip(range(m, m + 6), vals):
                assert max(n, mean_max_eigenvalue(n)) < v < (math.sqrt(m) + math.sqrt(n)) ** 2


class TestIntervalSearch:
    def test_config_requires_closed_form_shape(self):
        with pytest.raises(ValueError):
            AfpConfig(SystemShape(3, 3), 1.0, FadingModel(0.8))
        AfpConfig(SystemShape(2, 5), 1.0, FadingModel(0.8))
        AfpConfig(SystemShape(7, 2), 1.0, FadingModel(0.8))
        closed = {(nt, nr) for nt in range(1, 6) for nr in range(1, 6)
                  if has_closed_form(SystemShape(nt, nr))}
        assert closed == {(2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (4, 2), (5, 2)}

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_config_rejects_non_finite_bits(self, bad):
        with pytest.raises(ValueError, match="finite"):
            AfpConfig(SystemShape(2, 2), bad, FadingModel(0.8))

    def test_headline_optimal_intervals(self):
        for nr in (2, 3, 4):
            cfg = AfpConfig(SystemShape(2, nr), 1.0, FadingModel(0.8))
            assert optimal_interval(cfg).k_star == 3
        cfg = AfpConfig(SystemShape(5, 2), 1.0, FadingModel(0.8))
        assert optimal_interval(cfg).k_star == 5

    def test_uncorrelated_high_rate_prefers_every_block(self):
        cfg = AfpConfig(SystemShape(2, 2), 4.0, FadingModel(0.0))
        result = optimal_interval(cfg)
        assert result.k_star == 1
        assert not result.horizon_limited

    def test_static_channel_is_horizon_limited(self):
        cfg = AfpConfig(SystemShape(2, 2), 1.0, FadingModel(1.0), k_max=16)
        result = optimal_interval(cfg)
        assert result.k_star == 16
        assert result.horizon_limited
        # the power saturates in floating point, so the first argmax of the
        # full curve would be K = 54; at alpha = 1 the answer is k_max by rule
        result = optimal_interval(AfpConfig(SystemShape(2, 2), 1.0, FadingModel(1.0)))
        assert result.k_star == 64 and result.horizon_limited

    def test_static_channel_fetches_k_max_alone(self, ntx2_passes):
        # at alpha = 1 the search's range is K = k_max alone: one budget, no curve
        cfg = AfpConfig(SystemShape(4, 2), 1.0, FadingModel(1.0))
        result = optimal_interval(cfg)
        assert ntx2_passes == [(4, [2.0**64])]
        assert (result.k_star, result.horizon_limited, result.curve) == (64, True, ())
        ntx2_passes.clear()
        afp_beats_mfp(cfg)
        assert ntx2_passes == []

    def test_scan_evaluates_no_extra_interval(self, monkeypatch):
        # count the values each scan evaluates: a search scans the power
        # floors to size its fetch, then the fetched powers, last
        scans = []
        real = finite._scan

        def counted(ks, value, *rest):
            scans.append(calls := [])
            return real(ks, lambda k: calls.append(k) or value(k), *rest)

        monkeypatch.setattr(finite, "_scan", counted)
        cfg = AfpConfig(SystemShape(6, 2), 1.0, FadingModel(0.8))
        result = optimal_interval(cfg)
        # the envelope falls to the best value so far before K = 13
        floors, values = scans
        assert values == list(range(1, 13)) and len(floors) >= len(values)
        assert result.curve == tuple(avg_power(cfg, k) for k in range(1, 13))
        assert result.k_star == 5 and result.value == result.curve[4]
        scans.clear()
        cmp = afp_beats_mfp(cfg)
        # the envelope falls to the K = 1 value before K = 28
        floors, values = scans
        assert values == list(range(1, 28)) and len(floors) >= len(values)
        assert cmp.winning_k == tuple(range(2, 27))

    def test_curve_reductions(self):
        assert best_interval((1.0, 2.0, 2.0), 3) == finite.IntervalResult(2, 2.0, False, (1.0, 2.0, 2.0))
        assert best_interval((1.0, 2.0, 3.0), 3).horizon_limited
        assert best_interval((1.0,), 1) == finite.IntervalResult(1, 1.0, True, (1.0,))
        assert intervals_beating_first((1.0, 0.5, 2.0, 1.0, -math.inf)) == (3,)

    def test_afp_beats_mfp_ranges(self):
        # exact rational evaluation of the closed form gives {2..8} for both
        # the 2x2 and 2x4 channels at alpha = 0.8, B = 1 (for 2x2 the K = 8
        # margin is +2.234e-3 in average power)
        for nr, expected in ((2, tuple(range(2, 9))), (4, tuple(range(2, 9)))):
            cfg = AfpConfig(SystemShape(2, nr), 1.0, FadingModel(0.8))
            cmp = afp_beats_mfp(cfg)
            assert cmp.winning_k == expected
            assert cmp.large_budget_bound == pytest.approx(1 / (1 - 0.64), rel=1e-9)
            # every winning K satisfies the loose analytic bound
            for k, bound in zip(cmp.winning_k, cmp.pointwise_bound):
                assert k < bound

    def test_afp_beats_mfp_static_channel(self):
        cfg = AfpConfig(SystemShape(2, 2), 1.0, FadingModel(1.0), k_max=8)
        cmp = afp_beats_mfp(cfg)
        assert cmp.winning_k == tuple(range(2, 9))
        assert cmp.large_budget_bound == math.inf

    def test_mean_eigen_gap_values(self):
        assert mean_eigen_gap(2) == 3.0
        assert mean_eigen_gap(3) == pytest.approx(3.75, rel=1e-12)


def scan_interval(objective, k_max, stop=None):
    """objective(K) for K = 1, 2, ..., k_max; ``stop(K, curve)`` true ends the scan before K.

    It fetches nothing ahead: the plain scan that the batched searches must
    reproduce.
    """
    curve = [objective(1)]
    for k in range(2, k_max + 1):
        if stop is not None and stop(k, curve):
            break
        curve.append(objective(k))
    return tuple(curve)


@functools.cache
def _cold_power(shape, bits):
    # the quantized power from an empty nt x 2 memo, its budget's own
    # quadrature at the default tolerances, cached here on the exact budget
    finite._ntx2_cache.clear()
    return finite.quantized_powers(shape, [bits])[0]


def _cold_avg_power(cfg, k):
    power = _cold_power(cfg.shape, cfg.bits_per_block * k)
    return finite.interval_average_power(cfg.shape.nr, power, cfg.model.alpha, k)


def _plain_curve(cfg, incumbent):
    # scan_interval under the searches' envelope stop, with no prefetch:
    # every power is its budget's own quadrature, from an empty memo
    def stop(k, curve):
        return finite._search_envelope(cfg, k) <= incumbent(curve)

    return scan_interval(lambda k: _cold_avg_power(cfg, k), cfg.k_max, stop)


def _plain_optimal_interval(cfg):
    if cfg.model.alpha >= 1.0:
        return finite.IntervalResult(cfg.k_max, _cold_avg_power(cfg, cfg.k_max), True)
    return best_interval(_plain_curve(cfg, max), cfg.k_max)


def _plain_afp_beats_mfp(cfg):
    # afp_beats_mfp from the plain scan, each power its budget's own
    # quadrature from an empty memo
    alpha = cfg.model.alpha
    if alpha >= 1.0:
        ks = tuple(range(2, cfg.k_max + 1))
        return finite.AfpMfpComparison(ks, tuple(math.inf for _ in ks), math.inf)
    curve = _plain_curve(cfg, lambda curve: curve[0])
    ks = intervals_beating_first(curve)
    iso, large_budget = cfg.shape.nr, 1.0 / (1.0 - alpha * alpha)
    bounds = tuple(
        large_budget * (_cold_power(cfg.shape, cfg.bits_per_block * k) - iso) / (curve[0] - iso) for k in ks
    )
    return finite.AfpMfpComparison(ks, bounds, large_budget)


class TestLockstepSearches:
    # k_max from 1 to 64, so searches stop at the horizon and on the envelope
    SHAPES = [(nt, 2) for nt in range(3, 7)] + [(2, 2), (2, 4)]
    GRID = [
        AfpConfig(SystemShape(nt, nr), bits, FadingModel(alpha), k_max)
        for nt, nr in SHAPES for bits in (0.25, 1.0, 2.0)
        for alpha in (0.0, 0.5, 0.8, 0.95, 0.999, 1.0) for k_max in (1, 7, 8, 15, 16, 17, 64)
    ]

    def test_lockstep_equals_plain_scans(self, ntx2_passes):
        # mixed shapes and a duplicated config, in one call
        cfgs = self.GRID + [self.GRID[100]]
        results = finite.optimal_intervals(cfgs)
        # one pass per nt x 2 shape
        assert sorted(nt for nt, _ in ntx2_passes) == [3, 4, 5, 6]
        finite._ntx2_cache.clear()
        for cfg, got in zip(cfgs, results):
            want = _plain_optimal_interval(cfg)
            assert (got.k_star, got.value, got.horizon_limited) == (
                want.k_star, want.value, want.horizon_limited
            ), cfg
            assert got.curve == want.curve, cfg

    def test_afp_beats_mfp_equals_plain_scan(self, ntx2_passes):
        cfgs = [cfg for cfg in self.GRID if cfg.k_max in (1, 8, 64)]
        got = []
        for cfg in cfgs:
            before = len(ntx2_passes)
            got.append(afp_beats_mfp(cfg))
            assert len(ntx2_passes) - before <= 1, cfg  # one pass per call at most
        finite._ntx2_cache.clear()
        for cfg, cmp in zip(cfgs, got):
            assert cmp == _plain_afp_beats_mfp(cfg), cfg

    @pytest.mark.parametrize("bits", [1e-10, 3e-10])
    def test_sub_nanobit_searches_equal_plain_scans(self, bits, ntx2_passes):
        # every budget of the search's batch is less than 1e-8 from the others
        cfg = AfpConfig(SystemShape(3, 2), bits, FadingModel(0.9), 20)
        got, cmp = optimal_interval(cfg), afp_beats_mfp(cfg)
        assert got == _plain_optimal_interval(cfg)
        assert cmp == _plain_afp_beats_mfp(cfg)

    def test_whole_bit_afp_search_fetches_what_it_reads(self, ntx2_passes, monkeypatch):
        # at one bit per block the K = 1 floor is the K = 1 power to a
        # millionth, so the scan on the floors ends where the scan on the
        # powers does (each search's scans are the floors', then the powers')
        lengths, real = [], finite._scan
        monkeypatch.setattr(finite, "_scan", lambda *args: lengths.append(len(curve := real(*args))) or curve)
        for nt, alpha in ((3, 0.95), (4, 0.9), (5, 0.8), (8, 0.5)):
            afp_beats_mfp(AfpConfig(SystemShape(nt, 2), 1.0, FadingModel(alpha)))
        assert [len(sizes) for _, sizes in ntx2_passes] == lengths[1::2] == [48, 34, 22, 17]

    def test_floors_above_the_powers_fall_back_to_single_fetches(self, ntx2_passes, monkeypatch):
        # floors at E[l1], above every power, stop each scan on the floors at
        # K = 1: every later budget is fetched alone, to the same answers
        monkeypatch.setattr(finite, "_power_floor", lambda shape, bits: mean_largest_eigenvalue(shape))
        cfgs = [cfg for cfg in self.GRID if cfg.k_max in (1, 8, 64)]
        results = finite.optimal_intervals(cfgs)
        comparisons = [afp_beats_mfp(cfg) for cfg in cfgs]
        assert len(ntx2_passes) > 4 and all(len(sizes) == 1 for _, sizes in ntx2_passes[4:])
        finite._ntx2_cache.clear()
        for cfg, got, cmp in zip(cfgs, results, comparisons):
            assert got == _plain_optimal_interval(cfg), cfg
            assert cmp == _plain_afp_beats_mfp(cfg), cfg
