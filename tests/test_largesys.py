import itertools
import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from scipy import optimize

from afpopt import largesys
from afpopt.finite import best_interval, intervals_beating_first
from afpopt.largesys import (
    LargeSystemConfig,
    afp_beats_mfp,
    asymptotic_power,
    bits_threshold,
    miso_interval_approx,
    optimal_interval,
    rate_difference,
)


def brentq_asymptotic_power(x: float, nr_bar: float) -> float:
    """Oracle below the branch threshold: brentq on the fixed-point equation
    in logs, nr_bar log1p(d / nr_bar) - d + x ln 2 = 0 with g = nr_bar + d.
    (The same equation written in g loses the root to cancellation as
    x -> 0: at x = 1e-12 its rounding noise moves g by about 1e-10.)"""
    s = math.sqrt(nr_bar)
    d = optimize.brentq(
        lambda d: nr_bar * math.log1p(d / nr_bar) - d + x * math.log(2.0),
        0.0, 2.0 * s + 1.0, xtol=1e-300, rtol=4 * np.finfo(float).eps, maxiter=500,
    )
    return nr_bar + d


def mpmath_power_law(x: float, nr_bar: float) -> tuple[float, float]:
    """Oracle at 50 digits: (threshold, power), the threshold and the upper
    branch from their defining formulas (s - nr_bar log1p(1/s)) / ln 2 and
    (1 + s)^2 - (1 + s) 2^(threshold - x), the lower branch nr_bar + d at
    the root of nr_bar log1p(d / nr_bar) - d + x ln 2 by bisection on [0, s]."""
    with mpmath.workdps(50):
        v, x = mpmath.mpf(nr_bar), mpmath.mpf(x)
        s, ln2 = mpmath.sqrt(v), mpmath.log(2)
        threshold = (s - v * mpmath.log1p(1 / s)) / ln2
        if x >= threshold:
            return float(threshold), float((1 + s) ** 2 - (1 + s) * 2 ** (threshold - x))
        lo, hi = mpmath.mpf(0), s
        for _ in range(400):
            mid = (lo + hi) / 2
            if v * mpmath.log1p(mid / v) - mid + x * ln2 > 0:
                lo = mid
            else:
                hi = mid
        return float(threshold), float(v + lo)


def mpmath_excess(x: float, nr_bar: float) -> mpmath.mpf:
    """Oracle at 420 digits: the power's excess over nr_bar, from the closed form past the
    threshold and below it by Newton's method on nr_bar log1p(d / nr_bar) - d + x ln 2 from the
    upper bound c + sqrt(c^2 + 2 c nr_bar), c = x ln 2.  Both cancel by up to the digits of
    nr_bar / d: at 80 digits the threshold is already wrong at nr_bar = 1e200."""
    with mpmath.workdps(420):
        v, x = mpmath.mpf(nr_bar), mpmath.mpf(x)
        s, ln2 = mpmath.sqrt(v), mpmath.log(2)
        threshold, c = (s - v * mpmath.log1p(1 / s)) / ln2, x * ln2
        if x >= threshold:
            return (1 + s) ** 2 - (1 + s) * 2 ** (threshold - x) - v
        d = c + mpmath.sqrt(c * c + 2 * c * v)
        for _ in range(400):
            step = (v * mpmath.log1p(d / v) - d + c) * (v + d) / d
            d += step
            if abs(step) < d * mpmath.mpf(10) ** -60:  # quadratic: the error is now ~1e-120
                return d
        raise AssertionError("no convergence")


def mpmath_gain(k: int, cfg: LargeSystemConfig) -> float:
    """Oracle: the mean over blocks of log2(1 + alpha^(2i-2) d / nr_bar) at 420 digits."""
    d = mpmath_excess(cfg.b_bar * k, cfg.nr_bar)
    with mpmath.workdps(420):
        a2, v = mpmath.mpf(cfg.alpha) ** 2, mpmath.mpf(cfg.nr_bar)
        return float(sum(mpmath.log1p(a2**i * d / v) for i in range(k)) / (k * mpmath.log(2)))


def mpmath_rate(k: int, cfg: LargeSystemConfig) -> float:
    """Oracle: the mean over blocks of log2(nr_bar + alpha^(2i-2) d) at 420 digits."""
    d = mpmath_excess(cfg.b_bar * k, cfg.nr_bar)
    with mpmath.workdps(420):
        a2, v = mpmath.mpf(cfg.alpha) ** 2, mpmath.mpf(cfg.nr_bar)
        return float(sum(mpmath.log(v + a2**i * d) for i in range(k)) / (k * mpmath.log(2)))


def gain(k: int, cfg: LargeSystemConfig) -> float:
    """The part of the rate difference that K moves, as the searches form it."""
    return largesys._gain_and_rate(k, largesys._excess(cfg.b_bar * k, cfg.nr_bar), cfg)[0]


def fixed_point_residual(g: float, x: float, nr_bar: float) -> float:
    return abs(g**nr_bar * math.exp(-g) - 2.0 ** (-x) * (nr_bar / math.e) ** nr_bar)


class TestThreshold:
    def test_known_values(self):
        assert bits_threshold(1.0) == pytest.approx((1 - math.log(2)) / math.log(2), rel=1e-12)
        assert bits_threshold(4.0) == pytest.approx(
            (4 * math.log(2 / 3) + 2) / math.log(2), rel=1e-12
        )
        assert bits_threshold(4.0) == pytest.approx(0.5455401, rel=1e-6)

    def test_positive_on_grid(self):
        for nr_bar in np.geomspace(0.01, 100.0, 40):
            assert bits_threshold(float(nr_bar)) > 0.0

    def test_rejects_miso(self):
        with pytest.raises(ValueError):
            bits_threshold(0.0)


class TestAsymptoticPower:
    def test_zero_bits_gives_isotropic_ratio(self):
        for nr_bar in (0.5, 1.0, 2.0):
            assert asymptotic_power(0.0, nr_bar) == pytest.approx(nr_bar, abs=1e-12)

    def test_miso_closed_form_exact(self):
        for x in (0.0, 0.5, 1.0, 3.0, 10.0):
            assert asymptotic_power(x, 0.0) == 1.0 - 2.0 ** (-x)

    def test_miso_path_selected_only_at_exactly_zero_ratio(self):
        # at zero budget the regimes report different normalizations
        assert asymptotic_power(0.0, 0.0) == 0.0
        assert asymptotic_power(0.0, 0.5) == 0.5

    def test_branches_agree_at_threshold(self):
        for nr_bar in (0.25, 0.5, 1.0, 2.0, 4.0):
            beta = bits_threshold(nr_bar)
            lo = asymptotic_power(beta - 1e-8, nr_bar)
            hi = asymptotic_power(beta + 1e-8, nr_bar)
            assert abs(lo - hi) < 1e-6

    def test_threshold_value_for_equal_ratio(self):
        beta = bits_threshold(1.0)
        assert asymptotic_power(beta, 1.0) == pytest.approx(2.0, abs=1e-9)

    def test_fixed_point_residual(self):
        for nr_bar in (0.25, 0.5, 1.0, 2.0, 4.0):
            beta = bits_threshold(nr_bar)
            for x in (0.01 * beta, 0.3 * beta, 0.7 * beta, 0.999 * beta):
                g = asymptotic_power(x, nr_bar)
                assert fixed_point_residual(g, x, nr_bar) < 1e-12

    def test_monotone_and_bounded(self):
        for nr_bar in (0.5, 1.0, 3.0):
            cap = (1 + math.sqrt(nr_bar)) ** 2
            xs = np.linspace(0.0, 12.0, 120)
            vals = [asymptotic_power(float(x), nr_bar) for x in xs]
            assert np.all(np.diff(vals) >= -1e-12)
            assert np.all(np.asarray(vals) <= cap + 1e-12)

    def test_saturation(self):
        assert asymptotic_power(300.0, 1.0) == pytest.approx(4.0, abs=1e-9)
        assert asymptotic_power(300.0, 4.0) == pytest.approx(9.0, abs=1e-9)

    @pytest.mark.parametrize("nr_bar", [1e-20, 0.25, 1.0, 4.0, 1e4, 1e8, 1e12, 1e16, 1e20])
    def test_matches_mpmath_oracle_across_ratios(self, nr_bar):
        threshold = mpmath_power_law(0.0, nr_bar)[0]
        assert bits_threshold(nr_bar) == pytest.approx(threshold, rel=1e-13, abs=0.0)
        for x in threshold * np.array([1e-6, 0.1, 0.5, 0.99, 1.01, 2.0, 50.0]):
            g = asymptotic_power(float(x), nr_bar)
            assert g == pytest.approx(mpmath_power_law(float(x), nr_bar)[1], rel=1e-13, abs=0.0), x

    def test_every_finite_ratio_and_budget(self):
        # no exception; g finite, nr_bar <= g <= (1 + sqrt(nr_bar))^2 and
        # non-decreasing in x, each to 4 ulp
        grid = np.geomspace(1e-300, 1e300, 61).tolist()
        for nr_bar in [0.0, 5e-324, 0.25, 0.5, 1.0, 2.0, 4.0, 1.7e308, *grid]:
            edge = (1.0 + math.sqrt(nr_bar)) ** 2
            prev = nr_bar
            for x in [0.0, 5e-324, *grid]:
                g = asymptotic_power(x, nr_bar)
                assert math.isfinite(g), (nr_bar, x)
                assert nr_bar - 4 * math.ulp(nr_bar) <= g <= edge + 4 * math.ulp(edge), (nr_bar, x, g)
                assert g >= prev - 4 * math.ulp(prev), (nr_bar, x, g, prev)
                prev = g

    def test_matches_brentq_oracle_to_4_ulp(self):
        for nr_bar in [1e-6, 1e-3, 0.01, *np.linspace(0.1, 4.0, 40)]:
            nr_bar = float(nr_bar)
            for x in np.geomspace(1e-12, bits_threshold(nr_bar), 40)[:-1]:
                x = float(x)
                g, ref = asymptotic_power(x, nr_bar), brentq_asymptotic_power(x, nr_bar)
                assert abs(g - ref) <= 4 * math.ulp(ref), (nr_bar, x, g, ref)


class TestRateDifference:
    def test_single_block_is_log_power(self):
        cfg = LargeSystemConfig(1.0, 0.75, 0.8)
        assert rate_difference(1, cfg) == pytest.approx(
            math.log2(asymptotic_power(0.75, 1.0)), rel=1e-12
        )

    def test_uncorrelated_limit_formula(self):
        cfg = LargeSystemConfig(2.0, 1.0, 0.0)
        k = 4
        expected = (
            math.log2(asymptotic_power(4.0, 2.0)) + (k - 1) * math.log2(2.0)
        ) / k
        assert rate_difference(k, cfg) == pytest.approx(expected, rel=1e-12)

    def test_static_miso_increases_in_blocks(self):
        cfg = LargeSystemConfig(0.0, 1.0, 1.0)
        vals = [rate_difference(k, cfg) for k in range(1, 8)]
        assert vals == sorted(vals)
        assert vals[3] == pytest.approx(math.log2(1 - 2.0**-4), rel=1e-12)

    def test_uncorrelated_miso_unusable_beyond_first_block(self):
        cfg = LargeSystemConfig(0.0, 1.0, 0.0)
        assert rate_difference(1, cfg) == pytest.approx(-1.0, rel=1e-12)
        assert rate_difference(2, cfg) == -math.inf

    def test_increases_with_budget(self):
        for k in (1, 3, 6):
            vals = [
                rate_difference(k, LargeSystemConfig(1.0, b, 0.8)) for b in (0.25, 0.5, 1.0, 2.0)
            ]
            assert vals == sorted(vals)
            assert max(vals) <= math.log2(4.0)


class TestOptimalInterval:
    def test_miso_anchor(self):
        cfg = LargeSystemConfig(0.0, 1.0, 0.9)
        assert optimal_interval(cfg).k_star == 3

    def test_static_channel_horizon_limited(self):
        cfg = LargeSystemConfig(1.0, 0.5, 1.0, k_max=32)
        result = optimal_interval(cfg)
        assert result.k_star == 32
        assert result.horizon_limited
        # the curve saturates in floating point (its first argmax is K = 54);
        # at alpha = 1 the answer is k_max by rule, with the whole curve
        result = optimal_interval(LargeSystemConfig(1.0, 1.0, 1.0))
        assert result.k_star == 64 and result.horizon_limited
        assert result.value == result.curve[-1] and len(result.curve) == 64

    def test_scan_evaluates_each_interval_once(self, monkeypatch):
        # count the power's excess through the module attribute, the way a tracer wraps it
        budgets = []
        real = largesys._excess
        monkeypatch.setattr(largesys, "_excess", lambda x, nr_bar: budgets.append(x) or real(x, nr_bar))
        cfg = LargeSystemConfig(1.0, 0.5, 0.9)
        result = optimal_interval(cfg)
        # the envelope falls to the best gain (at K = 4) before K = 7
        assert budgets == [0.5 * k for k in range(1, 7)]
        assert result.curve == tuple(rate_difference(k, cfg) for k in range(1, 7))
        assert result.k_star == 4 and result.value == max(result.curve)
        best = gain(4, cfg)
        assert largesys._envelope(7, cfg) <= best < largesys._envelope(6, cfg)
        # afp_beats_mfp stops at the envelope too, and its window is the full scan's
        full = tuple(rate_difference(k, cfg) for k in range(1, 65))
        budgets.clear()
        assert afp_beats_mfp(cfg) == tuple(k for k in range(2, 65) if full[k - 1] > full[0]) == tuple(range(2, 12))
        assert budgets == [0.5 * k for k in range(1, 12)]

    def test_envelope_stop_keeps_the_full_scan_answer(self):
        grid = itertools.product(
            (0.0, 0.25, 0.5, 1.0, 2.0, 4.0), (0.0625, 0.25, 1.0, 4.0),
            (0.0, 0.3, 0.5, 0.8, 0.9, 0.95, 0.99, 0.9999),
        )
        for nr_bar, b_bar, alpha in grid:
            cfg = LargeSystemConfig(nr_bar, b_bar, alpha, k_max=200)
            gains = tuple(gain(k, cfg) for k in range(1, 201))
            full = tuple(rate_difference(k, cfg) for k in range(1, 201))
            for k, value in enumerate(gains, 1):
                assert largesys._envelope(k, cfg) >= value, (cfg, k)
            for k_max in (1, 2, 64, 200):
                short = replace(cfg, k_max=k_max)
                got, want = optimal_interval(short), best_interval(gains[:k_max], k_max)
                assert (got.k_star, got.horizon_limited) == (want.k_star, want.horizon_limited), short
                assert got.value == full[got.k_star - 1]
                assert got.curve == full[: len(got.curve)]
                assert afp_beats_mfp(short) == intervals_beating_first(gains[:k_max]), short

    def test_interval_shrinks_with_budget(self):
        k_half = optimal_interval(LargeSystemConfig(1.0, 0.5, 0.8)).k_star
        k_one = optimal_interval(LargeSystemConfig(1.0, 1.0, 0.8)).k_star
        assert k_half == 3
        assert k_one == 2


class TestConfig:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_fields_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            LargeSystemConfig(bad, 1.0, 0.9)
        with pytest.raises(ValueError, match="finite"):
            LargeSystemConfig(1.0, bad, 0.9)
        with pytest.raises(ValueError):
            LargeSystemConfig(1.0, 1.0, bad)

    def test_large_finite_budget_saturates(self):
        cfg = LargeSystemConfig(1.0, 1e308, 0.9, k_max=3)
        # the power saturates at the edge (1 + sqrt(nr_bar))^2 = 4
        assert rate_difference(2, cfg) == pytest.approx((2.0 + math.log2(1.0 + 0.81 * 3.0)) / 2.0)
        assert optimal_interval(cfg).k_star == 1


class TestEveryAntennaRatio:
    # the searches compare the gain, not the rate: past nr_bar ~ 1e28, adding log2(nr_bar)
    # rounds away what K moves
    @pytest.mark.parametrize("nr_bar", [1e32, 1e200, 1.7e308])
    def test_searches_hold_at_huge_ratios(self, nr_bar):
        cfg = LargeSystemConfig(nr_bar, 1.0, 0.9)
        assert optimal_interval(cfg).k_star == 3
        assert afp_beats_mfp(cfg) == (2, 3, 4, 5, 6)

    @pytest.mark.parametrize("nr_bar", [1e8, 1e32, 1e200, 1.7e308])
    @pytest.mark.parametrize("b_bar", [0.05, 1.0])  # the root up to K = 10, and the closed form
    def test_gains_match_a_420_digit_sum(self, nr_bar, b_bar):
        cfg = LargeSystemConfig(nr_bar, b_bar, 0.9)
        for k in range(1, 11):
            assert gain(k, cfg) == pytest.approx(mpmath_gain(k, cfg), rel=1e-14, abs=0.0), k

    @pytest.mark.parametrize("nr_bar", [1e-20, 0.25, 1.0, 1e4, 1e32, 1e200, 1.7e308])
    def test_excess_matches_the_420_digit_root(self, nr_bar):
        # down to budgets where the root is 1e-150 of sqrt(nr_bar)
        threshold = bits_threshold(nr_bar)
        for x in threshold * np.array([1e-300, 1e-30, 1e-6, 0.1, 0.5, 0.99, 1.01, 2.0, 50.0]):
            ref = float(mpmath_excess(float(x), nr_bar))
            assert largesys._excess(float(x), nr_bar) == pytest.approx(ref, rel=1e-14, abs=0.0), x

    def test_subnormal_ratio_keeps_finite_rates(self):
        # d / nr_bar overflows; the rate is the mean of the blocks' logs, which the gain plus
        # log2(nr_bar) ~ -1074 would hold only to 1e-13
        cfg = LargeSystemConfig(5e-324, 1.0, 0.9)
        rates = [rate_difference(k, cfg) for k in (1, 2, 5)]
        assert rates == pytest.approx([-1.0, -0.5670405927238937, -0.6538160633933245], rel=1e-15, abs=0.0)
        assert rates == pytest.approx([mpmath_rate(k, cfg) for k in (1, 2, 5)], rel=1e-15, abs=0.0)
        assert optimal_interval(cfg).curve[:2] == tuple(rates[:2])

    @pytest.mark.parametrize("nr_bar", [5e-324, 1e-300, 1e-20, 0.25, 1.0, 4.0, 1e8, 1e200])
    @pytest.mark.parametrize("b_bar", [0.05, 1.0])
    def test_rates_match_a_420_digit_sum(self, nr_bar, b_bar):
        # to 1e-15, absolute or relative, where nr_bar is below the excess and where it is above
        cfg = LargeSystemConfig(nr_bar, b_bar, 0.9)
        for k in range(1, 11):
            assert rate_difference(k, cfg) == pytest.approx(mpmath_rate(k, cfg), rel=1e-15, abs=1e-15), k


def miso_interval_small_budget(alpha: float) -> float:
    """Vanishing-budget limit of miso_interval_approx: log2(1 + b ln 2 / L) / b -> 1 / L, L = ln(1/alpha)."""
    return 1.0 / math.log(1.0 / alpha)


class TestMisoApprox:
    def test_anchor_values(self):
        assert miso_interval_approx(1.0, 0.9) == pytest.approx(2.921972, abs=1e-6)
        assert miso_interval_small_budget(0.9) == pytest.approx(9.491222, abs=1e-6)

    def test_vanishing_budget_limit(self):
        for alpha in (0.5, 0.9, 0.99):
            limit = miso_interval_small_budget(alpha)
            assert miso_interval_approx(1e-9, alpha) == pytest.approx(limit, rel=1e-6)

    def test_rounding_tracks_exhaustive_search(self):
        for alpha in (0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99):
            for b_bar in (0.25, 0.5, 0.75, 1.0, 1.5, 2.0):
                exact = optimal_interval(LargeSystemConfig(0.0, b_bar, alpha)).k_star
                approx = max(1, round(miso_interval_approx(b_bar, alpha)))
                assert abs(exact - approx) <= 1

    def test_domain(self):
        with pytest.raises(ValueError):
            miso_interval_approx(1.0, 1.0)
        with pytest.raises(ValueError):
            miso_interval_approx(1.0, 0.0)


class TestAfpVsMfp:
    def test_static_channel_every_interval_wins(self):
        cfg = LargeSystemConfig(1.0, 0.5, 1.0, k_max=12)
        assert afp_beats_mfp(cfg) == tuple(range(2, 13))

    def test_uncorrelated_miso_never_wins(self):
        cfg = LargeSystemConfig(0.0, 1.0, 0.0, k_max=12)
        assert afp_beats_mfp(cfg) == ()

    def test_moderate_correlation_window(self):
        # frozen from direct evaluation of the rate difference
        assert afp_beats_mfp(LargeSystemConfig(1.0, 0.5, 0.8)) == (2, 3, 4, 5)
        # at b_bar = 2 the K = 2 average falls 0.017 bits short of K = 1
        assert afp_beats_mfp(LargeSystemConfig(1.0, 2.0, 0.8)) == ()
