import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import optimize

from afpopt import largesys
from afpopt.finite import best_interval
from afpopt.largesys import (
    LargeSystemConfig,
    afp_beats_mfp,
    asymptotic_power,
    bits_threshold,
    miso_interval_approx,
    miso_interval_small_budget,
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
        # count through the module attribute, the way a tracer wraps it
        calls = []
        real = largesys.rate_difference
        monkeypatch.setattr(largesys, "rate_difference", lambda k, cfg: calls.append(k) or real(k, cfg))
        cfg = LargeSystemConfig(1.0, 0.5, 0.9)
        result = optimal_interval(cfg)
        # the envelope falls to the best value (at K = 4) before K = 7
        assert calls == list(range(1, 7))
        assert result.curve == tuple(real(k, cfg) for k in range(1, 7))
        assert result.k_star == 4 and result.value == max(result.curve)
        assert largesys._rate_envelope(7, cfg) <= result.value < largesys._rate_envelope(6, cfg)
        calls.clear()
        # afp_beats_mfp still scans every K
        full = tuple(real(k, cfg) for k in range(1, 65))
        assert afp_beats_mfp(cfg) == tuple(k for k in range(2, 65) if full[k - 1] > full[0])
        assert calls == list(range(1, 65))

    def test_envelope_stop_keeps_the_full_scan_answer(self):
        grid = itertools.product(
            (0.0, 0.25, 0.5, 1.0, 2.0, 4.0), (0.0625, 0.25, 1.0, 4.0),
            (0.0, 0.3, 0.5, 0.8, 0.9, 0.95, 0.99, 0.9999),
        )
        for nr_bar, b_bar, alpha in grid:
            cfg = LargeSystemConfig(nr_bar, b_bar, alpha, k_max=200)
            full = tuple(rate_difference(k, cfg) for k in range(1, 201))
            for k, rate in enumerate(full, 1):
                assert largesys._rate_envelope(k, cfg) >= rate, (cfg, k)
            for k_max in (1, 2, 64, 200):
                got = optimal_interval(replace(cfg, k_max=k_max))
                want = best_interval(full[:k_max], k_max)
                assert (got.k_star, got.value, got.horizon_limited) == (
                    want.k_star, want.value, want.horizon_limited
                ), (cfg, k_max)
                assert got.curve == full[: len(got.curve)]

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


class TestMisoApprox:
    def test_anchor_values(self):
        assert miso_interval_approx(1.0, 0.9) == pytest.approx(2.921972, abs=1e-6)
        assert miso_interval_small_budget(0.9) == pytest.approx(6.578813, abs=1e-6)

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
            miso_interval_small_budget(0.0)


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
