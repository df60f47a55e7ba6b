import math

import numpy as np
import pytest

from afpopt.channel import (
    FadingModel,
    RandomStream,
    SystemShape,
    alpha_from_jakes,
    complex_normal,
    evolve,
    gram_eigenvalues,
    received_power,
    sample_channel,
    trajectory,
)


def j0_series(x: float) -> float:
    # truncated power series oracle; plenty of terms for x <= 12
    q = -(x * x) / 4.0
    term, total = 1.0, 1.0
    for j in range(1, 70):
        term *= q / (j * j)
        total += term
    return total


class TestSampling:
    def test_entries_unit_variance(self):
        gen = RandomStream(11).generator()
        sq = [np.abs(sample_channel(SystemShape(2, 2), gen)) ** 2 for _ in range(25_000)]
        assert abs(np.mean(sq) - 1.0) < 0.02

    def test_real_imag_split_evenly(self):
        gen = RandomStream(12).generator()
        h = np.concatenate([sample_channel(SystemShape(4, 4), gen).ravel() for _ in range(2000)])
        assert abs(np.mean(h.real**2) - 0.5) < 0.01
        assert abs(np.mean(h.imag**2) - 0.5) < 0.01
        assert abs(np.mean(h.real * h.imag)) < 0.01

    def test_matches_interleaved_division_bit_for_bit(self):
        # the in-place scaling and complex view give exactly the bits of
        # (re + 1j im) / sqrt(2), three complex temporaries and a division
        for seed in range(20):
            for shape in ((7,), (3, 4), (64, 2, 3)):
                z = RandomStream(seed, 5).generator().standard_normal(shape + (2,))
                expected = (z[..., 0] + 1j * z[..., 1]) / np.sqrt(2.0)
                got = complex_normal(RandomStream(seed, 5), shape)
                assert got.shape == shape and got.dtype == np.complex128
                assert np.array_equal(got.real.view(np.int64), expected.real.view(np.int64))
                assert np.array_equal(got.imag.view(np.int64), expected.imag.view(np.int64))

    def test_deterministic_per_stream(self):
        a = sample_channel(SystemShape(2, 2), RandomStream(5, 3))
        b = sample_channel(SystemShape(2, 2), RandomStream(5, 3))
        c = sample_channel(SystemShape(2, 2), RandomStream(5, 4))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_negative_seed_wraps_to_uint64(self):
        a = sample_channel(SystemShape(2, 2), RandomStream(-1))
        b = sample_channel(SystemShape(2, 2), RandomStream(0xFFFFFFFFFFFFFFFF))
        assert np.array_equal(a, b)

    def test_frobenius_mean_3x1(self):
        gen = RandomStream(13).generator()
        vals = [np.linalg.norm(sample_channel(SystemShape(3, 1), gen)) ** 2 for _ in range(100_000)]
        stderr = np.std(vals) / math.sqrt(len(vals))
        assert abs(np.mean(vals) - 3.0) < 3 * stderr


class TestFadingModel:
    def test_alpha_is_the_only_field(self):
        # the rate metrics' SNR is run_spec's rho; the model carries none
        with pytest.raises(TypeError):
            FadingModel(0.8, rho=100.0)
        with pytest.raises(TypeError):
            FadingModel(0.8, 100.0)

    @pytest.mark.parametrize("bad", [-0.1, 1.1, math.nan, math.inf])
    def test_alpha_outside_unit_interval_rejected(self, bad):
        with pytest.raises(ValueError, match="alpha"):
            FadingModel(bad)


class TestEvolve:
    def test_alpha_one_freezes_channel(self):
        h = sample_channel(SystemShape(3, 2), RandomStream(1))
        h2 = evolve(h, FadingModel(1.0), RandomStream(2))
        assert np.array_equal(h, h2)

    def test_alpha_zero_decorrelates(self):
        gen = RandomStream(21).generator()
        shape = SystemShape(8, 8)
        prods = []
        for _ in range(3000):
            h = sample_channel(shape, gen)
            h2 = evolve(h, FadingModel(0.0), gen)
            prods.append((h2 * h.conj()).real.ravel())
        prods = np.concatenate(prods)
        assert abs(prods.mean()) < 3 * prods.std() / math.sqrt(prods.size)

    @pytest.mark.parametrize("lag", [1, 2, 3])
    def test_lag_correlation_decays_geometrically(self, lag):
        alpha = 0.8
        gen = RandomStream(22 + lag).generator()
        shape = SystemShape(8, 8)
        model = FadingModel(alpha)
        prods = []
        for _ in range(6000):
            path = trajectory(model, shape, lag + 1, gen)
            prods.append((path[lag] * path[0].conj()).real.ravel())
        prods = np.concatenate(prods)
        stderr = prods.std() / math.sqrt(prods.size)
        assert abs(prods.mean() - alpha**lag) < 3 * stderr

    def test_marginal_stays_unit_variance(self):
        gen = RandomStream(23).generator()
        path = [trajectory(FadingModel(0.9), SystemShape(8, 8), 6, gen)[-1] for _ in range(3000)]
        sq = np.abs(np.stack(path)) ** 2
        stderr = sq.std() / math.sqrt(sq.size)
        assert abs(sq.mean() - 1.0) < 3 * stderr


class TestTrajectory:
    def test_single_block_is_plain_draw(self):
        path = trajectory(FadingModel(0.7), SystemShape(2, 3), 1, RandomStream(4, 2))
        direct = sample_channel(SystemShape(2, 3), RandomStream(4, 2))
        assert np.array_equal(path[0], direct)

    def test_alpha_one_constant_path(self):
        path = trajectory(FadingModel(1.0), SystemShape(2, 2), 3, RandomStream(5))
        assert np.array_equal(path[0], path[1])
        assert np.array_equal(path[0], path[2])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            trajectory(FadingModel(0.5), SystemShape(2, 2), 0, RandomStream(0))


class TestSpectral:
    def test_identity_embedded(self):
        h = np.eye(2, dtype=complex)
        assert np.allclose(gram_eigenvalues(h), [1.0, 1.0])

    def test_descending_nonnegative_and_trace(self):
        gen = RandomStream(31).generator()
        for shape in (SystemShape(2, 2), SystemShape(5, 2), SystemShape(3, 4), SystemShape(4, 4)):
            h = sample_channel(shape, gen)
            ev = gram_eigenvalues(h)
            assert ev.size == min(shape.nt, shape.nr)
            assert np.all(np.diff(ev) <= 0)
            assert np.all(ev >= 0)
            frob = np.linalg.norm(h) ** 2
            assert abs(ev.sum() - frob) < 1e-10 * frob

    @pytest.mark.parametrize("nt,nr", [(1, 3), (3, 1), (2, 2), (5, 2), (2, 4), (3, 3), (4, 6)])
    def test_batched_equals_single_matrix(self, nt, nr):
        stack = complex_normal(RandomStream(37), (4, 3, nr, nt))
        batched = gram_eigenvalues(stack)
        assert batched.shape == (4, 3, min(nt, nr))
        for idx in np.ndindex(4, 3):
            assert np.array_equal(batched[idx], gram_eigenvalues(stack[idx]))

    def test_top_eigenvalue_mean_2x2(self):
        gen = RandomStream(32).generator()
        vals = [gram_eigenvalues(sample_channel(SystemShape(2, 2), gen))[0] for _ in range(100_000)]
        assert abs(np.mean(vals) - 3.5) < 0.02

    def test_received_power_at_singular_vector(self):
        h = sample_channel(SystemShape(3, 2), RandomStream(33))
        _, s, vh = np.linalg.svd(h)
        top = vh[0].conj()
        assert abs(received_power(h, top) - s[0] ** 2) < 1e-9 * s[0] ** 2
        null = vh[-1].conj()
        if s[-1] < 1e-8:
            assert received_power(h, null) < 1e-12

    def test_received_power_orthogonal_row_space(self):
        h = np.array([[1.0, 0.0, 0.0]], dtype=complex)
        v = np.array([0.0, 1.0, 0.0], dtype=complex)
        assert received_power(h, v) == 0.0

    def test_received_power_bounded_by_top_eigenvalue(self):
        gen = RandomStream(34).generator()
        for _ in range(200):
            h = sample_channel(SystemShape(3, 3), gen)
            v = sample_channel(SystemShape(3, 1), gen).ravel()
            v /= np.linalg.norm(v)
            assert received_power(h, v) <= gram_eigenvalues(h)[0] + 1e-9

    def test_isotropic_power_mean(self):
        gen = RandomStream(35).generator()
        vals = []
        for _ in range(20_000):
            h = sample_channel(SystemShape(2, 2), gen)
            v = sample_channel(SystemShape(2, 1), gen).ravel()
            v /= np.linalg.norm(v)
            vals.append(received_power(h, v))
        stderr = np.std(vals) / math.sqrt(len(vals))
        assert abs(np.mean(vals) - 2.0) < 3 * stderr

    def test_rejects_non_unit_vector(self):
        h = sample_channel(SystemShape(2, 2), RandomStream(36))
        with pytest.raises(ValueError):
            received_power(h, np.array([1.0, 1.0], dtype=complex))


class TestJakes:
    def test_zero_doppler(self):
        assert alpha_from_jakes(0.0, 5e-3) == 1.0

    def test_first_bessel_zero(self):
        arg = 2.404825557695773
        assert abs(alpha_from_jakes(arg / (2 * np.pi), 1.0)) < 1e-8

    def test_matches_series_oracle(self):
        for x in np.linspace(0.1, 10.0, 23):
            got = alpha_from_jakes(x / (2 * np.pi), 1.0)
            assert abs(got - j0_series(x)) < 1e-9

    def test_mobile_speed_span_900mhz(self):
        carrier, block = 900e6, 5e-3
        c = 299_792_458.0

        def alpha_at(kmh: float) -> float:
            doppler = kmh / 3.6 / c * carrier
            return alpha_from_jakes(doppler, block)

        assert alpha_at(1.0) > 0.9995
        assert 0.45 < alpha_at(60.0) < 0.55

    def test_may_go_negative_without_clamp(self):
        assert alpha_from_jakes(1.0, 0.5) < 0.0
