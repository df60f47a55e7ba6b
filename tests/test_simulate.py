import math

import literal_engine as literal
import numpy as np
import pytest
from scipy import stats

from afpopt import finite
from afpopt.channel import (
    FadingModel,
    RandomStream,
    SystemShape,
    complex_normal,
    evolve,
    gram_eigenvalues,
    sample_channel,
)
from afpopt.codebook import select_beamformer_streaming
from afpopt.simulate import (
    TRIAL_CHUNK,
    ExperimentSpec,
    block_power_trials,
    isotropic_power_tail,
    perfect_feedback_mean,
    perfect_feedback_power,
    round_half_up,
    run_spec,
    rvq_best_power,
    simulate_avg_power,
    simulate_avg_rate,
    simulate_rate_difference,
    sweep,
)


def spec_2x2(**kw):
    base = dict(
        shape=SystemShape(2, 2),
        model=FadingModel(0.8),
        bits_per_block=1.0,
        num_blocks=3,
        trials=2000,
        seed=11,
    )
    base.update(kw)
    return ExperimentSpec(**base)


class TestSpec:
    def test_budget_rounding_half_up(self):
        assert round_half_up(0.5) == 1
        assert round_half_up(1.49) == 1
        assert round_half_up(2.5) == 3
        assert spec_2x2(bits_per_block=0.5, num_blocks=3).budget_bits == 2  # 1.5 -> 2

    def test_budget_cap(self):
        with pytest.raises(ValueError):
            spec_2x2(bits_per_block=8.0, num_blocks=4)  # 32 bits

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_fields_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            spec_2x2(bits_per_block=bad)
        with pytest.raises(ValueError, match="finite"):
            simulate_avg_rate(spec_2x2(trials=2), bad)
        with pytest.raises(ValueError, match="finite"):
            simulate_rate_difference(spec_2x2(trials=2), bad)

    def test_overflowing_budget_rejected_before_rounding(self):
        with pytest.raises(ValueError, match="streaming cap"):
            spec_2x2(bits_per_block=1e308, num_blocks=2)  # B * K = inf
        with pytest.raises(ValueError, match="streaming cap"):
            spec_2x2(bits_per_block=15.25, num_blocks=2)  # 30.5 rounds to 31
        assert spec_2x2(bits_per_block=15.2, num_blocks=2).budget_bits == 30

    def test_field_validation(self):
        with pytest.raises(ValueError):
            spec_2x2(metric="power")
        with pytest.raises(ValueError):
            spec_2x2(codebook_kind="grassmann")
        with pytest.raises(ValueError):
            spec_2x2(trials=0)


class TestTrialEngine:
    """The literal engine's canonical per-trial streams (the oracle's own contract)."""

    def test_matches_canonical_stream_construction(self):
        spec = spec_2x2(trials=4)
        got = literal.block_power_trials(spec)
        for t in range(4):
            gen = RandomStream(spec.seed, t).generator()
            h = sample_channel(spec.shape, gen)
            sel = select_beamformer_streaming(h, 2, spec.budget_bits, gen)
            hv = h @ sel.vector
            expected = [np.vdot(hv, hv).real]
            for _ in range(2, spec.num_blocks + 1):
                h = evolve(h, spec.model, gen)
                hv = h @ sel.vector
                expected.append(np.vdot(hv, hv).real)
            assert np.array_equal(got[t], expected)

    def test_one_selection_per_trial_and_vector_reuse(self):
        spec = spec_2x2(trials=50)
        seen: dict[int, np.ndarray] = {}

        def hook(trial, sel):
            assert trial not in seen  # exactly one selection per trial
            seen[trial] = sel.vector

        powers = literal.block_power_trials(spec, on_select=hook)
        assert sorted(seen) == list(range(50))
        # block powers follow the recorded block-1 vector through the trajectory
        for t in (0, 17, 49):
            gen = RandomStream(spec.seed, t).generator()
            h = sample_channel(spec.shape, gen)
            select_beamformer_streaming(h, 2, spec.budget_bits, gen)  # consume codebook draws
            v = seen[t]
            assert powers[t, 0] == pytest.approx(float(np.linalg.norm(h @ v) ** 2), rel=1e-12)
            h = evolve(h, spec.model, gen)
            assert powers[t, 1] == pytest.approx(float(np.linalg.norm(h @ v) ** 2), rel=1e-12)

    def test_order_independent_sharding(self):
        spec = spec_2x2(trials=300)
        full = literal.block_power_trials(spec)
        head = literal.block_power_trials(spec, first_trial=0, num_trials=120)
        tail = literal.block_power_trials(spec, first_trial=120, num_trials=180)
        assert np.array_equal(full, np.vstack([head, tail]))

    def test_deterministic(self):
        a = simulate_avg_power(spec_2x2())
        b = simulate_avg_power(spec_2x2())
        assert a == b

    def test_chunk_rows_do_not_depend_on_trial_count(self):
        # chunk c draws only from the substream (seed, c)
        full = block_power_trials(spec_2x2(trials=TRIAL_CHUNK + 7))
        head = block_power_trials(spec_2x2(trials=TRIAL_CHUNK))
        assert full.shape == (TRIAL_CHUNK + 7, 3)
        assert np.array_equal(full[:TRIAL_CHUNK], head)
        assert not np.array_equal(full[TRIAL_CHUNK:], head[:7])


def _block_pvalues(spec: ExperimentSpec) -> list[float]:
    # same seed, hence the same maximin codebook; the oracle's per-trial
    # substreams start far above the engine's chunk substreams
    new = block_power_trials(spec)
    old = literal.block_power_trials(spec, first_trial=1 << 32)
    return [stats.ks_2samp(new[:, k], old[:, k]).pvalue for k in range(spec.num_blocks)]


class TestAgainstLiteralEngine:
    """Two-sample KS tests of per-block powers: sufficient statistic vs literal draws."""

    @pytest.mark.parametrize(
        "nt,nr,bits,alpha",
        [
            (2, 3, 1.0, 0.8),  # 2 x Nr
            (3, 2, 1.0, 0.9),  # Nt x 2
            (3, 3, 2.0, 0.9),
            (4, 4, 1.0, 0.5),
            (1, 3, 1.0, 0.8),  # nt = 1: selection cannot help
            (3, 1, 2.0, 0.8),  # nr = 1 (MISO)
            (4, 3, 1.0, 0.9),  # rank deficient, nt > nr > 2
            (5, 3, 2.0, 0.7),
            (2, 2, 1.0, 0.0),  # alpha = 0
            (3, 3, 1.0, 1.0),  # alpha = 1
            (3, 2, 0.2, 0.8),  # zero budget: round(0.2 * 2) = 0 bits
        ],
    )
    def test_rvq_blocks_match(self, nt, nr, bits, alpha):
        spec = ExperimentSpec(SystemShape(nt, nr), FadingModel(alpha), bits, 2, trials=1500, seed=61)
        assert all(p > 1e-3 for p in _block_pvalues(spec))

    @pytest.mark.parametrize("nt,nr,alpha", [(2, 3, 0.9), (3, 2, 0.0), (4, 4, 1.0)])
    def test_maximin_blocks_match(self, nt, nr, alpha):
        spec = ExperimentSpec(
            SystemShape(nt, nr), FadingModel(alpha), 1.0, 3,
            trials=1500, seed=63, codebook_kind="maximin", candidates=50,
        )
        assert all(p > 1e-3 for p in _block_pvalues(spec))


def _dirichlet_best_power(eigs, nt, bits, draws, gen):
    # direct: N isotropic entries per draw, power sum_i l_i w_i with w ~ Dirichlet(1, ..., 1)
    w = gen.exponential(size=(draws, 1 << bits, nt))
    w /= w.sum(axis=2, keepdims=True)
    return (w[..., : len(eigs)] @ np.asarray(eigs)).max(axis=1)


class TestBestPowerDraw:
    def test_tail_matches_divided_difference_sum(self):
        eigs = np.array([5.0, 2.5, 1.0])
        for nt in (3, 4, 6):
            nodes = np.concatenate([np.zeros(nt - 3), eigs[::-1]])
            xs = np.linspace(0.0, 5.0, 41)
            got = isotropic_power_tail(xs, np.tile(nodes, (xs.size, 1)))
            expected = sum(
                np.clip(l - xs, 0.0, None) ** (nt - 1)
                / (l ** (nt - 3) * np.prod([l - m for m in eigs if m != l]))
                for l in eigs
            )
            assert np.allclose(got, expected, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize(
        "eigs,nt,bits",
        [
            ((2.0, 2.0 - 1e-9), 3, 0),
            ((2.0, 2.0 - 1e-9), 4, 2),
            ((3.0, 3.0 - 1e-9, 1.0), 4, 1),
            ((2.0, 2.0 - 1e-9, 2.0 - 2e-9), 3, 2),
            ((1.5, 1.5 - 1e-9, 0.5, 0.5 - 1e-9), 5, 0),
        ],
    )
    def test_nearly_coincident_eigenvalues(self, eigs, nt, bits):
        gen = RandomStream(71).generator()
        u = 1.0 - gen.random(20_000)
        got = rvq_best_power(np.tile(eigs, (u.size, 1)), nt, bits, u)
        assert np.all((got >= 0.0) & (got <= eigs[0]))
        direct = _dirichlet_best_power(eigs, nt, bits, 20_000, gen)
        assert stats.ks_2samp(got, direct).pvalue > 1e-3

    def test_tail_continuous_at_coincidence(self):
        xs = np.linspace(0.0, 3.0, 31)
        for split, merged in (
            ((3.0, 3.0 - 1e-9, 1.0), (3.0, 3.0, 1.0)),
            ((3.0, 1.0 + 1e-9, 1.0), (3.0, 1.0, 1.0)),
            ((2.0, 2.0 - 1e-9, 2.0 - 2e-9), (2.0, 2.0, 2.0)),
        ):
            for nt in (3, 5):
                pad = np.zeros(nt - 3)
                a = isotropic_power_tail(xs, np.tile(np.concatenate([pad, split[::-1]]), (31, 1)))
                b = isotropic_power_tail(xs, np.tile(np.concatenate([pad, merged[::-1]]), (31, 1)))
                assert np.all((a >= 0.0) & (a <= 1.0))
                assert np.max(np.abs(a - b)) < 1e-7

    @pytest.mark.parametrize("nt,nr", [(3, 2), (5, 2), (3, 3), (5, 3), (4, 4), (8, 8)])
    def test_inversion_matches_bisection_to_rounding(self, nt, nr):
        # reference: 60 halvings of [0, l1] on the tail, no closed form and
        # no Newton steps; the draws may differ only by the rounding of the
        # tail, which moves an ill-conditioned root (a flat tail near the
        # smallest eigenvalue) by up to about 1e-14 l1
        gen = RandomStream(61, nt * 10 + nr).generator()
        eigs = gram_eigenvalues(complex_normal(gen, (3000, nr, nt)))
        nodes = np.zeros((eigs.shape[0], nt))
        nodes[:, nt - eigs.shape[1]:] = eigs[:, ::-1]
        for bits in (0, 1, 4):
            u = 1.0 - gen.random(eigs.shape[0])
            t = -np.expm1(np.log(u) / 2.0**bits)
            lo, hi = np.zeros(len(u)), eigs[:, 0].copy()
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                above = isotropic_power_tail(mid, nodes) > t
                lo, hi = np.where(above, mid, lo), np.where(above, hi, mid)
            got = rvq_best_power(eigs, nt, bits, u)
            assert np.max(np.abs(got - hi) / eigs[:, 0]) < 1e-12, bits

    def test_large_budget_closes_on_top_eigenvalue(self):
        eigs = np.array([[4.0, 1.0, 0.5]])
        gaps = [4.0 - rvq_best_power(eigs, 3, bits, np.array([0.5]))[0] for bits in (10, 20, 30)]
        assert 0.0 < gaps[2] < gaps[1] < gaps[0] < 0.1


class TestAgainstClosedForms:
    def test_static_channel_matches_pooled_budget_power(self):
        spec = spec_2x2(model=FadingModel(1.0), num_blocks=4, trials=20_000)
        est = simulate_avg_power(spec)
        assert abs(est.mean - finite.rvq_power_2xnr(2, 4.0)) < 3 * est.stderr

    def test_zero_bits_gives_isotropic_power(self):
        spec = spec_2x2(bits_per_block=0.2, num_blocks=1, trials=20_000)  # budget 0
        assert spec.budget_bits == 0
        est = simulate_avg_power(spec)
        assert abs(est.mean - 2.0) < 3 * est.stderr

    def test_interval_average_curve_2x2(self):
        cfg = finite.AfpConfig(SystemShape(2, 2), 1.0, FadingModel(0.8))
        for k in range(1, 11):
            est = simulate_avg_power(spec_2x2(num_blocks=k, trials=10_000, seed=23))
            assert abs(est.mean - finite.avg_power(cfg, k)) < 3 * est.stderr

    def test_jensen_bound(self):
        spec = spec_2x2(trials=10_000)
        rho = 10.0
        rate = simulate_avg_rate(spec, rho)
        power = simulate_avg_power(spec)
        assert rate.mean <= math.log2(1 + rho * power.mean) + 3 * rate.stderr

    def test_low_snr_linearization(self):
        spec = spec_2x2(num_blocks=1, trials=10_000)
        rho = 1e-3
        rate = simulate_avg_rate(spec, rho)
        power = simulate_avg_power(spec)
        assert rate.mean / rho == pytest.approx(power.mean * math.log2(math.e), rel=0.05)

    def test_rate_difference_identity(self):
        spec = spec_2x2(trials=500)
        rho = 10.0
        rate = simulate_avg_rate(spec, rho)
        diff = simulate_rate_difference(spec, rho)
        assert rate.mean - diff.mean == pytest.approx(math.log2(rho * 2), abs=1e-12)
        assert rate.stderr == pytest.approx(diff.stderr, abs=1e-12)


class TestPerfectFeedback:
    def test_known_means(self):
        est = perfect_feedback_power(SystemShape(2, 2), 20_000, 3)
        assert abs(est.mean - 3.5) < 3 * est.stderr
        est = perfect_feedback_power(SystemShape(1, 1), 20_000, 3)
        assert abs(est.mean - 1.0) < 3 * est.stderr
        est = perfect_feedback_power(SystemShape(3, 2), 20_000, 3)
        assert abs(est.mean - 4.875) < 3 * est.stderr

    def test_general_shape_consistent_with_eigensolver(self):
        est = perfect_feedback_power(SystemShape(3, 3), 5000, 4)
        gen = RandomStream(4).generator()
        direct = []
        from afpopt.channel import gram_eigenvalues

        for _ in range(5000):
            direct.append(gram_eigenvalues(sample_channel(SystemShape(3, 3), gen))[0])
        # same distribution; agreement within combined noise
        se = math.hypot(est.stderr, np.std(direct) / math.sqrt(len(direct)))
        assert abs(est.mean - np.mean(direct)) < 4 * se

    def test_normalizer_closed_forms(self):
        assert perfect_feedback_mean(SystemShape(2, 4)) == finite.mean_max_eigenvalue(4)
        assert perfect_feedback_mean(SystemShape(5, 2)) == finite.mean_max_eigenvalue(5)
        assert perfect_feedback_mean(SystemShape(3, 1)) == 3.0
        assert perfect_feedback_mean(SystemShape(3, 3)) == pytest.approx(313 / 48, rel=1e-15)

    def test_stderr_scales_with_trials(self):
        small = perfect_feedback_power(SystemShape(2, 2), 2000, 9)
        large = perfect_feedback_power(SystemShape(2, 2), 8000, 9)
        ratio = small.stderr / large.stderr
        assert 2.0 * 0.8 < ratio < 2.0 * 1.2


class TestSweep:
    def fig1_specs(self, trials=400):
        shapes = [(2, 2), (2, 3), (2, 4), (3, 2), (4, 2), (5, 2)]
        return [
            ExperimentSpec(
                SystemShape(nt, nr), FadingModel(0.8), 1.0, k,
                trials=trials, seed=31, metric="normalized_power",
            )
            for nt, nr in shapes
            for k in range(1, 11)
        ]

    def test_grid_cardinality_and_order(self):
        records = sweep(self.fig1_specs())
        assert len(records) == 60
        assert [(r.nt, r.nr, r.num_blocks) for r in records[:3]] == [(2, 2, 1), (2, 2, 2), (2, 2, 3)]

    def test_deterministic_records(self):
        a = sweep(self.fig1_specs())
        b = sweep(self.fig1_specs())
        assert a == b

    def test_analytic_agreement_rate(self):
        records = sweep(self.fig1_specs(trials=2000))
        checked = [r for r in records if r.analytic is not None]
        assert len(checked) == 60
        hits = sum(abs(r.value - r.analytic) <= 3 * r.stderr for r in checked)
        assert hits / len(checked) >= 0.95

    def test_partial_failure_reported_not_raised(self):
        good = spec_2x2(num_blocks=1, trials=50)
        bad = ExperimentSpec(
            SystemShape(3, 2), FadingModel(0.8), 11.0, 1,
            trials=50, seed=1, codebook_kind="maximin",
        )  # maximin cap is 10 bits -> fails at run time
        records = sweep([good, bad, good])
        assert [r.error is None for r in records] == [True, False, True]
        assert records[1].value is None
        assert "ValueError" in records[1].error

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            sweep([])


class TestArgmaxMatchesAnalytic:
    """Monte Carlo argmax oracle with common random numbers across K.

    Per trial one master codebook and one trajectory serve every K: the
    budget-2^(BK) selection is a prefix argmax, which removes most of the
    between-K noise and makes the argmax stable at moderate trial counts.
    Only the selection needs every entry's power, and only at block 1; the
    stale blocks 2..K are scored for the selected entry alone.
    """

    def crn_argmax(self, shape, alpha, bits, k_max, trials, seed):
        nt, nr = shape.nt, shape.nr
        master_bits = bits * k_max
        n = 1 << master_bits
        sums = np.zeros(k_max)
        chunk = max(1, 1 << 22 >> (master_bits + 3))
        gen = RandomStream(seed).generator()
        decay = math.sqrt(1 - alpha * alpha)
        done = 0
        while done < trials:
            c = min(chunk, trials - done)
            z = gen.standard_normal((c, n, nt, 2))
            entries = z[..., 0] + 1j * z[..., 1]
            entries /= np.linalg.norm(entries, axis=2, keepdims=True)
            z = gen.standard_normal((c, k_max, nr, nt, 2))
            noise = (z[..., 0] + 1j * z[..., 1]) / math.sqrt(2)
            h = noise[:, 0]
            hs = np.empty((c, k_max, nr, nt), dtype=complex)
            for k in range(k_max):
                if k > 0:
                    h = alpha * h + decay * noise[:, k]
                hs[:, k] = h
            m = np.einsum("cij,cnj->cni", hs[:, 0], entries)
            first = (np.abs(m) ** 2).sum(axis=2)  # (c, n)
            rows = np.arange(c)
            for kk in range(1, k_max + 1):
                sel = first[:, : 1 << (bits * kk)].argmax(axis=1)
                m = np.einsum("ckij,cj->cki", hs[:, :kk], entries[rows, sel])
                powers = (np.abs(m) ** 2).sum(axis=2)  # (c, kk)
                for k in range(kk):
                    sums[kk - 1] += powers[:, k].sum() / kk
            done += c
        return int(np.argmax(sums / trials)) + 1

    @pytest.mark.parametrize(
        "nt,nr,expected", [(2, 2, 3), (2, 3, 3), (2, 4, 3), (3, 2, 4)]
    )
    def test_fig1_configurations(self, nt, nr, expected):
        cfg = finite.AfpConfig(SystemShape(nt, nr), 1.0, FadingModel(0.8))
        assert finite.optimal_interval(cfg).k_star == expected
        mc = self.crn_argmax(SystemShape(nt, nr), 0.8, 1, 8, 20_000, 41)
        assert mc == expected


class TestRunSpec:
    def test_maximin_source_label(self):
        spec = ExperimentSpec(
            SystemShape(2, 2), FadingModel(0.9), 1.0, 2,
            trials=200, seed=5, codebook_kind="maximin", metric="normalized_power",
        )
        rec = run_spec(spec)
        assert rec.source == "simulation-maximin"
        assert rec.analytic is None  # closed form covers RVQ ensembles only
        assert 0.0 < rec.value < 1.0

    def test_analytic_attached_at_simulated_budget(self):
        # B * K = 1.5 is quantized with round_half_up(1.5) = 2 bits, so the
        # attached closed form must be the one at 2 bits, not at 1.5
        spec = ExperimentSpec(SystemShape(2, 4), FadingModel(0.8), 0.5, 3, trials=50, seed=3)
        assert spec.budget_bits == 2
        rec = run_spec(spec)
        at_budget = finite.interval_average_power(4.0, finite.rvq_power_2xnr(4, 2), 0.8, 3)
        at_fraction = finite.interval_average_power(4.0, finite.rvq_power_2xnr(4, 1.5), 0.8, 3)
        assert rec.analytic == pytest.approx(at_budget, rel=1e-12)
        assert abs(at_budget - at_fraction) > 1e-2
