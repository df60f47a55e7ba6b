import dataclasses
import math
import tracemalloc

import literal_engine as literal
import mpmath
import numpy as np
import pytest
from rank2_oracle import rank2_power_cdf, rank2_power_pdf
from scipy import stats

from afpopt import finite, simulate
from afpopt.channel import (
    FadingModel,
    RandomStream,
    SystemShape,
    complex_normal,
    evolve,
    gram_eigenvalues,
    sample_channel,
)
from afpopt import codebook
from afpopt.codebook import WORK_DOUBLES, _embed, _embed_work, rvq_codebook, select_beamformer_streaming
from afpopt.simulate import (
    TRIAL_CHUNK,
    ExperimentSpec,
    block_power_trials,
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


def isotropic_power_tail(x, nodes):
    """P(v^H G v > x) for an isotropic unit v, per row: the tail of simulate._tail_and_density."""
    return simulate._tail_and_density(x, nodes)[0]


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
        assert round_half_up(math.inf) == math.inf
        assert spec_2x2(bits_per_block=0.5, num_blocks=3).budget_bits == 2  # 1.5 -> 2
        assert spec_2x2(bits_per_block=15.25, num_blocks=2).budget_bits == 31
        # floor(x + 0.5) rounds in the sum: these came out 1 and 2^52 + 2
        below_half = math.nextafter(0.5, 0.0)
        assert round_half_up(below_half) == 0
        assert spec_2x2(bits_per_block=below_half, num_blocks=1).budget_bits == 0
        assert round_half_up(2.0**52 + 1) == 2**52 + 1

    def test_budget_cap(self):
        # there is none: the draw costs the same at any budget
        assert spec_2x2(bits_per_block=8.0, num_blocks=4).budget_bits == 32
        assert spec_2x2(bits_per_block=1e308, num_blocks=1).budget_bits == 1e308

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_fields_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            spec_2x2(bits_per_block=bad)
        with pytest.raises(ValueError, match="finite"):
            simulate_avg_rate(spec_2x2(trials=2), bad)
        with pytest.raises(ValueError, match="finite"):
            simulate_rate_difference(spec_2x2(trials=2), bad)

    @pytest.mark.parametrize("bits,blocks", [(1e308, 2), (1e308, 1), (1000.0, 2)])
    def test_overflowing_budget_saturates(self, bits, blocks):
        # at 2000 bits or more a 2x2 draw's deficit, 2^-bits |log u| (l1 - l2),
        # underflows, so every draw is the top eigenvalue, exactly; a B * K
        # that overflows to inf stays inf and saturates the same way
        spec = spec_2x2(bits_per_block=bits, num_blocks=blocks, model=FadingModel(1.0), trials=50)
        assert spec.budget_bits == round_half_up(bits * blocks)
        top = gram_eigenvalues(complex_normal(RandomStream(spec.seed, 0), (50, 2, 2)))[:, 0]
        powers = block_power_trials(spec)
        assert np.array_equal(powers, np.repeat(top[:, None], blocks, axis=1))

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


def _untrimmed_tail_and_density(x, nodes):
    # the oracle of simulate._tail_and_density: the Cox-de Boor recursion
    # over every column, the padded zeros' included
    y = nodes - x[:, None]
    tail = (y > 0).astype(float)
    density = np.zeros(x.size)
    n = nodes.shape[1]
    for width in range(1, n):
        lo, hi = y[:, :-width], y[:, width:]
        straddle = (lo <= 0) & (hi > 0)
        span = np.where(straddle, hi - lo, 1.0)
        if width == n - 1:
            density = (n - 1) * (tail[:, 1] - tail[:, 0]) / span[:, 0]
        mix = (hi * tail[:, 1:] - lo * tail[:, :-1]) / span
        tail = np.where(straddle, mix, lo > 0)
    return tail[:, 0], density


class TestBestPowerDraw:
    @pytest.mark.parametrize("nt,nr", [(2, 2), (2, 4), (4, 4), (3, 3), (6, 3), (4, 1), (1, 3)])
    def test_batched_budgets_equal_one_call_per_budget(self, nt, nr):
        # the budgets' rows are stacked budget-major and every step is
        # elementwise per row, so each budget's draws are bit for bit those
        # of a call with that budget alone
        gen = RandomStream(78, nt * 10 + nr).generator()
        eigs = gram_eigenvalues(complex_normal(gen, (3000, nr, nt)))
        u = 1.0 - gen.random(eigs.shape[0])
        budgets = [0, *range(1, 11), 1100, math.inf]
        batched = rvq_best_power(eigs, nt, budgets, u)
        assert batched.shape == (len(budgets), eigs.shape[0])
        for bits, got in zip(budgets, batched):
            (alone,) = rvq_best_power(eigs, nt, [bits], u)
            assert np.array_equal(got, alone), bits

    @pytest.mark.parametrize("nt,nr", [(5, 2), (16, 4), (64, 8), (160, 2), (3, 3), (6, 3), (4, 1)])
    def test_trimmed_recursion_is_bit_identical(self, nt, nr):
        # the padded zeros' columns are skipped, not rounded away: tail and
        # density match the full recursion bit for bit, at the nodes too
        gen = RandomStream(77, nt * 10 + nr).generator()
        eigs = gram_eigenvalues(complex_normal(gen, (10, nr, nt)))
        zeros = nt - eigs.shape[1]
        nodes = np.zeros((eigs.shape[0], nt))
        nodes[:, zeros:] = eigs[:, ::-1]
        inside = gen.random((eigs.shape[0], 6)) * eigs[:, :1]
        xs = np.hstack([inside, nodes, 1.5 * eigs[:, :1]])
        rows = np.repeat(nodes, xs.shape[1], axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            want = _untrimmed_tail_and_density(xs.ravel(), rows)
            got = simulate._tail_and_density(xs.ravel(), rows, zeros)
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()

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
            ((2.0, 2.0), 3, 1),
            ((2.0, 2.0 - 1e-9), 4, 2),
            ((3.0, 3.0 - 1e-9, 1.0), 4, 1),
            ((2.0, 2.0 - 1e-9, 2.0 - 2e-9), 3, 2),
            ((1.5, 1.5 - 1e-9, 0.5, 0.5 - 1e-9), 5, 0),
        ],
    )
    def test_nearly_coincident_eigenvalues(self, eigs, nt, bits):
        gen = RandomStream(71).generator()
        u = 1.0 - gen.random(20_000)
        (got,) = rvq_best_power(np.tile(eigs, (u.size, 1)), nt, [bits], u)
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
            (got,) = rvq_best_power(eigs, nt, [bits], u)
            assert np.max(np.abs(got - hi) / eigs[:, 0]) < 1e-12, bits

    @pytest.mark.parametrize("nt,nr", [(2, 3), (4, 2), (8, 2)])
    def test_large_budget_shortfall_matches_closed_forms(self, nt, nr, monkeypatch):
        # E[l1 - x] against E[l1] - g from the 2 x nr closed form and the
        # nt x 2 quadrature, on the same draws at every budget; each side is
        # resolved only to the double resolution of l1, so a shortfall below
        # it (2x3 from 64 bits, 4x2 at 200) must read 0 on both
        trials, chunk, z_bound = 200_000, 10_000, 3.0
        budgets = (20, 40, 64, 200)
        shortfalls = {bits: [] for bits in budgets}
        for c in range(trials // chunk):
            gen = RandomStream(5, c).generator()
            eigs = gram_eigenvalues(complex_normal(gen, (chunk, nr, nt)))
            u = 1.0 - gen.random(chunk)
            for bits, x in zip(budgets, rvq_best_power(eigs, nt, budgets, u)):
                shortfalls[bits].append(eigs[:, 0] - x)
        top = finite.mean_largest_eigenvalue(SystemShape(nt, nr))
        # the quadrature at tight tolerances, in a cache of its own
        monkeypatch.setattr(finite, "_ntx2_cache", {})
        monkeypatch.setattr(finite, "_NTX2_TOLERANCE", (1e-16, 1e-10))
        for bits in budgets:
            if nt == 2:
                g = finite.rvq_power_2xnr(nr, bits)
            else:
                g = finite.rvq_power_ntx2(nt, bits)
            sample = np.concatenate(shortfalls[bits])
            se = sample.std(ddof=1) / math.sqrt(trials)
            slack = 2.0 * np.finfo(float).eps * top
            assert abs(sample.mean() - (top - g)) <= z_bound * se + slack, bits

    def test_wide_shape_inversion_takes_few_tail_evaluations(self, monkeypatch):
        # the Newton steps run on the log of the tail, which falls by many
        # orders between 0 and the second node at 160x2; a rank-2 shape
        # evaluates the tail in its closed form
        gen = RandomStream(44).generator()
        eigs = gram_eigenvalues(complex_normal(gen, (TRIAL_CHUNK, 2, 160)))
        u = 1.0 - gen.random(TRIAL_CHUNK)
        calls, tail = [], simulate._rank2_log_tail
        monkeypatch.setattr(simulate, "_rank2_log_tail", lambda *a: calls.append(1) or tail(*a))
        rvq_best_power(eigs, 160, [64], u)
        assert 0 < len(calls) <= 12

    def test_large_budget_closes_on_top_eigenvalue(self):
        eigs = np.array([[4.0, 1.0, 0.5]])
        gaps = 4.0 - rvq_best_power(eigs, 3, (10, 20, 30), np.array([0.5]))[:, 0]
        assert 0.0 < gaps[2] < gaps[1] < gaps[0] < 0.1


def _mp_rank2_log_tail(x, l1, l2, nt):
    # log P(v^H diag(l1, l2, 0, ...) v > x) and the log of its density, from
    # rank2_oracle's piecewise CDF and density for x <= l2, in 50-digit
    # arithmetic on the exact doubles
    with mpmath.workdps(50):
        x, l1, l2 = mpmath.mpf(x), mpmath.mpf(l1), mpmath.mpf(l2)
        gap = l1 - l2
        tail = (l1 * (1 - x / l1) ** (nt - 1) - l2 * (1 - x / l2) ** (nt - 1)) / gap
        density = (nt - 1) * ((1 - x / l1) ** (nt - 2) - (1 - x / l2) ** (nt - 2)) / gap
        return mpmath.log(tail), mpmath.log(density)


def _rank2_nodes(l1, l2, nt):
    # rows of nt - 2 padded zeros, l2 and l1, ascending
    nodes = np.zeros((np.broadcast(l1, l2).size, nt))
    nodes[:, -2], nodes[:, -1] = l2, l1
    return nodes


class TestRank2Tail:
    @pytest.mark.parametrize("nt", [3, 4, 6, 12])
    def test_matches_piecewise_oracle(self, nt):
        gen = RandomStream(45, nt).generator()
        eigs = gram_eigenvalues(complex_normal(gen, (40, 2, nt)))
        x = gen.random(eigs.shape[0]) * eigs[:, 1]
        log_tail, log_density = simulate._rank2_log_tail(x, _rank2_nodes(eigs[:, 0], eigs[:, 1], nt))
        for row, (l1, l2) in enumerate(eigs):
            tail = 1.0 - rank2_power_cdf(x[row], l1, l2, nt)
            assert abs(math.exp(log_tail[row]) - tail) <= 1e-12 + 1e-10 * tail
            density = rank2_power_pdf(x[row], l1, l2, nt)
            assert math.exp(log_density[row]) == pytest.approx(density, rel=1e-10, abs=1e-14)

    @pytest.mark.parametrize("nt", [3, 5, 64, 160, 250])
    def test_close_nodes_against_50_digits(self, nt):
        # relative gaps from 1e-3 down to 1e-15, with x from 0 up to l2:
        # the log1p and expm1 keep the digits the divided difference would lose
        l1, gaps = 2.5, 10.0 ** -np.arange(3, 16)
        l2 = l1 * (1.0 - gaps)
        fractions = np.array([0.0, 0.1, 0.5, 0.9, 0.999, 1.0 - 1e-9, 1.0])
        x = (l2[:, None] * fractions).ravel()
        nodes = _rank2_nodes(l1, np.repeat(l2, fractions.size), nt)
        with np.errstate(divide="ignore"):
            log_tail, log_density = simulate._rank2_log_tail(x, nodes)
        for row in range(x.size):
            # to 1e-13 of each log, or of 1 where the log is smaller
            want_tail, want_density = _mp_rank2_log_tail(x[row], l1, nodes[row, -2], nt)
            assert abs(log_tail[row] - want_tail) <= 1e-13 * max(1, abs(want_tail)), row
            if x[row] > 0.0:  # the density is 0 at x = 0, its log -inf
                assert abs(log_density[row] - want_density) <= 1e-13 * max(1, abs(want_density)), row

    def test_wide_rows_below_the_second_node_solve_their_tail(self, capsys):
        # seed 3's first 250x2 chunk at 1100 and 1500 bits, where t underflows:
        # every draw below l2 solves log tail(x) = log t, each side in 50 digits
        gen = RandomStream(3, 0).generator()
        eigs = gram_eigenvalues(complex_normal(gen, (TRIAL_CHUNK, 2, 250)))
        u = 1.0 - gen.random(TRIAL_CHUNK)
        budgets, below = (1100, 1500), 0
        for bits, x in zip(budgets, rvq_best_power(eigs, 250, budgets, u)):
            for row in np.flatnonzero(x < eigs[:, 1]):
                with mpmath.workdps(50):
                    log_t = mpmath.log(-mpmath.expm1(mpmath.log(u[row]) * mpmath.mpf(2) ** -bits))
                log_tail, _ = _mp_rank2_log_tail(x[row], *eigs[row], 250)
                assert abs(log_tail - log_t) <= 1e-9, (bits, row)
                below += 1
        with capsys.disabled():
            print(f"\n250x2 at 1100 and 1500 bits: {below} of {2 * TRIAL_CHUNK} draws below l2")
        assert below > 0

    def test_step_cap_keeps_draws_in_range(self, monkeypatch):
        # one Newton step leaves the rows below l2 short of their roots, but
        # inside [0, l1]; the closed-form rows above l2 do not move
        gen = RandomStream(3, 0).generator()
        eigs = gram_eigenvalues(complex_normal(gen, (TRIAL_CHUNK, 4, 4)))
        u = 1.0 - gen.random(TRIAL_CHUNK)
        (solved,) = rvq_best_power(eigs, 4, [1.0], u)
        monkeypatch.setattr(simulate, "_ROOT_MAX_STEPS", 1)
        (capped,) = rvq_best_power(eigs, 4, [1.0], u)
        low = ~(solved > eigs[:, 1])
        assert low.sum() == 858
        assert np.all(np.isfinite(capped)) and np.all((0.0 <= capped) & (capped <= eigs[:, 0]))
        assert np.array_equal(capped[~low], solved[~low])
        assert not np.array_equal(capped[low], solved[low])


def _complex_best_power(h, entries):
    # the oracle of codebook.best_powers: max_i ||H c_i||^2 from the complex
    # products H c_i
    hc = h @ entries.T
    return (hc.real**2 + hc.imag**2).sum(axis=1).max(axis=1)


def _one_codebook_best_power(h, entries):
    # codebook.best_powers of one codebook alone, with blocks of channels
    # sized by that codebook; the Monte Carlo pins were made with it
    m, nr, nt = h.shape
    phi = _embed(entries.conj())
    step = max(1, WORK_DOUBLES // max(phi.shape[1], _embed_work(nt, nr).size))
    work, best = _embed_work(nt, min(step, m) * nr), np.empty(m)
    for start in range(0, m, step):
        rows = h[start : start + step].reshape(-1, nt)
        psi = _embed(rows, work, unit=False).reshape(nt * nt, -1, nr).sum(axis=2)
        np.max(psi.T @ phi, axis=1, out=best[start : start + step])
    return best


class TestCodebookBestPower:
    @pytest.mark.parametrize("nt", [1, 2, 3, 4])
    @pytest.mark.parametrize("nr", [1, 2, 3, 4])
    def test_matches_complex_products(self, nt, nr):
        # one call scores every budget 0 .. 8 together
        gen = RandomStream(91, 10 * nt + nr).generator()
        h = complex_normal(gen, (300, nr, nt))
        books = [rvq_codebook(nt, bits, gen) for bits in range(9)]
        for bits, (book, got) in enumerate(zip(books, codebook.best_powers(h, books))):
            want = _complex_best_power(h, book.entries)
            # one entry can nearly miss a one-row channel; the real products
            # then cancel, with an error relative to ||H||_F^2, not to the power
            scale = (h.real**2 + h.imag**2).sum(axis=(1, 2)) if bits == 0 and nr == 1 else want
            assert np.all(np.abs(got - want) <= 1e-13 * scale), bits

    @pytest.mark.parametrize("nt,nr,rows", [(3, 2, TRIAL_CHUNK), (2, 3, 1000), (4, 4, 777)])
    def test_bit_identical_to_one_codebook_at_a_time(self, nt, nr, rows):
        gen = RandomStream(94, nt).generator()
        h = complex_normal(gen, (rows, nr, nt))
        books = [rvq_codebook(nt, bits, gen) for bits in range(1, 9)]
        for book, got in zip(books, codebook.best_powers(h, books)):
            assert np.array_equal(got, _one_codebook_best_power(h, book.entries)), book.bits

    def test_one_channel_embedding_per_block(self, monkeypatch):
        # psi is formed once per block of channels, whatever the number of
        # codebooks; only the codebooks' own embeddings are unit ones
        calls = []

        def counted(x, work=None, unit=True):
            calls.append(unit)
            return _embed(x, work, unit)

        monkeypatch.setattr(codebook, "_embed", counted)
        gen = RandomStream(95).generator()
        h = complex_normal(gen, (TRIAL_CHUNK, 2, 3))
        blocks = -(-TRIAL_CHUNK // (WORK_DOUBLES // (1 << 8)))  # 256 columns, the widest
        for budgets in ([8], [1, 8], range(9)):
            calls.clear()
            codebook.best_powers(h, [rvq_codebook(3, bits, gen) for bits in budgets])
            assert calls.count(False) == blocks
            assert calls.count(True) == len(budgets)

    @pytest.mark.parametrize("nr", [1, 2, 3, 4])
    def test_one_antenna_gives_the_channel_norm(self, nr):
        gen = RandomStream(92, nr).generator()
        h = complex_normal(gen, (500, nr, 1))
        for got in codebook.best_powers(h, [rvq_codebook(1, bits, gen) for bits in range(5)]):
            assert np.array_equal(got, (h.real**2 + h.imag**2).sum(axis=(1, 2)))

    @pytest.mark.parametrize("nt,nr", [(3, 2), (4, 4)])
    def test_peak_memory_at_a_full_trial_chunk(self, nt, nr):
        gen = RandomStream(93).generator()
        h = complex_normal(gen, (TRIAL_CHUNK, nr, nt))
        book = rvq_codebook(nt, 10, gen)
        tracemalloc.start()
        try:
            codebook.best_powers(h, [book])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1 << 20


class TestAgainstClosedForms:
    def test_static_channel_matches_pooled_budget_power(self):
        spec = spec_2x2(model=FadingModel(1.0), num_blocks=4, trials=20_000)
        est = simulate_avg_power(spec)
        assert abs(est.mean - finite.rvq_power_2xnr(2, 4.0)) < 3 * est.stderr

    @pytest.mark.parametrize(
        "nt, bits", [(160, 600.0), (250, 1000.0), (250, 1100.0), (250, 1500.0), (160, 1100.0)]
    )
    def test_wide_shape_at_large_budget_matches_exact_power(self, nt, bits):
        # the closed-form draw from logs: no product of nt - 1 gaps to
        # overflow, and no row sent to an inversion below the second node;
        # past about 1022 bits log t is formed without t, which underflows
        spec = ExperimentSpec(SystemShape(nt, 2), FadingModel(1.0), bits, 1, trials=4000, seed=3)
        est = simulate_avg_power(spec)
        (exact,) = finite.quantized_powers(SystemShape(nt, 2), [bits])
        assert abs(est.mean - exact) < 4 * est.stderr

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
        rate = simulate_avg_rate(spec, 10.0)  # rho = 10
        power = simulate_avg_power(spec)
        assert rate.mean <= math.log2(1 + 10.0 * power.mean) + 3 * rate.stderr

    def test_low_snr_linearization(self):
        spec = spec_2x2(num_blocks=1, trials=10_000)
        rate = simulate_avg_rate(spec, -30.0)  # rho = 1e-3
        power = simulate_avg_power(spec)
        assert rate.mean / 1e-3 == pytest.approx(power.mean * math.log2(math.e), rel=0.05)

    @pytest.mark.parametrize("db", [-60.0, -400.0])
    def test_low_snr_rate_keeps_its_digits(self, db):
        # log2(1 + x) rounds 1 + x; log1p does not (at -400 dB: 0 vs ~1e-40)
        spec = spec_2x2(trials=50)
        rho = 10.0 ** (db / 10.0)
        powers = block_power_trials(spec)
        per_trial = [
            sum(math.log1p(rho * p) for p in row) / (len(row) * math.log(2.0)) for row in powers
        ]
        rate = simulate_avg_rate(spec, db)
        assert rate.mean == pytest.approx(sum(per_trial) / len(per_trial), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("db", [-3100.0, 3100.0])
    def test_extreme_snr_rates_are_finite(self, db):
        # rho = 10^(db/10) is outside the double range; the log domain is not
        spec = spec_2x2(trials=50)
        rate = simulate_avg_rate(spec, db)
        diff = simulate_rate_difference(spec, db)
        assert math.isfinite(rate.mean) and math.isfinite(diff.mean)
        log2_rho_nt = db / 10.0 * math.log2(10.0) + 1.0
        assert rate.mean - diff.mean == pytest.approx(log2_rho_nt, rel=1e-12)
        if db < 0:
            assert 0.0 <= rate.mean < 1e-300
            assert diff.mean == pytest.approx(1028.8, abs=0.01)

    def test_one_trial_has_no_stderr(self):
        assert math.isnan(simulate_avg_power(spec_2x2(trials=1)).stderr)
        assert math.isnan(run_spec(spec_2x2(trials=1, metric="normalized_power")).stderr)
        assert math.isfinite(simulate_avg_power(spec_2x2(trials=2)).stderr)

    def test_rate_difference_identity(self):
        spec = spec_2x2(trials=500)
        rate = simulate_avg_rate(spec, 10.0)  # rho = 10
        diff = simulate_rate_difference(spec, 10.0)
        assert rate.mean - diff.mean == pytest.approx(math.log2(10.0 * 2), abs=1e-12)
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

    def test_analytic_column_takes_one_quadrature_pass_per_nt(self, ntx2_passes):
        records = sweep(self.fig1_specs(trials=20))
        # the 3x2, 4x2 and 5x2 cells, K = 1..10 bits each
        assert ntx2_passes == [(nt, [2.0**k for k in range(1, 11)]) for nt in (3, 4, 5)]
        for spec, record in zip(self.fig1_specs(trials=20), records):
            finite._ntx2_cache.clear()
            assert record.analytic == simulate._analytic_value(spec)

    def test_failing_analytic_budget_fails_only_its_cells(self, monkeypatch):
        # the nt x 2 quadrature raises at 2 bits, so the analytic column's
        # batch fails; redone one budget at a time, only the 2-bit cells
        # (K = 3, 4 at B = 0.5) fail, and the others keep their rows alone
        grid = [ExperimentSpec(SystemShape(3, 2), FadingModel(0.8), 0.5, k, trials=50, seed=73) for k in range(1, 8)]
        monkeypatch.setattr(finite, "_ntx2_cache", {})
        alone = [run_spec(spec) for spec in grid]
        finite._ntx2_cache.clear()
        real = finite._ntx2_shortfall

        def failing_at_two_bits(nt, sizes):
            if 4.0 in sizes:
                raise FloatingPointError("no 2-bit power")
            return real(nt, sizes)

        monkeypatch.setattr(finite, "_ntx2_shortfall", failing_at_two_bits)
        records = sweep(grid)
        assert [r.num_blocks for r in records if r.error] == [3, 4]
        assert {r.error for r in records if r.error} == {"FloatingPointError: no 2-bit power"}
        assert [r for r in records if not r.error] == [a for a in alone if a.num_blocks not in (3, 4)]

    def test_partial_failure_reported_not_raised(self):
        good = spec_2x2(num_blocks=1, trials=50)

        def maximin(bits, k):
            return ExperimentSpec(
                SystemShape(3, 2), FadingModel(0.8), bits, k,
                trials=50, seed=1, codebook_kind="maximin", candidates=30,
            )

        bad = maximin(11.0, 1)  # maximin cap is 10 bits -> fails at run time
        # the good maximin cells share the bad cell's group and keep their values
        grid = [good, maximin(1.0, 1), bad, good, maximin(1.0, 2)]
        records = sweep(grid)
        assert [r.error is None for r in records] == [True, True, False, True, True]
        assert records[2].value is None
        assert "ValueError" in records[2].error and "maximin cap" in records[2].error
        for i in (1, 4):
            alone = run_spec(grid[i])
            assert (records[i].value, records[i].stderr) == (alone.value, alone.stderr)

    def test_maximin_records_keep_the_codebooks_they_simulated(self, maximin_builds):
        # one build serves the group; 1 x 1 and 0.5 x 2 share the 1-bit
        # codebook, and RVQ and over-cap cells keep none
        def maximin(bits, k):
            return ExperimentSpec(
                SystemShape(3, 2), FadingModel(0.8), bits, k,
                trials=50, seed=1, codebook_kind="maximin", candidates=30,
            )

        grid = [spec_2x2(num_blocks=1, trials=50), maximin(1.0, 1), maximin(1.0, 2), maximin(11.0, 1),
                maximin(0.5, 2)]
        records = sweep(grid)
        assert maximin_builds == [[1, 2]]
        assert records[0].codebook is None and records[3].codebook is None
        assert records[1].codebook is records[4].codebook
        for i in (1, 2):
            built = codebook.maximin_codebook(3, i, 30, RandomStream(1, simulate.CODEBOOK_STREAM))
            assert records[i].codebook.bits == i
            assert np.array_equal(records[i].codebook.entries, built.entries)
        # records compare and print without their codebooks
        bare = dataclasses.replace(records[1], codebook=None)
        assert bare == records[1] and repr(bare) == repr(records[1])

    def test_grouped_cells_equal_their_runs_alone(self):
        # cells of one sweep share draws but keep the bits they get alone:
        # RVQ and maximin, every metric, alpha 0 / 0.8 / 1, zero and saturated
        # budgets, shared budgets (1 x 3 and 0.5 x 6 are both 3 bits), an
        # over-cap maximin cell, and 2049 trials (one full chunk, one of 1 row)
        def cell(kind, alpha, bits, k, metric, seed=71):
            return ExperimentSpec(
                SystemShape(3, 2), FadingModel(alpha), bits, k, trials=2049, seed=seed,
                codebook_kind=kind, metric=metric, candidates=20,
            )

        grid = [
            cell("rvq", 0.8, 1.0, 3, "avg_power"),
            cell("maximin", 0.8, 1.0, 2, "normalized_power"),
            cell("rvq", 0.8, 1.0, 3, "rate_difference"),
            cell("rvq", 0.0, 0.5, 6, "avg_rate"),
            cell("rvq", 1.0, 1.0, 2, "normalized_power"),
            cell("rvq", 0.8, 0.25, 1, "avg_power"),
            cell("maximin", 1.0, 1.0, 2, "avg_power"),
            cell("rvq", 0.8, 1e308, 2, "normalized_power"),
            cell("maximin", 0.0, 1.0, 3, "rate_difference"),
            cell("rvq", 0.0, 1e308, 4, "avg_rate"),
            cell("maximin", 0.8, 0.25, 1, "avg_rate"),
            cell("maximin", 0.8, 1e308, 2, "avg_power"),
            cell("rvq", 0.8, 1.0, 3, "avg_power", seed=72),
        ]
        rho_db = -3.0
        grouped = sweep(grid, rho_db)
        alone = [run_spec(spec, rho_db) for spec in grid]
        assert grouped == alone
        for g, a in zip(grouped, alone):
            if a.error is None:
                assert g.value.hex() == a.value.hex() and g.stderr.hex() == a.stderr.hex()
        assert [r.error is None for r in grouped] == [True] * 11 + [False, True]

    @staticmethod
    def shared_budget_group(metric):
        # B = 0.5 pools 1, 1, 2, 2, 3, 3, 4 bits over K = 1 .. 7, so budgets
        # repeat within an alpha, and each (budget, alpha) has cells of
        # several K; 2049 trials are one full chunk and one of 1 row
        return [
            ExperimentSpec(SystemShape(3, 2), FadingModel(alpha), 0.5, k, trials=2049, seed=73, metric=metric)
            for alpha in (0.0, 0.8, 1.0)
            for k in range(1, 8)
        ]

    @pytest.mark.parametrize("metric", ["avg_power", "avg_rate", "rate_difference", None])
    def test_shared_budget_cells_equal_each_cell_alone(self, metric):
        # metric None is raw mode: each cell's (trials, K) block powers
        raw = metric is None
        group = self.shared_budget_group(metric or "avg_power")
        for spec, got in zip(group, simulate._group_trials(group, -3.0, raw)[0]):
            (alone,), _ = simulate._group_trials([spec], -3.0, raw)
            assert np.array_equal(got, alone)

    def test_one_batched_draw_per_trial_chunk(self, monkeypatch):
        calls = []

        def counted(eigs, nt, budgets, u):
            calls.append(sorted(budgets))
            return rvq_best_power(eigs, nt, budgets, u)

        monkeypatch.setattr(simulate, "rvq_best_power", counted)
        simulate._group_trials(self.shared_budget_group("avg_power"), -3.0)
        assert calls == [[1, 2, 3, 4]] * 2  # 2049 trials are two chunks

    def test_group_stops_drawing_once_no_cell_is_live(self, monkeypatch):
        # rho_db = nan fails an avg_rate cell in chunk 0 of its 6144 trials,
        # so the group draws no more chunks; a surviving cell keeps all three
        draws = []
        monkeypatch.setattr(
            simulate, "complex_normal", lambda gen, shape: draws.append(shape) or complex_normal(gen, shape)
        )

        def cell(metric):
            return ExperimentSpec(SystemShape(2, 2), FadingModel(0.8), 1.0, 3, trials=6144, metric=metric)

        (record,) = sweep([cell("avg_rate")], math.nan)
        assert "rho_db must be finite" in record.error
        assert len(draws) == 1
        draws.clear()
        records = sweep([cell("avg_rate"), cell("avg_power")], math.nan)
        assert [r.error is None for r in records] == [False, True]
        assert len(draws) == 3
        draws.clear()
        over_cap = ExperimentSpec(
            SystemShape(2, 2), FadingModel(0.8), 11.0, 1, trials=50, codebook_kind="maximin", candidates=30
        )
        (record,) = sweep([over_cap])
        assert "maximin cap" in record.error and draws == []

    def test_failing_budget_fails_only_its_cells(self, monkeypatch):
        # the Newton inversion raises on the rows of the 2-bit draw, so the
        # batched draw fails; redone one budget at a time, only the 2-bit
        # cells carry the error and the others keep the values they get alone
        group = self.shared_budget_group("avg_power")
        alone = [simulate._group_trials([spec], -3.0)[0][0] for spec in group]
        draw, invert, two_bit_tails = simulate.rvq_best_power, simulate._invert_tail, []

        def noting_two_bit_tails(eigs, nt, budgets, u):
            two_bit_tails.append(np.log(-np.expm1(np.log(u) * 0.25)))
            return draw(eigs, nt, budgets, u)

        def failing_at_two_bits(nodes, log_t, hi, zeros):
            if np.isin(log_t, two_bit_tails[-1]).any():
                raise FloatingPointError("no 2-bit draw")
            return invert(nodes, log_t, hi, zeros)

        monkeypatch.setattr(simulate, "rvq_best_power", noting_two_bit_tails)
        monkeypatch.setattr(simulate, "_invert_tail", failing_at_two_bits)
        outcomes, _ = simulate._group_trials(group, -3.0)
        assert [spec.budget_bits for spec, o in zip(group, outcomes) if isinstance(o, Exception)] == [2, 2] * 3
        for outcome, want in zip(outcomes, alone):
            if not isinstance(outcome, Exception):
                assert np.array_equal(outcome, want)
        assert all(isinstance(o, FloatingPointError) for o in outcomes if isinstance(o, Exception))

    def test_failed_shared_draw_fails_only_its_group(self, monkeypatch):
        # the 3x2 group's channel draw raises: its cells keep their rows with
        # the error, and the 2x2 group is the clean sweep's
        grid = [
            ExperimentSpec(SystemShape(nt, 2), FadingModel(0.9), 1.0, k, trials=300, seed=5)
            for nt in (2, 3) for k in (1, 2)
        ]
        clean = sweep(grid)

        def failing_for_nt_3(gen, shape):
            if shape[2] == 3:
                raise FloatingPointError("no 3x2 draw")
            return complex_normal(gen, shape)

        monkeypatch.setattr(simulate, "complex_normal", failing_for_nt_3)
        records = sweep(grid)
        assert records[:2] == clean[:2]
        assert [(r.nt, r.num_blocks) for r in records[2:]] == [(3, 1), (3, 2)]
        for r in records[2:]:
            assert (r.value, r.stderr, r.analytic, r.error) == (None, None, None, "FloatingPointError: no 3x2 draw")

    def test_zero_bit_cell_gets_the_isotropic_power(self):
        # a budget of 0 bits is one random entry: the analytic column is nr
        (record,) = sweep([spec_2x2(bits_per_block=0.0, num_blocks=1, trials=50)])
        assert record.error is None and record.analytic == pytest.approx(2.0, abs=1e-12)
        fractional = spec_2x2(bits_per_block=0.2, num_blocks=2, trials=50)  # 0.4 rounds to 0 bits too
        assert fractional.budget_bits == 0 and sweep([fractional])[0].analytic == record.analytic

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
