import math

import numpy as np
import pytest
from scipy import stats

from afpopt.channel import RandomStream, SystemShape, complex_normal, sample_channel
from afpopt.codebook import (
    Codebook,
    _batch_winner,
    _row_blocks,
    chordal_distance,
    load_codebook,
    maximin_codebook,
    min_pairwise_distance,
    rvq_codebook,
    save_codebook,
    select_beamformer,
    select_beamformer_streaming,
)


class TestRvqCodebook:
    def test_zero_bits_single_unit_vector(self):
        cb = rvq_codebook(3, 0, RandomStream(1))
        assert cb.entries.shape == (1, 3)
        assert abs(np.linalg.norm(cb.entries[0]) - 1.0) < 1e-12

    def test_coordinate_energy_is_isotropic(self):
        cb = rvq_codebook(4, 17, RandomStream(2))  # 131072 entries
        energy = np.abs(cb.entries) ** 2
        assert np.all(np.abs(energy.mean(axis=0) - 0.25) < 0.01)

    def test_deterministic(self):
        a = rvq_codebook(2, 5, RandomStream(7, 1))
        b = rvq_codebook(2, 5, RandomStream(7, 1))
        assert np.array_equal(a.entries, b.entries)

    def test_materialization_cap(self):
        with pytest.raises(ValueError):
            rvq_codebook(2, 25, RandomStream(0))

    def test_entry_count_validated(self):
        with pytest.raises(ValueError):
            Codebook(np.eye(2, dtype=complex), bits=2)

    def test_unit_norm_validated(self):
        entries = np.array([[1.0, 0.0], [0.5, 0.5]], dtype=complex)
        with pytest.raises(ValueError):
            Codebook(entries, bits=1)


class TestSelection:
    def test_codebook_containing_top_singular_vector_wins(self):
        h = sample_channel(SystemShape(3, 2), RandomStream(10))
        _, s, vh = np.linalg.svd(h)
        top = vh[0].conj()
        rest = rvq_codebook(3, 2, RandomStream(11)).entries
        entries = np.vstack([rest[:2], top, rest[2:3]])
        cb = Codebook(entries, bits=2)
        sel = select_beamformer(h, cb)
        assert sel.index == 2
        assert abs(sel.power - s[0] ** 2) < 1e-9

    def test_zero_bits_selects_index_zero(self):
        h = sample_channel(SystemShape(2, 2), RandomStream(12))
        sel = select_beamformer(h, rvq_codebook(2, 0, RandomStream(13)))
        assert sel.index == 0

    def test_power_matches_exhaustive_rescan(self):
        h = sample_channel(SystemShape(2, 3), RandomStream(14))
        cb = rvq_codebook(2, 6, RandomStream(15))
        sel = select_beamformer(h, cb)
        brute = max(float(np.linalg.norm(h @ v) ** 2) for v in cb.entries)
        assert sel.power == pytest.approx(brute, rel=1e-12)
        assert sel.power == pytest.approx(float(np.linalg.norm(h @ sel.vector) ** 2), rel=1e-12)

    def test_dimension_mismatch_rejected(self):
        h = sample_channel(SystemShape(2, 2), RandomStream(16))
        cb = rvq_codebook(3, 1, RandomStream(17))
        with pytest.raises(ValueError):
            select_beamformer(h, cb)

    def test_streaming_equals_materialized(self):
        h = sample_channel(SystemShape(2, 2), RandomStream(20))
        for bits in (0, 4, 17):  # 17 bits spans multiple streaming chunks
            cb = rvq_codebook(2, bits, RandomStream(21, 5))
            direct = select_beamformer(h, cb)
            streamed = select_beamformer_streaming(h, 2, bits, RandomStream(21, 5))
            assert direct.index == streamed.index
            assert direct.power == streamed.power
            assert np.array_equal(direct.vector, streamed.vector)

    def test_streaming_cap(self):
        h = sample_channel(SystemShape(2, 2), RandomStream(22))
        with pytest.raises(ValueError):
            select_beamformer_streaming(h, 2, 31, RandomStream(0))

    def test_nested_prefix_monotonicity(self):
        h = sample_channel(SystemShape(4, 3), RandomStream(23))
        cb = rvq_codebook(4, 8, RandomStream(24))
        prev = -1.0
        for bits in range(9):
            sel = select_beamformer(h, Codebook(cb.entries[: 1 << bits], bits))
            assert sel.power >= prev
            prev = sel.power

    def test_selected_index_uniform_for_iid_channels(self):
        bits, trials = 3, 100_000
        gen = RandomStream(25).generator()
        counts = np.zeros(1 << bits, dtype=int)
        for _ in range(trials):
            h = sample_channel(SystemShape(2, 2), gen)
            counts[select_beamformer_streaming(h, 2, bits, gen).index] += 1
        assert stats.chisquare(counts).pvalue > 0.01

    def test_phase_rotation_leaves_selection_alone(self):
        h = sample_channel(SystemShape(3, 3), RandomStream(26))
        cb = rvq_codebook(3, 3, RandomStream(27))
        sel = select_beamformer(h, cb)
        rotated = cb.entries.copy()
        rotated[sel.index] *= np.exp(1j * 0.7)
        sel2 = select_beamformer(h, Codebook(rotated, 3))
        assert sel2.index == sel.index
        assert sel2.power == pytest.approx(sel.power, abs=1e-12)


class TestChordalDistance:
    def test_identical_vectors(self):
        v = np.array([1.0, 0.0], dtype=complex)
        assert chordal_distance(v, v) == 0.0

    def test_orthogonal_vectors(self):
        v1 = np.array([1.0, 0.0], dtype=complex)
        v2 = np.array([0.0, 1.0], dtype=complex)
        assert chordal_distance(v1, v2) == 1.0

    def test_phase_invariance(self):
        v = complex_normal(RandomStream(30), (4,))
        v /= np.linalg.norm(v)
        assert chordal_distance(v, np.exp(1j * 1.3) * v) < 1e-7


class TestMaximin:
    def test_zero_bits_returns_first_candidate(self):
        cb = maximin_codebook(3, 0, candidates=50, rng=RandomStream(40))
        first = complex_normal(RandomStream(40), (1, 3))
        first /= np.linalg.norm(first, axis=1, keepdims=True)
        assert np.array_equal(cb.entries, first)

    def test_antipodal_pair_nearly_orthogonal(self):
        cb = maximin_codebook(2, 1, candidates=10_000, rng=RandomStream(41))
        assert min_pairwise_distance(cb.entries) >= 0.95

    def test_beats_every_inspected_candidate(self):
        candidates = 200
        cb = maximin_codebook(3, 2, candidates=candidates, rng=RandomStream(42))
        best = min_pairwise_distance(cb.entries)
        gen = RandomStream(42).generator()
        for _ in range(candidates):
            cand = complex_normal(gen, (4, 3))
            cand /= np.linalg.norm(cand, axis=1, keepdims=True)
            assert best >= min_pairwise_distance(cand) - 1e-12

    def test_deterministic(self):
        a = maximin_codebook(2, 2, candidates=300, rng=RandomStream(43))
        b = maximin_codebook(2, 2, candidates=300, rng=RandomStream(43))
        assert np.array_equal(a.entries, b.entries)
        assert a.kind == "maximin"

    def test_bits_cap(self):
        with pytest.raises(ValueError):
            maximin_codebook(2, 11, candidates=10, rng=RandomStream(0))

    def test_negative_bits_rejected(self):
        with pytest.raises(ValueError, match="bits must be nonnegative"):
            maximin_codebook(2, -1, candidates=10, rng=RandomStream(0))

    # candidates per budget; 4 and 5 bits span several draw batches
    # (1 << 18 >> 2 * bits: 1024 and 256 candidates)
    @pytest.mark.parametrize("nt", [2, 3, 4])
    @pytest.mark.parametrize("bits,candidates", [(0, 5), (1, 60), (2, 60), (3, 60), (4, 2100), (5, 600)])
    def test_matches_brute_force_argmax(self, nt, bits, candidates):
        n = 1 << bits
        for seed in (44, 45, 46):
            gen = RandomStream(seed).generator()
            cands = complex_normal(gen, (candidates, n, nt))
            cands /= np.linalg.norm(cands, axis=2, keepdims=True)
            dists = [min_pairwise_distance(cand) for cand in cands]
            expected = cands[int(np.argmax(dists))]  # the first maximum wins
            cb = maximin_codebook(nt, bits, candidates=candidates, rng=RandomStream(seed))
            assert np.array_equal(cb.entries, expected)


class TestBatchWinner:
    def test_row_blocks_cover_each_pair_once(self):
        for n in range(2, 70):
            blocks = _row_blocks(n)
            assert [b[0] for b in blocks[1:]] == [b[1] for b in blocks[:-1]]
            assert blocks[0][0] == 0 and blocks[-1][1] == n - 1
            assert sum(int(mask.sum()) for _, _, mask in blocks) == n * (n - 1) // 2

    def test_earlier_duplicate_wins(self):
        good = rvq_codebook(2, 3, RandomStream(60)).entries
        worse = good.copy()
        worse[5] = worse[2]  # a repeated entry: distance 0
        vs = np.stack([worse, good, good, worse])
        index, dist = _batch_winner(vs, -1.0)
        assert index == 1
        assert dist == min_pairwise_distance(good) > 0.0

    def test_incumbent_keeps_a_tie(self):
        good = rvq_codebook(2, 3, RandomStream(61)).entries
        worse = good.copy()
        worse[0] = worse[7]
        vs = np.stack([worse, good, good])
        _, dist = _batch_winner(vs, -1.0)
        assert _batch_winner(vs, dist) is None
        assert _batch_winner(vs, np.nextafter(dist, 0.0))[0] == 1


class TestSerialization:
    def test_round_trip(self, tmp_path):
        cb = rvq_codebook(3, 4, RandomStream(50))
        path = tmp_path / "cb.json"
        save_codebook(cb, path)
        back = load_codebook(path)
        assert back.bits == cb.bits
        assert back.kind == cb.kind
        assert np.array_equal(back.entries, cb.entries)

    def test_interleaved_layout(self, tmp_path):
        import json

        cb = rvq_codebook(2, 1, RandomStream(51))
        path = tmp_path / "cb.json"
        save_codebook(cb, path)
        doc = json.loads(path.read_text())
        flat = doc["entries"]
        assert len(flat) == 2 * cb.entries.size
        assert flat[0] == cb.entries[0, 0].real
        assert flat[1] == cb.entries[0, 0].imag
