import json
import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from afpopt import simulate
from afpopt.channel import RandomStream, SystemShape, complex_normal, sample_channel
from afpopt.codebook import (
    Codebook,
    _batch_winner,
    _embed,
    _row_blocks,
    _stream_entries,
    load_codebook,
    maximin_codebook,
    maximin_codebooks,
    rvq_codebook,
    save_codebook,
    select_beamformer,
    select_beamformer_streaming,
)


def chordal_distance(v1, v2):
    """sqrt(1 - |v1^H v2|^2); invariant to per-vector phase rotation."""
    overlap = abs(np.vdot(v1, v2)) ** 2
    return float(np.sqrt(max(0.0, 1.0 - overlap)))


def min_pairwise_distance(entries):
    """Smallest chordal distance among all entry pairs (+inf for one entry), by a full scan."""
    n = entries.shape[0]
    if n < 2:
        return float("inf")
    gram = np.abs(entries @ entries.conj().T) ** 2
    iu = np.triu_indices(n, 1)
    return float(np.sqrt(max(0.0, 1.0 - gram[iu].max())))


def embedded(vs):
    """A (c, n, nt) stack of codebooks as the (c, nt^2, n) input of _batch_winner."""
    c, n, nt = vs.shape
    return _embed(vs.reshape(c * n, nt)).reshape(-1, c, n).transpose(1, 0, 2)


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

    @pytest.mark.parametrize("nt,bits,name", [(2, 2.5, "bits"), (0, 2, "nt"), (2.0, 2, "nt")])
    def test_arguments_validated(self, nt, bits, name):
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            rvq_codebook(nt, bits, RandomStream(0))

    def test_unit_norm_validated(self):
        entries = np.array([[1.0, 0.0], [0.5, 0.5]], dtype=complex)
        with pytest.raises(ValueError):
            Codebook(entries, bits=1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entries_rejected(self, bad):
        # a NaN norm is not > 1e-9 away from 1, so the unit-norm check alone passes it
        with pytest.raises(ValueError, match="must be finite"):
            Codebook(np.array([[bad, 0.0]], dtype=complex), bits=0)

    def test_kind_validated(self):
        with pytest.raises(ValueError, match="^kind must be 'rvq' or 'maximin'"):
            Codebook(np.array([[1.0, 0.0]], dtype=complex), bits=0, kind="grassmannian")


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

    def test_bool_bits_rejected_before_any_draw(self):
        h = sample_channel(SystemShape(2, 2), RandomStream(22))
        gen = RandomStream(0).generator()
        with pytest.raises(ValueError, match="^bits must be an integer >= 0, got True$"):
            select_beamformer_streaming(h, 2, True, gen)
        assert gen.random() == RandomStream(0).generator().random()  # nothing drawn

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
        with pytest.raises(ValueError, match="^bits must be an integer >= 0, got -1$"):
            maximin_codebook(2, -1, candidates=10, rng=RandomStream(0))

    def test_bool_bits_rejected_before_any_draw(self):
        gen = RandomStream(0).generator()
        with pytest.raises(ValueError, match="^bits must be an integer >= 0, got True$"):
            maximin_codebooks(2, [True], 50, gen)
        assert gen.random() == RandomStream(0).generator().random()  # nothing drawn

    # a non-number is rejected as no count, not compared with the cap; an
    # infinite budget keeps its over-cap message
    @pytest.mark.parametrize("bits,message", [
        ("1", "bits must be an integer >= 0, got '1'"),
        (None, "bits must be an integer >= 0, got None"),
        (math.inf, "bits=inf exceeds the maximin cap (10)"),
    ])
    def test_bad_bits_rejected_before_any_draw(self, bits, message):
        gen = RandomStream(0).generator()
        with pytest.raises(ValueError) as e:
            maximin_codebook(2, bits, candidates=5, rng=gen)
        assert str(e.value) == message
        with pytest.raises(ValueError) as e:
            maximin_codebooks(2, [1, bits], 5, gen)
        assert str(e.value) == message
        assert gen.random() == RandomStream(0).generator().random()  # nothing drawn

    @pytest.mark.parametrize(
        "nt,bits,candidates,name",
        [(2, 2.5, 10, "bits"), (2, 2, 2.5, "candidates"), (2, 2, 0, "candidates"), (0, 2, 10, "nt")],
    )
    def test_arguments_validated(self, nt, bits, candidates, name):
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            maximin_codebook(nt, bits, candidates=candidates, rng=RandomStream(0))

    @pytest.mark.parametrize("bits", [1, 4])
    def test_one_antenna_ties_go_to_the_first_candidate(self, bits):
        # every overlap of a 1-dimensional codebook is exactly 1: all distances tie at 0
        cb = maximin_codebook(1, bits, candidates=50, rng=RandomStream(48))
        first = complex_normal(RandomStream(48), (1 << bits, 1))
        assert np.array_equal(cb.entries, first / np.linalg.norm(first, axis=1, keepdims=True))

    # candidates per budget; 4 and 5 bits span several stream chunks, and
    # so several batches
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


    @pytest.mark.parametrize("nt", [1, 2, 3])
    @pytest.mark.parametrize("candidates", [1, 7, 1000])
    def test_one_stream_pass_equals_each_budget_alone(self, nt, candidates):
        budgets = range(7)
        books = maximin_codebooks(nt, budgets, candidates, RandomStream(47))
        assert sorted(books) == list(budgets)
        for bits in budgets:
            alone = maximin_codebook(nt, bits, candidates, RandomStream(47))
            assert books[bits].bits == bits and books[bits].kind == "maximin"
            assert np.array_equal(books[bits].entries, alone.entries)

    @pytest.mark.parametrize("nt", [2, 3, 8])
    def test_every_budget_matches_brute_force_across_chunks(self, nt):
        candidates, budgets = 600, range(7)
        assert candidates << budgets[-1] > _stream_entries(nt)
        books = maximin_codebooks(nt, budgets, candidates, RandomStream(49))
        for bits in budgets:
            cands = complex_normal(RandomStream(49), (candidates, 1 << bits, nt))
            cands /= np.linalg.norm(cands, axis=2, keepdims=True)
            dists = [min_pairwise_distance(cand) for cand in cands]
            assert np.array_equal(books[bits].entries, cands[int(np.argmax(dists))])

    # the candidate each budget's search picks from fig2's codebook stream,
    # found again in the stream by its entries: a pin that a change of draws
    # or of the search moves, and a BLAS build's rounding does not
    @pytest.mark.parametrize("nt,picks", [
        (2, [0, 8837, 7540, 8664, 3715, 6810, 8259, 3186, 1957]),
        (3, [0, 4048, 5918, 1145, 5792, 9407, 6496, 6837, 1514]),
    ])
    def test_picked_candidates_are_pinned(self, nt, picks):
        candidates, rng = 10_000, RandomStream(7, simulate.CODEBOOK_STREAM)
        books = maximin_codebooks(nt, range(9), candidates, rng)
        found = {bits: [] for bits in books}
        # the draws do not depend on the chunk size; this walk's chunks are
        # whole candidates of every budget
        gen, total, step = rng.generator(), candidates << 8, 1 << 15
        for start in range(0, total, step):
            chunk = complex_normal(gen, (min(step, total - start), nt))
            unit = chunk / np.linalg.norm(chunk, axis=1, keepdims=True)
            for bits, book in books.items():
                n = 1 << bits
                first = np.abs(unit[::n] - book.entries[0]).max(axis=1) < 1e-12
                for j in np.flatnonzero(first):
                    same = np.abs(unit[j * n : (j + 1) * n] - book.entries).max() < 1e-12
                    if same and (start >> bits) + j < candidates:
                        found[bits].append(int((start >> bits) + j))
        assert [found[bits] for bits in range(9)] == [[pick] for pick in picks]

    @staticmethod
    def _peak_bytes(nt, budgets, candidates):
        tracemalloc.start()
        try:
            maximin_codebooks(nt, budgets, candidates, RandomStream(1, simulate.CODEBOOK_STREAM))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # one chunk of draws, its embedding and the scoring blocks, all sized by
    # codebook.WORK_DOUBLES: 1.2 MiB for nt = 2 and 1.7 MiB for nt = 8
    def test_peak_memory_stays_per_chunk(self):
        assert self._peak_bytes(2, range(7), 10_000) <= 3 << 19

    def test_peak_memory_stays_per_chunk_for_wide_vectors(self):
        assert self._peak_bytes(8, range(1, 6), 3000) <= 2 << 20


class TestBatchWinner:
    def test_row_blocks_cover_each_pair_once(self):
        for n in range(2, 70):
            blocks = _row_blocks(n, 4)
            assert [b[0] for b in blocks[1:]] == [b[1] for b in blocks[:-1]]
            assert blocks[0][0] == 0 and blocks[-1][1] == n - 1
            assert sum(int(mask.sum()) for _, _, mask, _ in blocks) == n * (n - 1) // 2

    def test_earlier_duplicate_wins(self):
        good = rvq_codebook(2, 3, RandomStream(60)).entries
        worse = good.copy()
        worse[5] = worse[2]  # a repeated entry: distance 0
        vs = np.stack([worse, good, good, worse])
        index, dist = _batch_winner(embedded(vs), -1.0)
        assert index == 1
        assert dist == pytest.approx(min_pairwise_distance(good), abs=1e-13)
        assert dist > 0.0

    def test_incumbent_keeps_a_tie(self):
        good = rvq_codebook(2, 3, RandomStream(61)).entries
        worse = good.copy()
        worse[0] = worse[7]
        vs = embedded(np.stack([worse, good, good]))
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
        cb = rvq_codebook(2, 1, RandomStream(51))
        path = tmp_path / "cb.json"
        save_codebook(cb, path)
        doc = json.loads(path.read_text())
        flat = doc["entries"]
        assert len(flat) == 2 * cb.entries.size
        assert flat[0] == cb.entries[0, 0].real
        assert flat[1] == cb.entries[0, 0].imag

    # a valid saved 1-bit codebook of nt = 1, then each field broken in turn
    GOOD = {"nt": 1, "bits": 1, "kind": "rvq", "entries": [1.0, 0.0, 0.0, 1.0]}

    def test_saved_layout_loads(self, tmp_path):
        path = tmp_path / "cb.json"
        path.write_text(json.dumps(self.GOOD))
        assert np.array_equal(load_codebook(path).entries, [[1.0], [1j]])

    @pytest.mark.parametrize("doc,message", [
        ([GOOD], "JSON object, not a list"),
        ({k: v for k, v in GOOD.items() if k != "entries"}, "lacks entries"),
        ({**GOOD, "bits": "1"}, "^bits must be an integer"),
        ({**GOOD, "bits": 10**12}, r"^expected 2\^1000000000000 entries, got 2"),
        ({**GOOD, "kind": "grassmannian"}, "^kind must be 'rvq' or 'maximin'"),
        ({**GOOD, "nt": "1"}, "^nt must be an integer"),
        ({**GOOD, "nt": True}, "^nt must be an integer"),
        ({**GOOD, "bits": True}, "^bits must be an integer"),
        ({**GOOD, "entries": [[1.0, 0.0], [0.0, 1.0]]}, "^entries must be a flat"),
        ({**GOOD, "entries": [1.0, 0.0, "x", 1.0]}, "^entries must be a flat"),
        ({**GOOD, "entries": [float("nan"), 0.0, 0.0, 1.0]}, "must be finite"),
    ])
    def test_malformed_file_raises_value_error_naming_the_field(self, tmp_path, doc, message):
        path = tmp_path / "cb.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=message):
            load_codebook(path)
