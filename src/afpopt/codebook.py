"""Beamforming codebooks: random vector quantization and maximin selection.

An RVQ codebook holds 2**bits i.i.d. isotropic unit vectors; the receiver
picks the entry maximizing the received power v^H H^H H v.  The maximin
variant keeps, out of many candidate RVQ codebooks, the one whose minimum
pairwise chordal distance is largest -- a cheap stand-in for an optimal
line packing.  Its search scores each candidate's pairwise overlaps, real
inner products in R^(nt^2) (:func:`_embed`), a block of Gram rows at a time
and stops as soon as the candidate can no longer beat the best one so far;
the pick is exactly that of a full scan.  The searches of several budgets
share one pass over the candidate stream.  One work budget, ``WORK_DOUBLES``
doubles, sizes the maximin path: a stream chunk's draws, its first Gram
block, each later block's sub-batch of survivors with the embedded columns
it reads, and the blocks of channels in which :func:`best_powers` scores
fixed codebooks.  Only a one-candidate sub-batch (about 8 budgets at 10
bits) and a chunk's embedding (about nt/2 budgets) exceed it.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from afpopt.channel import RandomStream, as_generator, check_count, complex_normal

#: materialized codebooks are capped here; larger budgets must stream
MATERIALIZE_CAP_BITS = 24
STREAM_CAP_BITS = 30
MAXIMIN_CAP_BITS = 10

#: the codebook kinds: fresh RVQ draws, or one fixed maximin codebook
KINDS = ("rvq", "maximin")

# chunk used by every selection path; shared so streaming and materialized
# selection perform bit-identical arithmetic
_CHUNK = 1 << 16

#: the work budget of the maximin path, in doubles (see the module docstring)
WORK_DOUBLES = 1 << 15

# Gram rows in the maximin search's first scoring block; each later block
# doubles, so a full scan of 2**bits rows takes about bits - 1 blocks
_FIRST_ROWS = 4


@dataclass(frozen=True)
class Codebook:
    """Ordered set of 2**bits unit-norm beamforming vectors."""

    entries: np.ndarray  # (2**bits, nt) complex
    bits: int
    kind: str = "rvq"

    def __post_init__(self) -> None:
        check_count("bits", self.bits, least=0)
        if self.kind not in KINDS:
            raise ValueError(f"kind must be {' or '.join(map(repr, KINDS))}, got {self.kind!r}")
        n = self.entries.shape[0]
        if n != 1 << min(self.bits, 64):  # a file's bits may be huge; no array has 2^64 rows
            raise ValueError(f"expected 2^{self.bits} entries, got {n}")
        if not np.isfinite(self.entries).all():
            raise ValueError("codebook entries must be finite")
        norms = np.linalg.norm(self.entries, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-9):
            raise ValueError("codebook entries must have unit norm")

    @property
    def nt(self) -> int:
        return self.entries.shape[1]


@dataclass(frozen=True)
class Selection:
    """Result of a codebook search: entry index, vector, and achieved power."""

    index: int
    vector: np.ndarray
    power: float


def _check_bits(bits: int | float, cap: int, cap_name: str) -> None:
    """Raise a ValueError unless ``bits`` is an integer in 0 .. ``cap``."""
    if isinstance(bits, numbers.Real) and bits > cap:  # anything else fails the count check
        raise ValueError(f"bits={bits} exceeds the {cap_name} cap ({cap})")
    check_count("bits", bits, least=0)


def _unit_vectors(gen: np.random.Generator, count: int, nt: int) -> np.ndarray:
    v = complex_normal(gen, (count, nt))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def rvq_codebook(nt: int, bits: int, rng: RandomStream | np.random.Generator) -> Codebook:
    """Draw a fresh RVQ codebook; larger budgets use :func:`select_beamformer_streaming`."""
    check_count("nt", nt)
    _check_bits(bits, MATERIALIZE_CAP_BITS, "materialization")
    gen = as_generator(rng)
    return Codebook(_unit_vectors(gen, 1 << bits, nt), bits)


def _chunk_powers(h: np.ndarray, entries: np.ndarray) -> np.ndarray:
    # ||H v||^2 per entry; (H @ entries^T) is (nr, c)
    return np.sum(np.abs(h @ entries.T) ** 2, axis=0)


def _vector_power(h: np.ndarray, v: np.ndarray) -> float:
    # canonical single-vector power; the batched matmul can differ by an ulp
    # depending on its width, so the reported power is always recomputed here
    hv = h @ v
    return float(np.vdot(hv, hv).real)


def _select(h: np.ndarray, chunks: Iterable[np.ndarray]) -> Selection:
    # the running argmax of one codebook's power over its entries, read in
    # chunks of _CHUNK (the last may be shorter); ties go to the lowest index
    best: tuple[float, int, np.ndarray] | None = None
    for i, chunk in enumerate(chunks):
        powers = _chunk_powers(h, chunk)
        j = int(np.argmax(powers))
        if best is None or powers[j] > best[0]:
            best = (float(powers[j]), i * _CHUNK + j, chunk[j].copy())
    assert best is not None
    return Selection(best[1], best[2], _vector_power(h, best[2]))


def select_beamformer(h: np.ndarray, codebook: Codebook) -> Selection:
    """Entry of ``codebook`` maximizing received power; ties go to the lowest index."""
    if codebook.nt != h.shape[1]:
        raise ValueError(f"codebook is {codebook.nt}-dimensional, channel has nt={h.shape[1]}")
    entries = codebook.entries
    return _select(h, (entries[start : start + _CHUNK] for start in range(0, entries.shape[0], _CHUNK)))


def select_beamformer_streaming(
    h: np.ndarray, nt: int, bits: int, rng: RandomStream | np.random.Generator
) -> Selection:
    """Select from a 2**bits RVQ codebook without materializing it.

    Entries are generated chunk by chunk while a running argmax is kept.
    Given the same stream, the result is identical to drawing the full
    codebook and calling :func:`select_beamformer`.
    """
    _check_bits(bits, STREAM_CAP_BITS, "streaming")
    if nt != h.shape[1]:
        raise ValueError(f"entry length {nt} does not match channel nt={h.shape[1]}")
    gen, n = as_generator(rng), 1 << bits
    return _select(h, (_unit_vectors(gen, min(_CHUNK, n - start), nt) for start in range(0, n, _CHUNK)))


@functools.lru_cache(maxsize=None)  # one entry per codebook size and nt, at most 11 per nt
def _row_blocks(n: int, dims: int) -> tuple[tuple[int, int, np.ndarray, int], ...]:
    """Gram row blocks [r0, r1) of an n-entry codebook embedded in R^dims, doubling in size.

    Each block comes with the mask of its pairs j > i over the columns
    r0 + 1 .. n - 1 that its rows are scored against, and with the number
    of candidates whose block (its Gram rows and the columns of the
    embedding they read) fits ``WORK_DOUBLES``.
    """
    blocks = []
    r0, rows = 0, _FIRST_ROWS
    while r0 < n - 1:
        r1 = min(r0 + rows, n - 1)
        size = (r1 - r0 + dims) * (n - r0 - 1) + dims * (r1 - r0)
        blocks.append((r0, r1, ~np.tri(r1 - r0, n - r0 - 1, -1, dtype=bool), max(1, WORK_DOUBLES // size)))
        r0, rows = r1, 2 * rows
    return tuple(blocks)


def _embed_work(nt: int, m: int) -> np.ndarray:
    """A work buffer for :func:`_embed` of m vectors of length nt."""
    return np.empty((nt + 1) * (nt + 2) * m)


def _embed(x: np.ndarray, work: np.ndarray | None = None, unit: bool = True) -> np.ndarray:
    """Columns phi(x) = (|x_k|^2, sqrt2 Re x_i conj(x_j), sqrt2 Im x_i conj(x_j))_{i<j} / ||x||^2.

    One column per row x of ``x``: the real coordinates of xx^H / ||x||^2,
    so phi(u).phi(v) = |u^H v|^2 / (||u||^2 ||v||^2) (Conway, Hardin &
    Sloane, "Packing lines, planes, etc.", 1996).  With nt = 1, phi(x) = 1
    exactly, so every overlap is 1 and every distance 0.  With ``unit``
    false the columns are those of xx^H itself, not divided by ||x||^2.  The
    result and its temporaries are views of ``work`` (:func:`_embed_work`),
    so a caller that passes one buffer for every chunk allocates nothing per
    chunk.  The first 2 nt m doubles of ``work`` are left holding the Re and
    Im planes of ``x``, (2, nt, m); ``x`` may lie in ``work`` past them, as
    it is read before anything else is written.
    """
    m, nt = x.shape
    work = _embed_work(nt, m) if work is None else work
    edges = (0, 2 * nt, nt * (nt + 2), nt * (nt + 3), (nt + 1) * (nt + 2))
    planes, f, t, ab = (work[lo * m : hi * m] for lo, hi in zip(edges, edges[1:]))
    planes, f, t, ab = planes.reshape(2, nt, m), f.reshape(nt * nt, m), t.reshape(nt, m), ab.reshape(2, m)
    planes[...] = x.view(np.float64).reshape(m, nt, 2).T  # contiguous rows from here on
    re, im = planes
    # coordinate-major: every pass below writes whole contiguous rows
    np.add(np.multiply(re, re, out=f[:nt]), np.multiply(im, im, out=t), out=f[:nt])
    r = nt
    for i in range(nt - 1):  # sqrt2 Re and Im of x_i conj(x_j) for j > i
        w = nt - 1 - i
        (a, b), u = np.multiply(planes[:, i], math.sqrt(2.0), out=ab), t[:w]
        re_part, im_part = f[r : r + w], f[r + w : r + 2 * w]
        np.add(np.multiply(re[i + 1 :], a, out=re_part), np.multiply(im[i + 1 :], b, out=u), out=re_part)
        np.subtract(np.multiply(re[i + 1 :], b, out=im_part), np.multiply(im[i + 1 :], a, out=u), out=im_part)
        r += 2 * w
    if unit:
        f /= np.sum(f[:nt], axis=0, out=ab[0])
    return f


def best_powers(h: np.ndarray, codebooks: Sequence[Codebook]) -> list[np.ndarray]:
    """max_i ||H c_i||^2 of each fixed codebook, per channel of the (m, nr, nt) stack ``h``.

    With G = H^H H, c^H G c = psi(G) . phi(c) for a unit c, where phi is
    :func:`_embed` and psi(G) = (G_kk, sqrt2 Re G_ij, sqrt2 Im G_ij); the sum
    of the unscaled embeddings of H's rows is psi(conj G), and
    psi(conj G) . phi(conj c) = psi(G) . phi(c).  psi is formed once per
    block of channels, whose embedding work and widest scores fit
    ``WORK_DOUBLES``, then each codebook costs one matmul and a row max.
    """
    m, nr, nt = h.shape
    phis = [_embed(book.entries.conj()) for book in codebooks]
    step = max(1, WORK_DOUBLES // max([_embed_work(nt, nr).size] + [phi.shape[1] for phi in phis]))
    work, best = _embed_work(nt, min(step, m) * nr), [np.empty(m) for _ in phis]
    for start in range(0, m, step):
        rows = h[start : start + step].reshape(-1, nt)
        psi = _embed(rows, work, unit=False).reshape(nt * nt, -1, nr).sum(axis=2).T
        for phi, out in zip(phis, best):
            np.max(psi @ phi, axis=1, out=out[start : start + step])
    return best


def _block_overlap(f: np.ndarray, rows: slice | np.ndarray, block: tuple) -> np.ndarray:
    # each candidate's largest overlap over Gram rows r0 .. r1 - 1, pairs j > i
    r0, r1, pairs, _ = block
    g = f[rows, :, r0:r1].transpose(0, 2, 1) @ f[rows, :, r0 + 1 :]
    # pairs with j <= i lie in the leading square alone
    g[:, :, : r1 - r0] *= pairs[:, : r1 - r0]
    return g.max(axis=(1, 2))


def _batch_winner(f: np.ndarray, best_dist: float) -> tuple[int, float] | None:
    """The batch's best candidate if it beats ``best_dist`` strictly, else None.

    ``f`` is a (c, nt^2, n) stack of candidate codebooks, each with its n
    entries embedded (:func:`_embed`) as columns.  Returns the index and
    minimum pairwise distance of the first candidate with the largest
    distance (+inf for n = 1, where the first candidate wins).  The
    overlaps are scored a block of Gram rows at a time, as a real matmul:
    the first block for the whole batch at once, each later block for the
    live candidates in sub-batches that fit ``WORK_DOUBLES``.  A candidate
    is dropped as soon as its running distance sqrt(1 - max overlap) is no
    longer above ``best_dist``.  That distance can only fall as rows are
    added, so the result is that of a full scan, ties included.
    """
    c, dims, n = f.shape
    if n < 2:  # one entry has no pairs
        return (0, math.inf) if best_dist < math.inf else None
    first, *rest = _row_blocks(n, dims)
    live, overlap = np.arange(c), _block_overlap(f, slice(None), first)
    for block in (*rest, None):
        dist = np.sqrt(np.maximum(0.0, 1.0 - overlap))
        keep = dist > best_dist
        if not keep.all():
            if not keep.any():
                return None
            live, overlap, dist = live[keep], overlap[keep], dist[keep]
        if block is not None:
            step = block[3]  # candidates per sub-batch
            parts = [_block_overlap(f, live[s : s + step], block) for s in range(0, live.size, step)]
            overlap = np.maximum(overlap, np.concatenate(parts))
    j = int(np.argmax(dist))
    return int(live[j]), float(dist[j])


def check_maximin_bits(bits: int | float) -> None:
    """Raise ValueError unless a maximin search of ``bits`` bits is allowed."""
    _check_bits(bits, MAXIMIN_CAP_BITS, "maximin")


def _stream_entries(nt: int) -> int:
    """Vectors per chunk of the maximin candidate stream of ``nt``-vectors.

    A multiple of 2**MAXIMIN_CAP_BITS, so every chunk holds whole
    candidates of every budget.  Above that floor, the chunk's draws (2 nt
    doubles a vector) and the first Gram rows of its candidates (fewer than
    _FIRST_ROWS a vector) fit ``WORK_DOUBLES``.
    """
    whole = WORK_DOUBLES // max(2 * nt, _FIRST_ROWS) >> MAXIMIN_CAP_BITS << MAXIMIN_CAP_BITS
    return max(1 << MAXIMIN_CAP_BITS, whole)


def maximin_codebooks(
    nt: int,
    budgets: Iterable[int],
    candidates: int,
    rng: RandomStream | np.random.Generator,
) -> dict[int, Codebook]:
    """The :func:`maximin_codebook` of every budget, from one pass over the candidate stream.

    Candidate i of a ``bits``-bit search is entries i 2**bits .. (i+1)
    2**bits - 1 of one stream of complex normal vectors, so the candidates
    of every smaller budget are a prefix of the largest budget's.  The
    stream is drawn and embedded once, :func:`_stream_entries` entries at
    a time, and each budget's search scores its next candidates from every
    chunk until it has read ``candidates`` of them; only the winners are
    normalized.  Each codebook is bit-identical to the one a search of its
    budget alone returns.
    """
    check_count("nt", nt)
    for bits in (budgets := list(budgets)):  # checked before sorting, which needs numbers
        check_maximin_bits(bits)
    check_count("candidates", candidates)
    budgets = sorted(set(budgets))
    gen = as_generator(rng)
    best: dict[int, tuple[float, np.ndarray | None]] = {bits: (-1.0, None) for bits in budgets}
    total, step = (candidates << budgets[-1] if budgets else 0), _stream_entries(nt)
    # one buffer for every chunk: the draws go to its end, and the embedding
    # leaves their Re and Im planes at its front, where the winners are read
    work = _embed_work(nt, step)
    for start in range(0, total, step):
        m = min(step, total - start)
        f = _embed(complex_normal(gen, (m, nt), work[work.size - 2 * nt * m :].reshape(m, nt, 2)), work)
        planes = work[: 2 * nt * m].reshape(2, nt, m)
        for bits in budgets:
            # a chunk starts on a candidate boundary of every budget
            n, take = 1 << bits, min(candidates - (start >> bits), m >> bits)
            # until a budget has a best candidate, a first batch small enough
            # for a full scan finds one; each later batch is the rest of the chunk
            split = take if best[bits][1] is not None else min([take] + [b[3] for b in _row_blocks(n, nt * nt)])
            for lo, hi in ((0, split), (split, take)):
                if lo < hi:
                    cands = f[:, lo * n : hi * n].reshape(-1, hi - lo, n).transpose(1, 0, 2)
                    winner = _batch_winner(cands, best[bits][0])
                    if winner is not None:
                        j, dist = winner
                        vectors = planes[:, :, (lo + j) * n : (lo + j + 1) * n].T
                        best[bits] = (dist, np.ascontiguousarray(vectors).view(np.complex128)[..., 0])
    unit = {bits: x / np.linalg.norm(x, axis=1, keepdims=True) for bits, (_, x) in best.items()}
    return {bits: Codebook(entries, bits, "maximin") for bits, entries in unit.items()}


def maximin_codebook(
    nt: int,
    bits: int,
    candidates: int,
    rng: RandomStream | np.random.Generator,
) -> Codebook:
    """Best of ``candidates`` random codebooks by minimum pairwise distance.

    Approximates a Grassmannian line packing; quality improves with the
    candidate count but the result is by construction suboptimal.  Ties go
    to the earliest candidate; with nt = 1 every candidate ties at distance
    0, so the first one wins.  Candidates are drawn in batches, and each
    batch is scored with early rejection against the best distance so far
    (:func:`_batch_winner`); the draws and the pick are those of scoring
    every pair of every candidate.  This is the one-budget case of
    :func:`maximin_codebooks`.
    """
    return maximin_codebooks(nt, (bits,), candidates, rng)[bits]


def save_codebook(codebook: Codebook, path: str | Path) -> None:
    """Write a codebook as JSON: flat entry-major [re, im, re, im, ...] floats."""
    flat = np.empty(codebook.entries.size * 2)
    flat[0::2] = codebook.entries.real.ravel()
    flat[1::2] = codebook.entries.imag.ravel()
    doc = {
        "nt": codebook.nt,
        "bits": codebook.bits,
        "kind": codebook.kind,
        "entries": flat.tolist(),
    }
    Path(path).write_text(json.dumps(doc) + "\n")


def load_codebook(path: str | Path) -> Codebook:
    """Inverse of :func:`save_codebook`; a malformed file raises a ValueError naming the field."""
    doc = json.loads(Path(path).read_text())
    if not isinstance(doc, dict):
        raise ValueError(f"a codebook file holds a JSON object, not a {type(doc).__name__}")
    missing = [key for key in ("nt", "bits", "kind", "entries") if key not in doc]
    if missing:
        raise ValueError(f"codebook file lacks {', '.join(missing)}")
    nt = doc["nt"]
    check_count("nt", nt)
    try:
        flat = np.asarray(doc["entries"], dtype=float)
        if flat.ndim != 1 or flat.size % (2 * nt):
            raise ValueError
    except (TypeError, ValueError):
        raise ValueError("entries must be a flat [re, im, ...] list of nt values per entry") from None
    return Codebook((flat[0::2] + 1j * flat[1::2]).reshape(-1, nt), doc["bits"], doc["kind"])
