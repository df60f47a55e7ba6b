"""Beamforming codebooks: random vector quantization and maximin selection.

An RVQ codebook holds 2**bits i.i.d. isotropic unit vectors; the receiver
picks the entry maximizing the received power v^H H^H H v.  The maximin
variant keeps, out of many candidate RVQ codebooks, the one whose minimum
pairwise chordal distance is largest -- a cheap stand-in for an optimal
line packing.  Its search scores each candidate's pairwise overlaps a block
of Gram rows at a time and stops as soon as the candidate can no longer
beat the best one so far; the pick is exactly that of a full scan.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from afpopt.channel import RandomStream, as_generator, complex_normal

#: materialized codebooks are capped here; larger budgets must stream
MATERIALIZE_CAP_BITS = 24
STREAM_CAP_BITS = 30
MAXIMIN_CAP_BITS = 10

# chunk used by every selection path; shared so streaming and materialized
# selection perform bit-identical arithmetic
_CHUNK = 1 << 16

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
        n = self.entries.shape[0]
        if n != 1 << self.bits:
            raise ValueError(f"expected {1 << self.bits} entries, got {n}")
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


def _unit_vectors(gen: np.random.Generator, count: int, nt: int) -> np.ndarray:
    v = complex_normal(gen, (count, nt))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def rvq_codebook(
    nt: int, bits: int, rng: RandomStream | np.random.Generator, kind: str = "rvq"
) -> Codebook:
    """Draw a fresh RVQ codebook of 2**bits isotropic unit vectors."""
    if bits < 0:
        raise ValueError("bits must be nonnegative")
    if bits > MATERIALIZE_CAP_BITS:
        raise ValueError(
            f"bits={bits} exceeds the materialization cap ({MATERIALIZE_CAP_BITS}); "
            "use select_beamformer_streaming"
        )
    gen = as_generator(rng)
    return Codebook(_unit_vectors(gen, 1 << bits, nt), bits, kind)


def _chunk_powers(h: np.ndarray, entries: np.ndarray) -> np.ndarray:
    # ||H v||^2 per entry; (H @ entries^T) is (nr, c)
    return np.sum(np.abs(h @ entries.T) ** 2, axis=0)


def _vector_power(h: np.ndarray, v: np.ndarray) -> float:
    # canonical single-vector power; the batched matmul can differ by an ulp
    # depending on its width, so the reported power is always recomputed here
    hv = h @ v
    return float(np.vdot(hv, hv).real)


def select_beamformer(h: np.ndarray, codebook: Codebook) -> Selection:
    """Entry of ``codebook`` maximizing received power; ties go to the lowest index."""
    if codebook.nt != h.shape[1]:
        raise ValueError(f"codebook is {codebook.nt}-dimensional, channel has nt={h.shape[1]}")
    best_power = -1.0
    best_index = 0
    n = codebook.entries.shape[0]
    for start in range(0, n, _CHUNK):
        chunk = codebook.entries[start : start + _CHUNK]
        powers = _chunk_powers(h, chunk)
        j = int(np.argmax(powers))
        if powers[j] > best_power:
            best_power = float(powers[j])
            best_index = start + j
    vec = codebook.entries[best_index].copy()
    return Selection(best_index, vec, _vector_power(h, vec))


def select_beamformer_streaming(
    h: np.ndarray, nt: int, bits: int, rng: RandomStream | np.random.Generator
) -> Selection:
    """Select from a 2**bits RVQ codebook without materializing it.

    Entries are generated chunk by chunk while a running argmax is kept.
    Given the same stream, the result is identical to drawing the full
    codebook and calling :func:`select_beamformer`.
    """
    if bits < 0:
        raise ValueError("bits must be nonnegative")
    if bits > STREAM_CAP_BITS:
        raise ValueError(f"bits={bits} exceeds the streaming cap ({STREAM_CAP_BITS})")
    if nt != h.shape[1]:
        raise ValueError(f"entry length {nt} does not match channel nt={h.shape[1]}")
    gen = as_generator(rng)
    n = 1 << bits
    best_power = -1.0
    best_index = 0
    best_vector: np.ndarray | None = None
    for start in range(0, n, _CHUNK):
        chunk = _unit_vectors(gen, min(_CHUNK, n - start), nt)
        powers = _chunk_powers(h, chunk)
        j = int(np.argmax(powers))
        if powers[j] > best_power:
            best_power = float(powers[j])
            best_index = start + j
            best_vector = chunk[j].copy()
    assert best_vector is not None
    return Selection(best_index, best_vector, _vector_power(h, best_vector))


def chordal_distance(v1: np.ndarray, v2: np.ndarray) -> float:
    """sqrt(1 - |v1^H v2|^2); invariant to per-vector phase rotation."""
    overlap = abs(np.vdot(v1, v2)) ** 2
    return float(np.sqrt(max(0.0, 1.0 - overlap)))


def min_pairwise_distance(entries: np.ndarray) -> float:
    """Smallest chordal distance among all entry pairs (+inf for one entry)."""
    n = entries.shape[0]
    if n < 2:
        return float("inf")
    gram = np.abs(entries @ entries.conj().T) ** 2
    iu = np.triu_indices(n, 1)
    return float(np.sqrt(max(0.0, 1.0 - gram[iu].max())))


@functools.lru_cache(maxsize=None)  # one entry per codebook size, so at most 11
def _row_blocks(n: int) -> tuple[tuple[int, int, np.ndarray], ...]:
    """Gram row blocks [r0, r1) of an n-entry codebook, doubling in size.

    Each block comes with the mask of its pairs j > i over the columns
    r0 + 1 .. n - 1 that its rows are scored against.
    """
    blocks = []
    r0, rows = 0, _FIRST_ROWS
    while r0 < n - 1:
        r1 = min(r0 + rows, n - 1)
        blocks.append((r0, r1, ~np.tri(r1 - r0, n - r0 - 1, -1, dtype=bool)))
        r0, rows = r1, 2 * rows
    return tuple(blocks)


def _batch_winner(vs: np.ndarray, best_dist: float) -> tuple[int, float] | None:
    """The batch's best candidate if it beats ``best_dist`` strictly, else None.

    ``vs`` is a (c, n, nt) stack of candidate codebooks with unit-norm
    entries and n >= 2.  Returns the index and minimum pairwise distance of
    the first candidate with the largest distance.  The overlaps
    |c_i^H c_j|^2 are scored a block of Gram rows at a time, and a candidate
    is dropped as soon as its running distance sqrt(1 - max overlap) is no
    longer above ``best_dist``.  That distance can only fall as rows are
    added, so a dropped candidate could not have won, and the result is
    that of a full scan, ties included.
    """
    live = np.arange(vs.shape[0])
    overlap = np.zeros(live.size)
    vh = vs.conj().transpose(0, 2, 1)
    for r0, r1, pairs in _row_blocks(vs.shape[1]):
        # abs()**2 rounds as min_pairwise_distance does; with nt = 1 every
        # overlap is 1 up to rounding, and that rounding decides the pick
        g = np.abs(vs[:, r0:r1] @ vh[:, :, r0 + 1 :]) ** 2
        g *= pairs
        np.maximum(overlap, g.max(axis=(1, 2)), out=overlap)
        dist = np.sqrt(np.maximum(0.0, 1.0 - overlap))
        keep = dist > best_dist
        if not keep.all():
            if not keep.any():
                return None
            live, overlap, dist, vs, vh = live[keep], overlap[keep], dist[keep], vs[keep], vh[keep]
    j = int(np.argmax(dist))
    return int(live[j]), float(dist[j])


def maximin_codebook(
    nt: int,
    bits: int,
    candidates: int = 10_000,
    rng: RandomStream | np.random.Generator = RandomStream(0),
) -> Codebook:
    """Best of ``candidates`` random codebooks by minimum pairwise distance.

    Approximates a Grassmannian line packing; quality improves with the
    candidate count but the result is by construction suboptimal.  Ties go
    to the earliest candidate.  Candidates are drawn in batches, and each
    batch is scored with early rejection against the best distance so far
    (:func:`_batch_winner`); the draws and the pick are those of scoring
    every pair of every candidate.
    """
    if bits < 0:
        raise ValueError("bits must be nonnegative")
    if bits > MAXIMIN_CAP_BITS:
        raise ValueError(f"bits={bits} exceeds the maximin cap ({MAXIMIN_CAP_BITS})")
    if candidates < 1:
        raise ValueError("candidates must be >= 1")
    gen = as_generator(rng)
    n = 1 << bits
    # batch the candidate draws; each batch is scored as one stack
    batch = max(1, min(candidates, 1 << 18 >> (2 * bits)))
    best_dist = -1.0
    best: np.ndarray | None = None
    remaining = candidates
    while remaining > 0:
        c = min(batch, remaining)
        vs = complex_normal(gen, (c, n, nt))
        vs /= np.linalg.norm(vs, axis=2, keepdims=True)
        remaining -= c
        if n < 2:
            if best is None:
                best, best_dist = vs[0].copy(), float("inf")
            continue
        winner = _batch_winner(vs, best_dist)
        if winner is not None:
            j, best_dist = winner
            best = vs[j].copy()
    assert best is not None
    return Codebook(best, bits, "maximin")


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
    """Inverse of :func:`save_codebook`."""
    doc = json.loads(Path(path).read_text())
    flat = np.asarray(doc["entries"], dtype=float)
    entries = (flat[0::2] + 1j * flat[1::2]).reshape(-1, doc["nt"])
    return Codebook(entries, doc["bits"], doc["kind"])
