"""Seeded Monte Carlo engine for feedback-interval experiments.

A trial draws the first-block channel, quantizes the beamformer once with
the pooled bit budget, then lets the channel evolve while the stale vector
stays in use.  The engine draws each trial through its sufficient
statistic, which is exact, not an approximation:

* The power of the best of N = 2^bits isotropic RVQ entries has the CDF
  F_H(x)^N, where F_H depends on H only through its Gram eigenvalues (the
  RVQ order statistic of Au-Yeung & Love, IEEE TWC 2007).  It is drawn from
  one uniform u as x = F_H^-1(u^(1/N)).  A maximin codebook is fixed, so
  its x = max_i ||H c_i||^2 is computed directly, for every budget of a
  group at once (:func:`afpopt.codebook.best_powers`).
* Block k's power is ||a_k||^2 with a_k = H_k v in C^nr, and
  a_k = alpha a_(k-1) + sqrt(1 - alpha^2) n_k with n_k ~ CN(0, I) drawn
  independently of v.  Its law depends on a_1 only through ||a_1||^2 = x.

A trial therefore costs one eigensolve, one uniform and K*nr normals,
whatever its bit budget.  Trials run in fixed chunks of ``TRIAL_CHUNK``;
chunk c consumes only the substream (seed, c), drawing its channels, then
its uniforms (RVQ only), then one block of innovations per stale block.
Estimates are therefore reproducible and reruns are bit-identical.

Cells of a sweep that share shape, seed, trial count and codebook kind
(and, for maximin, candidate count) draw the same chunks, so :func:`sweep`
draws them once per group: the channels, eigenvalues and uniforms, and the
innovations of the group's longest stale interval.  The best powers of
all the group's budgets come from one batched draw per chunk, and cells
of the same budget and alpha share one recursion, each taking its first K
blocks; every step is elementwise per row, so each cell gets the same bits
as it does alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Iterator, Sequence

import numpy as np

from afpopt import finite
from afpopt.channel import (
    FadingModel, RandomStream, SystemShape, check_count, complex_normal, gram_eigenvalues,
)
from afpopt.codebook import KINDS, Codebook, best_powers, check_maximin_bits, maximin_codebooks
from afpopt.finite import _EPS, _LN2

#: substream reserved for per-configuration codebook construction; chunk
#: indices stay safely below this
CODEBOOK_STREAM = 1 << 62

#: trials per random substream; the draws depend on it, so it is fixed
TRIAL_CHUNK = 2048

# cap on the safeguarded Newton steps of one tail inversion; halving alone
# would pin a root in [0, l] down to double precision in 53
_ROOT_MAX_STEPS = 200

METRICS = ("avg_power", "avg_rate", "rate_difference", "normalized_power")

#: default background SNR of the rate metrics, in dB
RHO_DB = 10.0


def round_half_up(x: float) -> int | float:
    """Deterministic bit-budget rounding: .5 always rounds up; inf stays inf."""
    # x - floor(x) is exact, where the sum in floor(x + 0.5) would round
    return (f := math.floor(x)) + (x - f >= 0.5) if x < math.inf else x


@dataclass(frozen=True)
class ExperimentSpec:
    """One Monte Carlo configuration.

    ``candidates`` is the number of random codebooks the maximin search
    draws; RVQ configurations ignore it.
    """

    shape: SystemShape
    model: FadingModel
    bits_per_block: float
    num_blocks: int
    trials: int = 3000
    seed: int = 0
    codebook_kind: str = "rvq"
    metric: str = "avg_power"
    candidates: int = 10_000

    def __post_init__(self) -> None:
        if not 0.0 <= self.bits_per_block < math.inf:
            raise ValueError(f"bits_per_block must be finite and nonnegative, got {self.bits_per_block}")
        check_count("num_blocks", self.num_blocks)
        check_count("trials", self.trials)
        check_count("candidates", self.candidates)
        if self.codebook_kind not in KINDS:
            raise ValueError(f"unknown codebook kind {self.codebook_kind!r}")
        if self.metric not in METRICS:
            raise ValueError(f"unknown metric {self.metric!r}")

    @property
    def budget_bits(self) -> int | float:
        """Pooled quantization budget round(B * K); inf where B * K overflows."""
        return round_half_up(self.bits_per_block * self.num_blocks)


@dataclass(frozen=True)
class Estimate:
    """Sample mean with its standard error."""

    mean: float
    stderr: float
    trials: int


def _estimate(values: np.ndarray) -> Estimate:
    n = values.size
    # one trial has no sample variance: its standard error is unknown, not 0
    sd = float(values.std(ddof=1)) if n > 1 else math.nan
    return Estimate(float(values.mean()), sd / math.sqrt(n), n)


def _trial_chunks(seed: int, trials: int) -> Iterator[tuple[slice, np.random.Generator]]:
    """Rows of each fixed-size trial chunk with the generator of its substream."""
    for index, start in enumerate(range(0, trials, TRIAL_CHUNK)):
        yield slice(start, min(start + TRIAL_CHUNK, trials)), RandomStream(seed, index).generator()


def _tail_and_density(x: np.ndarray, nodes: np.ndarray, zeros: int = 0) -> tuple[np.ndarray, np.ndarray]:
    # P(v^H G v > x) for an isotropic unit v in C^n per row, and its density.
    # ``nodes`` holds each row's Gram spectrum padded with zeros to n values,
    # ascending.  The tail is the divided difference of (. - x)_+^(n-1) over
    # the nodes, by the Cox-de Boor recursion, whose every level is a convex
    # combination of the one below: nearly coincident eigenvalues cost no
    # precision.  The density is (n-1) times that of (. - x)_+^(n-2), formed
    # from the recursion's last two inputs.  With the first ``zeros``
    # nodes padded zeros and x >= 0, a column whose window lies inside them
    # is exactly 0, so at width w only the columns from max(0, zeros - w) on
    # are formed, a zero column prepended each time the range widens
    y = nodes - x[:, None]
    tail = (y[:, zeros:] > 0).astype(float)
    density = np.zeros(x.size)
    n = nodes.shape[1]
    for width in range(1, n):
        start = max(0, zeros - width)
        if width <= zeros:
            tail = np.concatenate((np.zeros((x.size, 1)), tail), axis=1)
        lo, hi = y[:, start : n - width], y[:, start + width :]
        straddle = (lo <= 0) & (hi > 0)
        span = np.where(straddle, hi - lo, 1.0)
        if width == n - 1:
            density = (n - 1) * (tail[:, 1] - tail[:, 0]) / span[:, 0]
        mix = (hi * tail[:, 1:] - lo * tail[:, :-1]) / span
        tail = np.where(straddle, mix, lo > 0)
    return tail[:, 0], density


def rvq_best_power(eigs: np.ndarray, nt: int, budgets: Sequence[float], u: np.ndarray) -> np.ndarray:
    """Power of the best of 2**bits isotropic entries per budget, one draw per row by inversion.

    ``eigs`` holds each row's min(nt, nr) Gram eigenvalues in descending
    order and ``u`` one uniform in (0, 1] per row; the result holds one row
    of draws per budget, (len(budgets), rows), every budget from the same
    uniforms.  The best power has the CDF F^N, so the draw solves
    P(q > x) = t with t = 1 - u^(1/N), computed as -expm1(log(u) 2^-bits).
    Above the second-largest node the tail is the single term
    (l1 - x)^(nt-1) / prod_j (l1 - l_j) over the nt - 1 other nodes (padded
    zeros included), so x = l1 - exp((log t + sum_j log(l1 - l_j)) / (nt-1)),
    a sum of logs that overflows at no shape (for nt = 2 that covers every
    draw); below it safeguarded Newton steps (:func:`_invert_tail`) find x.
    Where t falls below the smallest normal double (past about 1022 bits),
    it is 2^-bits |log u| to rounding, so log t is formed as
    log(-log u) - bits ln 2 without t, and only an infinite budget draws
    x = l1.  The Newton steps take the same log t.  The budgets' rows are
    stacked budget-major, so the closed form and the Newton steps run once
    for all of them; every step is elementwise per row, so each budget gets
    the bits it gets alone.
    """
    l1 = eigs[:, 0]
    if nt == 1:
        return np.broadcast_to(l1, (len(budgets), l1.size))  # a unit phase cannot change the power
    log_u = np.log(u)
    t = -np.expm1(log_u * np.array([2.0**-bits for bits in budgets])[:, None])
    nodes = np.zeros((l1.size, nt))
    nodes[:, nt - eigs.shape[1] :] = eigs[:, ::-1]
    second = nodes[:, -2]
    with np.errstate(divide="ignore"):
        # t below the normal range is 2^-bits |log u| to rounding, so its log
        # is formed without t; log t = -inf gives x = l1
        log_w = np.log(-log_u) - np.array(budgets, dtype=float)[:, None] * _LN2
        log_t = np.where(t < np.finfo(float).tiny, log_w, np.log(t))
        log_spread = (nt - eigs.shape[1]) * np.log(l1) + np.log(l1[:, None] - eigs[:, 1:]).sum(axis=1)
        x = l1 - np.exp((log_t + log_spread) / (nt - 1))
    low = ~(x > second)
    if low.any():
        row = np.nonzero(low)[1]
        x[low] = _invert_tail(nodes[row], log_t[low], second[row], nt - eigs.shape[1])
    return x


def _rank2_log_tail(x: np.ndarray, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # the logs of _tail_and_density's tail and density for the nodes nt - 2
    # padded zeros, l2 and l1, at 0 <= x <= l2.  As (. - x)_+^p vanishes near 0,
    # its divided difference is that of h = (. - x)^p .^(2-nt) over {l2, l1}:
    # h(l1) / (l1 - l2) times 1 - h(l2) / h(l1), a ratio whose log is a sum of
    # log1p terms, so close nodes lose no digits.  The tail has p = nt - 1;
    # the density is nt - 1 times the same with p = nt - 2
    nt, l2, l1 = nodes.shape[1], nodes[:, -2], nodes[:, -1]
    y, gap = l1 - x, l2 - l1
    head, log_ratio = (nt - 2) * np.log(y / l1) - np.log(-gap), (nt - 2) * np.log1p(x * gap / (y * l2))
    log_tail = np.log(y) + head + np.log(-np.expm1(np.log1p(gap / y) + log_ratio))
    return log_tail, math.log(nt - 1) + head + np.log(-np.expm1(log_ratio))


def _invert_tail(nodes: np.ndarray, log_t: np.ndarray, hi: np.ndarray, zeros: int) -> np.ndarray:
    """Smallest x in [0, hi] with tail(x) <= t, per row; the tail is 1 at 0 and at most t at hi.

    Newton steps on log tail(x) - log t (the tail spans many orders, and t may
    underflow), whose derivative is -density / tail, start at hi inside the
    bracket [lo, hi] that every evaluation narrows; a step that would leave it
    halves it instead.  A row stops once its step or bracket is within double
    resolution of the start.  The first ``zeros`` nodes are padded zeros; two
    more take :func:`_rank2_log_tail`, or Cox-de Boor if some row has them equal.
    """
    out = np.empty_like(hi)
    rows = np.arange(hi.size)
    resolution = _EPS * hi
    lo, x = np.zeros_like(hi), hi.copy()
    rank2 = zeros > 0 and nodes.shape[1] == zeros + 2 and np.all(nodes[:, -2] < nodes[:, -1])
    # a zero density, or one so small that the step overflows, halves instead
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(_ROOT_MAX_STEPS):
            log_tail, log_density = (
                _rank2_log_tail(x, nodes) if rank2 else np.log(_tail_and_density(x, nodes, zeros))
            )
            above = log_tail > log_t
            lo, hi = np.where(above, x, lo), np.where(above, hi, x)
            step = (log_tail - log_t) * np.exp(log_tail - log_density)
            converged = np.abs(step) <= resolution
            newton = converged | ((x + step > lo) & (x + step < hi))
            x = np.where(newton, x + step, 0.5 * (lo + hi))
            done = converged | (hi - lo <= resolution)
            out[rows[done]] = x[done]
            live = ~done
            if not live.any():
                return out
            rows, nodes, log_t, lo, hi, x, resolution = (
                a[live] for a in (rows, nodes, log_t, lo, hi, x, resolution)
            )
    out[rows] = x
    return out


def _stale_block_powers(x: np.ndarray, alpha: float, num_blocks: int, noise: np.ndarray) -> np.ndarray:
    # ||a_k||^2 with a_1 = (sqrt(x), 0, ..., 0); a_k is kept as real and
    # imaginary parts, so a CN(0, 1) innovation has variance 1/2 per part;
    # noise[k - 1] is block k's (rows, nr, 2) standard normal innovation.
    # Block k reads only noise[:k - 1], so the first K columns are the run
    # for K blocks
    out = np.empty((x.size, num_blocks))
    out[:, 0] = x
    if alpha >= 1.0:
        out[:, 1:] = x[:, None]
        return out
    a = np.zeros((x.size, noise.shape[2], 2))
    a[:, 0, 0] = np.sqrt(x)
    decay = math.sqrt(0.5 * (1.0 - alpha * alpha))
    for k in range(1, num_blocks):
        a = alpha * a + decay * noise[k - 1]
        out[:, k] = (a * a).sum(axis=(1, 2))
    return out


def _per_budget(fetch: Callable[[list], Sequence], budgets: list) -> dict:
    # fetch's value for each budget, or the exception its budget raised: one
    # batched call, redone one budget at a time if it raises
    try:
        return dict(zip(budgets, fetch(budgets)))
    except Exception as exc:
        if len(budgets) == 1:
            return {budgets[0]: exc}
        return {bits: _per_budget(fetch, [bits])[bits] for bits in budgets}


def _group_trials(
    specs: list[ExperimentSpec], rho_db: float, raw: bool = False
) -> tuple[list[np.ndarray | Exception], dict[int, Codebook]]:
    """Per-trial metric values of each cell of a group that shares every draw, and its maximin codebooks.

    One draw pass serves the group (see the module docstring).  Per trial
    chunk one :func:`rvq_best_power` call draws every budget of the group
    (or one :func:`afpopt.codebook.best_powers` call scores every maximin
    codebook), and cells of the same budget and ``alpha`` take the first K
    columns of one stale-block recursion run for the longest of their K.
    With ``raw`` a cell keeps its (trials, K) block powers instead.  A cell
    that fails gets its exception instead; the others keep their values.
    """
    first = specs[0]
    nt, nr = first.shape.nt, first.shape.nr
    rvq = first.codebook_kind == "rvq"
    outputs = [np.empty((first.trials, spec.num_blocks) if raw else first.trials) for spec in specs]
    errors: list[Exception | None] = [None] * len(specs)
    for i, spec in enumerate(specs if not rvq else ()):
        try:
            check_maximin_bits(spec.budget_bits)
        except ValueError as exc:  # an over-cap budget fails only its own cells
            errors[i] = exc
    # longest K first: the first cell of each budget and alpha runs the
    # recursion that the others take prefixes of
    live = sorted((i for i, error in enumerate(errors) if error is None), key=lambda i: -specs[i].num_blocks)
    books: dict[int, Codebook] = {}
    try:
        if not rvq:
            books = maximin_codebooks(
                nt, {specs[i].budget_bits for i in live}, first.candidates,
                RandomStream(first.seed, CODEBOOK_STREAM),
            )
        stale = [specs[i].num_blocks for i in live if specs[i].model.alpha < 1.0]
        for rows, gen in _trial_chunks(first.seed, first.trials):
            if not live:  # every cell has failed, so the rest would go unread
                break
            count = rows.stop - rows.start
            h = complex_normal(gen, (count, nr, nt))
            if rvq:
                budgets = list(dict.fromkeys(specs[i].budget_bits for i in live))
                eigs, u = gram_eigenvalues(h), 1.0 - gen.random(count)
                best = _per_budget(lambda bits: rvq_best_power(eigs, nt, bits, u), budgets)
            else:
                best = dict(zip(books, best_powers(h, list(books.values()))))
            noise = gen.standard_normal((max(stale, default=1) - 1, count, nr, 2))
            blocks: dict[tuple, np.ndarray] = {}
            for i in live:
                spec, bits = specs[i], specs[i].budget_bits
                key = (bits, spec.model.alpha)
                try:
                    if isinstance(best[bits], Exception):
                        raise best[bits]
                    if key not in blocks:
                        blocks[key] = _stale_block_powers(best[bits], key[1], spec.num_blocks, noise)
                    powers = blocks[key][:, : spec.num_blocks]
                    outputs[i][rows] = powers if raw else _metric_values(powers, spec, rho_db)
                except Exception as exc:
                    errors[i] = exc
            live = [i for i in live if errors[i] is None]
    except Exception as exc:  # a shared draw failed, and so do its cells
        for i in live:
            errors[i] = exc
    return [error if error is not None else out for out, error in zip(outputs, errors)], books


def _cell_trials(spec: ExperimentSpec, rho_db: float = math.nan, raw: bool = False) -> np.ndarray:
    # one cell as a group of one; its failure is raised
    (outcome,), _ = _group_trials([spec], rho_db, raw)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def block_power_trials(spec: ExperimentSpec) -> np.ndarray:
    """Per-trial, per-block received powers; shape (trials, num_blocks).

    The beamformer is selected once per trial, at block 1, from a fresh RVQ
    codebook (or the per-configuration maximin codebook) of budget_bits
    bits; blocks 2..K reuse it while the channel evolves.  Each chunk of
    trials is drawn through the trial's sufficient statistic (see the
    module docstring).
    """
    return _cell_trials(spec, raw=True)


def _metric_values(powers: np.ndarray, spec: ExperimentSpec, rho_db: float) -> np.ndarray:
    # per-trial value of the cell's metric from (rows, K) block powers (the
    # caller scales normalized_power); the rate metrics work in the log
    # domain, so every finite rho_db gives finite rates; ln rho divides first
    # only where rho_db ln 10 overflows (|rho_db| > 7.8e307), keeping all other bits
    if spec.metric in ("avg_power", "normalized_power"):
        return powers.mean(axis=1)
    if not math.isfinite(rho_db):
        raise ValueError(f"rho_db must be finite, got {rho_db}")
    log_rho, log_power = rho_db * math.log(10.0) / 10.0, np.log(powers)
    if not math.isfinite(log_rho):
        log_rho = rho_db / 10.0 * math.log(10.0)
    if spec.metric == "avg_rate":
        rate = np.logaddexp(0.0, log_rho + log_power)
    else:
        rate = np.logaddexp(-log_rho, log_power) - math.log(spec.shape.nt)
    return (rate / _LN2).mean(axis=1)


def simulate_avg_power(spec: ExperimentSpec) -> Estimate:
    """Mean over trials of the interval-average received power."""
    return _estimate(_cell_trials(replace(spec, metric="avg_power")))


def simulate_avg_rate(spec: ExperimentSpec, rho_db: float) -> Estimate:
    """Mean rate log2(1 + rho * power) over the interval, with rho_db = 10 log10 rho.

    Computed as logaddexp(0, ln rho + ln power) / ln 2, which keeps its
    digits at low SNR.
    """
    return _estimate(_cell_trials(replace(spec, metric="avg_rate"), rho_db))


def simulate_rate_difference(spec: ExperimentSpec, rho_db: float) -> Estimate:
    """Mean rate offset log2(1/(rho*nt) + power/nt) over the interval, with rho_db as above.

    Per trial this equals the average rate minus log2(rho * nt); it is
    computed as (logaddexp(-ln rho, ln power) - ln nt) / ln 2.
    """
    return _estimate(_cell_trials(replace(spec, metric="rate_difference"), rho_db))


def perfect_feedback_power(shape: SystemShape, trials: int, seed: int) -> Estimate:
    """Monte Carlo mean of the top Gram eigenvalue (unquantized beamforming).

    The engine's normaliser is exact (:func:`perfect_feedback_mean`); this
    estimate is kept as an independent check on it.
    """
    vals = np.empty(trials)
    for rows, gen in _trial_chunks(seed, trials):
        h = complex_normal(gen, (rows.stop - rows.start, shape.nr, shape.nt))
        vals[rows] = gram_eigenvalues(h)[:, 0]
    return _estimate(vals)


def perfect_feedback_mean(shape: SystemShape) -> float:
    """Normalizer for normalized-power metrics: the exact E[l1] of every shape.

    See :func:`afpopt.finite.mean_largest_eigenvalue`.
    """
    return finite.mean_largest_eigenvalue(shape)


@dataclass(frozen=True)
class SweepRecord:
    """One grid point of experiment output; a maximin cell keeps the codebook it simulated."""

    nt: int
    nr: int
    alpha: float
    bits_per_block: float
    num_blocks: int
    metric: str
    value: float | None
    stderr: float | None
    analytic: float | None
    source: str
    seed: int
    error: str | None = None
    codebook: Codebook | None = field(default=None, compare=False, repr=False)


def _has_analytic(spec: ExperimentSpec) -> bool:
    return (
        finite.has_closed_form(spec.shape) and spec.codebook_kind == "rvq"
        and spec.metric in ("avg_power", "normalized_power")
    )


def _analytic_value(spec: ExperimentSpec) -> float | None:
    # the analytic column of a cell alone, from a batch of its one budget
    if not _has_analytic(spec):
        return None
    (g,) = finite.quantized_powers(spec.shape, [spec.budget_bits])
    return _closed_form(spec, g)


def _closed_form(spec: ExperimentSpec, g: float) -> float:
    # the cell's metric from the quantized power g at the rounded budget the
    # simulation quantizes with, not at the fractional B * K
    value = finite.interval_average_power(spec.shape.nr, g, spec.model.alpha, spec.num_blocks)
    if spec.metric == "normalized_power":
        value /= perfect_feedback_mean(spec.shape)
    return value


def _record(spec: ExperimentSpec, outcome: np.ndarray | Exception, powers: dict,
            codebook: Codebook | None) -> SweepRecord:
    # the row of one cell from its per-trial values, its analytic column's powers[shape][budget]
    # (a power, or the exception its fetch raised) and the maximin codebook it simulated
    try:
        if isinstance(outcome, Exception):
            raise outcome
        est = _estimate(outcome)
        if spec.metric == "normalized_power":
            norm = perfect_feedback_mean(spec.shape)
            est = Estimate(est.mean / norm, est.stderr / norm, est.trials)
        g = powers[spec.shape][spec.budget_bits] if _has_analytic(spec) else None
        if isinstance(g, Exception):
            raise g
        analytic = None if g is None else _closed_form(spec, g)
        value, stderr, error = est.mean, est.stderr, None
    except Exception as exc:
        value = stderr = analytic = None
        error = f"{type(exc).__name__}: {exc}"
    return SweepRecord(
        spec.shape.nt, spec.shape.nr, spec.model.alpha, spec.bits_per_block,
        spec.num_blocks, spec.metric, value, stderr, analytic,
        "simulation" if spec.codebook_kind == "rvq" else "simulation-maximin", spec.seed, error, codebook,
    )


def run_spec(spec: ExperimentSpec, rho_db: float = RHO_DB) -> SweepRecord:
    """Evaluate one grid point, attaching the closed form when one exists.

    The rate metrics are taken at an SNR of ``rho_db`` dB.  A grid point
    that cannot be evaluated keeps its row: no value, the error kept.  This
    is :func:`sweep` of a one-cell grid.
    """
    return sweep([spec], rho_db)[0]


def sweep(specs: list[ExperimentSpec], rho_db: float = RHO_DB) -> list[SweepRecord]:
    """Evaluate a grid, one record per spec in order; failures are reported, never raised.

    Cells with the same shape, seed, trial count and codebook kind (and,
    for maximin, candidate count) share one draw pass (:func:`_group_trials`),
    and each gets the same bits as :func:`run_spec` gives it alone.
    """
    if not specs:
        raise ValueError("sweep requires a nonempty grid")
    groups: dict[tuple, list[int]] = {}
    for i, spec in enumerate(specs):
        key = (spec.shape, spec.seed, spec.trials, spec.codebook_kind)
        if spec.codebook_kind == "maximin":
            key += (spec.candidates,)
        groups.setdefault(key, []).append(i)
    outcomes: list[np.ndarray | Exception | None] = [None] * len(specs)
    codebooks: list[Codebook | None] = [None] * len(specs)
    for members in groups.values():
        group_outcomes, books = _group_trials([specs[i] for i in members], rho_db)
        for i, outcome in zip(members, group_outcomes):
            outcomes[i], codebooks[i] = outcome, books.get(specs[i].budget_bits)
    # the analytic column's powers: one batch per shape, redone one budget
    # at a time if it raises, so that a failure costs only its budget's cells
    budgets: dict[SystemShape, list[int | float]] = {}
    for spec, outcome in zip(specs, outcomes):
        if _has_analytic(spec) and not isinstance(outcome, Exception):
            budgets.setdefault(spec.shape, []).append(spec.budget_bits)
    powers = {
        shape: _per_budget(partial(finite.quantized_powers, shape), bits) for shape, bits in budgets.items()
    }
    return [_record(spec, outcome, powers, book) for spec, outcome, book in zip(specs, outcomes, codebooks)]
