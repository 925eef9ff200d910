"""Constructed worst-case measures and measure-level diagnostics.

Every history-dependent mixture of family members induces a genuine
probability measure dominated by the worst-case expectation.  This module
builds such measures explicitly (notably the product measure that pins
every step's mean at the limit maximizer), enumerates their exact
martingale decompositions for horizons up to ``DEFAULT_ENUM_STEPS``, and
draws reproducible Monte Carlo paths for larger horizons.  A
:class:`MartingaleDecomposition` carries its family, measure name and
horizon, so :func:`prop2_check` (conditional mean containment) and
:func:`chatterji_check` (Chatterji's moment inequality) are pure functions
of one decomposition and enumerate nothing themselves.
:class:`PathMeasure` is the engine's own class, re-exported here; every
entry point admits its measure through the engine's ``_admit``, reads every
rule and policy through its ``_rule_weights`` and enumerates with its walker.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Mapping, Sequence

import numpy as np

from .ambiguity import (
    DEFAULT_ALPHAS,
    AmbiguityFamily,
    _abs_moments,
    _require_valid,
    mean_bounds,
    moment_c_alpha,  # unused here; kept bound for perfbench's span tracer
    moment_summary,
)
from .engine import (
    DEFAULT_STATE_CAP,
    PathMeasure,
    SupportOverflow,
    _admit,
    _aligned,
    _check_n,
    _check_state_cap,
    _grid,
    _is_int,
    _rule_weights,
    _walk_histories,
    expectation_under_policy,  # unused here; kept bound for perfbench's span tracer
    iid_sum_expectation,  # unused here; kept bound for perfbench's span tracer
    payoff_expectations,
)
from .lln_rates import BOUND_TOL, ROUND_TOL, IntervalMaxResult, LipschitzFunction, interval_max, theorem3_bound, verdict
from .rng import counter_offsets, outputs
from .rng import unit_array  # unused here; kept bound for perfbench's span tracer

__all__ = [
    "MuStarOutOfRange",
    "POutOfRange",
    "PathMeasure",
    "MartingaleDecomposition",
    "Prop2Report",
    "ChatterjiReport",
    "LowerBoundReport",
    "construct_pstar",
    "uniform_mixture",
    "history_parity_measure",
    "conditional_means",
    "prop2_check",
    "chatterji_check",
    "sample_paths",
    "sample_sum_counts",
    "lower_bound_check",
    "lower_bound_checks",
    "lower_bound_reports",
]

DEFAULT_ENUM_STEPS = 8  # longest horizon conditional_means enumerates
# fields per sampling block, each of the fewest of 8, 16 and 32 bits that hold every threshold of the law: eight,
# four or two to each 64-bit output, so a block draws 2^12, 2^13 or 2^14 outputs (32, 64 or 128 KiB)
_BLOCK_UNIFORMS = 1 << 15


class MuStarOutOfRange(ValueError):
    """The pinned mean must lie in the family's mean interval."""


class POutOfRange(ValueError):
    """Chatterji's inequality needs a moment order p in [1, 2]."""


def construct_pstar(family: AmbiguityFamily, mu_star: float, n: int) -> PathMeasure:
    """Product measure pinning every step's mean at ``mu_star``.

    Mixes the maximal-mean member (weight ``lam``) with the minimal-mean
    member (weight ``1 - lam``), ``lam = (mu_star - mu_lower) / spread``;
    argmax/argmin ties break to the lowest member index, and a degenerate
    mean interval selects the maximal-mean member outright.
    """
    _require_valid(family)
    means = [m.mean for m in family.members]
    lo, hi = min(means), max(means)
    if not (lo - ROUND_TOL <= mu_star <= hi + ROUND_TOL):
        raise MuStarOutOfRange(f"mu_star {mu_star!r} is outside [{lo!r}, {hi!r}]")
    i_up = means.index(hi)
    weights = np.zeros(len(means))
    if hi == lo:
        weights[i_up] = 1.0
        lam = 1.0
    else:
        i_lo = means.index(lo)
        lam = min(1.0, max(0.0, (mu_star - lo) / (hi - lo)))
        weights[i_up] += lam
        weights[i_lo] += 1.0 - lam
    return PathMeasure.constant(weights, n, name=f"pstar(mu_star={mu_star!r})")


def uniform_mixture(family: AmbiguityFamily, n: int) -> PathMeasure:
    """Equal-weight mixture of all members at every state."""
    _require_valid(family)
    m = len(family.members)
    return PathMeasure.constant(np.full(m, 1.0 / m), n, name="uniform-mixture")


def history_parity_measure(family: AmbiguityFamily, n: int) -> PathMeasure:
    """Deterministic rule: member index follows the lattice parity of the last atom."""
    _require_valid(family)
    lat = family.lattice
    m = len(family.members)

    def rule(step, history):
        idx = lat.coord(history[-1]) % m if history else 0
        w = np.zeros(m)
        w[idx] = 1.0
        return w

    return PathMeasure.from_history_rule(rule, n, m, name="parity-rule")


@dataclass(frozen=True)
class MartingaleDecomposition:
    """Exact per-path decomposition of n draws of ``family`` under a constructed measure.

    ``paths[p, i]`` is the atom realized at step i+1 on path p,
    ``cond_means[p, i]`` the conditional mean of that step given the path's
    first i atoms, and ``path_probs[p]`` the path probability.  Zero
    probability histories are kept; their conditional means follow the
    measure's rule.
    """

    measure_name: str
    family: AmbiguityFamily
    paths: np.ndarray
    path_probs: np.ndarray
    cond_means: np.ndarray

    @property
    def n(self) -> int:
        return self.paths.shape[1]

    @property
    def diffs(self) -> np.ndarray:
        """Martingale differences: realized atom minus its conditional mean."""
        return self.paths - self.cond_means


def conditional_means(
    family: AmbiguityFamily,
    measure: PathMeasure,
    n: int,
    state_cap: int = DEFAULT_STATE_CAP,
) -> MartingaleDecomposition:
    """Exact conditional means by full path enumeration, for n up to ``DEFAULT_ENUM_STEPS``.

    The engine's history walker keeps all ``atoms^n`` paths, zero-probability ones too.
    """
    state_cap, n = _check_state_cap(state_cap), _admit(family, measure, n)
    if n > DEFAULT_ENUM_STEPS:
        raise SupportOverflow(f"exact enumeration is limited to {DEFAULT_ENUM_STEPS} steps, got n={n}")
    atoms = family.union_atoms()[1]
    if len(atoms) ** n > state_cap:
        raise SupportOverflow(f"{len(atoms)}^{n} paths exceed the cap of {state_cap}")
    paths, _, probs, means = _walk_histories(family, measure, n, None)
    cmeans = np.column_stack([np.repeat(m, len(atoms) ** (n - k)) for k, m in enumerate(means)])
    return MartingaleDecomposition(measure.name, family, paths, probs, cmeans)


@dataclass(frozen=True)
class Prop2Report:
    """Containment of every conditional mean in the family's mean interval."""

    ok: bool
    worst_excess: float
    mu_lower: float
    mu_upper: float
    n: int
    measure_name: str


def prop2_check(decomposition: MartingaleDecomposition) -> Prop2Report:
    """Check that every enumerated conditional mean lies in the mean interval."""
    dec = decomposition
    lo, hi = mean_bounds(dec.family)
    worst = float(np.maximum(dec.cond_means - hi, lo - dec.cond_means).max())
    return Prop2Report(verdict(worst, 0.0, ROUND_TOL), worst, lo, hi, dec.n, dec.measure_name)


@dataclass(frozen=True)
class ChatterjiReport:
    """Both sides of the martingale-difference moment inequality, plus the moment chain."""

    measure_name: str
    n: int
    p: float
    lhs: float
    rhs: float
    holds: bool
    chain_bound: float
    chain_holds: bool


def chatterji_check(decomposition: MartingaleDecomposition, p: float) -> ChatterjiReport:
    """Verify ``E|sum D_i|^p <= 2^(2-p) * sum E|D_i|^p`` on an exact decomposition.

    Also verifies the moment chain ``E|sum D_i|^p <= 4 n max_P E_P[|x|^p]``
    that feeds the rate bound with p = 1 + alpha.
    """
    if not 1.0 <= p <= 2.0:
        raise POutOfRange(f"p must be in [1, 2], got {p}")
    dec = decomposition
    d = dec.diffs
    probs = dec.path_probs
    with np.errstate(over="raise"):  # a moment past the float range raises FloatingPointError, not a warning
        lhs = float(probs @ np.abs(d.sum(axis=1)) ** p)
        rhs = 2.0 ** (2.0 - p) * float((probs[:, None] * np.abs(d) ** p).sum())
    _require_valid(dec.family)
    chain_bound = 4.0 * dec.n * max(_abs_moments(dec.family, p))
    return ChatterjiReport(
        dec.measure_name,
        dec.n,
        float(p),
        lhs,
        rhs,
        verdict(lhs, rhs, ROUND_TOL),
        chain_bound,
        verdict(lhs, chain_bound, BOUND_TOL),
    )


def _check_sampling(
    family: AmbiguityFamily, measure: PathMeasure, n: int, count: int, seed: int
) -> tuple[int, int, int]:
    """The admitted n, count and seed as Python ints; count and seed pass ``_is_int`` as n does."""
    n = _admit(family, measure, n)
    if not _is_int(count) or count < 0:
        raise ValueError(f"count must be an integer >= 0, got {count!r}")
    if not _is_int(seed) or not 0 <= seed < 2**64:
        raise ValueError(f"seed must be an unsigned 64-bit integer, got {seed!r}")
    return n, int(count), int(seed)


def _stepwise_blocks(
    family: AmbiguityFamily, measure: PathMeasure, n: int, count: int, seed: int, indices: bool = False
):
    """Yield ``(first_path, block)`` for consecutive blocks of whole paths, step-major.

    ``block`` holds the atom values ``(n, rows)``, entry (k, p) the atom of
    path ``first_path + p`` at step k, or with ``indices`` each path's
    window index at step n ``(rows,)`` as int64.  The inverse-CDF kernel of
    every measure.  A block holds a multiple of 8 paths, about
    ``_BLOCK_UNIFORMS`` fields, and draws its slice of the stream as raw
    outputs (see :mod:`sublln.rng`).  Each output is read as F = 64/b
    fields of b bits: path p at step k reads field ``p mod F``, bits
    ``[b*(p mod F), b*(p mod F) + b)``, of output ``(p div F)*n + k``.  The
    width b is the fewest of 8, 16 and 32 bits for which every kept
    threshold ``t`` in ``(0, 2^32)`` (below) is a multiple of ``2^(32-b)``;
    a rule or a policy, whose thresholds arrive per path, keeps 32-bit
    fields.  A field f then stands for the 32-bit words ``w`` with
    ``w >> (32-b) == f``, all of which draw the same atom, since
    ``w >= t`` exactly when ``f >= t >> (32-b)``; so each atom keeps its
    probability ``(t_j - t_{j-1}) * 2^-32``, and a 32-bit field is the word
    itself, its uniform ``u = w * 2^-32``.  The counter offsets, built once
    per call, are permuted so that output (k, j) of a block is stream index
    ``(first_path/F + j)*n + k``; the block's ``(n, rows/F)`` outputs,
    viewed as little-endian b-bit fields, are then the step-major
    ``(n, rows)`` field block, with no copy.  So a threshold comparison is
    one contiguous pass over the block, and a rule reads row k.  The atom
    index at step k is the count ``sum_{j<last} (w >= ceil(cum_k[j] * 2^32))``:
    scaling by 2^32 is exact, so this is ``sum_{j<last} (u >= cum_k[j])``,
    which equals ``min(searchsorted(cum_k, u, side="right"), last)`` as
    every CDF ``cum_k`` is nondecreasing.

    A ``depends_on == "none"`` measure's thresholds are built once per call,
    atom-major, and each boundary j adds its increment wherever
    ``w >= t_j``: 1 for an atom index, which is then gathered, or the
    index gap ``shifts[j+1] - shifts[j]`` for a window index.  A window
    index sums each boundary's ``(n, rows)`` hit mask over the steps as
    uint64 lanes, eight paths to an add; a byte lane holds at most 255 hits
    without a carry, so the steps are summed in chunks of 255.  Since
    ``0 <= w < 2^32``, a boundary whose threshold is ``2^32`` or above at
    every step never fires and is dropped, and one whose threshold is 0 at
    every step always fires and is folded into a base count that every
    count starts from.  Boundaries with equal thresholds at every step
    (adjacent, as every CDF is nondecreasing) are merged into one with the
    summed increment.  When no boundary is left (P* on a single member),
    every count is the base: all paths come as one read-only zero-stride
    block, and nothing is drawn or looped over.  When every step's
    remaining thresholds are equal (every :meth:`PathMeasure.constant`, so
    P* and the uniform mixture), each is compared as a field-width
    unsigned scalar; otherwise each comparison broadcasts one column of
    per-step thresholds over the block.  Counts are kept in the smallest
    unsigned dtype that holds the total of all increments, and window
    indices in the smallest that holds n times it, widened to int64.  A
    rule or policy is read once per (path, step) through ``_rule_weights``.
    The outputs, the mix's scratch, the mask, the counts and the counter
    offsets are allocated once per call, each at most one block (a ragged
    last block takes views and counts of its own), whatever ``count`` is.
    """
    coords, atoms, w_matrix = family.union_atoms()
    grid = _grid(family)
    shifts = grid.index(1, coords)  # each atom's index at step 1; a path's index at step n adds its atoms'
    last = len(atoms) - 1
    bits = 32  # a rule or a policy reads 32-bit fields
    if measure.depends_on == "none":
        cum = np.array([np.cumsum(w_matrix @ measure.mixture_weights(k)) for k in range(n)]).T.copy()
        table = np.ceil(cum[:last] * 2.0**32).astype(np.int64)
        table_increments = np.diff(shifts).tolist() if indices else [1] * last
        steps_per_entry = n if indices else 1  # a path's index adds up the increments of its n steps
        acc_dtype = np.min_scalar_type(steps_per_entry * sum(table_increments))
        base, kept, increments = 0, [], []
        for row, inc in zip(table, table_increments):
            if row.min() >= 2**32:
                continue
            if row.max() <= 0:
                base += inc
            elif kept and np.array_equal(row, kept[-1]):
                increments[-1] += inc
            else:
                kept.append(row)
                increments.append(inc)
        if not kept:
            if indices:
                yield 0, np.broadcast_to(np.int64(n * base), (count,))
            else:
                yield 0, np.broadcast_to(atoms[base], (n, count))
            return
        thresholds = np.array(kept, dtype=np.int64)
        live = thresholds[(thresholds > 0) & (thresholds < 2**32)]
        bits = next(b for b in (8, 16, 32) if not (live % (1 << (32 - b))).any())
        thresholds = thresholds[:, :, None] >> (32 - bits)  # one column of per-step field thresholds each
        if (thresholds == thresholds[:, :1]).all():
            field = np.dtype(f"u{bits // 8}")
            thresholds = [field.type(t) for t in thresholds[:, 0, 0].tolist()]  # each in [1, 2^bits)
    per_output = 64 // bits  # paths that share each output, one field each
    rows = 8 * max(1, _BLOCK_UNIFORMS // (8 * n))  # whole uint64 lanes of the hit mask
    groups = rows // per_output  # outputs per step of a block
    step_offsets = counter_offsets(n)  # k * GAMMA
    group_offsets = counter_offsets(groups) * np.uint64(n)  # j * n * GAMMA
    size = groups * n
    # three slices of one cache-aligned array, each start 2 KiB past a multiple of 4 KiB from the last: a mix
    # pass whose input and output sit a few bytes apart within a page, or off a cache line, runs 20-45 % slower
    stride = size + (256 - size) % 512
    arena = _aligned(lambda k: np.empty(k, dtype=np.uint64), 3 * stride)
    offsets, buffer, scratch = (arena[i * stride : i * stride + size] for i in range(3))
    np.add.outer(step_offsets, group_offsets, out=offsets.reshape(n, groups))
    mask = np.zeros(rows * n, dtype=bool)  # a ragged block's padding lanes hold 0 or 1, so they never carry

    def counters(r):
        """For r paths: their hit mask, the calls that sum it over the steps, the hits added after each, the counts."""
        hit = mask[: n * -(-r // 8) * 8].reshape(n, -1)
        if not indices:
            return hit[:, :r], [lambda: None], hit[:, :r].view(np.uint8), np.empty((n, r), dtype=acc_dtype)
        lanes = hit.view(np.uint64)  # an add covers eight paths; a byte lane holds 255 hits without a carry
        sums = np.empty(lanes.shape[1], dtype=np.uint64)
        chunks = [partial(np.add.reduce, lanes[k : k + 255], axis=0, out=sums) for k in range(0, n, 255)]
        return hit[:, :r], chunks, sums.view(np.uint8)[:r], np.empty(r, dtype=acc_dtype)

    full = counters(rows) if measure.depends_on == "none" else None  # the views of every block but a ragged last
    for p0 in range(0, count, rows):
        r = min(rows, count - p0)
        q = -(-r // per_output)  # a ragged last block leaves the high fields of its last outputs unread
        if q < groups:  # the last block: its offsets overwrite the first n * q
            offsets = np.add.outer(step_offsets, group_offsets[:q], out=offsets[: n * q].reshape(n, q)).ravel()
        out = outputs(seed, p0 // per_output * n, offsets, buffer[: n * q], scratch)
        if not np.little_endian:
            out.byteswap(inplace=True)  # so that field 0 of each output comes first
        words = out.view(f"<u{bits // 8}").reshape(n, per_output * q)[:, :r]
        if measure.depends_on == "none":
            hit, chunks, hits, acc = full if r == rows else counters(r)
            acc.fill(steps_per_entry * base)
            for t, inc in zip(thresholds, increments):
                np.greater_equal(words, t, out=hit)
                for sum_steps in chunks:
                    sum_steps()
                    acc += hits if inc == 1 else hits * acc_dtype.type(inc)
            if indices:
                yield p0, acc.astype(np.int64)
            else:
                yield p0, atoms.take(acc.astype(np.intp))
        else:
            paths, index = _rule_paths(grid, measure, words, shifts, atoms, w_matrix)
            yield p0, index if indices else paths


def _rule_paths(
    grid, measure: PathMeasure, words: np.ndarray, shifts, atoms, w_matrix
) -> tuple[np.ndarray, np.ndarray]:
    """Step-major atom values and window indices of one block under a rule or a policy, via ``_rule_weights``.

    Step k reads row k of the 32-bit words.  A history rule reads each path's
    history tuple, which grows by one atom per step.
    """
    paths = np.empty(words.shape)
    index = np.zeros(words.shape[1], dtype=np.int64)
    histories = [()] * words.shape[1] if measure.depends_on == "history" else None
    for k, row in enumerate(words):
        weights = _rule_weights(measure, grid, k, index, histories)
        cum = np.cumsum([w_matrix @ w for w in weights], axis=1)[:, :-1]
        idx = np.sum(row[:, None] >= np.ceil(cum * 2.0**32).astype(np.int64), axis=1)
        index += shifts.take(idx)
        paths[k] = atoms.take(idx)
        if histories is not None:
            histories = [h + (a,) for h, a in zip(histories, paths[k].tolist())]
    return paths, index


def sample_paths(
    family: AmbiguityFamily,
    measure: PathMeasure,
    n: int,
    count: int,
    seed: int,
) -> np.ndarray:
    """Draw ``count`` atom paths of length n under the measure, reproducibly.

    Path p at step k reads field ``p mod F`` of the deterministic stream
    output at index ``(p div F)*n + k``, F = 64/b fields of b bits to an
    output, with b the fewest of 8, 16 and 32 bits that hold every CDF
    threshold of a law that depends only on the step, and 32 for a rule or
    a policy (see :mod:`sublln.rng`).  The field f is the uniform
    ``f * 2^-b``; the realized atom is the first one, in increasing value
    order, whose cumulative mixture probability exceeds the uniform.
    Identical (seed, inputs) give bit-identical samples.  Paths are drawn
    in blocks, each from its own slice of the same stream, so the block
    size never changes a sample.
    """
    n, count, seed = _check_sampling(family, measure, n, count, seed)
    out = np.empty((count, n))
    for p0, block in _stepwise_blocks(family, measure, n, count, seed):
        out[p0 : p0 + block.shape[1]] = block.T
    return out


def sample_sum_counts(
    family: AmbiguityFamily,
    measure: PathMeasure,
    n: int,
    count: int,
    seed: int,
) -> np.ndarray:
    """How many of the ``count`` paths of :func:`sample_paths` reach each sum of n atoms.

    Entry i counts the paths whose sum is the lattice sum at window index i
    of step n on the family's grid (``_Grid.sums``), the gcd-reduced window
    of ``SumSupport.masks[n]`` with its ``n * span / gcd + 1`` entries.
    Paths are drawn with the field layout of :func:`sample_paths` and
    counted block by block (``np.bincount`` of each block's window indices,
    each a sum of uint64 lanes of hits over the steps), so memory is one
    block plus the counters, whatever ``count`` is.  The per-path sums are
    ``sample_paths(...).sum(axis=1)``.
    """
    n, count, seed = _check_sampling(family, measure, n, count, seed)
    counts = np.zeros(_grid(family).size(n), dtype=np.int64)
    for _, index in _stepwise_blocks(family, measure, n, count, seed, indices=True):
        if index.strides == (0,):  # no boundary left: one index for every path, and nothing drawn
            np.add.at(counts, index[:1], len(index))
        else:
            counts += np.bincount(index, minlength=counts.size)
    return counts


@dataclass(frozen=True)
class LowerBoundReport:
    """The lower half of the rate bound, verified through the pinned product measure."""

    n: int
    mu_star: float
    phi_mu_star: float
    e_pstar: float
    e_upper: float
    lower_gap: float
    upper_dominates: bool
    step_mean: float
    step_mean_error: float
    bound_theorem3: dict[float, float]
    lower_holds: dict[float, bool]

    @property
    def all_hold(self) -> bool:
        return self.upper_dominates and all(self.lower_holds.values())


def lower_bound_reports(
    family: AmbiguityFamily,
    phi: LipschitzFunction,
    ns: Sequence[int],
    limit: IntervalMaxResult,
    pstar: PathMeasure,
    e_pstars: Sequence[float],
    e_uppers: Sequence[float],
    c_alpha: Mapping[float, float],
) -> list[LowerBoundReport]:
    """Per-n lower-chain reports of ``ns`` from the limit search, ``pstar``, ``e_pstars``, ``e_uppers`` and ``c_alpha``.

    The measure ``pstar`` pinning every step's mean at ``mu_star = limit.argmax_r`` must be
    dominated by the worst case, its per-step mean must equal ``mu_star``, and
    ``phi(mu_star) - E[phi(S_n/n)]`` must stay within the rate bound for each alpha.  ``ns``,
    ``e_pstars`` and ``e_uppers`` must have equal lengths (else ValueError).
    """
    mu_star = limit.argmax_r
    step_mean = float(pstar.mixture_weights(0) @ family.member_means())
    reports = []
    for n, e_pstar, e_upper in zip(ns, e_pstars, e_uppers, strict=True):
        lower_gap = limit.max_value - e_pstar
        bounds = {a: theorem3_bound(phi.lipschitz_constant, c, a, n) for a, c in c_alpha.items()}
        reports.append(
            LowerBoundReport(
                n=n,
                mu_star=mu_star,
                phi_mu_star=limit.max_value,
                e_pstar=e_pstar,
                e_upper=e_upper,
                lower_gap=lower_gap,
                upper_dominates=verdict(e_pstar, e_upper, ROUND_TOL),
                step_mean=step_mean,
                step_mean_error=abs(step_mean - mu_star),
                bound_theorem3=bounds,
                lower_holds={a: verdict(lower_gap, b, ROUND_TOL) for a, b in bounds.items()},
            )
        )
    return reports


def lower_bound_checks(
    family: AmbiguityFamily,
    phi: LipschitzFunction,
    ns: Sequence[int],
    alphas: Sequence[float] = DEFAULT_ALPHAS,
    state_cap: int = DEFAULT_STATE_CAP,
) -> list[LowerBoundReport]:
    """:func:`lower_bound_reports` with the limit found once, one batched backward sweep and one weighted P* sweep."""
    state_cap = _check_state_cap(state_cap)
    moments = moment_summary(family, alphas)
    ns = [_check_n(n) for n in ns]
    limit = interval_max(phi, moments.mu_lower, moments.mu_upper)
    e_uppers = payoff_expectations(family, [phi], ns, state_cap)[0]
    pstar = construct_pstar(family, limit.argmax_r, max(ns, default=1))
    e_pstars = payoff_expectations(family, [phi], ns, state_cap, pstar)[0]
    return lower_bound_reports(family, phi, ns, limit, pstar, e_pstars, e_uppers, moments.c_alpha)


def lower_bound_check(
    family: AmbiguityFamily,
    phi: LipschitzFunction,
    n: int,
    alphas: Sequence[float] = DEFAULT_ALPHAS,
    state_cap: int = DEFAULT_STATE_CAP,
) -> LowerBoundReport:
    """:func:`lower_bound_checks` for a single horizon."""
    return lower_bound_checks(family, phi, [n], alphas, state_cap)[0]
