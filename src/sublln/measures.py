"""Constructed worst-case measures and measure-level diagnostics.

Every history-dependent mixture of family members induces a genuine
probability measure dominated by the worst-case expectation.  This module
builds such measures explicitly (notably the product measure that pins
every step's mean at the limit maximizer), enumerates their exact
martingale decompositions for horizons up to ``DEFAULT_ENUM_STEPS``,
verifies the conditional mean containment and Chatterji's moment
inequality, and draws reproducible Monte Carlo paths for larger horizons.
:class:`PathMeasure` is the engine's own class, re-exported here; every
entry point admits its measure through the engine's ``_admit``, reads every
rule and policy through its ``_rule_weights`` and enumerates with its walker.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .ambiguity import (
    DEFAULT_ALPHAS,
    AmbiguityFamily,
    _require_valid,
    mean_bounds,
    moment_c_alpha,  # unused here; kept bound for perfbench's span tracer
    moment_summary,
    one_step_expectation,
)
from .engine import (
    DEFAULT_STATE_CAP,
    PathMeasure,
    SupportOverflow,
    _admit,
    _check_n,
    _check_state_cap,
    _grid,
    _is_int,
    _rule_weights,
    _walk_histories,
    expectation_under_policy,  # unused here; kept bound for perfbench's span tracer
    expectations_under_policy,
    iid_sum_expectation,  # unused here; kept bound for perfbench's span tracer
    iid_sum_expectations,
)
from .lln_rates import BOUND_TOL, ROUND_TOL, IntervalMaxResult, LipschitzFunction, interval_max, theorem3_bound, verdict
from .rng import counter_offsets, mantissas
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
_BLOCK_UNIFORMS = 1 << 15  # uniforms per sampling block (256 KiB of float64)


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
    """Exact per-path decomposition of n draws under a constructed measure.

    ``paths[p, i]`` is the atom realized at step i+1 on path p,
    ``cond_means[p, i]`` the conditional mean of that step given the path's
    first i atoms, and ``path_probs[p]`` the path probability.  Zero
    probability histories are kept; their conditional means follow the
    measure's rule.
    """

    measure_name: str
    atom_values: np.ndarray
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
    return MartingaleDecomposition(measure.name, atoms, paths, probs, cmeans)


@dataclass(frozen=True)
class Prop2Report:
    """Containment of every conditional mean in the family's mean interval."""

    ok: bool
    worst_excess: float
    worst_step: int
    worst_path: int
    mu_lower: float
    mu_upper: float
    n: int
    measure_name: str


def prop2_check(
    family: AmbiguityFamily,
    measure: PathMeasure,
    n: int,
    state_cap: int = DEFAULT_STATE_CAP,
    decomposition: MartingaleDecomposition | None = None,
) -> Prop2Report:
    """Check that every enumerated conditional mean lies in the mean interval."""
    _check_state_cap(state_cap)
    dec = decomposition or conditional_means(family, measure, n, state_cap)
    lo, hi = mean_bounds(family)
    excess = np.maximum(dec.cond_means - hi, lo - dec.cond_means)
    p, s = np.unravel_index(int(np.argmax(excess)), excess.shape)
    worst = float(excess[p, s])
    return Prop2Report(verdict(worst, 0.0, ROUND_TOL), worst, int(s) + 1, int(p), lo, hi, dec.n, dec.measure_name)


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


def chatterji_check(
    family: AmbiguityFamily,
    measure: PathMeasure,
    n: int,
    p: float,
    state_cap: int = DEFAULT_STATE_CAP,
    decomposition: MartingaleDecomposition | None = None,
) -> ChatterjiReport:
    """Verify ``E|sum D_i|^p <= 2^(2-p) * sum E|D_i|^p`` by exact enumeration.

    Also verifies the moment chain ``E|sum D_i|^p <= 4 n max_P E_P[|x|^p]``
    that feeds the rate bound with p = 1 + alpha.
    """
    if not 1.0 <= p <= 2.0:
        raise POutOfRange(f"p must be in [1, 2], got {p}")
    _check_state_cap(state_cap)
    dec = decomposition or conditional_means(family, measure, n, state_cap)
    d = dec.diffs
    probs = dec.path_probs
    with np.errstate(over="raise"):  # a moment past the float range raises FloatingPointError, not a warning
        lhs = float(probs @ np.abs(d.sum(axis=1)) ** p)
        rhs = 2.0 ** (2.0 - p) * float((probs[:, None] * np.abs(d) ** p).sum())
    c_moment = one_step_expectation(family, lambda x: abs(x) ** p)
    chain_bound = 4.0 * dec.n * c_moment
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
    every measure.  Each block of about ``_BLOCK_UNIFORMS`` uniforms draws
    its slice ``[first_path*n, (first_path+rows)*n)`` of the stream as
    53-bit mantissas m (``u = m * 2^-53``), laid out step-major: the counter
    offsets, built once per call (see :mod:`sublln.rng`), are permuted so
    that entry (k, p) is stream index ``(first_path + p)*n + k``.  So a
    threshold comparison is one contiguous pass over the block, a path's
    count or window index is a vectorized sum over axis 0, and a rule
    reads row k.  The atom index at step k is the count
    ``sum_{j<last} (m >= ceil(cum_k[j] * 2^53))``: scaling by 2^53 is exact,
    so this is ``sum_{j<last} (u >= cum_k[j])``, which equals
    ``min(searchsorted(cum_k, u, side="right"), last)`` as every CDF
    ``cum_k`` is nondecreasing.

    A ``depends_on == "none"`` measure's thresholds are built once per call,
    atom-major, and each boundary j adds its increment wherever
    ``m >= t_j``: 1 for an atom index, which is then gathered, or the
    index gap ``shifts[j+1] - shifts[j]`` for a window index, whose
    mask is summed over the steps first.  Since ``0 <= m < 2^53``, a
    boundary whose threshold is ``2^53`` or above at every step never fires
    and is dropped, and one whose threshold is 0 at every step always fires
    and is folded into a base count that every count starts from.
    Boundaries with equal thresholds at every step (adjacent, as every CDF
    is nondecreasing) are merged into one with the summed increment.  When
    no boundary is left (P* on a single member), every count is the base:
    all paths come as one read-only zero-stride block, and nothing is drawn
    or looped over.  When every step's remaining thresholds are equal
    (every :meth:`PathMeasure.constant`, so P* and the uniform mixture),
    each is compared as a Python-int scalar; otherwise each comparison
    broadcasts one column of per-step thresholds over the block.  Counts
    are kept in the smallest unsigned dtype that holds the total of all
    increments, and window indices in the smallest that holds n times it,
    widened to int64.  A rule or policy is read once per (path, step)
    through ``_rule_weights``.  Memory is one block and its mask, whatever
    ``count`` is.
    """
    coords, atoms, w_matrix = family.union_atoms()
    grid = _grid(family)
    shifts = grid.index(1, coords)  # each atom's index at step 1; a path's index at step n adds its atoms'
    last = len(atoms) - 1
    if measure.depends_on == "none":
        cum = np.array([np.cumsum(w_matrix @ measure.mixture_weights(k)) for k in range(n)]).T.copy()
        table = np.ceil(cum[:last] * 2.0**53).astype(np.int64)
        table_increments = np.diff(shifts).tolist() if indices else [1] * last
        steps_per_entry = n if indices else 1  # a path's index adds up the increments of its n steps
        acc_dtype = np.min_scalar_type(steps_per_entry * sum(table_increments))
        base, kept, increments = 0, [], []
        for row, inc in zip(table, table_increments):
            if row.min() >= 2**53:
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
        thresholds = np.array(kept, dtype=np.int64)[:, :, None]  # one column of per-step thresholds each
        if (thresholds == thresholds[:, :1]).all():
            thresholds = thresholds[:, 0, 0].tolist()
    rows = max(1, _BLOCK_UNIFORMS // n)
    step_offsets = counter_offsets(n)  # k * GAMMA
    path_offsets = counter_offsets(rows) * np.uint64(n)  # p * n * GAMMA
    offsets = np.add.outer(step_offsets, path_offsets).ravel()
    buffer = np.empty(rows * n, dtype=np.uint64)
    mask = np.empty(rows * n, dtype=bool)
    for p0 in range(0, count, rows):
        r = min(rows, count - p0)
        if r < rows:
            offsets = np.add.outer(step_offsets, path_offsets[:r]).ravel()
        m = mantissas(seed, p0 * n, offsets, buffer[: r * n]).view(np.int64).reshape(n, r)
        if measure.depends_on == "none":
            hit = mask[: r * n].reshape(n, r)
            acc = np.full(r if indices else (n, r), steps_per_entry * base, dtype=acc_dtype)
            for t, inc in zip(thresholds, increments):
                np.greater_equal(m, t, out=hit)
                hits = hit.view(np.uint8)
                if indices:
                    hits = hits.sum(axis=0, dtype=acc_dtype)
                acc += hits if inc == 1 else hits * acc_dtype.type(inc)
            if indices:
                yield p0, acc.astype(np.int64)
            else:
                yield p0, atoms.take(acc.astype(np.intp))
        else:
            paths, index = _rule_paths(grid, measure, m, shifts, atoms, w_matrix)
            yield p0, index if indices else paths


def _rule_paths(grid, measure: PathMeasure, m: np.ndarray, shifts, atoms, w_matrix) -> tuple[np.ndarray, np.ndarray]:
    """Step-major atom values and window indices of one block under a rule or a policy, via ``_rule_weights``.

    Step k reads row k of the mantissas.  A history rule reads each path's
    history tuple, which grows by one atom per step.
    """
    paths = np.empty(m.shape)
    index = np.zeros(m.shape[1], dtype=np.int64)
    histories = [()] * m.shape[1] if measure.depends_on == "history" else None
    for k, row in enumerate(m):
        weights = _rule_weights(measure, grid, k, index, histories)
        cum = np.cumsum([w_matrix @ w for w in weights], axis=1)[:, :-1]
        idx = np.sum(row[:, None] >= np.ceil(cum * 2.0**53).astype(np.int64), axis=1)
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

    The uniform for (path p, step k) is the deterministic stream value at
    index ``p*n + k`` (see :mod:`sublln.rng`); the realized atom is the
    first one, in increasing value order, whose cumulative mixture
    probability exceeds the uniform.  Identical (seed, inputs) give
    bit-identical samples.  Paths are drawn in blocks, each from its own
    slice of the same stream, so the block size never changes a sample.
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
    Paths are counted block by block as they are drawn, so memory is one
    block plus the counters, whatever ``count`` is.  The per-path sums are
    ``sample_paths(...).sum(axis=1)``.
    """
    n, count, seed = _check_sampling(family, measure, n, count, seed)
    counts = np.zeros(_grid(family).size(n), dtype=np.int64)
    for _, index in _stepwise_blocks(family, measure, n, count, seed, indices=True):
        if index.strides == (0,):  # no boundary left: one index for every path, and nothing drawn
            np.add.at(counts, index[:1], len(index))
        else:
            np.add.at(counts, index, 1)
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
    ``phi(mu_star) - E[phi(S_n/n)]`` must stay within the rate bound for each alpha.
    """
    mu_star = limit.argmax_r
    step_mean = float(pstar.mixture_weights(0) @ family.member_means())
    reports = []
    for n, e_pstar, e_upper in zip(ns, e_pstars, e_uppers):
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
    e_uppers = iid_sum_expectations(family, phi, ns, state_cap)
    pstar = construct_pstar(family, limit.argmax_r, max(ns, default=1))
    e_pstars = expectations_under_policy(family, phi, ns, pstar, state_cap)
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
