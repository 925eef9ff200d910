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
    _is_int,
    _lattice_sums,
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
    "sample_path_sums",
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
    n = _admit(family, measure, n)
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
    dec = decomposition or conditional_means(family, measure, n, state_cap)
    d = dec.diffs
    probs = dec.path_probs
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


def _exact_lattice_sums(family: AmbiguityFamily, n: int) -> bool:
    """Whether every float sum of n union atoms, in any order, equals ``_lattice_sums`` of its coordinate sum.

    ``origin``, ``step`` and the atoms are finite floats, so each is an
    integer multiple of ``2^-e`` for the largest exponent e of their
    denominators.  While n times the largest magnitude among the terms of
    ``_lattice_sums(lattice, n, C)`` (``origin`` and ``c * step`` per
    atom) and the atoms stays below ``2^(53-e)``, every partial sum of n
    atoms, ``n * origin``, ``C * step`` and their sum are multiples of
    ``2^-e`` below ``2^53 * 2^-e`` in magnitude, hence exact.  If every
    atom also equals ``origin + c*step`` in floats, both sides are the
    same exact number and the same bits.  That test rules out an atom 1
    ulp off the lattice, and an atom ``-0.0``: whether a sum of ``-0.0``
    keeps its sign depends on where the reduction starts, while
    ``_lattice_sums`` gives ``+0.0``.  A step of 0.1 is a multiple of
    ``2^-55`` only, so it passes only while n times the largest term stays
    below 1/4.
    """
    coords, atoms, _ = family.union_atoms()
    lattice = family.lattice
    if not np.array_equal(atoms.view(np.uint64), _lattice_sums(lattice, 1, coords).view(np.uint64)):
        return False
    ratios = [x.as_integer_ratio() for x in (lattice.origin, lattice.step, *atoms.tolist())]
    scale = max(den for _, den in ratios)  # 2^e
    origin, step, *scaled = (num * (scale // den) for num, den in ratios)
    largest = max(abs(origin), max(map(abs, coords.tolist())) * step, *map(abs, scaled))
    return n * largest < 2**53


def _stepwise_blocks(
    family: AmbiguityFamily, measure: PathMeasure, n: int, count: int, seed: int, coord_sums: bool = False
):
    """Yield ``(first_path, block)`` for consecutive blocks of whole paths.

    ``block`` holds the atom values ``(rows, n)``, or with ``coord_sums``
    each path's integer coordinate sum ``(rows,)`` as int64.  The
    inverse-CDF kernel of every measure.  Each block of about
    ``_BLOCK_UNIFORMS`` uniforms draws its slice
    ``[first_path*n, (first_path+rows)*n)`` of the stream, as 53-bit
    mantissas m (``u = m * 2^-53``), through counter offsets built once per
    call (see :mod:`sublln.rng`).  The atom index at step k is the count
    ``sum_{j<last} (m >= ceil(cum_k[j] * 2^53))``: scaling by 2^53 is exact,
    so this is ``sum_{j<last} (u >= cum_k[j])``, which equals
    ``min(searchsorted(cum_k, u, side="right"), last)`` as every CDF
    ``cum_k`` is nondecreasing.

    A ``depends_on == "none"`` measure's thresholds are built once per call,
    atom-major, and each boundary j adds its increment wherever
    ``m >= t_j``: 1 for an atom index, which is then gathered, or the
    coordinate gap ``coords[j+1] - coords[j]`` for a coordinate sum.  Since
    ``0 <= m < 2^53``, a boundary whose threshold is ``2^53`` or above at
    every step never fires and is dropped, and one whose threshold is 0 at
    every step always fires and is folded into a base count that every
    count starts from.  Boundaries with equal thresholds at every step
    (adjacent, as every CDF is nondecreasing) are merged into one with the
    summed increment.  When no boundary is left (P* on a single member),
    every count is the base: all paths come as one read-only zero-stride
    block, and nothing is drawn or looped over.  When every step's
    remaining thresholds are equal (every :meth:`PathMeasure.constant`, so
    P* and the uniform mixture), each is compared as a Python-int scalar;
    otherwise each comparison broadcasts one contiguous row over the block.
    Counts are kept in the smallest unsigned dtype that holds the total of
    all increments (a unit increment is the bool mask viewed as uint8); a
    coordinate sum sums each row in the smallest unsigned dtype that holds
    n times that total, widened to int64 and offset by ``n * coords[0]``.
    A rule or policy is read once per (path, step) through ``_rule_weights``.
    """
    coords, atoms, w_matrix = family.union_atoms()
    last = len(atoms) - 1
    if measure.depends_on == "none":
        cum = np.array([np.cumsum(w_matrix @ measure.mixture_weights(k)) for k in range(n)]).T.copy()
        table = np.ceil(cum[:last] * 2.0**53).astype(np.int64)
        table_increments = np.diff(coords).tolist() if coord_sums else [1] * last
        count_dtype = np.min_scalar_type(sum(table_increments))
        sum_dtype = np.min_scalar_type(n * sum(table_increments))
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
            if coord_sums:
                yield 0, np.broadcast_to(np.int64(n * (base + int(coords[0]))), (count,))
            else:
                yield 0, np.broadcast_to(atoms[base], (count, n))
            return
        thresholds = np.array(kept, dtype=np.int64)
        if (thresholds == thresholds[:, :1]).all():
            thresholds = thresholds[:, 0].tolist()
    rows = max(1, _BLOCK_UNIFORMS // n)
    offsets = counter_offsets(rows * n)
    buffer = np.empty(rows * n, dtype=np.uint64)
    for p0 in range(0, count, rows):
        r = min(rows, count - p0)
        m = mantissas(seed, p0 * n, offsets, buffer[: r * n]).view(np.int64).reshape(r, n)
        if measure.depends_on == "none":
            acc = np.full((r, n), base, dtype=count_dtype)
            mask = np.empty((r, n), dtype=bool)
            for t, inc in zip(thresholds, increments):
                np.greater_equal(m, t, out=mask)
                if inc == 1:
                    acc += mask.view(np.uint8)
                else:
                    acc += mask.view(np.uint8) * count_dtype.type(inc)
            if coord_sums:
                yield p0, acc.sum(axis=1, dtype=sum_dtype).astype(np.int64) + n * int(coords[0])
            else:
                yield p0, atoms.take(acc.astype(np.intp))
        else:
            paths, sums = _rule_paths(family.lattice, measure, m, coords, atoms, w_matrix)
            yield p0, sums if coord_sums else paths


def _rule_paths(lattice, measure: PathMeasure, m: np.ndarray, coords, atoms, w_matrix) -> tuple[np.ndarray, np.ndarray]:
    """Atom values and integer coordinate sums of one block under a rule or a policy, via ``_rule_weights``."""
    paths = np.empty(m.shape)
    coord_sums = np.zeros(len(m), dtype=np.int64)
    for k in range(m.shape[1]):
        weights = _rule_weights(measure, lattice, k, coord_sums, paths[:, :k])
        cum = np.cumsum([w_matrix @ w for w in weights], axis=1)[:, :-1]
        idx = np.sum(m[:, k, None] >= np.ceil(cum * 2.0**53).astype(np.int64), axis=1)
        coord_sums += coords.take(idx)
        paths[:, k] = atoms.take(idx)
    return paths, coord_sums


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
        out[p0 : p0 + len(block)] = block
    return out


def sample_path_sums(
    family: AmbiguityFamily,
    measure: PathMeasure,
    n: int,
    count: int,
    seed: int,
) -> np.ndarray:
    """Per-path sums of :func:`sample_paths`, bit for bit ``sample_paths(...).sum(axis=1)``.

    When ``_exact_lattice_sums`` proves every float sum of n atoms exact
    (every shipped config and corpus family), each path's sum is
    ``_lattice_sums(lattice, n, C)`` of its integer coordinate sum C and
    no atom is gathered.  Otherwise (a step such as 0.1) each block is
    gathered and summed row by row as it is drawn (numpy's row reduction
    depends only on the row).  Either way memory is one block plus the
    ``count`` sums.
    """
    n, count, seed = _check_sampling(family, measure, n, count, seed)
    exact = _exact_lattice_sums(family, n)
    out = np.empty(count)
    for p0, block in _stepwise_blocks(family, measure, n, count, seed, coord_sums=exact):
        if exact:
            _lattice_sums(family.lattice, n, block, out=out[p0 : p0 + len(block)])
        else:
            out[p0 : p0 + len(block)] = block.sum(axis=1)
    return out


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
    """:func:`lower_bound_reports` with the limit found once, one batched backward sweep and one P* forward pass."""
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
