"""Constructed worst-case measures and measure-level diagnostics.

Every history-dependent mixture of family members induces a genuine
probability measure dominated by the worst-case expectation.  This module
builds such measures explicitly (notably the product measure that pins
every step's mean at the limit maximizer), enumerates their exact
martingale decompositions for small horizons, verifies the conditional
mean containment and Chatterji's moment inequality, and draws
reproducible Monte Carlo paths for larger horizons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .ambiguity import (
    AmbiguityFamily,
    _require_valid,
    mean_bounds,
    moment_c_alpha,
    one_step_expectation,
)
from .engine import (
    DEFAULT_STATE_CAP,
    PolicyIncomplete,
    SelectionPolicy,
    SupportOverflow,
    _check_weights,
    expectation_under_policy,
    iid_sum_expectation,  # unused here; kept bound for perfbench's span tracer
    iid_sum_expectations,
)
from .lln_rates import IntervalMaxResult, LipschitzFunction, interval_max, theorem3_bound
from .rng import counter_offsets, mantissas, unit_at
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

DEFAULT_ENUM_STEPS = 8
_BLOCK_UNIFORMS = 1 << 15  # uniforms per sampling block (256 KiB of float64)


class MuStarOutOfRange(ValueError):
    """The pinned mean must lie in the family's mean interval."""


class POutOfRange(ValueError):
    """Chatterji's inequality needs a moment order p in [1, 2]."""


class PathMeasure:
    """History-dependent mixture of family members, one weight vector per state.

    ``depends_on`` declares what the rule reads: "none" (a fixed mixture per
    step), "sum" (the running sum), or "history" (the realized atom tuple).
    Evaluators pick exact propagation strategies accordingly; only
    genuinely history-dependent rules require walking the history tree.
    """

    __slots__ = ("horizon", "member_count", "depends_on", "name", "_rule")

    def __init__(self, horizon: int, member_count: int, rule: Callable, depends_on: str, name: str):
        if depends_on not in ("none", "sum", "history"):
            raise ValueError(f"unknown dependence tag {depends_on!r}")
        self.horizon = int(horizon)
        self.member_count = int(member_count)
        self.depends_on = depends_on
        self.name = name
        self._rule = rule

    def __repr__(self):
        return f"PathMeasure({self.name!r}, horizon={self.horizon}, depends_on={self.depends_on!r})"

    def mixture_weights(self, step: int, total: float | None = None, history: tuple | None = None) -> np.ndarray:
        if self.depends_on == "none":
            w = self._rule(step)
        elif self.depends_on == "sum":
            if total is None and history is not None:
                total = math.fsum(history)
            w = self._rule(step, total)
        else:
            if history is None:
                raise PolicyIncomplete(f"measure {self.name!r} needs the realized history")
            w = self._rule(step, history)
        return _check_weights(w, self.member_count)

    @classmethod
    def constant(cls, weights: Sequence[float], horizon: int, name: str = "const-mixture") -> "PathMeasure":
        w = np.asarray(weights, dtype=float).copy()
        return cls(horizon, len(w), lambda step: w, "none", name)

    @classmethod
    def from_sum_rule(cls, rule: Callable, horizon: int, member_count: int, name: str = "sum-rule") -> "PathMeasure":
        return cls(horizon, member_count, rule, "sum", name)

    @classmethod
    def from_history_rule(cls, rule: Callable, horizon: int, member_count: int, name: str = "history-rule") -> "PathMeasure":
        return cls(horizon, member_count, rule, "history", name)

    @classmethod
    def from_policy(cls, policy: SelectionPolicy, member_count: int, name: str = "policy") -> "PathMeasure":
        def rule(step, total):
            w = np.zeros(member_count)
            w[policy.member_at(step, total)] = 1.0
            return w

        return cls(policy.horizon, member_count, rule, "sum", name)


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
    if not (lo - 1e-12 <= mu_star <= hi + 1e-12):
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
    max_steps: int = DEFAULT_ENUM_STEPS,
) -> MartingaleDecomposition:
    """Exact conditional means by full path enumeration (small n only)."""
    _require_valid(family)
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    if n > max_steps:
        raise SupportOverflow(f"exact enumeration is limited to {max_steps} steps, got n={n}")
    if measure.horizon < n:
        raise PolicyIncomplete(f"measure horizon {measure.horizon} is shorter than n={n}")
    _, atoms, w_matrix = family.union_atoms()
    n_atoms = len(atoms)
    if n_atoms**n > state_cap:
        raise SupportOverflow(f"{n_atoms}^{n} paths exceed the cap of {state_cap}")

    paths = np.zeros((1, 0))
    probs = np.array([1.0])
    cmeans = np.zeros((1, 0))
    for k in range(n):
        rows = paths.shape[0]
        if measure.depends_on == "none":
            omega = np.tile(measure.mixture_weights(k), (rows, 1))
        elif measure.depends_on == "sum":
            omega = np.stack(
                [measure.mixture_weights(k, total=math.fsum(paths[r])) for r in range(rows)]
            )
        else:
            omega = np.stack(
                [measure.mixture_weights(k, history=tuple(paths[r])) for r in range(rows)]
            )
        q = omega @ w_matrix.T
        cm = q @ atoms
        paths = np.hstack([np.repeat(paths, n_atoms, axis=0), np.tile(atoms, rows)[:, None]])
        cmeans = np.hstack([np.repeat(cmeans, n_atoms, axis=0), np.repeat(cm, n_atoms)[:, None]])
        probs = (probs[:, None] * q).reshape(-1)
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
    return Prop2Report(bool(worst <= 1e-12), worst, int(s) + 1, int(p), lo, hi, dec.n, dec.measure_name)


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
        bool(lhs <= rhs + 1e-12),
        chain_bound,
        bool(lhs <= chain_bound + 1e-9),
    )


def _check_sampling(family: AmbiguityFamily, measure: PathMeasure, n: int, count: int, seed: int) -> None:
    _require_valid(family)
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be an unsigned 64-bit integer, got {seed}")
    if measure.horizon < n:
        raise PolicyIncomplete(f"measure horizon {measure.horizon} is shorter than n={n}")


def _stepwise_blocks(family: AmbiguityFamily, measure: PathMeasure, n: int, count: int, seed: int):
    """Yield ``(first_path, atom_values)`` for consecutive blocks of whole paths.

    The inverse-CDF kernel for ``depends_on == "none"`` measures.  Each block
    of about ``_BLOCK_UNIFORMS`` uniforms draws its slice
    ``[first_path*n, (first_path+rows)*n)`` of the stream, as 53-bit
    mantissas m (the uniform is ``u = m * 2^-53``).  The atom index at step k
    is the comparison count ``sum_{j<last} (u >= cum_k[j])``, which equals
    ``min(searchsorted(cum_k, u, side="right"), last)`` because every CDF
    ``cum_k`` is nondecreasing.  Built once per call, not per block:

    - the integer thresholds ``ceil(cum * 2^53)``: ``m * 2^-53 >= c`` holds
      exactly when ``m >= ceil(c * 2^53)``, and scaling by 2^53 is exact, so
      the int64 comparisons have the float test's outcome;
    - that table stored atom-major, so each comparison broadcasts one
      contiguous row over the block;
    - the stream's counter offsets, shared by every block (see
      :mod:`sublln.rng`).

    The count is kept in the smallest unsigned dtype that holds ``last``
    (one byte up to 256 atoms), adding each bool mask viewed as uint8, and
    cast to ``intp`` once for ``atoms.take``.
    """
    _, atoms, w_matrix = family.union_atoms()
    last = len(atoms) - 1
    cum = np.array([np.cumsum(w_matrix @ measure.mixture_weights(k)) for k in range(n)]).T.copy()
    thresholds = np.ceil(cum[:last] * 2.0**53).astype(np.int64)
    count_dtype = np.min_scalar_type(last)
    rows = max(1, _BLOCK_UNIFORMS // n)
    offsets = counter_offsets(rows * n)
    buffer = np.empty(rows * n, dtype=np.uint64)
    for p0 in range(0, count, rows):
        r = min(rows, count - p0)
        m = mantissas(seed, p0 * n, offsets, buffer[: r * n]).view(np.int64).reshape(r, n)
        idx = np.zeros((r, n), dtype=count_dtype)
        mask = np.empty((r, n), dtype=bool)
        for row in thresholds:
            np.greater_equal(m, row, out=mask)
            idx += mask.view(np.uint8)
        yield p0, atoms.take(idx.astype(np.intp))


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
    bit-identical samples.  Measures that read neither the running sum nor
    the history are sampled in blocks of whole paths, each drawing its own
    slice of the same stream, so the block size never changes a sample.
    :func:`sample_path_sums` returns the row sums of this array bit for bit
    without holding it: its memory is one block plus the ``count`` sums,
    independent of n.
    """
    _check_sampling(family, measure, n, count, seed)
    out = np.empty((count, n))
    if count == 0:
        return out
    if measure.depends_on == "none":
        for p0, block in _stepwise_blocks(family, measure, n, count, seed):
            out[p0 : p0 + len(block)] = block
        return out
    _, atoms, w_matrix = family.union_atoms()
    last = len(atoms) - 1
    for pth in range(count):
        hist: tuple[float, ...] = ()
        total = 0.0
        for k in range(n):
            w = measure.mixture_weights(k, total=total, history=hist)
            cum = np.cumsum(w_matrix @ w)
            u = unit_at(seed, pth * n + k)
            a = min(int(np.searchsorted(cum, u, side="right")), last)
            out[pth, k] = atoms[a]
            hist = hist + (float(atoms[a]),)
            total += float(atoms[a])
    return out


def sample_path_sums(
    family: AmbiguityFamily,
    measure: PathMeasure,
    n: int,
    count: int,
    seed: int,
) -> np.ndarray:
    """Per-path sums of :func:`sample_paths`, bit for bit ``sample_paths(...).sum(axis=1)``.

    For ``depends_on == "none"`` measures the paths are never held all at
    once: each block is summed row by row as it is drawn (numpy's row
    reduction depends only on the row), so memory is one block plus the
    ``count`` sums, whatever n is.
    """
    if measure.depends_on != "none":
        return sample_paths(family, measure, n, count, seed).sum(axis=1)
    _check_sampling(family, measure, n, count, seed)
    out = np.empty(count)
    for p0, block in _stepwise_blocks(family, measure, n, count, seed):
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
    e_uppers: Sequence[float],
    c_alpha: Mapping[float, float],
    state_cap: int = DEFAULT_STATE_CAP,
) -> list[LowerBoundReport]:
    """Per-n lower-chain reports from the limit search, the worst cases ``e_uppers`` of ``ns`` and ``c_alpha``.

    The measure pinning every step's mean at ``mu_star = limit.argmax_r`` must be
    dominated by the worst case, its per-step mean must equal ``mu_star``, and
    ``phi(mu_star) - E[phi(S_n/n)]`` must stay within the rate bound for each alpha.
    """
    mu_star = limit.argmax_r
    measure = construct_pstar(family, mu_star, max(ns, default=1))
    step_mean = float(measure.mixture_weights(0) @ family.member_means())
    reports = []
    for n, e_upper in zip(ns, e_uppers):
        e_pstar = expectation_under_policy(family, n, phi, measure, state_cap)
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
                upper_dominates=bool(e_pstar <= e_upper + 1e-12),
                step_mean=step_mean,
                step_mean_error=abs(step_mean - mu_star),
                bound_theorem3=bounds,
                lower_holds={a: bool(lower_gap <= b + 1e-12) for a, b in bounds.items()},
            )
        )
    return reports


def lower_bound_checks(
    family: AmbiguityFamily,
    phi: LipschitzFunction,
    ns: Sequence[int],
    alphas: Sequence[float] = (0.25, 0.5, 0.75, 1.0),
    state_cap: int = DEFAULT_STATE_CAP,
) -> list[LowerBoundReport]:
    """:func:`lower_bound_reports` with the limit found once and every worst case from one batched sweep."""
    limit = interval_max(phi, *mean_bounds(family))
    e_uppers = iid_sum_expectations(family, phi, ns, state_cap)
    c_alpha = {float(a): moment_c_alpha(family, a) for a in alphas}
    return lower_bound_reports(family, phi, ns, limit, e_uppers, c_alpha, state_cap)


def lower_bound_check(
    family: AmbiguityFamily,
    phi: LipschitzFunction,
    n: int,
    alphas: Sequence[float] = (0.25, 0.5, 0.75, 1.0),
    state_cap: int = DEFAULT_STATE_CAP,
) -> LowerBoundReport:
    """:func:`lower_bound_checks` for a single horizon."""
    return lower_bound_checks(family, phi, [n], alphas, state_cap)[0]
