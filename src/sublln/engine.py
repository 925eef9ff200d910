"""Exact worst-case expectations for sums of independent ambiguous draws.

Partial sums of lattice atoms stay on a (shifted) lattice, so the nested
worst-case expectation of ``phi(S_n / n)`` collapses to a backward
recursion over reachable sums:

    v_n(s) = phi(s / n)
    v_k(s) = max over members P of  sum_j P(a_j) * v_{k+1}(s + a_j)

with ``v_0(0)`` the final value.  The module also extracts the maximizing
policy and evaluates constructed selection policies and mixture measures
forward.

The backward kernel
-------------------
:func:`payoff_expectations` computes many payoffs at many horizons with one
sweep.  The map from step k+1 to step k depends on neither, so the sweep
runs from ``N = max(ns)`` down to 0 over a 2-D ``(rows, states)`` array of
``(horizon, phi)`` rows: the rows of horizon n join at step n, holding their
phi at the reachable sums of step n and zeros elsewhere, and from then on
every step's arithmetic is shared by all joined rows.  Row groups that would
exceed ``_ROW_BUDGET`` states are swept separately; rows never interact, so
the grouping does not change a value.

* **Summation order.**  A member's value is the left-to-right sum
  ``w_0 * v[s_0:] + w_1 * v[s_1:] + ...`` over its atoms in increasing value
  order, and the step value is the running ``np.maximum`` over members in
  index order (the argmax policy breaks ties to the lower index).  Results
  are therefore deterministic and do not depend on which rows share a
  sweep.
* **gcd reduction.**  Coordinates are taken relative to the smallest atom
  coordinate and divided by ``g``, the gcd of these shifts (``g = 1`` when
  all atoms coincide).  Index i at step k stands for the sum
  ``k * origin + (k * k_min + i * g) * step``; sums off this sublattice are
  never reachable.
* **Unreachable entries.**  The window at step k is dense, so some entries
  are not reachable sums.  Every union shift maps a reachable sum of step k
  to a reachable sum of step k+1, so a reachable entry only ever reads
  reachable entries and the zeros or stale values elsewhere never reach the
  result.  Reachability comes from one forward OR pass; only the masks of
  requested horizons are kept, and phi is called only at reachable sums.
* **State cap.**  The cap counts the dense states of the unreduced lattice,
  ``(n + 1) + (k_max - k_min) * n * (n + 1) / 2`` for the largest horizon, and is
  checked by arithmetic before anything is allocated, so
  :class:`SupportOverflow` is raised for the same inputs as by a
  single-horizon, single-payoff pass; its message names the smallest horizon
  past the cap.

:func:`value_table` and :func:`extract_argmax_policy` are this sweep with one
row on :class:`SumSupport`, the reduced lattice plus every step's reachable
mask, recording every step's values or (only for the policy) its lowest
maximizing member: the raw indices of ``SumSupport.masks``,
``ValueTable.values`` and ``SelectionPolicy.selections`` are reduced, index
i at step k standing for the coordinate ``k * k_min + i * gcd``.

The forward kernel
------------------
:func:`expectations_under_policy` propagates probability mass forward over
the same reduced dense window, one step at a time and in one loop, for a
policy (admitted as ``PathMeasure.from_policy``) and for a measure whose rule
reads nothing or the running sum.  The mass at step k does not depend on the
last step, so one pass to ``max(ns)`` serves every horizon.  Every evaluator,
here and in :mod:`sublln.measures`, admits a measure once with ``_admit`` and
reads its rule or policy selections through ``_rule_weights``: a sum rule
reads the lattice sum ``k*origin + coord*step`` (coord the integer coordinate
sum of the atoms), a history rule the realized atoms as Python floats.

* **Weight layout.**  Each step's ``(members, states)`` weights are
  ``_rule_weights`` at the reachable coordinates, transposed, and zero at
  unreachable states: a "none" vector (checked once per step) tiled, a
  policy's selections as one-hot rows.  Members lead, so rows are contiguous.
* **Product and accumulation order.**  For each member in index order,
  skipping a member whose weights are all zero, and each of its atoms in
  increasing value order, the kernel adds ``(weight_m * w) * mass`` into
  the next window at the atom's shift.  Every value is therefore fixed by
  the inputs alone.  The products go through one scratch buffer; with the
  float one-hot rows this keeps the policy pass as fast as masking the
  mass member by member.
* **One history walker.**  A rule that reads the realized history has no
  sum-state weights to tabulate, so the forward pass walks the tree of each
  horizon with ``_walk_histories``, as ``measures.conditional_means`` does,
  and adds the leaves into the window in the order of a depth-first walk.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .ambiguity import AmbiguityFamily, _require_valid

__all__ = [
    "DEFAULT_STATE_CAP",
    "SupportOverflow",
    "PolicyIncomplete",
    "SumSupport",
    "ValueTable",
    "SelectionPolicy",
    "PathMeasure",
    "build_support",
    "value_table",
    "iid_sum_expectations",
    "payoff_expectations",
    "iid_sum_expectation",
    "lower_iid_sum_expectation",
    "extract_argmax_policy",
    "expectation_under_policy",
    "expectations_under_policy",
]

DEFAULT_STATE_CAP = 10_000_000

_SUM_TOL = 1e-9

# Largest rows x states array of one sweep; four such arrays are live at once.
_ROW_BUDGET = 1 << 20


class SupportOverflow(RuntimeError):
    """The requested computation would exceed the configured state cap."""


class PolicyIncomplete(ValueError):
    """A reachable state has no (or an invalid) selection."""


def pairwise_total(values: np.ndarray) -> float:
    """Binary-tree summation of a 1-D array; deterministic and drift-bounded."""
    a = np.asarray(values, dtype=float)
    if a.size == 0:
        return 0.0
    while a.size > 1:
        even = a.size - (a.size % 2)
        b = a[0:even:2] + a[1:even:2]
        if a.size % 2:
            b = np.concatenate([b, a[-1:]])
        a = b
    return float(a[0])


def _eval_phi(phi: Callable, xs: np.ndarray) -> np.ndarray:
    """Evaluate phi on an array, falling back to per-point calls."""
    try:
        out = np.asarray(phi(xs), dtype=float)
        if out.shape == xs.shape:
            return out
    except (TypeError, ValueError):  # a scalar-only phi; a warning raised as an error reaches the caller
        pass
    return np.array([float(phi(float(x))) for x in xs])


@dataclass(frozen=True)
class _Grid:
    """The family's atoms as ``(weight, shift)`` terms on a lattice of ``gcd`` coordinates.

    A shift is ``(coord - k_min) // gcd``; index i at step k stands for the
    coordinate ``k * k_min + i * gcd``.
    """

    origin: float
    step: float
    k_min: int
    k_max: int
    gcd: int
    span: int
    terms: tuple[tuple[tuple[float, int], ...], ...]

    def size(self, k: int) -> int:
        return k * self.span + 1

    def values(self, k: int) -> np.ndarray:
        """Dense window of sum values at step k (reachable and not)."""
        return _lattice_sums(self, k, k * self.k_min + self.gcd * np.arange(self.size(k)))


def _lattice_sums(lattice, k: int, coords: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Sums of k atoms whose lattice coordinates add up to ``coords``: the value a sum rule reads.

    ``coords * step + k * origin``, into ``out`` when given (float addition commutes bit for bit).
    """
    return np.add(np.multiply(coords, lattice.step, out=out), k * lattice.origin, out=out)


def _grid(family: AmbiguityFamily) -> _Grid:
    coords = [family.member_coords(i) for i in range(len(family.members))]
    k_min = min(int(c.min()) for c in coords)
    k_max = max(int(c.max()) for c in coords)
    shifts = [[int(c) - k_min for c in member] for member in coords]
    g = math.gcd(*(s for member in shifts for s in member)) or 1
    terms = tuple(
        tuple((w, s // g) for w, s in zip(m.normalized_weights, member))
        for m, member in zip(family.members, shifts)
    )
    lat = family.lattice
    return _Grid(lat.origin, lat.step, k_min, k_max, g, (k_max - k_min) // g, terms)


def _check_cap(grid: _Grid, n: int, state_cap: int) -> None:
    """Raise SupportOverflow when n steps exceed the cap in unreduced dense states."""
    total = (n + 1) + (grid.k_max - grid.k_min) * n * (n + 1) // 2
    if total > state_cap:
        raise SupportOverflow(
            f"{total} sum states for n={n} exceed the cap of {state_cap}; "
            "the lattice is too fine for this horizon"
        )


def _reachable_masks(grid: _Grid, n: int, keep: Iterable[int]) -> dict[int, np.ndarray]:
    """Reachable-sum masks of the steps in ``keep`` (all at most n), by one forward OR pass.

    The pass stops at the first step k whose mask is the previous one with ``span`` ones
    inserted at some index j.  Every later mask is then this one with ``(j' - k) * span``
    more ones at j: with A the reachable set and S the union shifts (0 and ``span`` among
    them), sums below j come only from sums below j, which A_k and A_{k-1} share; the sums
    from ``j + span`` up mirror this; and ``A_k + 0`` and ``A_k + span`` cover the ones in
    between.  A full window (j = 1 at k = 1) is the case that stays full.
    """
    keep = set(keep)
    shifts = sorted({s for member in grid.terms for _, s in member})
    mask = np.ones(1, dtype=bool)
    masks = {0: mask} if 0 in keep else {}
    for k in range(1, n + 1):
        nxt = np.zeros(grid.size(k), dtype=bool)
        for s in shifts:
            nxt[s : s + mask.size] |= mask
        prev, mask = mask, nxt
        if k in keep:
            masks[k] = mask
        diff = np.flatnonzero(mask[: prev.size] != prev)
        j = int(diff[0]) if diff.size else prev.size
        if mask[j : j + grid.span].all() and np.array_equal(mask[j + grid.span :], prev[j:]):
            for later in (i for i in keep if i > k):
                masks[later] = np.concatenate([mask[:j], np.ones((later - k) * grid.span, dtype=bool), mask[j:]])
            break
    return masks


def _terminal(grid: _Grid, n: int, mask: np.ndarray, phi: Callable, out: np.ndarray) -> None:
    """Write phi(sum / n) at the reachable sums of step n into ``out``, zeros elsewhere."""
    xs = grid.values(n)[mask] / n
    out[:] = 0.0
    out[mask] = _eval_phi(phi, xs)


def _step(
    v_next: np.ndarray,
    grid: _Grid,
    out: np.ndarray,
    acc: np.ndarray,
    tmp: np.ndarray,
    sel: np.ndarray | None = None,
) -> None:
    """One backward step on ``(..., states)`` arrays: ``out`` gets the max over members.

    ``out``, ``acc`` and ``tmp`` have the step's window as last axis; each
    member's value is the left-to-right sum of its weighted shifted windows
    of ``v_next``.  A point-mass member (one atom of weight exactly 1.0) is
    its shifted window itself, as ``x * 1.0 == x`` for every float, so it
    costs no arithmetic.  ``sel``, when given, receives the lowest
    maximizing member index.
    """
    size = out.shape[-1]
    for m, terms in enumerate(grid.terms):
        w, s = terms[0]
        value = v_next[..., s : s + size]
        if w != 1.0 or len(terms) > 1:
            dst = acc if m else out
            np.multiply(value, w, out=dst)
            for w, s in terms[1:]:
                np.multiply(v_next[..., s : s + size], w, out=tmp)
                dst += tmp
            value = dst
        if m:
            if sel is not None:
                sel[value > best] = m
            best = np.maximum(best, value, out=out)
        else:
            best = value
    if best is not out:
        np.copyto(out, best)


def _row_groups(rows: list, span: int) -> list[list]:
    """Split descending ``(horizon, phi)`` rows into sweeps of at most ``_ROW_BUDGET`` row states (one row at least)."""
    groups: list[list] = []
    for row in rows:
        if not groups or (len(groups[-1]) + 1) * (groups[-1][0][0] * span + 1) > _ROW_BUDGET:
            groups.append([])
        groups[-1].append(row)
    return groups


def _sweep(
    grid: _Grid,
    rows: list,
    masks,
    values: list | None = None,
    selections: list | None = None,
) -> np.ndarray:
    """Root values of descending ``(horizon, phi)`` rows by one backward sweep from the first horizon.

    For one row of horizon n, ``values`` gets copies of each step's values from step n down to 0,
    and ``selections`` each step's lowest maximizing member from step n-1 down to 0; the members
    are only tracked when ``selections`` is given.
    """
    top, span = rows[0][0], grid.span
    cur, nxt, acc, tmp = (np.zeros((len(rows), grid.size(top))) for _ in range(4))
    joined = 0
    for k in range(top, 0, -1):
        while joined < len(rows) and rows[joined][0] == k:
            _terminal(grid, k, masks[k], rows[joined][1], cur[joined, : k * span + 1])
            joined += 1
            if values is not None:
                values.append(cur[0, : k * span + 1].copy())
        size = (k - 1) * span + 1
        sel = None if selections is None else np.zeros((1, size), dtype=np.int32)
        _step(cur[:joined], grid, nxt[:joined, :size], acc[:joined, :size], tmp[:joined, :size], sel)
        if values is not None:
            values.append(nxt[0, :size].copy())
        if selections is not None:
            selections.append(sel[0])
        cur, nxt = nxt, cur
    return cur[:, 0]


def _horizons(family: AmbiguityFamily, ns: Iterable[int], state_cap: int) -> tuple[list[int], list[int], _Grid]:
    """Checked ``ns`` as a list, its distinct horizons ascending and the grid; an overflow names the smallest."""
    _require_valid(family)
    horizons = list(ns)
    for n in horizons:
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
            raise ValueError(f"n must be a positive integer, got {n!r}")
    grid, distinct = _grid(family), sorted(set(horizons))
    for n in distinct:
        _check_cap(grid, n, state_cap)
    return horizons, distinct, grid


def payoff_expectations(
    family: AmbiguityFamily,
    payoffs: Sequence[Callable],
    ns: Iterable[int],
    state_cap: int = DEFAULT_STATE_CAP,
) -> tuple[tuple[float, ...], ...]:
    """Worst-case expectations of ``phi(S_n / n)`` for every n in ``ns``, one tuple per phi in ``payoffs``.

    One backward sweep from the largest horizon serves them all, a ``(horizon, phi)`` row each (see
    the module docstring); ``ns`` may be unsorted and repeat horizons.
    """
    horizons, distinct, grid = _horizons(family, ns, state_cap)
    if not horizons:
        return tuple(() for _ in payoffs)
    masks = _reachable_masks(grid, distinct[-1], distinct)
    keys = [(n, i) for n in reversed(distinct) for i in range(len(payoffs))]
    groups = _row_groups([(n, payoffs[i]) for n, i in keys], grid.span)
    roots = dict(zip(keys, (r for group in groups for r in _sweep(grid, group, masks).tolist())))
    return tuple(tuple(roots[n, i] for n in horizons) for i in range(len(payoffs)))


def iid_sum_expectations(
    family: AmbiguityFamily,
    phi: Callable,
    ns: Iterable[int],
    state_cap: int = DEFAULT_STATE_CAP,
) -> tuple[float, ...]:
    """Worst-case expectations of ``phi(S_n / n)`` for every n in ``ns``, in that order (one payoff)."""
    return payoff_expectations(family, [phi], ns, state_cap)[0]


@dataclass(frozen=True)
class SumSupport(_Grid):
    """Reachable partial-sum lattice of n steps, one boolean mask per step.

    Entry i of ``masks[k]`` marks whether ``k*origin + (k*k_min + i*gcd)*step``
    is a sum of k atoms (members' atom sets pooled); sums off this gcd-reduced
    lattice are never reachable and have no entry.
    """

    n: int
    masks: tuple[np.ndarray, ...]

    def reachable_values(self, k: int) -> np.ndarray:
        return self.values(k)[self.masks[k]]

    def dense_index(self, k: int, sum_value: float) -> int:
        """Dense window index of a reachable sum at step k; KeyError otherwise."""
        if not 0 <= k <= self.n:
            raise KeyError(f"step {k} outside 0..{self.n}")
        coord = round((sum_value - k * self.origin) / self.step)
        if abs(k * self.origin + coord * self.step - sum_value) > _SUM_TOL:
            raise KeyError(f"{sum_value!r} is not a lattice sum at step {k}")
        i, off = divmod(int(coord) - k * self.k_min, self.gcd)
        if off or not 0 <= i < self.size(k) or not self.masks[k][i]:
            raise KeyError(f"{sum_value!r} is not reachable at step {k}")
        return i


def build_support(family: AmbiguityFamily, n: int, state_cap: int = DEFAULT_STATE_CAP) -> SumSupport:
    """Reachable sums for n draws; raises SupportOverflow past the state cap."""
    _require_valid(family)
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    grid = _grid(family)
    _check_cap(grid, n, state_cap)
    masks = _reachable_masks(grid, n, range(n + 1))
    return SumSupport(**vars(grid), n=n, masks=tuple(masks[k] for k in range(n + 1)))


@dataclass(frozen=True)
class ValueTable:
    """Backward-recursion values; meaningful at reachable support points."""

    support: SumSupport
    values: tuple[np.ndarray, ...]

    @property
    def root(self) -> float:
        return float(self.values[0][0])

    def value_at(self, k: int, sum_value: float) -> float:
        return float(self.values[k][self.support.dense_index(k, sum_value)])


@dataclass(frozen=True)
class SelectionPolicy:
    """Deterministic member choice per (step, reachable running sum)."""

    support: SumSupport
    selections: tuple[np.ndarray, ...]

    @property
    def horizon(self) -> int:
        return self.support.n

    def member_at(self, k: int, sum_value: float) -> int:
        if not 0 <= k < len(self.selections):
            raise PolicyIncomplete(f"policy has no step {k}")
        try:
            i = self.support.dense_index(k, sum_value)
        except KeyError as exc:
            raise PolicyIncomplete(str(exc)) from exc
        m = int(self.selections[k][i])
        if m < 0:
            raise PolicyIncomplete(f"no selection at step {k}, sum {sum_value!r}")
        return m

    @classmethod
    def constant(
        cls,
        family: AmbiguityFamily,
        n: int,
        member_index: int,
        state_cap: int = DEFAULT_STATE_CAP,
    ) -> "SelectionPolicy":
        if not 0 <= member_index < len(family.members):
            raise PolicyIncomplete(f"member index {member_index} out of range")
        support = build_support(family, n, state_cap)
        sels = (np.where(support.masks[k], np.int32(member_index), np.int32(-1)) for k in range(n))
        return cls(support, tuple(sels))


class PathMeasure:
    """History-dependent mixture of family members, one weight vector per state.

    ``depends_on`` declares what the rule reads: "none" (a fixed mixture per
    step), "sum" (the running sum's lattice value), or "history" (the
    realized atom tuple).  Evaluators pick exact propagation strategies
    accordingly; only genuinely history-dependent rules require walking the
    history tree.
    """

    __slots__ = ("horizon", "member_count", "depends_on", "name", "policy", "_rule", "_checked")

    def __init__(self, horizon: int, member_count: int, rule: Callable, depends_on: str, name: str):
        if depends_on not in ("none", "sum", "history"):
            raise ValueError(f"unknown dependence tag {depends_on!r}")
        self.horizon = int(horizon)
        self.member_count = int(member_count)
        self.depends_on = depends_on
        self.name = name
        self.policy: SelectionPolicy | None = None
        self._rule = rule
        self._checked: dict[int, np.ndarray] = {}

    def __repr__(self):
        return f"PathMeasure({self.name!r}, horizon={self.horizon}, depends_on={self.depends_on!r})"

    def mixture_weights(self, step: int, total: float | None = None, history: tuple | None = None) -> np.ndarray:
        """Checked member weights at ``step``; a ``"none"`` measure's are checked once per step and read-only."""
        if self.depends_on == "none":
            w = self._checked.get(step)
            if w is None:
                w = self._checked[step] = _check_weights(self._rule(step), self.member_count)
                w.flags.writeable = False
            return w
        if self.depends_on == "sum":
            if total is None:
                raise PolicyIncomplete(f"measure {self.name!r} needs the running sum")
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
        """The policy as a measure that carries it; ``mixture_weights`` answers through ``member_at``."""

        def rule(step, total):
            w = np.zeros(member_count)
            w[policy.member_at(step, total)] = 1.0
            return w

        measure = cls(policy.horizon, member_count, rule, "sum", name)
        measure.policy = policy
        return measure


def _admit(family: AmbiguityFamily, measure: PathMeasure, n: int) -> None:
    """Valid family, n >= 1, horizon >= n, the family's member count and lattice; weights are checked on use."""
    _require_valid(family)
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    if measure.horizon < n:
        raise PolicyIncomplete(f"measure horizon {measure.horizon} is shorter than n={n}")
    if measure.member_count != len(family.members):
        raise PolicyIncomplete(
            f"mixture weights have shape ({measure.member_count},), expected ({len(family.members)},)"
        )
    if measure.policy is not None:
        lattice = operator.attrgetter("origin", "step", "k_min", "k_max", "gcd")
        if lattice(measure.policy.support) != lattice(_grid(family)):
            raise PolicyIncomplete("policy was extracted for a different lattice grid")


def iid_sum_expectation(
    family: AmbiguityFamily,
    n: int,
    phi: Callable,
    state_cap: int = DEFAULT_STATE_CAP,
) -> float:
    """Worst-case expectation of ``phi(S_n / n)`` by exact backward recursion."""
    return iid_sum_expectations(family, phi, [n], state_cap)[0]


def lower_iid_sum_expectation(
    family: AmbiguityFamily,
    n: int,
    phi: Callable,
    state_cap: int = DEFAULT_STATE_CAP,
) -> float:
    """Best-case (lower) expectation of ``phi(S_n / n)``: -upper of -phi."""
    return -iid_sum_expectations(family, lambda x: -phi(x), [n], state_cap)[0]


def value_table(
    family: AmbiguityFamily,
    n: int,
    phi: Callable,
    state_cap: int = DEFAULT_STATE_CAP,
) -> ValueTable:
    """Full backward-recursion table for ``phi(S_n / n)``."""
    support = build_support(family, n, state_cap)
    values: list = []
    _sweep(support, [(n, phi)], support.masks, values=values)
    return ValueTable(support, tuple(reversed(values)))


def extract_argmax_policy(
    family: AmbiguityFamily,
    n: int,
    phi: Callable,
    state_cap: int = DEFAULT_STATE_CAP,
) -> SelectionPolicy:
    """Lowest-index maximizing member at every reachable (step, sum) state."""
    support = build_support(family, n, state_cap)
    selections: list = []
    _sweep(support, [(n, phi)], support.masks, selections=selections)
    sels = tuple(reversed(selections))
    for sel, mask in zip(sels, support.masks):
        sel[~mask] = -1
    return SelectionPolicy(support, sels)


def _check_weights(w, member_count: int) -> np.ndarray:
    arr = np.asarray(w, dtype=float)
    if arr.shape != (member_count,):
        raise PolicyIncomplete(f"mixture weights have shape {arr.shape}, expected ({member_count},)")
    # plain float tests: numpy reductions cost more than the check on 2-3 members
    if not all(-1e-12 <= v < math.inf for v in arr.tolist()):
        raise PolicyIncomplete(f"mixture weights {arr!r} are not nonnegative")
    if abs(float(arr.sum()) - 1.0) > 1e-12:
        raise PolicyIncomplete(f"mixture weights {arr!r} do not sum to one")
    return np.maximum(arr, 0.0)


def _rule_weights(measure: PathMeasure, lattice, k: int, coords: np.ndarray, histories) -> np.ndarray:
    """Step-k weights ``(rows, members)`` of the rows of ``coords``; the one place a rule is called.

    A ``"none"`` vector is tiled, a policy's selections at each row's integer
    coordinate sum become one-hot rows, a sum rule gets the lattice sum of
    that coordinate sum, a history rule each row of ``histories`` as floats.
    """
    if measure.depends_on == "none":
        return np.tile(measure.mixture_weights(k), (len(coords), 1))
    if measure.policy is not None:
        support = measure.policy.support
        sel = measure.policy.selections[k][(coords - k * support.k_min) // support.gcd]
        holes = np.flatnonzero(sel < 0)
        if holes.size:
            total = float(_lattice_sums(lattice, k, coords[holes[0]]))
            raise PolicyIncomplete(f"no selection at step {k}, sum {total!r}")
        return (sel[:, None] == np.arange(measure.member_count)).astype(float)
    if measure.depends_on == "sum":
        totals = _lattice_sums(lattice, k, coords).tolist()
        return np.array([measure.mixture_weights(k, total=t) for t in totals])
    return np.array([measure.mixture_weights(k, history=tuple(h)) for h in histories.tolist()])


def _forward(support: SumSupport, measure: PathMeasure, ns: Iterable[int]) -> dict[int, np.ndarray]:
    """Mass over the dense window of each step in ``ns`` under a non-history measure, by one pass."""
    members, keep, masses, mass = len(support.terms), set(ns), {}, np.array([1.0])
    scratch = np.empty(support.size(max(keep) - 1))
    for k in range(max(keep)):
        weights = np.zeros((members, mass.size))
        coords = k * support.k_min + support.gcd * np.flatnonzero(support.masks[k])
        weights[:, support.masks[k]] = _rule_weights(measure, support, k, coords, None).T
        nxt = np.zeros(mass.size + support.span)
        product = scratch[: mass.size]
        for m in np.flatnonzero(weights.any(axis=1)):  # members of nonzero weight, in index order
            for w, s in support.terms[m]:
                np.multiply(weights[m] * w, mass, out=product)
                nxt[s : s + mass.size] += product
        mass = nxt
        if k + 1 in keep:
            masses[k + 1] = mass
    return masses


def _walk_histories(family: AmbiguityFamily, measure: PathMeasure, n: int, cap: int | None) -> tuple:
    """``(paths, coord_sums, probs, means)`` of n draws, by one level-by-level walk of the history tree.

    Rows are in lexicographic order of the atom indices; a level's rows share one ``_rule_weights``
    call, a child's probability is its parent's times ``q = omega @ w_matrix.T``, and ``means[k]``
    is level k's ``q @ atoms``.  With ``cap`` None every child is kept; otherwise children of zero
    ``q`` are dropped and ``SupportOverflow`` is raised before a level takes the live children of
    all levels past ``cap``.  The walk holds one level of paths at a time.
    """
    coords, atoms, w_matrix = family.union_atoms()
    paths = np.zeros((1, 0))
    means = []
    probs = np.array([1.0])
    coord_sums = np.zeros(1, dtype=np.int64)
    visited = 0
    for k in range(n):
        q = _rule_weights(measure, family.lattice, k, coord_sums, paths) @ w_matrix.T
        if cap is None:
            counts, atom, child_q = len(atoms), np.tile(np.arange(len(atoms)), len(q)), q.reshape(-1)
        else:
            keep = q != 0.0
            visited += int(np.count_nonzero(keep))
            if visited > cap:
                raise SupportOverflow(f"history-dependent forward pass exceeds the cap of {cap} paths")
            counts, atom, child_q = keep.sum(axis=1), np.nonzero(keep)[1], q[keep]
        paths = np.hstack([np.repeat(paths, counts, axis=0), atoms[atom][:, None]])
        means.append(q @ atoms)
        probs = np.repeat(probs, counts) * child_q
        coord_sums = np.repeat(coord_sums, counts) + coords[atom]
    return paths, coord_sums, probs, tuple(means)


def expectations_under_policy(
    family: AmbiguityFamily,
    phi: Callable,
    ns: Iterable[int],
    policy: SelectionPolicy | PathMeasure,
    state_cap: int = DEFAULT_STATE_CAP,
) -> tuple[float, ...]:
    """:func:`expectation_under_policy` for each n in ``ns`` by one pass; an overflow names the smallest n."""
    horizons, distinct, _ = _horizons(family, ns, state_cap)
    if not horizons:
        return ()
    support = build_support(family, distinct[-1], state_cap)
    if isinstance(policy, SelectionPolicy):
        policy = PathMeasure.from_policy(policy, len(family.members))
    if not isinstance(policy, PathMeasure):
        raise TypeError(f"unsupported policy object: {policy!r}")
    _admit(family, policy, distinct[-1])
    if policy.depends_on == "history":
        mass = {n: np.zeros(support.size(n)) for n in distinct}
        for n in distinct:
            _, coord_sums, probs, _ = _walk_histories(family, policy, n, state_cap)
            # reversed rows add the paths in the order of a depth-first walk
            np.add.at(mass[n], ((coord_sums - n * support.k_min) // support.gcd)[::-1], probs[::-1])
    else:
        mass = _forward(support, policy, distinct)
    xs = {n: support.reachable_values(n) / n for n in mass}
    values = {n: pairwise_total(mass[n][support.masks[n]] * _eval_phi(phi, xs[n])) for n in mass}
    return tuple(values[n] for n in horizons)


def expectation_under_policy(
    family: AmbiguityFamily,
    n: int,
    phi: Callable,
    policy: SelectionPolicy | PathMeasure,
    state_cap: int = DEFAULT_STATE_CAP,
) -> float:
    """Exact expectation of ``phi(S_n / n)`` under a policy or mixture measure.

    ``policy`` is a :class:`PathMeasure` or a :class:`SelectionPolicy`, taken
    as ``PathMeasure.from_policy`` and admitted once by ``_admit``; anything
    else raises ``TypeError``.  The probability mass is propagated exactly
    (over sum states, or over the history tree when the rule is genuinely
    history-dependent) and the terminal distribution is averaged against
    phi.  The family and n are checked by :func:`build_support`.
    """
    return expectations_under_policy(family, phi, [n], policy, state_cap)[0]
