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
:func:`iid_sum_expectations` computes the values at many horizons with one
sweep.  The map from step k+1 to step k does not depend on the horizon, so
the sweep runs from ``N = max(ns)`` down to 0 over a 2-D ``(rows, states)``
array: the row of horizon n joins at step n, holding phi at the reachable
sums of step n and zeros elsewhere, and from then on every step's arithmetic
is shared by all joined rows.  Horizon groups whose rows would exceed
``_ROW_BUDGET`` states are swept separately; rows never interact, so the
grouping does not change a value.

* **Summation order.**  A member's value is the left-to-right sum
  ``w_0 * v[s_0:] + w_1 * v[s_1:] + ...`` over its atoms in increasing value
  order, and the step value is the running ``np.maximum`` over members in
  index order (the argmax policy breaks ties to the lower index).  Results
  are therefore deterministic and do not depend on which horizons share a
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
  single-horizon pass; its message names the smallest horizon past the cap.

:func:`value_table` and :func:`extract_argmax_policy` run the same step code
with one row on :class:`SumSupport`, which is this reduced lattice plus the
reachable mask of every step: the raw indices of ``SumSupport.masks``,
``ValueTable.values`` and ``SelectionPolicy.selections`` are reduced, index
i at step k standing for the coordinate ``k * k_min + i * gcd``.

The forward kernel
------------------
:func:`expectation_under_policy` propagates probability mass forward over
the same reduced dense window, one step at a time, for a
:class:`SelectionPolicy` and for measures whose rule reads nothing or the
running sum (``depends_on`` "none" or "sum").  All three run one loop.

* **Weight layout.**  Each step first gets its member weights: a
  ``(members,)`` vector for a "none" measure (one rule call), or a
  ``(members, states)`` array otherwise.  A policy is the one-hot case
  ``arange(members)[:, None] == selection``, as floats; a sum rule is
  called once per reachable state and leaves unreachable states at weight
  zero.  Members lead so that each member's row is contiguous.
* **Product and accumulation order.**  For each member in index order,
  skipping a member whose weights are all zero, and each of its atoms in
  increasing value order, the kernel adds ``(weight_m * w) * mass`` into
  the next window at the atom's shift.  Every value is therefore fixed by
  the inputs alone.  The products go through one scratch buffer; with the
  float one-hot rows this keeps the policy pass as fast as masking the
  mass member by member.
* **Histories stay separate.**  A rule that reads the realized history has
  no sum-state weights to tabulate, so ``_forward_history_rule`` walks the
  history tree instead.  It prunes zero-probability branches and caps the
  nodes it visits, unlike ``measures.conditional_means``, which keeps
  zero-probability paths, holds every path and by default stops at 8
  steps; merging the two walkers would need a flag or shrink the horizons
  the walk accepts.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .ambiguity import AmbiguityFamily, _require_valid

__all__ = [
    "DEFAULT_STATE_CAP",
    "SupportOverflow",
    "PolicyIncomplete",
    "SumSupport",
    "ValueTable",
    "SelectionPolicy",
    "build_support",
    "value_table",
    "iid_sum_expectations",
    "iid_sum_expectation",
    "lower_iid_sum_expectation",
    "extract_argmax_policy",
    "expectation_under_policy",
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
    except Exception:
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
        coords = k * self.k_min + self.gcd * np.arange(self.size(k))
        return k * self.origin + coords * self.step


def _grid(family: AmbiguityFamily) -> _Grid:
    coords = [family.member_coords(i) for i in range(len(family.members))]
    k_min = min(int(c.min()) for c in coords)
    k_max = max(int(c.max()) for c in coords)
    shifts = [[int(c) - k_min for c in member] for member in coords]
    g = math.gcd(*(s for member in shifts for s in member)) or 1
    terms = tuple(
        tuple((float(w), s // g) for w, s in zip(m.weights, member))
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
    """Reachable-sum masks of the steps in ``keep`` (all at most n), by one forward OR pass."""
    keep = set(keep)
    shifts = sorted({s for member in grid.terms for _, s in member})
    mask = np.ones(1, dtype=bool)
    masks = {0: mask} if 0 in keep else {}
    for k in range(1, n + 1):
        if k > 1 and mask.all():
            # A full window stays full: consecutive union shifts are at most span apart.
            masks.update((j, np.ones(grid.size(j), dtype=bool)) for j in keep if j >= k)
            break
        nxt = np.zeros(grid.size(k), dtype=bool)
        for s in shifts:
            nxt[s : s + mask.size] |= mask
        mask = nxt
        if k in keep:
            masks[k] = mask
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
    of ``v_next``.  ``sel``, when given, receives the lowest maximizing
    member index.
    """
    size = out.shape[-1]
    for m, terms in enumerate(grid.terms):
        dst = out if m == 0 else acc
        (w, s), *rest = terms
        np.multiply(v_next[..., s : s + size], w, out=dst)
        for w, s in rest:
            np.multiply(v_next[..., s : s + size], w, out=tmp)
            dst += tmp
        if m:
            if sel is not None:
                sel[acc > out] = m
            np.maximum(out, acc, out=out)


def _row_groups(horizons: list[int], span: int) -> list[list[int]]:
    """Split descending horizons into sweeps of at most ``_ROW_BUDGET`` row states (one row at least)."""
    groups: list[list[int]] = []
    for n in horizons:
        if not groups or (len(groups[-1]) + 1) * (groups[-1][0] * span + 1) > _ROW_BUDGET:
            groups.append([])
        groups[-1].append(n)
    return groups


def _sweep(grid: _Grid, phi: Callable, horizons: list[int], masks: dict[int, np.ndarray]) -> np.ndarray:
    """Root values for distinct descending horizons by one backward sweep from ``horizons[0]``."""
    rows, span = len(horizons), grid.span
    cur, nxt, acc, tmp = (np.zeros((rows, grid.size(horizons[0]))) for _ in range(4))
    joined = 0
    for k in range(horizons[0], 0, -1):
        if joined < rows and horizons[joined] == k:
            _terminal(grid, k, masks[k], phi, cur[joined, : k * span + 1])
            joined += 1
        size = (k - 1) * span + 1
        _step(cur[:joined], grid, nxt[:joined, :size], acc[:joined, :size], tmp[:joined, :size])
        cur, nxt = nxt, cur
    return cur[:, 0]


def iid_sum_expectations(
    family: AmbiguityFamily,
    phi: Callable,
    ns: Iterable[int],
    state_cap: int = DEFAULT_STATE_CAP,
) -> tuple[float, ...]:
    """Worst-case expectations of ``phi(S_n / n)`` for every n in ``ns``, in that order.

    One backward sweep from the largest horizon serves them all (see the
    module docstring); ``ns`` may be unsorted and repeat horizons.
    """
    _require_valid(family)
    horizons = list(ns)
    for n in horizons:
        if n < 1:
            raise ValueError(f"n must be a positive integer, got {n}")
    if not horizons:
        return ()
    grid = _grid(family)
    distinct = sorted(set(horizons), reverse=True)
    for n in reversed(distinct):  # ascending: an overflow names the smallest horizon past the cap
        _check_cap(grid, n, state_cap)
    masks = _reachable_masks(grid, distinct[0], distinct)
    roots: dict[int, float] = {}
    for group in _row_groups(distinct, grid.span):
        roots.update(zip(group, _sweep(grid, phi, group, masks).tolist()))
    return tuple(roots[n] for n in horizons)


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


def _backward_tables(family: AmbiguityFamily, n: int, phi: Callable, state_cap: int, want_policy: bool):
    """Single-horizon sweep on the support, keeping every step's values or selections."""
    support = build_support(family, n, state_cap)
    v_next = np.empty(support.size(n))
    _terminal(support, n, support.masks[n], phi, v_next)
    tables = [v_next]
    policies: list[np.ndarray] = []
    for k in range(n - 1, -1, -1):
        size = support.size(k)
        out, acc, tmp = np.empty(size), np.empty(size), np.empty(size)
        sel = np.zeros(size, dtype=np.int32) if want_policy else None
        _step(v_next, support, out, acc, tmp, sel)
        if want_policy:
            sel[~support.masks[k]] = -1
            policies.append(sel)
        else:
            tables.append(out)
        v_next = out
    if want_policy:
        return SelectionPolicy(support, tuple(reversed(policies)))
    return ValueTable(support, tuple(reversed(tables)))


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
    return _backward_tables(family, n, phi, state_cap, want_policy=False)


def extract_argmax_policy(
    family: AmbiguityFamily,
    n: int,
    phi: Callable,
    state_cap: int = DEFAULT_STATE_CAP,
) -> SelectionPolicy:
    """Lowest-index maximizing member at every reachable (step, sum) state."""
    return _backward_tables(family, n, phi, state_cap, want_policy=True)


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


def _step_weights(measure, k: int, support: SumSupport, members: int) -> np.ndarray:
    """Member weights of step k: ``(members,)`` for a ``"none"`` measure, else ``(members, states)``."""
    if isinstance(measure, SelectionPolicy):
        sel = measure.selections[k][: support.size(k)]
        bad = support.masks[k] & (sel < 0)
        if bad.any():
            i = int(np.nonzero(bad)[0][0])
            raise PolicyIncomplete(f"no selection at step {k}, sum {float(support.values(k)[i])!r}")
        return (np.arange(members, dtype=sel.dtype)[:, None] == sel).astype(float)
    if measure.depends_on == "none":
        return _check_weights(measure.mixture_weights(k), members)
    weights = np.zeros((members, support.size(k)))
    totals = support.values(k)
    for i in np.nonzero(support.masks[k])[0]:
        weights[:, i] = _check_weights(measure.mixture_weights(k, total=float(totals[i])), members)
    return weights


def _forward(n: int, support: SumSupport, measure) -> np.ndarray:
    """Mass over step n's dense window under a policy or non-history measure (see the module docstring)."""
    members = len(support.terms)
    mass = np.array([1.0])
    scratch = np.empty(support.size(n - 1))
    for k in range(n):
        weights = _step_weights(measure, k, support, members)
        live = weights.reshape(members, -1).any(axis=1)
        nxt = np.zeros(mass.size + support.span)
        product = scratch[: mass.size]
        for weight, is_live, terms in zip(weights, live, support.terms):
            if not is_live:
                continue
            for w, s in terms:
                np.multiply(weight * w, mass, out=product)
                nxt[s : s + mass.size] += product
        mass = nxt
    return mass


def _forward_history_rule(family, n, support, measure, state_cap: int) -> np.ndarray:
    coords, values, w_matrix = family.union_atoms()
    mass = np.zeros(support.size(n))
    visited = 0
    stack: list[tuple[int, int, float, tuple[float, ...]]] = [(0, 0, 1.0, ())]
    while stack:
        k, coord, prob, hist = stack.pop()
        if k == n:
            mass[(coord - n * support.k_min) // support.gcd] += prob
            continue
        w_members = _check_weights(
            measure.mixture_weights(k, history=hist), len(family.members)
        )
        q = w_matrix @ w_members
        for a in range(len(coords)):
            if q[a] == 0.0:
                continue
            visited += 1
            if visited > state_cap:
                raise SupportOverflow(
                    f"history-dependent forward pass exceeds the cap of {state_cap} paths"
                )
            stack.append((k + 1, coord + int(coords[a]), prob * float(q[a]), hist + (float(values[a]),)))
    return mass


def expectation_under_policy(
    family: AmbiguityFamily,
    n: int,
    phi: Callable,
    policy,
    state_cap: int = DEFAULT_STATE_CAP,
) -> float:
    """Exact expectation of ``phi(S_n / n)`` under a policy or mixture measure.

    ``policy`` is either a :class:`SelectionPolicy` or any measure-like
    object with ``mixture_weights(step, total=..., history=...)``, a
    ``depends_on`` tag in {"none", "sum", "history"} and a ``horizon``.
    The probability mass is propagated exactly (over sum states, or over
    the history tree when the rule is genuinely history-dependent) and the
    terminal distribution is averaged against phi.
    """
    _require_valid(family)
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    support = build_support(family, n, state_cap)
    if isinstance(policy, SelectionPolicy):
        if policy.horizon < n:
            raise PolicyIncomplete(f"policy horizon {policy.horizon} is shorter than n={n}")
        lattice = operator.attrgetter("origin", "step", "k_min", "k_max", "gcd")
        if lattice(policy.support) != lattice(support):
            raise PolicyIncomplete("policy was extracted for a different lattice grid")
    elif hasattr(policy, "mixture_weights") and hasattr(policy, "depends_on"):
        if getattr(policy, "horizon", n) < n:
            raise PolicyIncomplete(f"measure horizon {policy.horizon} is shorter than n={n}")
        if policy.depends_on not in ("none", "sum", "history"):
            raise PolicyIncomplete(f"unknown dependence tag {policy.depends_on!r}")
    else:
        raise TypeError(f"unsupported policy object: {policy!r}")
    if getattr(policy, "depends_on", None) == "history":
        mass = _forward_history_rule(family, n, support, policy, state_cap)
    else:
        mass = _forward(n, support, policy)
    return pairwise_total(mass[support.masks[n]] * _eval_phi(phi, support.reachable_values(n) / n))

