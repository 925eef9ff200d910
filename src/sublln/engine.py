"""Exact worst-case expectations for sums of independent ambiguous draws.

Partial sums of lattice atoms stay on a (shifted) lattice, so the nested
worst-case expectation of ``phi(S_n / n)`` collapses to a backward
recursion over reachable sums:

    v_n(s) = phi(s / n)
    v_k(s) = max over members P of  sum_j P(a_j) * v_{k+1}(s + a_j)

with ``v_0(0)`` the final value.  Under a fixed measure, which draws from
member m at step k and sum s with weight ``w_m(k, s)``, the maximum becomes a
weighted sum:

    v_k(s) = sum over members m of  w_m(k, s) * sum_j P_m(a_j) * v_{k+1}(s + a_j)

and ``v_0(0)`` is ``E_P[phi(S_n / n)]``.  One backward kernel computes both, in
two modes: the max mode for worst-case values, value tables and the argmax
policy, and the weighted mode for selection policies and mixture measures.

The backward kernel
-------------------
:func:`payoff_expectations` computes many payoffs at many horizons with one
sweep.  The map from step k+1 to step k depends on neither, so the sweep
runs from ``N = max(ns)`` down to 0 over ``(horizon, phi)`` rows: the rows of
horizon n join at step n, holding their phi at the reachable sums of step n
and zeros elsewhere, and from then on every step's arithmetic is shared by
all joined rows.  Row groups whose arrays would together hold more than
``_ROW_BUDGET`` states are swept separately.  A row's entries inside its
window only ever hold values of that row.  Which entries outside the
probability band get recomputed depends on the sweep's blocks, and so on the
rows beside it, but such entries weigh at most ``2**-100`` at the root: the
grouping moves a root by no more than that share of its payoff's oscillation
(and the rounding it brings), and the same inputs always give the same bits.

* **State-major rows.**  ``cur`` and ``nxt`` are flat and zero-initialised;
  with r rows joined, entry (state s, row i) sits at ``s * r + i``.  A shift
  of s states is a shift of ``s * r`` entries, so every view of a step is
  one contiguous 1-D run over all joined rows.  Where rows join, one strided
  copy re-lays the rows already there and each new row's phi fills its
  strided column; the roots are the first r entries.  The sweep's arrays
  start on 64-byte boundaries (``_aligned``), so a step's stores do not
  split cache lines.
* **Step program.**  One backward step is a fixed list of ufunc calls
  (``_program``).  One broadcast ``np.multiply`` writes ``w * v`` over the
  window plus ``span`` states for every distinct atom weight w of the
  family; a member's value is the left-to-right ``np.add`` chain of its
  atoms' shifted views of those products, in increasing atom value order,
  and the step value is the running ``np.maximum`` over members in index
  order (the argmax policy breaks ties to the lower index).  A point-mass
  member (one atom of weight 1.0) is its shifted view of ``v`` itself, as
  ``x * 1.0 == x``.  Since ``(w*v)[s+i]`` is ``w*v[s+i]``, every entry sees
  the same float operations as when each atom's shifted window is weighted
  on its own, and no entry's value depends on another row's values.
* **Weighted mode.**  A sweep with a measure fills, before each step, a
  state-major ``(members, entries)`` buffer with the measure's member
  weights at that step's reachable sums, each state's once per joined row
  and 0 at unreachable states (``_mix``).  Its step
  program writes member 0's value times its weight to the step and adds
  each later member's value times its weight, in index order, in place of
  the running maximum.  A member adds exactly 0 where its weight is 0: its
  product is set to 0 there (``np.putmask``), so an infinite payoff on sums
  the measure never reaches gives no NaN, and the ``0 * inf`` or
  ``inf - inf`` such a member computes raises no float error (the sweep
  ignores invalid operations; phi keeps the caller's settings).  An
  infinite payoff on a path of positive probability gives an infinite
  value, and NaN comes only from reaching both +inf and -inf.  A
  zero-weight atom inside a member multiplies as in the max mode.  Without
  a measure the program issues exactly the max mode's calls.
* **Unbuffered calls.**  numpy sends a ufunc call that is not one
  contiguous 1-D pass through its buffered iterator whenever several of the
  call's rows fit in the ufunc buffer (8192 elements by default), at two to
  four times the cost.  The state-major rows leave one such call per step,
  the ``(weights, entries)`` product broadcast, and the step programs run
  with the buffer size ``_BUFSIZE``, inside one ``np.errstate`` scope per
  sweep, which restores the caller's buffer size on exit.  phi runs under
  the caller's buffer size and error handling, as its reductions may depend
  on them; elementwise ufuncs never do, so no value depends on ``_BUFSIZE``.
* **Blocks of steps.**  The sweep runs in blocks that end where a row joins
  or after ``_BLOCK_STEPS`` steps.  A block builds its program once for each
  direction of the ``cur``/``nxt`` swap, over fixed views that cover the
  union of its steps' bands (below), starting on a 64-byte boundary, and
  runs the two in turn, so a step costs its ufunc calls and no slicing.
  Later steps of a block also fill states past their true window; these
  stale entries are finite whenever phi is, as every value the sweep writes
  is a maximum or a weighted sum of weighted sums of values written before
  (or a zero of the initial arrays).
* **Plans.**  A plain sweep, one in max mode that records no table or
  selections, keeps its plan (``_Plan``) in a one-plan slot (``_held``) when
  it finishes: the reachable masks at its row horizons, each horizon's
  terminal points ``sums(n, mask) / n``, the ``cur``, ``nxt``, product and
  ``acc`` arrays, and the two step programs of every block.  The key is the
  grid object and the sweep's row horizons.  The next plain sweep with that
  key zero-fills ``cur`` and ``nxt`` and runs the held programs, so only phi,
  the row re-lays and the step calls run again: a family's catalog shapes
  swept one by one on one schedule (``lln_rates.rate_sweep``) build their
  blocks once.  A sweep takes the plan out of the slot while it runs, so a
  phi that sweeps again builds its own; a sweep that cannot use it (another
  key, a measure, a table or selections) drops it before it allocates, so
  at most one plan outlives its sweep; and a sweep that meets a non-finite
  value at a trimmed join computes full windows from there on, as without
  a plan, and keeps nothing.  No bit moves: a warm sweep starts from the
  same zeros and runs the same ufunc calls over the same entries in the
  same order as a cold one, so the band certificate below holds as it is.
  phi gets a fresh copy of the terminal points, and the roots are copied
  out of ``cur``.
* **Probability band.**  With ``up(lam)`` the largest member log-mgf
  ``ln sum(w exp(lam s))`` of the reduced shift s, and ``down(lam)`` that of
  -s, ``exp(lam S_k - k up(lam))`` and ``exp(-lam S_k - k down(lam))`` are
  supermartingales under every adapted choice of members (a step's
  conditional mgf is a mixture of the members' own), and a fixed measure is
  such a choice.  So for every ``lam > 0`` the reduced index of S_k passes
  ``(k up(lam) + ln(2 / eps_k)) / lam``, or falls below ``-(k down(lam) +
  ln(2 / eps_k)) / lam``, with probability at most ``eps_k / 2`` each
  (Chernoff), for ``eps_k = 2**-100 / (k (k + 1))``.  ``_band`` takes each
  edge at the best of a few ``lam`` that depend on k alone, among them
  Hoeffding's optimizer, so no band is wider than the Azuma-Hoeffding band
  ``[k*a - t_k, k*b + t_k]`` (a and b the least and greatest member mean
  shift, ``t_k = span * sqrt(k ln(2 / eps_k) / 2)``).  The cumulants carry
  an upward float margin, and the band is widened by one index on each
  side and clipped to the window.  Bands and grids are memoized by value
  (``functools.lru_cache``), so a band costs its arithmetic once per grid
  and top horizon.  Every ``payoff_expectations`` sweep (so
  ``iid_sum_expectation``, the lower value and ``lln_rates.rate_sweep``)
  and every weighted sweep computes each block only over its steps' bands;
  the entries outside keep values of their own row, so every root stays
  within ``2**-100 * (max - min of its row's terminal values)`` of the
  dense recursion in exact arithmetic, as paths that ever leave the band
  carry at most ``sum eps_k < 2**-100`` of the mass.  The first trimmed
  step is 52 on the fine lattice, 67 on three_atom, 138 on fair_coin and
  bernoulli_pair and 139 on skewed_pair; point_mass, two_point_masses and
  delta_pair (a = 0, b = span) are never trimmed.  A sweep that records a
  table or selections, and one whose joined rows' terminal values are not
  all finite, computes the full windows: an infinite value outside the
  band would otherwise be lost, or read with a weight the certificate does
  not cover.
* **gcd reduction.**  Coordinates are taken relative to the smallest atom
  coordinate and divided by ``g``, the gcd of these shifts (``g = 1`` when
  all atoms coincide).  Index i at step k stands for the sum
  ``k * origin + (k * k_min + i * g) * step``; sums off this sublattice are
  never reachable.  ``_Grid.index`` (coordinate sums to indices) and
  ``_Grid.sums`` (indices to lattice sums) are the only conversions: every
  evaluator and the sampler carry window indices.
* **Unreachable, stale and out-of-band entries.**  The window at step k is
  dense, so some entries are not reachable sums.  Every union shift maps a
  reachable sum of step k to a reachable sum of step k+1, inside its window,
  so a reachable entry only ever reads reachable entries, and the zeros,
  unreachable values and stale entries past the window never reach the
  result.  An entry outside a block's views holds a value its own row had
  at the same index at a later step (while a later step is trimmed, both
  buffers receive the terminal where the top row joins and the re-laid step
  at every later join), a value between the smallest and largest terminal
  value of that row (its zeros at unreachable sums included).  Reachable
  entries read such values only along paths that leave the band.
  Reachability comes from one forward OR pass per plan (a weighted call's
  sweeps share one); only the masks of requested horizons are kept, and phi
  is called only at reachable sums.
* **State cap.**  The cap counts the dense states of the unreduced lattice,
  ``(n + 1) + (k_max - k_min) * n * (n + 1) / 2`` for the largest horizon, and is
  checked by arithmetic before anything is allocated, so
  :class:`SupportOverflow` is raised for the same inputs as by a
  single-horizon, single-payoff pass; its message names the smallest horizon
  past the cap.  Coordinate sums are held in 64-bit integers, so a horizon n
  with ``n * max(|k_min|, |k_max|) >= 2**63`` is refused the same way, and
  so is one whose lattice sums at the ends of its window leave the float
  range.

:func:`value_table` and :func:`extract_argmax_policy` are this sweep with one
row on :class:`SumSupport`, the reduced lattice plus every step's reachable
mask, recording every step's values or (only for the policy) its lowest
maximizing member: the raw indices of ``SumSupport.masks``,
``ValueTable.values`` and ``SelectionPolicy.selections`` are reduced, index
i at step k standing for the coordinate ``k * k_min + i * gcd``.

Fixed measures
--------------
:func:`payoff_expectations` with a ``measure`` evaluates that law, admitted
and grouped into rows as without one: a policy (taken as
``PathMeasure.from_policy``) and a measure whose rule reads nothing or the
running sum by one weighted sweep over all its ``(horizon, phi)`` rows, on
the reachable masks of every step.  :func:`expectation_under_policy` is its
one-payoff, one-horizon case.  Every evaluator,
here and in :mod:`sublln.measures`, admits its inputs once with ``_horizons``
(``_admit`` for one n) and reads a rule or policy through ``_rule_weights`` at
window indices: a sum rule reads the lattice sum ``_Grid.sums``, a history
rule the realized atoms as floats.
A rule that reads the realized history has no sum-state weights to tabulate:
it is evaluated on the tree of each horizon, walked once by
``_walk_histories`` as ``measures.conditional_means`` walks it.  The leaves
are added into the window in the order of a depth-first walk, and that mass
serves every payoff: ``_terminal`` writes phi at the horizon's reachable
sums, each sum adds its mass times phi, except that a sum of mass 0 adds
exactly 0 where phi is not finite (so an infinite phi where the rule never
goes gives no NaN), and ``pairwise_total`` adds the reachable entries.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, Iterable, Sequence

import numpy as np

from .ambiguity import AmbiguityFamily, _require_valid

__all__ = [
    "DEFAULT_STATE_CAP",
    "NonPositiveN",
    "SupportOverflow",
    "PolicyIncomplete",
    "SumSupport",
    "ValueTable",
    "SelectionPolicy",
    "PathMeasure",
    "build_support",
    "value_table",
    "payoff_expectations",
    "iid_sum_expectation",
    "lower_iid_sum_expectation",
    "extract_argmax_policy",
    "expectation_under_policy",
]

DEFAULT_STATE_CAP = 10_000_000

_SUM_TOL = 1e-9

# Largest number of states held by one sweep's arrays together (``_row_groups``).
_ROW_BUDGET = 1 << 22

# Most steps run by one step program; a block's fixed views are as wide as its first window.
_BLOCK_STEPS = 32

# Ufunc buffer size in elements while a sweep runs its step programs (``_sweep``).  With numpy's
# default of 8192, the product broadcast of a step takes the buffered iterator whenever several rows
# of it fit in one buffer, at two to four times the cost of the same call with a small buffer.
# Measured: 32 to 2048 ran the corpus and deep sweeps alike, and 16 was slower on some.
_BUFSIZE = 64

# Bound on the probability, under any choice of members, that the partial sums ever leave the band (``_band``).
_TAIL_BUDGET = 2.0**-100

# Byte boundary on which the sweep's arrays and each block's views start (``_aligned``).
_ALIGN = 64


class NonPositiveN(ValueError):
    """Horizon n must be a positive integer."""


def _is_int(value) -> bool:
    """Whether ``value`` is a Python or numpy integer and not a bool: the test of every integer argument."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_n(n) -> int:
    """The horizon rule of every entry point: ``int(n)`` of an integer n >= 1 (``_is_int``), else NonPositiveN."""
    if not _is_int(n) or n <= 0:
        raise NonPositiveN(f"n must be a positive integer, got {n!r}")
    return int(n)


def _check_state_cap(state_cap) -> int:
    """Every public entry point's cap rule: ``int(state_cap)`` of an integer >= 1 (``_is_int``), else ValueError."""
    if not _is_int(state_cap) or state_cap < 1:
        raise ValueError(f"state_cap must be a positive integer, got {state_cap!r}")
    return int(state_cap)


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

    A shift is ``(coord - k_min) // gcd``; index i at step k stands for the coordinate sum
    ``k * k_min + i * gcd``.  ``index`` and ``sums`` are the only conversions.
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

    def index(self, k: int, coords: np.ndarray) -> np.ndarray:
        """Window indices at step k of the integer coordinate sums ``coords`` of k atoms."""
        return (coords - k * self.k_min) // self.gcd

    def sums(self, k: int, index: np.ndarray) -> np.ndarray:
        """Lattice sums ``k * origin + coord * step`` at the window indices ``index`` of step k."""
        return (k * self.k_min + self.gcd * index) * self.step + k * self.origin

    def values(self, k: int) -> np.ndarray:
        """Dense window of sum values at step k (reachable and not)."""
        return self.sums(k, np.arange(self.size(k)))


def _grid(family: AmbiguityFamily) -> _Grid:
    """The family's grid, memoized by value: equal families share one read-only ``_Grid``.

    A -0.0 weight equals 0.0 but keeps products of its own (``_products``), so the weights' signs are
    part of the key.
    """
    return _grid_of(family, tuple(math.copysign(1.0, w) for m in family.members for _, w in m.atoms))


@lru_cache(maxsize=64)
def _grid_of(family: AmbiguityFamily, signs: tuple[float, ...]) -> _Grid:
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
    """Raise SupportOverflow when n steps exceed the cap in unreduced dense states, when their
    coordinate sums would leave the 64-bit integers that hold them, or when their lattice sums
    would leave the float range (the window's ends, by ``_Grid.sums``' arithmetic)."""
    total = (n + 1) + (grid.k_max - grid.k_min) * n * (n + 1) // 2
    if total > state_cap:
        raise SupportOverflow(
            f"{total} sum states for n={n} exceed the cap of {state_cap}; "
            "the lattice is too fine for this horizon"
        )
    if (reach := n * max(abs(grid.k_min), abs(grid.k_max))) >= 2**63:
        raise SupportOverflow(f"sums for n={n} reach lattice coordinate {reach}, past the 64-bit integers that hold it")
    if not all(math.isfinite(grid.sums(n, i)) for i in (0, grid.size(n) - 1)):
        raise SupportOverflow(f"lattice sums for n={n} leave the float range")


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


def _points(grid: _Grid, n: int, mask: np.ndarray) -> np.ndarray:
    """The terminal points ``sum / n`` at the reachable sums of step n."""
    return grid.sums(n, np.flatnonzero(mask)) / n


def _terminal(points: np.ndarray, mask: np.ndarray, phi: Callable, out: np.ndarray) -> None:
    """Write phi at a copy of the terminal ``points`` into the reachable entries of ``out``, zeros elsewhere."""
    out[:] = 0.0
    out[mask] = _eval_phi(phi, points.copy())


def _products(grid: _Grid) -> tuple[np.ndarray, tuple]:
    """The product weights of a step program and every member's terms on them.

    The weights are the distinct atom weights of the members that are not point masses (one atom of
    weight 1.0), as a ``(weights, 1)`` column; a member's terms are ``(weight index, shift)`` pairs,
    the index None for a point mass.  Weights are told apart by sign as well, so a -0.0 weight keeps
    products of its own.
    """
    index: dict = {}
    members = []
    for terms in grid.terms:
        if len(terms) == 1 and terms[0][0] == 1.0:
            members.append(((None, terms[0][1]),))
        else:
            members.append(tuple((index.setdefault((w, math.copysign(1.0, w)), len(index)), s) for w, s in terms))
    return np.array([w for w, _ in index], dtype=float).reshape(-1, 1), tuple(members)


def _program(
    weights: np.ndarray,
    members: tuple,
    rows: int,
    src: np.ndarray,
    dst: np.ndarray,
    acc: np.ndarray,
    products: np.ndarray,
    sel: np.ndarray | None = None,
    mix: np.ndarray | None = None,
) -> list[partial]:
    """The ufunc calls of one backward step from ``src`` into ``dst``, in order.

    The arrays are flat and state-major: entry (state s, row r) sits at ``s * rows + r``, so a shift
    of s states is a shift of ``s * rows`` entries and every view is one contiguous 1-D run.  ``dst``
    and ``acc`` hold ``width`` states from ``src``'s first state on (a window, or a block's bands, see
    ``_sweep``), ``products`` is ``(weights, (width + span) * rows)``
    and ``src`` has at least as many entries as a product row.  One multiply writes ``src * w`` over
    the products for every weight.  A member's value is the left-to-right sum of its terms' shifted
    product views (its shifted ``src`` view for a point mass), written to ``dst`` for member 0 and to
    ``acc`` for the others, and ``dst`` gets the running maximum over members in index order.
    ``sel``, when given, receives the lowest maximizing member index.  ``mix``, when given, holds the
    member weights at ``dst``'s entries, state-major ``(members, width * rows)``: ``dst`` then gets
    member 0's value times its weight and each later member's value times its weight added, in place
    of the maximum, and a product is set to 0 wherever its weight is 0.  The calls hold their views,
    so a program runs again for every step for which its arrays hold the step's data.
    """
    size = dst.size

    def view(i, s):
        return src[s * rows : s * rows + size] if i is None else products[i, s * rows : s * rows + size]

    calls = [] if sel is None else [partial(np.copyto, sel, 0)]
    flag = None if sel is None and mix is None else np.empty(size, dtype=bool)
    if weights.size:
        calls.append(partial(np.multiply, src[None, : products.shape[-1]], weights, products))
    for m, terms in enumerate(members):
        value = view(*terms[0])
        if len(terms) > 1:
            into = acc if m else dst
            calls.append(partial(np.add, value, view(*terms[1]), into))
            calls.extend(partial(np.add, into, view(*t), into) for t in terms[2:])
            value = into
        if mix is not None:  # a member of weight 0 adds exactly 0, though its value be infinite or NaN
            into, best = acc if m else dst, dst
            calls += [partial(np.multiply, value, mix[m], into), partial(np.equal, mix[m], 0.0, flag)]
            calls.append(partial(np.putmask, into, flag, 0.0))
            if m:
                calls.append(partial(np.add, dst, acc, dst))
        elif m:
            if sel is not None:
                calls += [partial(np.greater, value, best, flag), partial(np.copyto, sel, m, where=flag)]
            calls.append(partial(np.maximum, best, value, out=dst))
            best = dst
        else:
            best = value
    if best is not dst:
        calls.append(partial(np.copyto, dst, best))
    return calls


def _aligned(alloc: Callable, n: int) -> np.ndarray:
    """``n`` floats of ``alloc`` that start on an ``_ALIGN``-byte boundary, as a view.

    malloc aligns to 16 bytes only, and a step program over arrays 16 bytes off a cache line runs about
    30 % slower than over aligned ones (three_atom at n = 4096, AVX-512 ufunc loops).
    """
    raw = alloc(n + _ALIGN // 8 - 1)
    start = -raw.ctypes.data % _ALIGN // 8
    return raw[start : start + n]


def _cumulants(grid: _Grid, lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The largest member log-mgf of the reduced shift s and of -s at each ``lam`` in (0, 16 / span],
    each raised by a float margin (``_band``).

    A member's ``ln sum(w exp(lam s))`` is taken as ``lam * top + ln sum(w exp(-lam (top - s)))``, top
    its largest shift, and ``ln sum(w exp(-lam s))`` as ``-lam * bottom + ln sum(w exp(-lam (s -
    bottom)))``, bottom its smallest, so no exponent is positive and no sum underflows: its largest
    weight is at least 1 / atoms.  exp, log, the products and the sums err by a few units in the last
    place of ``atoms + lam * span``, and the margin ``2**-40 * (atoms + lam * span)`` is over a
    thousand times that.
    """
    up = down = -np.inf
    for terms in grid.terms:
        w, s = np.array(terms).T
        up = np.maximum(up, lam * s.max() + np.log(np.exp(np.multiply.outer(lam, s - s.max())) @ w))
        down = np.maximum(down, np.log(np.exp(np.multiply.outer(lam, s.min() - s)) @ w) - lam * s.min())
    margin = 2.0**-40 * (max(map(len, grid.terms)) + lam * grid.span)
    return up + margin, down + margin


@lru_cache(maxsize=32)
def _band(grid: _Grid, n: int) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """The first step whose band is narrower than its window (n when no earlier one is), and the band's
    lowest and highest reduced index at steps 0..n, clipped to each window.  Memoized, as read-only tuples.

    With ``up(lam)`` and ``down(lam)`` the largest member log-mgf of the reduced shift s and of -s
    (``_cumulants``), ``exp(lam S_k - k up(lam))`` and ``exp(-lam S_k - k down(lam))`` are
    supermartingales under any adapted choice of members, as a step's conditional mgf is a mixture of
    the members' own.  By Markov's inequality, for every ``lam > 0``, the reduced index of S_k passes
    ``(k up(lam) + ln(2 / eps_k)) / lam`` with probability at most ``eps_k / 2``, and falls below
    ``-(k down(lam) + ln(2 / eps_k)) / lam`` likewise (Chernoff); with ``eps_k = _TAIL_BUDGET / (k (k +
    1))`` these tails sum to less than ``_TAIL_BUDGET``.  Any ``lam`` gives a sound edge, so the
    choice only sets how tight it is.  Each edge is the best of four that depend on k alone:
    - the three points nearest the Gaussian optimum ``sqrt(2 ln(2 / eps_k) / (k var))``, var the
      largest member variance of s (``span^2 / 4`` when every member is a point mass), on a grid of
      three points per octave of ``lam * span`` from 2**-12 to 2**(11 / 3);
    - Hoeffding's optimizer, where Hoeffding's lemma bounds ``up(lam)`` by ``lam b + lam^2 span^2 / 8``
      (b the greatest member mean of s; ``down`` likewise with the least, a).  Its edges are the
      Azuma-Hoeffding band ``[k a - t_k, k b + t_k]``, ``t_k = span sqrt(k ln(2 / eps_k) / 2)``, so
      no band is wider than that one.
    One index of slack on each side absorbs the rounding of the edges.
    """
    if not grid.span:  # one state at every step
        return n, (0,) * (n + 1), (0,) * (n + 1)
    means = [sum(w * s for w, s in terms) for terms in grid.terms]
    var = max(sum(w * s * s for w, s in terms) - m * m for terms, m in zip(grid.terms, means)) or grid.span**2 / 4
    k = np.arange(1.0, n + 1.0)
    logs = np.log(2.0 * k * (k + 1.0) / _TAIL_BUDGET)  # ln(2 / eps_k)
    t = grid.span * np.sqrt(k * logs / 2.0)
    lo, hi = k * min(means) - t, k * max(means) + t
    points = np.exp2(np.arange(48) / 3.0 - 12.0) / grid.span
    up, down = _cumulants(grid, points)
    # the grid index 3 * (log2(lam * span) + 12) nearest the Gaussian optimum, inside the grid with both neighbours
    near = np.clip(np.rint(1.5 * np.log2(2.0 * logs / (k * var) * grid.span**2) + 36.0), 1, 46).astype(np.intp)
    for j in (near - 1, near, near + 1):
        hi = np.minimum(hi, (k * up[j] + logs) / points[j])
        lo = np.maximum(lo, -(k * down[j] + logs) / points[j])
    window = k * grid.span
    lo, hi = np.maximum(np.floor(lo) - 1.0, 0.0), np.minimum(np.ceil(hi) + 1.0, window)
    trimmed = np.flatnonzero((lo > 0.0) | (hi < window))
    first = int(trimmed[0]) + 1 if trimmed.size else n
    return first, (0, *lo.astype(np.int64).tolist()), (0, *hi.astype(np.int64).tolist())


def _row_groups(rows: list, span: int, weights: int = 1) -> list[list]:
    """Split descending ``(horizon, phi)`` rows into sweeps of at most ``_ROW_BUDGET`` live states (one row at least).

    A sweep of r rows of top horizon n holds ``3 + weights`` arrays of at most ``r * (n * span + 1)``
    states: the products of ``weights`` distinct atom weights, ``acc``, and ``cur`` and ``nxt``, which
    hold ``most`` states, the largest count of joined rows times their window (``_sweep``).  A weighted
    sweep counts its members' weights, an array each, in ``weights``.
    """
    groups: list[list] = []
    for row in rows:
        if not groups or (len(groups[-1]) + 1) * (groups[-1][0][0] * span + 1) * (3 + weights) > _ROW_BUDGET:
            groups.append([])
        groups[-1].append(row)
    return groups


class _Plan:
    """What a sweep builds before its first step (``_sweep``): kept by a plain sweep for the next one.

    The plan of a grid and its descending row horizons holds the reachable masks at those horizons,
    each horizon's terminal points, the ``cur``, ``nxt``, product and ``acc`` arrays, and the two step
    programs of every block in sweep order (``blocks``, filled as the sweep builds them).
    """

    __slots__ = ("grid", "horizons", "masks", "points", "weights", "members", "cur", "nxt", "products", "acc", "blocks")

    def __init__(self, grid: _Grid, horizons: tuple[int, ...], masks):
        self.grid, self.horizons = grid, horizons
        self.masks = _reachable_masks(grid, horizons[0], horizons) if masks is None else masks
        self.points = {n: _points(grid, n, self.masks[n]) for n in set(horizons)}
        self.weights, self.members = _products(grid)
        # the widest block: j joined rows of horizon n hold j * size(n) entries
        most = max((j + 1) * grid.size(n) for j, n in enumerate(horizons))
        self.cur, self.nxt = _aligned(np.zeros, most), _aligned(np.zeros, most)
        self.products, self.acc = _aligned(np.empty, self.weights.size * most), _aligned(np.empty, most)
        self.blocks: list[list] = []


# The plan of the most recent sweep if it was plain and kept it, else None; empty while a sweep runs (``_sweep``).
_held: _Plan | None = None


def _sweep(
    grid: _Grid,
    rows: list,
    masks=None,
    values: list | None = None,
    selections: list | None = None,
    measure: "PathMeasure | None" = None,
) -> np.ndarray:
    """Root values of descending ``(horizon, phi)`` rows by one backward sweep from the first horizon.

    ``cur`` and ``nxt`` hold the joined rows state-major (``_program``).  Where rows join, one strided
    copy re-lays the rows before them and each new row's phi fills its strided column.  The sweep
    runs in blocks of at most ``_BLOCK_STEPS`` steps that end where a row joins; each block builds one
    step program per direction of the ``cur``/``nxt`` swap, over fixed views that cover the union of
    its steps' bands (``_band``) from a cache line on, and runs them in turn with the ufunc buffer size
    ``_BUFSIZE``; phi runs under the caller's.  Entries outside a block's views keep values of their own
    row: while a later step is trimmed, both buffers get each join's step.  A sweep that records values
    or selections, and one whose joined rows' values are not all finite, computes the full windows.
    For one row of horizon n, ``values`` gets copies of each step's values from step n down to 0, and
    ``selections`` each step's lowest maximizing member from step n-1 down to 0; the members are only
    tracked when ``selections`` is given.  With a ``measure`` the sweep is weighted: before each step,
    ``_mix`` writes the measure's member weights at that step's states (``masks`` holds every step's),
    the step programs take them as their ``mix``, and invalid operations, which only members of weight 0
    meet, raise no float error.  ``masks`` None takes the masks of the row horizons (``_Plan``).

    A plain sweep (max mode, nothing recorded) keeps its ``_Plan`` in ``_held`` when every join's
    values were finite; the next plain sweep of the same grid object and row horizons zero-fills
    ``cur`` and ``nxt`` and runs the held programs.  Every sweep takes the held plan out first, and
    one that cannot use it drops it before allocating its own.  The roots are a copy.
    """
    global _held
    horizons = tuple(n for n, _ in rows)
    plain = values is None and selections is None and measure is None
    plan, _held = _held, None  # out of the slot while in use: a phi that sweeps again builds its own
    if plain and plan is not None and plan.grid is grid and plan.horizons == horizons:
        blocks = iter(plan.blocks)
        plan.cur.fill(0.0)
        plan.nxt.fill(0.0)
    else:
        del plan  # the held arrays go before the new ones are allocated
        plan, blocks = _Plan(grid, horizons, masks), None
    keep = plain
    weights, members, cur, nxt = plan.weights, plan.members, plan.cur, plan.nxt
    joined, k, caller, err = 0, rows[0][0], np.getbufsize(), np.geterr()
    mixed = None if measure is None else np.zeros((len(members), cur.size))  # the member weights at a step's states
    # steps below ``first`` compute their full windows
    first, lo, hi = (k, None, None) if values is not None or selections is not None else _band(grid, k)
    with np.errstate(invalid=err["invalid"] if measure is None else "ignore"):
        np.setbufsize(_BUFSIZE)
        while k:
            size, before = grid.size(k), joined
            while joined < len(rows) and rows[joined][0] == k:
                joined += 1
            if joined > before:
                if before:  # re-lay the rows already joined at the new stride
                    nxt[: size * joined].reshape(size, joined)[:, :before] = cur[: size * before].reshape(size, before)
                    cur, nxt = nxt, cur
                columns = cur[: size * joined].reshape(size, joined)
                with np.errstate(**err):  # phi runs under the caller's error handling and buffer size
                    np.setbufsize(caller)
                    for r in range(before, joined):
                        _terminal(plan.points[k], plan.masks[k], rows[r][1], columns[:, r])
                if first < k:
                    if np.isfinite(cur[: size * joined]).all():
                        nxt[: size * joined] = cur[: size * joined]
                    else:  # full windows from here on, so the held blocks no longer apply
                        first, blocks, keep = k, None, False
                if values is not None:
                    values.append(cur[:size].copy())
            end = max(k - _BLOCK_STEPS, rows[joined][0] if joined < len(rows) else 0)
            if blocks is not None:
                programs = next(blocks)
            else:
                if k - 1 < first:
                    start, stop = 0, grid.size(k - 1) * joined
                else:  # the union of the block's bands, from a cache line on
                    start = min(lo[end:k]) * joined
                    start -= start % (_ALIGN // 8)
                    stop = (max(hi[end:k]) + 1) * joined
                length = stop - start + grid.span * joined
                products = plan.products[: weights.size * length].reshape(weights.size, length)
                acc = plan.acc[: stop - start]
                sel = None if selections is None else np.empty(grid.size(k - 1), dtype=np.int32)
                mix = None if measure is None else mixed[:, start:stop]
                programs = [
                    _program(weights, members, joined, src[start:], dst[start:stop], acc, products, sel, mix)
                    for src, dst in ((cur, nxt), (nxt, cur))
                ]
                if keep:
                    plan.blocks.append(programs)
            for i in range(k - end):
                if measure is not None:
                    _mix(grid, measure, k - 1, masks[k - 1], joined, mixed)
                for call in programs[i % 2]:
                    call()
                cur, nxt, k = nxt, cur, k - 1
                if values is not None:
                    values.append(cur[: grid.size(k)].copy())
                if selections is not None:
                    selections.append(sel[: grid.size(k)].copy())
    if keep:
        _held = plan
    return cur[:joined].copy()


def _mix(grid: _Grid, measure: "PathMeasure", k: int, mask: np.ndarray, rows: int, mixed: np.ndarray) -> None:
    """Write a weighted sweep's member weights at the states of step k into ``mixed`` (``_sweep``).

    ``mixed`` gets ``_rule_weights`` at the reachable indices of step k, state-major: each state's
    weights once per joined row, and 0 at unreachable states.  A ``"none"`` measure's one weight vector
    is written by one broadcast product with the mask.  Entries past the window keep an earlier step's
    weights, which only stale entries read.
    """
    states = mixed[:, : mask.size * rows].reshape(len(mixed), mask.size, rows)
    if measure.depends_on == "none":  # w * True is w and w * False is 0.0 for the finite weights w >= 0
        np.multiply(mask[:, None], measure.mixture_weights(k)[:, None, None], out=states)
    else:
        states[:] = 0.0
        states[:, mask] = _rule_weights(measure, grid, k, np.flatnonzero(mask), None).T[..., None]


def _horizons(
    family: AmbiguityFamily, ns: Iterable[int], state_cap: int | None, measure: "PathMeasure | None" = None
) -> tuple[list[int], list[int], _Grid | None]:
    """Checked ``ns`` as a list of ints, its distinct horizons ascending and the grid: the one admission.

    The family must be valid and every n pass ``_check_n``, and with a ``state_cap`` (one that passed
    ``_check_state_cap``; None only from ``_admit``) the cap (an overflow names the smallest n).  A ``measure`` must fit the longest n: horizon, member count and a policy's
    lattice; weights are checked on use.  The grid, dearer than the rest, is None unless one of these needs it.
    """
    _require_valid(family)
    horizons = [_check_n(n) for n in ns]
    distinct, policy = sorted(set(horizons)), getattr(measure, "policy", None)
    grid = None if state_cap is None and policy is None else _grid(family)
    if state_cap is not None:
        for n in distinct:
            _check_cap(grid, n, state_cap)
    if measure is not None and distinct:
        if measure.horizon < distinct[-1]:
            raise PolicyIncomplete(f"measure horizon {measure.horizon} is shorter than n={distinct[-1]}")
        if measure.member_count != (members := len(family.members)):
            raise PolicyIncomplete(f"mixture weights have shape ({measure.member_count},), expected ({members},)")
        lattice = operator.attrgetter("origin", "step", "k_min", "k_max", "gcd")
        if policy is not None and lattice(policy.support) != lattice(grid):
            raise PolicyIncomplete("policy was extracted for a different lattice grid")
    return horizons, distinct, grid


def payoff_expectations(
    family: AmbiguityFamily,
    payoffs: Sequence[Callable],
    ns: Iterable[int],
    state_cap: int = DEFAULT_STATE_CAP,
    measure: "PathMeasure | SelectionPolicy | None" = None,
) -> tuple[tuple[float, ...], ...]:
    """Expectations of ``phi(S_n / n)`` for every n in ``ns``, one tuple per phi in ``payoffs``: the one evaluator.

    Without a ``measure`` they are worst-case expectations; with one, expectations under it (a
    :class:`SelectionPolicy` taken as ``PathMeasure.from_policy``; anything else raises ``TypeError``).
    One backward sweep from the largest horizon serves them all, a ``(horizon, phi)`` row each (see
    the module docstring), weighted when the measure's rule reads nothing or the running sum; a history
    rule's leaf mass, from one walk per horizon, serves every payoff.  ``ns`` may be unsorted and repeat
    horizons.
    """
    if isinstance(measure, SelectionPolicy):
        measure = PathMeasure.from_policy(measure, len(family.members))
    if measure is not None and not isinstance(measure, PathMeasure):
        raise TypeError(f"unsupported policy object: {measure!r}")
    state_cap = _check_state_cap(state_cap)
    horizons, distinct, grid = _horizons(family, ns, state_cap, measure)
    if not horizons:
        return tuple(() for _ in payoffs)
    keys = [(n, i) for n in reversed(distinct) for i in range(len(payoffs))]
    if measure is not None and measure.depends_on == "history":
        masks = _reachable_masks(grid, distinct[-1], distinct)
        mass = {n: np.zeros(grid.size(n)) for n in distinct}
        for n in distinct:
            _, index, probs, _ = _walk_histories(family, measure, n, state_cap)
            # reversed rows add the paths in the order of a depth-first walk
            np.add.at(mass[n], index[::-1], probs[::-1])
        roots = {}
        for n, i in keys:
            terms = np.empty(grid.size(n))
            _terminal(_points(grid, n, masks[n]), masks[n], payoffs[i], terms)
            # a sum of mass 0 adds 0 * phi where phi is finite, so a zero total keeps its sign, and exactly 0 elsewhere
            live = (mass[n] > 0.0) | np.isfinite(terms)
            weighted = np.multiply(mass[n], terms, out=np.zeros(grid.size(n)), where=live)
            roots[n, i] = pairwise_total(weighted[masks[n]])
    else:
        # a weighted sweep reads every step's masks; a plain one finds those of its rows (``_Plan``)
        masks = None if measure is None else _reachable_masks(grid, distinct[-1], range(distinct[-1] + 1))
        budget = _products(grid)[0].size + (0 if measure is None else len(grid.terms))
        groups = _row_groups([(n, payoffs[i]) for n, i in keys], grid.span, budget)
        roots = dict(zip(keys, (r for group in groups for r in _sweep(grid, group, masks, measure=measure).tolist())))
    return tuple(tuple(roots[n, i] for n in horizons) for i in range(len(payoffs)))


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
    (n,), _, grid = _horizons(family, [n], _check_state_cap(state_cap))
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
        if not _is_int(member_index) or not 0 <= member_index < len(family.members):
            raise PolicyIncomplete(f"member index {member_index!r} out of range")
        support = build_support(family, n, state_cap)
        sels = (np.where(support.masks[k], np.int32(member_index), np.int32(-1)) for k in range(support.n))
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
        self.horizon = _check_n(horizon)
        if not _is_int(member_count) or member_count < 1:
            raise PolicyIncomplete(f"member count must be a positive integer, got {member_count!r}")
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


def _admit(family: AmbiguityFamily, measure: PathMeasure, n: int) -> int:
    """The admitted int n of a measure's n draws from the family (see ``_horizons``)."""
    return _horizons(family, [n], None, measure)[0][0]


def iid_sum_expectation(
    family: AmbiguityFamily,
    n: int,
    phi: Callable,
    state_cap: int = DEFAULT_STATE_CAP,
) -> float:
    """Worst-case expectation of ``phi(S_n / n)`` by exact backward recursion."""
    return payoff_expectations(family, [phi], [n], state_cap)[0][0]


def lower_iid_sum_expectation(
    family: AmbiguityFamily,
    n: int,
    phi: Callable,
    state_cap: int = DEFAULT_STATE_CAP,
) -> float:
    """Best-case (lower) expectation of ``phi(S_n / n)``: -upper of -phi."""
    return -payoff_expectations(family, [lambda x: -phi(x)], [n], state_cap)[0][0]


def value_table(
    family: AmbiguityFamily,
    n: int,
    phi: Callable,
    state_cap: int = DEFAULT_STATE_CAP,
) -> ValueTable:
    """Full backward-recursion table for ``phi(S_n / n)``."""
    support = build_support(family, n, state_cap)
    values: list = []
    _sweep(support, [(support.n, phi)], support.masks, values=values)
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
    _sweep(support, [(support.n, phi)], support.masks, selections=selections)
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


def _rule_weights(measure: PathMeasure, grid: _Grid, k: int, index: np.ndarray, histories) -> np.ndarray:
    """Step-k weights ``(rows, members)`` at the window indices ``index``; the one place a rule is called.

    A ``"none"`` vector is tiled, a policy's selections at each row's index
    become one-hot rows (the policy's grid is the family's, see ``_horizons``),
    a sum rule gets the lattice sum ``grid.sums(k, index)``, a history rule each
    row's realized atoms as a tuple of floats, from ``histories`` (one sequence
    per row; None for the other rules).
    """
    if measure.depends_on == "none":
        return np.tile(measure.mixture_weights(k), (len(index), 1))
    if measure.policy is not None:
        sel = measure.policy.selections[k][index]
        holes = np.flatnonzero(sel < 0)
        if holes.size:
            total = float(grid.sums(k, index[holes[0]]))
            raise PolicyIncomplete(f"no selection at step {k}, sum {total!r}")
        return (sel[:, None] == np.arange(measure.member_count)).astype(float)
    if measure.depends_on == "sum":
        totals = grid.sums(k, index).tolist()
        return np.array([measure.mixture_weights(k, total=t) for t in totals])
    return np.array([measure.mixture_weights(k, history=tuple(h)) for h in histories])


def _walk_histories(family: AmbiguityFamily, measure: PathMeasure, n: int, cap: int | None) -> tuple:
    """``(paths, index, probs, means)`` of n draws, by one level-by-level walk of the history tree.

    Rows are in lexicographic order of the atom indices and ``index`` holds each path's window index
    at step n; a level's rows share one ``_rule_weights`` call, a child's probability is its parent's
    times ``q = omega @ w_matrix.T``, and ``means[k]`` is level k's ``q @ atoms``.  With ``cap`` None
    every child is kept; otherwise children of zero ``q`` are dropped and ``SupportOverflow`` is raised
    before a level takes the live children of all levels past ``cap``.  The walk holds one level of
    paths at a time.
    """
    coords, atoms, w_matrix = family.union_atoms()
    grid = _grid(family)
    shifts = grid.index(1, coords)  # an atom's index at step 1; a path's index at step k is the sum of its atoms'
    paths = np.zeros((1, 0))
    means = []
    probs = np.array([1.0])
    index = np.zeros(1, dtype=np.int64)
    visited = 0
    for k in range(n):
        histories = paths.tolist() if measure.depends_on == "history" else None
        q = _rule_weights(measure, grid, k, index, histories) @ w_matrix.T
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
        index = np.repeat(index, counts) + shifts[atom]
    return paths, index, probs, tuple(means)


def expectation_under_policy(
    family: AmbiguityFamily,
    n: int,
    phi: Callable,
    policy: SelectionPolicy | PathMeasure,
    state_cap: int = DEFAULT_STATE_CAP,
) -> float:
    """Exact expectation of ``phi(S_n / n)`` under a policy or mixture measure.

    ``policy`` is a :class:`PathMeasure` or a :class:`SelectionPolicy`, taken
    as ``PathMeasure.from_policy``; anything else raises ``TypeError``.  The
    family, n and the measure are admitted once by ``_horizons``.  The
    expectation is exact up to rounding: by the weighted backward recursion
    over sum states, or, when the rule is genuinely history-dependent, by
    averaging phi against the leaves of the history tree.
    """
    return payoff_expectations(family, [phi], [n], state_cap, policy)[0][0]
