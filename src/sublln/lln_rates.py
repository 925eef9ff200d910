"""Limit computation and convergence-rate bounds for worst-case sums.

For a Lipschitz shape function phi the worst-case expectation of
``phi(S_n / n)`` converges to ``max phi`` over the mean interval, at rate

    gap(n) <= L * (4 * C_alpha / n^alpha) ** (1 / (1 + alpha))

where ``C_alpha`` is the worst-case absolute (1+alpha)-moment, sharpening
to ``sigma_bar / sqrt(n)`` for 1-Lipschitz phi (sigma_bar the upper
standard deviation).  This module holds the shapes (:data:`CATALOG` names
those a config may ask for), the limit by certified grid search, the bound
formulas, the squared-distance moment and gap-versus-n sweeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, NamedTuple, Optional, Sequence

import numpy as np

from .ambiguity import (
    DEFAULT_ALPHAS,
    AlphaOutOfRange,
    AmbiguityFamily,
    MomentSummary,
    mean_bounds,
    moment_c_alpha,  # unused here; kept bound for perfbench's span tracer
    moment_summary,
    upper_variance,  # unused here; kept bound for perfbench's span tracer
)
from .engine import DEFAULT_STATE_CAP, NonPositiveN, _check_n, _eval_phi, iid_sum_expectation, iid_sum_expectations
from .phi_expr import Abs, Add, Clip, Max, Mul, Neg, Num, PhiExpression, Sub, Var
from .rng import unit_array

__all__ = [
    "BOUND_TOL",
    "ROUND_TOL",
    "CATALOG",
    "CatalogEntry",
    "InvalidInterval",
    "NonPositiveN",
    "LipschitzFunction",
    "IntervalMaxResult",
    "RateReport",
    "LipschitzCheck",
    "linear",
    "abs_dev",
    "neg_abs_dev",
    "clip_to",
    "interval_dist_sq",
    "interval_distance_phi",
    "spot_check_lipschitz",
    "interval_max",
    "theorem3_bound",
    "corollary_bound",
    "fang_bound",
    "improved_distance_bound",
    "distance_sq_moment",
    "rate_reports",
    "rate_sweep",
    "verdict",
]

BOUND_TOL = 1e-9
ROUND_TOL = 1e-12

_MAX_GRID_INTERVALS = 10**6
_GRID_BLOCK = 1 << 14  # grid points per phi call: 128 KiB per float64 temporary


def verdict(lhs: float, rhs: float, err: float) -> bool:
    """Whether ``lhs <= rhs`` holds up to ``err``: every ``holds_*`` and ``ok`` cell of a report but ``mc``'s.

    The float form is exactly ``lhs <= rhs + err``, which rounds unlike ``lhs - rhs <= err``
    (the two disagree on ``(1.0, 1.0 - 2**-53, 2**-54)``).  ``err`` is ``BOUND_TOL`` for the
    rate bounds of ``sweep`` and ``variance`` and the Chatterji moment chain, and ``ROUND_TOL``
    elsewhere, the theorem-3 bound of ``pstar`` included.
    """
    return bool(lhs <= rhs + err)


class InvalidInterval(ValueError):
    """Interval endpoints are out of order."""


@dataclass(frozen=True)
class LipschitzFunction:
    """A shape function with a declared (sound) Lipschitz constant."""

    evaluator: Callable
    lipschitz_constant: float
    name: str

    def __post_init__(self):
        if not (math.isfinite(self.lipschitz_constant) and self.lipschitz_constant >= 0.0):
            raise ValueError(f"Lipschitz constant must be finite and >= 0, got {self.lipschitz_constant}")

    def __call__(self, x):
        return self.evaluator(x)


def _tree(root, lipschitz_constant: float, name: str) -> LipschitzFunction:
    """A catalog shape: its tree runs the numpy operations of the formula it names, in its order."""
    return LipschitzFunction(PhiExpression(name, root), lipschitz_constant, name)


def linear(a: float, b: float) -> LipschitzFunction:
    return _tree(Add(Mul(Num(a), Var()), Num(b)), abs(a), f"linear(a={a!r},b={b!r})")


def abs_dev(c: float) -> LipschitzFunction:
    return _tree(Abs(Sub(Var(), Num(c))), 1.0, f"abs_dev(c={c!r})")


def neg_abs_dev(c: float) -> LipschitzFunction:
    return _tree(Neg(Abs(Sub(Var(), Num(c)))), 1.0, f"neg_abs_dev(c={c!r})")


def clip_to(lo: float, hi: float) -> LipschitzFunction:
    if not lo <= hi:
        raise InvalidInterval(f"clip interval [{lo}, {hi}] is empty")
    return _tree(Clip(Var(), lo, hi), 1.0, f"clip(lo={lo!r},hi={hi!r})")


def interval_dist_sq(lo: float, hi: float, domain_lo: float, domain_hi: float) -> LipschitzFunction:
    """Squared distance ``d*d``, ``d = max(lo-x,0)+max(x-hi,0)``, to [lo, hi], Lipschitz on the domain."""
    if not lo <= hi:
        raise InvalidInterval(f"target interval [{lo}, {hi}] is empty")
    if not domain_lo <= domain_hi:
        raise InvalidInterval(f"domain [{domain_lo}, {domain_hi}] is empty")
    d = Add(Max(Sub(Num(lo), Var()), Num(0.0)), Max(Sub(Var(), Num(hi)), Num(0.0)))
    constant = 2.0 * max(abs(domain_lo - hi), abs(domain_hi - lo))
    return _tree(Mul(d, d), constant, f"interval_dist_sq(lo={lo!r},hi={hi!r})")


def interval_distance_phi(family: AmbiguityFamily) -> LipschitzFunction:
    """Squared distance to the family's mean interval, on its support range."""
    return CATALOG["interval_dist_sq"].build(family, *mean_bounds(family))


class CatalogEntry(NamedTuple):
    """Parameter names and ``build(family, **params)``; the family gives a shape its support."""

    params: tuple[str, ...]
    build: Callable[..., LipschitzFunction]


CATALOG: Mapping[str, CatalogEntry] = {
    "linear": CatalogEntry(("a", "b"), lambda family, a, b: linear(a, b)),
    "abs_dev": CatalogEntry(("c",), lambda family, c: abs_dev(c)),
    "neg_abs_dev": CatalogEntry(("c",), lambda family, c: neg_abs_dev(c)),
    "clip": CatalogEntry(("lo", "hi"), lambda family, lo, hi: clip_to(lo, hi)),
    "interval_dist_sq": CatalogEntry(
        ("lo", "hi"), lambda family, lo, hi: interval_dist_sq(lo, hi, *family.support_bounds())
    ),
}


@dataclass(frozen=True)
class LipschitzCheck:
    ok: bool
    worst_excess: float
    x: float
    y: float


def spot_check_lipschitz(
    phi: LipschitzFunction,
    lo: float,
    hi: float,
    pairs: int = 10_000,
    seed: int = 0,
    rel_tol: float = 1e-9,
) -> LipschitzCheck:
    """Randomized check that |phi(x) - phi(y)| <= L |x - y| on [lo, hi].

    Draws point pairs deterministically from the given seed and reports the
    worst slack violation (relative tolerance ``rel_tol``).  A sound
    constant passes; a declared constant that is too small is caught with
    high probability.  Raises ``ValueError`` naming the first point where
    phi is not finite.
    """
    if not lo <= hi:
        raise InvalidInterval(f"[{lo}, {hi}] is empty")
    u = unit_array(seed, 0, 2 * pairs)
    xs = np.concatenate([lo + u[:pairs] * (hi - lo), [lo]])
    ys = np.concatenate([lo + u[pairs:] * (hi - lo), [hi]])
    fx = _eval_phi(phi, xs)
    fy = _eval_phi(phi, ys)
    for x, f in ((xs, fx), (ys, fy)):
        if not np.isfinite(f).all():
            raise ValueError(f"phi is not finite at x={float(x[np.argmin(np.isfinite(f))])!r}")
    # Both sides are scaled by s = 2^-e with max(1, L) < 2^e, exact outside the subnormal range;
    # with s <= 1/2 and L*s < 1 no term can overflow.  The excess is divided back by s when reported.
    s = math.ldexp(1.0, -math.frexp(max(1.0, phi.lipschitz_constant))[1])
    budget = (phi.lipschitz_constant * s) * np.abs(xs - ys)
    excess = np.abs(fx * s - fy * s) - (budget + rel_tol * (s + budget))
    i = int(np.argmax(excess))
    return LipschitzCheck(bool(excess[i] <= 0.0), float(excess[i]) / s, float(xs[i]), float(ys[i]))


@dataclass(frozen=True)
class IntervalMaxResult:
    """Certified grid maximum of a Lipschitz function over an interval."""

    argmax_r: float
    max_value: float
    grid_error_bound: float


def interval_max(phi: LipschitzFunction, mu_lower: float, mu_upper: float) -> IntervalMaxResult:
    """Maximize phi over [mu_lower, mu_upper] on a uniform grid with both endpoints.

    The true maximum exceeds the reported one by at most ``grid_error_bound = L*h/2``.  The grid
    aims at ``L*h/2 <= 1e-9 * max(1, L*(hi-lo))`` with at most 10^6 intervals; the cap binds once
    ``L*(hi-lo) > 2e-3``, and then the bound is ``L*(hi-lo) / (2*10^6)`` (5e-7 for L = 1 on [0, 1]).

    The grid is ``np.linspace(mu_lower, mu_upper, intervals + 1)`` point for point, built and
    handed to phi ``_GRID_BLOCK`` points at a time, so phi's temporaries stay in L2.  When phi is
    a :class:`PhiExpression` tree (every catalog shape and config expression), each block gets
    the upper end of ``enclose`` over the hull of its grid points.  That bound holds for the
    float values phi returns there, rounding included (see ``PhiExpression.enclose``).  Blocks
    are then taken by descending bound, ties by block index, and a block is skipped when its
    bound is below the best value so far, or equal to it and the block starts after the best
    index: it cannot hold a larger value, nor an equal one at a lower index.  A value is kept
    when it is larger than the best, or equal to it at a lower index.  An opaque callable, or a
    tree whose enclosure is not finite, has no bound: its blocks go in index order and none is
    skipped, and a NaN ends the search.  Either way the result is ``np.argmax`` of the whole
    grid: the lowest maximizing index, signed zeros included, or the first NaN.
    """
    if not mu_lower <= mu_upper:
        raise InvalidInterval(f"[{mu_lower}, {mu_upper}] is empty")
    span = mu_upper - mu_lower
    if span == 0.0:
        return IntervalMaxResult(mu_lower, float(_eval_phi(phi, np.array([mu_lower]))[0]), 0.0)
    L = phi.lipschitz_constant
    # the target above, with L*span clipped at 1 rather than divided out: a huge L cannot give inf / inf
    intervals = min(_MAX_GRID_INTERVALS, max(1, math.ceil(min(span * L, 1.0) / 2e-9)))
    # np.linspace's point i is float(i) * step + mu_lower, and its last point is mu_upper.  Its
    # denormal branch (step == 0) cannot occur: step is span (one interval) or above 1e-9 / L
    # (the rule above), which is positive as L is finite.
    step = span / intervals
    starts = np.arange(0, intervals + 1, _GRID_BLOCK)
    highs = _block_highs(phi.evaluator, starts, intervals, step, mu_lower, mu_upper)
    blocks = range(len(starts)) if highs is None else sorted(range(len(starts)), key=lambda b: (-highs[b], b))
    best = None  # (grid index, point, value)
    for b in blocks:
        start = int(starts[b])
        if best is not None and highs is not None and (highs[b] < best[2] or highs[b] <= best[2] and start > best[0]):
            continue
        xs = np.arange(start, min(start + _GRID_BLOCK, intervals + 1), dtype=float)
        xs *= step
        xs += mu_lower
        if start + len(xs) > intervals:
            xs[-1] = mu_upper
        vals = _eval_phi(phi, xs)
        i = int(np.argmax(vals))
        value = float(vals[i])
        if best is None or value > best[2] or value == best[2] and start + i < best[0] or math.isnan(value):
            best = (start + i, float(xs[i]), value)
            if math.isnan(value):
                break
    return IntervalMaxResult(best[1], best[2], L * step / 2.0)


def _block_highs(evaluator, starts: np.ndarray, intervals: int, step: float, mu_lower: float, mu_upper: float):
    """Each grid block's enclosure upper end, or None for an opaque callable or a non-finite enclosure.

    A block's points are ``float(i) * step + mu_lower`` for its indices i, nondecreasing in i as
    every rounded operation is monotone, and ``mu_upper`` for the last index, so the hull of its
    first and last regular point and (last block) ``mu_upper`` holds them all.
    """
    if not isinstance(evaluator, PhiExpression):
        return None
    first = starts * step + mu_lower
    last = (np.minimum(starts + _GRID_BLOCK, intervals) - 1) * step + mu_lower
    lo, hi = np.minimum(first, last), np.maximum(first, last)
    lo[-1], hi[-1] = min(lo[-1], mu_upper), max(hi[-1], mu_upper)
    _, high = evaluator.enclose(lo, hi)
    return high.tolist() if np.isfinite(high).all() else None


def theorem3_bound(L: float, c_alpha: float, alpha: float, n: int) -> float:
    """Rate bound ``L * (4 * c_alpha / n^alpha) ** (1 / (1 + alpha))``."""
    if not L >= 0.0:
        raise ValueError(f"L must be >= 0, got {L}")
    if not c_alpha >= 0.0:
        raise ValueError(f"c_alpha must be >= 0, got {c_alpha}")
    if not (0.0 < alpha <= 1.0):
        raise AlphaOutOfRange(f"alpha must be in (0, 1], got {alpha}")
    n = _check_n(n)
    return L * (4.0 * c_alpha / n**alpha) ** (1.0 / (1.0 + alpha))


def corollary_bound(sigma_bar: float, n: int) -> float:
    """Rate bound ``sigma_bar / sqrt(n)`` for 1-Lipschitz shape functions."""
    if not sigma_bar >= 0.0:
        raise ValueError(f"sigma_bar must be >= 0, got {sigma_bar}")
    n = _check_n(n)
    return sigma_bar / math.sqrt(n)


def fang_bound(sigma_bar_sq: float, mu_spread: float, n: int) -> float:
    """Earlier distance-moment bound ``2*(sigma_bar_sq + mu_spread^2) / n``.

    Callers choose which upper-variance variant to supply (the literature
    also uses ``sup_P Var_P``); reports should state which was used.
    """
    if not sigma_bar_sq >= 0.0:
        raise ValueError(f"sigma_bar_sq must be >= 0, got {sigma_bar_sq}")
    if not mu_spread >= 0.0:
        raise ValueError(f"mu_spread must be >= 0, got {mu_spread}")
    n = _check_n(n)
    return 2.0 * (sigma_bar_sq + mu_spread**2) / n


def improved_distance_bound(sigma_bar_sq: float, n: int) -> float:
    """Sharpened distance-moment bound ``sigma_bar_sq / n``."""
    if not sigma_bar_sq >= 0.0:
        raise ValueError(f"sigma_bar_sq must be >= 0, got {sigma_bar_sq}")
    n = _check_n(n)
    return sigma_bar_sq / n


def distance_sq_moment(family: AmbiguityFamily, n: int, state_cap: int = DEFAULT_STATE_CAP) -> float:
    """Worst-case expectation of the squared distance of S_n/n to the mean interval."""
    return iid_sum_expectation(family, n, interval_distance_phi(family), state_cap)


@dataclass(frozen=True)
class RateReport:
    """Per-n record of the worst-case expectation, the limit, and every bound."""

    n: int
    expectation: float
    limit: float
    gap: float
    bound_theorem3: Mapping[float, float]
    theorem3_holds: Mapping[float, bool]
    bound_corollary: Optional[float]
    corollary_holds: Optional[bool]

    @property
    def all_hold(self) -> bool:
        ok = all(self.theorem3_holds.values())
        if self.corollary_holds is not None:
            ok = ok and self.corollary_holds
        return ok


def rate_reports(
    phi: LipschitzFunction,
    ns: Sequence[int],
    expectations: Sequence[float],
    limit: float,
    moments: MomentSummary,
) -> tuple[RateReport, ...]:
    """Per-n rate reports from the worst cases ``expectations`` of ``ns``, the limit and the moments.

    The corollary bound applies to 1-Lipschitz shape functions and is
    reported only when ``phi.lipschitz_constant <= 1``.
    """
    L = phi.lipschitz_constant
    use_corollary = L <= 1.0
    reports = []
    for n, e in zip(ns, expectations):
        gap = abs(e - limit)
        b3 = {a: theorem3_bound(L, c, a, n) for a, c in moments.c_alpha.items()}
        h3 = {a: verdict(gap, b, BOUND_TOL) for a, b in b3.items()}
        bc = corollary_bound(moments.sigma_bar, n) if use_corollary else None
        hc = verdict(gap, bc, BOUND_TOL) if use_corollary else None
        reports.append(RateReport(n, e, limit, gap, b3, h3, bc, hc))
    return tuple(reports)


def rate_sweep(
    family: AmbiguityFamily,
    phi: LipschitzFunction,
    n_schedule: Sequence[int],
    alphas: Sequence[float] = DEFAULT_ALPHAS,
    state_cap: int = DEFAULT_STATE_CAP,
) -> tuple[RateReport, ...]:
    """Gap-versus-n sweep with every requested bound evaluated per n (see :func:`rate_reports`)."""
    schedule = [_check_n(n) for n in n_schedule]
    if not schedule:
        raise ValueError("n_schedule must be nonempty")
    if any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise ValueError(f"n_schedule must be strictly ascending, got {schedule}")
    moments = moment_summary(family, alphas)
    limit = interval_max(phi, moments.mu_lower, moments.mu_upper).max_value
    return rate_reports(phi, schedule, iid_sum_expectations(family, phi, schedule, state_cap), limit, moments)
