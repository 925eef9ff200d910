"""Limit computation and convergence-rate bounds for worst-case sums.

For a Lipschitz shape function phi the worst-case expectation of
``phi(S_n / n)`` converges to ``max phi`` over the mean interval, at rate

    gap(n) <= L * (4 * C_alpha / n^alpha) ** (1 / (1 + alpha))

where ``C_alpha`` is the worst-case absolute (1+alpha)-moment, sharpening
to ``sigma_bar / sqrt(n)`` for 1-Lipschitz phi (sigma_bar the upper
standard deviation).  This module computes the limit by certified grid
search, the bound formulas, the squared-distance moment to the mean
interval, and gap-versus-n sweeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .ambiguity import (
    AlphaOutOfRange,
    AmbiguityFamily,
    MomentSummary,
    mean_bounds,
    moment_c_alpha,  # unused here; kept bound for perfbench's span tracer
    moment_summary,
    upper_variance,  # unused here; kept bound for perfbench's span tracer
)
from .engine import DEFAULT_STATE_CAP, _eval_phi, iid_sum_expectation, iid_sum_expectations
from .rng import unit_array

__all__ = [
    "BOUND_TOL",
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
]

BOUND_TOL = 1e-9

_MAX_GRID_INTERVALS = 10**6


class InvalidInterval(ValueError):
    """Interval endpoints are out of order."""


class NonPositiveN(ValueError):
    """Horizon n must be a positive integer."""


def _check_n(n: int) -> None:
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise NonPositiveN(f"n must be a positive integer, got {n!r}")


@dataclass(frozen=True)
class LipschitzFunction:
    """A shape function with a declared (sound) Lipschitz constant."""

    evaluator: Callable
    lipschitz_constant: float
    name: str

    def __post_init__(self):
        if not self.lipschitz_constant >= 0.0:
            raise ValueError(f"Lipschitz constant must be >= 0, got {self.lipschitz_constant}")

    def __call__(self, x):
        return self.evaluator(x)


def linear(a: float, b: float) -> LipschitzFunction:
    return LipschitzFunction(lambda x: a * x + b, abs(a), f"linear(a={a!r},b={b!r})")


def abs_dev(c: float) -> LipschitzFunction:
    return LipschitzFunction(lambda x: np.abs(x - c), 1.0, f"abs_dev(c={c!r})")


def neg_abs_dev(c: float) -> LipschitzFunction:
    return LipschitzFunction(lambda x: -np.abs(x - c), 1.0, f"neg_abs_dev(c={c!r})")


def clip_to(lo: float, hi: float) -> LipschitzFunction:
    if not lo <= hi:
        raise InvalidInterval(f"clip interval [{lo}, {hi}] is empty")
    return LipschitzFunction(lambda x: np.clip(x, lo, hi), 1.0, f"clip(lo={lo!r},hi={hi!r})")


def interval_dist_sq(lo: float, hi: float, domain_lo: float, domain_hi: float) -> LipschitzFunction:
    """Squared distance to [lo, hi], with a Lipschitz constant valid on the domain."""
    if not lo <= hi:
        raise InvalidInterval(f"target interval [{lo}, {hi}] is empty")
    if not domain_lo <= domain_hi:
        raise InvalidInterval(f"domain [{domain_lo}, {domain_hi}] is empty")

    def evaluator(x):
        d = np.maximum(lo - x, 0.0) + np.maximum(x - hi, 0.0)
        return d * d

    constant = 2.0 * max(abs(domain_lo - hi), abs(domain_hi - lo))
    return LipschitzFunction(
        evaluator, constant, f"interval_dist_sq(lo={lo!r},hi={hi!r})"
    )


def interval_distance_phi(family: AmbiguityFamily) -> LipschitzFunction:
    """Squared distance to the family's mean interval, on its support range."""
    lo, hi = mean_bounds(family)
    dlo, dhi = family.support_bounds()
    return interval_dist_sq(lo, hi, dlo, dhi)


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
    high probability.
    """
    if not lo <= hi:
        raise InvalidInterval(f"[{lo}, {hi}] is empty")
    u = unit_array(seed, 0, 2 * pairs)
    xs = lo + u[:pairs] * (hi - lo)
    ys = lo + u[pairs:] * (hi - lo)
    xs = np.concatenate([xs, [lo]])
    ys = np.concatenate([ys, [hi]])
    fx = _eval_phi(phi, xs)
    fy = _eval_phi(phi, ys)
    budget = phi.lipschitz_constant * np.abs(xs - ys)
    excess = np.abs(fx - fy) - (budget + rel_tol * (1.0 + budget))
    i = int(np.argmax(excess))
    return LipschitzCheck(bool(excess[i] <= 0.0), float(excess[i]), float(xs[i]), float(ys[i]))


@dataclass(frozen=True)
class IntervalMaxResult:
    """Certified grid maximum of a Lipschitz function over an interval."""

    argmax_r: float
    max_value: float
    grid_error_bound: float


def interval_max(phi: LipschitzFunction, mu_lower: float, mu_upper: float) -> IntervalMaxResult:
    """Maximize phi over [mu_lower, mu_upper] on a uniform grid with both endpoints.

    The grid step h is chosen so that ``L*h/2 <= 1e-9 * max(1, L*(hi-lo))``,
    capped at 10^6 + 1 points; the true maximum exceeds the reported one by
    at most ``grid_error_bound = L*h/2``.
    """
    if not mu_lower <= mu_upper:
        raise InvalidInterval(f"[{mu_lower}, {mu_upper}] is empty")
    span = mu_upper - mu_lower
    if span == 0.0:
        return IntervalMaxResult(mu_lower, float(_eval_phi(phi, np.array([mu_lower]))[0]), 0.0)
    L = phi.lipschitz_constant
    if L == 0.0:
        vals = _eval_phi(phi, np.array([mu_lower, mu_upper]))
        i = int(np.argmax(vals))
        return IntervalMaxResult((mu_lower, mu_upper)[i], float(vals[i]), 0.0)
    target = 1e-9 * max(1.0, L * span)
    intervals = min(_MAX_GRID_INTERVALS, max(1, math.ceil(span * L / (2.0 * target))))
    grid = np.linspace(mu_lower, mu_upper, intervals + 1)
    vals = _eval_phi(phi, grid)
    i = int(np.argmax(vals))
    return IntervalMaxResult(float(grid[i]), float(vals[i]), L * (span / intervals) / 2.0)


def theorem3_bound(L: float, c_alpha: float, alpha: float, n: int) -> float:
    """Rate bound ``L * (4 * c_alpha / n^alpha) ** (1 / (1 + alpha))``."""
    if not L >= 0.0:
        raise ValueError(f"L must be >= 0, got {L}")
    if not c_alpha >= 0.0:
        raise ValueError(f"c_alpha must be >= 0, got {c_alpha}")
    if not (0.0 < alpha <= 1.0):
        raise AlphaOutOfRange(f"alpha must be in (0, 1], got {alpha}")
    _check_n(n)
    return L * (4.0 * c_alpha / n**alpha) ** (1.0 / (1.0 + alpha))


def corollary_bound(sigma_bar: float, n: int) -> float:
    """Rate bound ``sigma_bar / sqrt(n)`` for 1-Lipschitz shape functions."""
    if not sigma_bar >= 0.0:
        raise ValueError(f"sigma_bar must be >= 0, got {sigma_bar}")
    _check_n(n)
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
    _check_n(n)
    return 2.0 * (sigma_bar_sq + mu_spread**2) / n


def improved_distance_bound(sigma_bar_sq: float, n: int) -> float:
    """Sharpened distance-moment bound ``sigma_bar_sq / n``."""
    if not sigma_bar_sq >= 0.0:
        raise ValueError(f"sigma_bar_sq must be >= 0, got {sigma_bar_sq}")
    _check_n(n)
    return sigma_bar_sq / n


def distance_sq_moment(family: AmbiguityFamily, n: int, state_cap: int = DEFAULT_STATE_CAP) -> float:
    """Worst-case expectation of the squared distance of S_n/n to the mean interval."""
    _check_n(n)
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
        h3 = {a: bool(gap <= b + BOUND_TOL) for a, b in b3.items()}
        bc = corollary_bound(moments.sigma_bar, n) if use_corollary else None
        hc = bool(gap <= bc + BOUND_TOL) if use_corollary else None
        reports.append(RateReport(n, e, limit, gap, b3, h3, bc, hc))
    return tuple(reports)


def rate_sweep(
    family: AmbiguityFamily,
    phi: LipschitzFunction,
    n_schedule: Sequence[int],
    alphas: Sequence[float] = (0.25, 0.5, 0.75, 1.0),
    state_cap: int = DEFAULT_STATE_CAP,
) -> tuple[RateReport, ...]:
    """Gap-versus-n sweep with every requested bound evaluated per n (see :func:`rate_reports`)."""
    schedule = [int(n) for n in n_schedule]
    if not schedule:
        raise ValueError("n_schedule must be nonempty")
    if any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise ValueError(f"n_schedule must be strictly ascending, got {schedule}")
    _check_n(schedule[0])
    moments = moment_summary(family, alphas)
    limit = interval_max(phi, moments.mu_lower, moments.mu_upper).max_value
    return rate_reports(phi, schedule, iid_sum_expectations(family, phi, schedule, state_cap), limit, moments)
