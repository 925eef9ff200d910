"""Finitely generated ambiguity sets on a one-dimensional lattice.

An ambiguity family is a finite collection of discrete distributions whose
atoms live on a shared arithmetic lattice.  The family generates an upper
expectation ``max_P E_P[psi]`` for one draw; this module holds the family
containers, strict validation, and the scalar moment quantities (upper and
lower means, worst-case absolute moments, upper variance) that the
convergence-rate bounds consume.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "DEFAULT_ALPHAS",
    "LATTICE_TOL",
    "WEIGHT_TOL",
    "AlphaOutOfRange",
    "FamilyInvalid",
    "LatticeSpec",
    "DiscreteDistribution",
    "AmbiguityFamily",
    "MomentSummary",
    "ValidationResult",
    "validate_family",
    "mean_bounds",
    "moment_c_alpha",
    "upper_variance",
    "one_step_expectation",
    "moment_summary",
]

DEFAULT_ALPHAS = (0.25, 0.5, 0.75, 1.0)
LATTICE_TOL = 1e-12
WEIGHT_TOL = 1e-12


class AlphaOutOfRange(ValueError):
    """Moment order parameter alpha must lie in (0, 1]."""


class FamilyInvalid(ValueError):
    """An operation required a valid family; carries the validation result."""

    def __init__(self, result: "ValidationResult"):
        super().__init__(result.message)
        self.result = result


@dataclass(frozen=True)
class LatticeSpec:
    """Arithmetic lattice ``origin + k * step`` with integer k and step > 0."""

    origin: float
    step: float

    def coord(self, value: float) -> int:
        """Nearest lattice coordinate of ``value``."""
        return int(round((value - self.origin) / self.step))

    def value(self, coord: int) -> float:
        return self.origin + coord * self.step

    def on_lattice(self, value: float) -> bool:
        if not math.isfinite(value) or not self.step > 0.0:
            return False
        return abs(self.value(self.coord(value)) - value) <= LATTICE_TOL


@dataclass(frozen=True)
class DiscreteDistribution:
    """Finitely supported distribution given as ``(value, weight)`` atoms.

    Atom values must be strictly increasing, weights nonnegative and summing
    to one (within ``WEIGHT_TOL``).  Nothing is enforced at construction time;
    malformed instances are reported by :func:`validate_family`.
    """

    atoms: tuple[tuple[float, float], ...]

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[float, float]]) -> "DiscreteDistribution":
        """Build from (value, weight) pairs, sorted by value."""
        return cls(tuple(sorted((float(v), float(w)) for v, w in pairs)))

    @classmethod
    def point_mass(cls, value: float) -> "DiscreteDistribution":
        return cls(((float(value), 1.0),))

    @property
    def values(self) -> np.ndarray:
        return np.array([v for v, _ in self.atoms], dtype=float)

    @property
    def weights(self) -> np.ndarray:
        return np.array([w for _, w in self.atoms], dtype=float)

    @property
    def normalized_weights(self) -> tuple[float, ...]:
        """Weights divided by their ``math.fsum``, the weights every recursion and sampler reads.

        Validation accepts a total within ``WEIGHT_TOL`` of one; each step of a
        recursion would compound that residual, so it is divided out here, once.
        """
        total = math.fsum(w for _, w in self.atoms)
        return tuple(w / total for _, w in self.atoms)

    @property
    def mean(self) -> float:
        return math.fsum(v * w for v, w in self.atoms)

    def expectation(self, psi: Callable[[float], float]) -> float:
        return math.fsum(w * float(psi(v)) for v, w in self.atoms)

    def abs_moment(self, power: float) -> float:
        return math.fsum(w * abs(v) ** power for v, w in self.atoms)

    def second_moment_about(self, mu: float) -> float:
        return math.fsum(w * (v - mu) ** 2 for v, w in self.atoms)


@dataclass(frozen=True)
class AmbiguityFamily:
    """Finite generating set of lattice-supported distributions.

    The one-draw upper expectation is the maximum of the member expectations;
    history-dependent mixtures of the members supply the constructible
    worst-case measures for sequences of draws.
    """

    lattice: LatticeSpec
    members: tuple[DiscreteDistribution, ...]
    name: str = ""

    @classmethod
    def build(
        cls,
        origin: float,
        step: float,
        members: Iterable[Iterable[tuple[float, float]]],
        name: str = "",
    ) -> "AmbiguityFamily":
        return cls(
            LatticeSpec(float(origin), float(step)),
            tuple(DiscreteDistribution.from_pairs(m) for m in members),
            name,
        )

    @functools.cached_property
    def _validation(self) -> "ValidationResult":
        # frozen and built from tuples, so validation is a pure function of the instance
        return _validate(self)

    def member_means(self) -> np.ndarray:
        return np.array([m.mean for m in self.members], dtype=float)

    def member_coords(self, index: int) -> np.ndarray:
        lat = self.lattice
        return np.array([lat.coord(v) for v in self.members[index].values], dtype=np.int64)

    def union_atoms(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Pooled support: (coords, values, W) with W[a, m] = normalized weight of atom a under member m.

        Atoms from different members that share a lattice coordinate are
        merged; the representative value is the first one encountered in
        member order.
        """
        rep: dict[int, float] = {}
        for m in self.members:
            for v, _ in m.atoms:
                rep.setdefault(self.lattice.coord(v), v)
        coords = np.array(sorted(rep), dtype=np.int64)
        values = np.array([rep[int(c)] for c in coords], dtype=float)
        pos = {int(c): i for i, c in enumerate(coords)}
        w = np.zeros((len(coords), len(self.members)))
        for j, m in enumerate(self.members):
            for (v, _), weight in zip(m.atoms, m.normalized_weights):
                w[pos[self.lattice.coord(v)], j] += weight
        return coords, values, w

    def support_bounds(self) -> tuple[float, float]:
        """Smallest and largest atom value across all members."""
        values = [v for m in self.members for v, _ in m.atoms]
        return (min(values), max(values))


@dataclass(frozen=True)
class MomentSummary:
    """Scalar moment quantities of a family feeding the rate bounds."""

    mu_lower: float
    mu_upper: float
    c_alpha: Mapping[float, float]
    sigma_bar_sq: float
    sigma_bar_argmin: float

    @property
    def sigma_bar(self) -> float:
        return math.sqrt(self.sigma_bar_sq)

    @property
    def mu_spread(self) -> float:
        return self.mu_upper - self.mu_lower


@dataclass(frozen=True)
class ValidationResult:
    ok: bool
    code: str | None = None
    member_index: int | None = None
    atom_index: int | None = None
    message: str = ""
    warnings: tuple[str, ...] = ()

    def raise_if_failed(self) -> None:
        if not self.ok:
            raise FamilyInvalid(self)


def _fail(code: str, message: str, member: int | None = None, atom: int | None = None) -> ValidationResult:
    return ValidationResult(False, code, member, atom, message)


def validate_family(family: AmbiguityFamily) -> ValidationResult:
    """Check every structural invariant, reporting the first violation.

    Order: positive lattice step, nonempty family, then per member (in index
    order): nonempty atoms, strictly increasing atom values, nonnegative
    weights, weights summing to one, atoms on the lattice.  Duplicate members
    are legal but reported back as warnings.  The result is computed once per
    family instance and kept on it.
    """
    return family._validation


def _validate(family: AmbiguityFamily) -> ValidationResult:
    lat = family.lattice
    if not (math.isfinite(lat.step) and lat.step > 0.0):
        return _fail("NonPositiveStep", f"lattice step must be > 0, got {lat.step}")
    if not math.isfinite(lat.origin):
        return _fail("OffLattice", f"lattice origin must be finite, got {lat.origin}")
    if len(family.members) == 0:
        return _fail("EmptyFamily", "family has no members")
    for i, member in enumerate(family.members):
        if len(member.atoms) == 0:
            return _fail("EmptyFamily", f"member {i} has no atoms", member=i)
        prev = None
        for j, (value, _) in enumerate(member.atoms):
            if prev is not None and not value > prev:
                return _fail(
                    "AtomsNotStrictlyIncreasing",
                    f"member {i} atom {j}: value {value!r} does not exceed {prev!r}",
                    member=i,
                    atom=j,
                )
            prev = value
        for j, (_, weight) in enumerate(member.atoms):
            if not weight >= 0.0:
                return _fail(
                    "NegativeWeight",
                    f"member {i} atom {j}: weight {weight!r} is negative",
                    member=i,
                    atom=j,
                )
        total = math.fsum(w for _, w in member.atoms)
        if not abs(total - 1.0) <= WEIGHT_TOL:
            return _fail(
                "WeightsNotNormalized",
                f"member {i}: weights sum to {total!r}, expected 1",
                member=i,
            )
        for j, (value, _) in enumerate(member.atoms):
            if not lat.on_lattice(value):
                return _fail(
                    "OffLattice",
                    f"member {i} atom {j}: value {value!r} is not on the lattice",
                    member=i,
                    atom=j,
                )
    warnings = tuple(
        f"members {i} and {j} are identical"
        for i in range(len(family.members))
        for j in range(i + 1, len(family.members))
        if family.members[i].atoms == family.members[j].atoms
    )
    return ValidationResult(True, warnings=warnings)


def _require_valid(family: AmbiguityFamily) -> None:
    validate_family(family).raise_if_failed()


def mean_bounds(family: AmbiguityFamily) -> tuple[float, float]:
    """Lower and upper mean of one draw: (min, max) of the member means."""
    _require_valid(family)
    means = [m.mean for m in family.members]
    return (min(means), max(means))


def moment_c_alpha(family: AmbiguityFamily, alpha: float) -> float:
    """Worst-case absolute moment ``max_P E_P[|x|^(1+alpha)]`` for alpha in (0, 1]."""
    if not (0.0 < alpha <= 1.0):
        raise AlphaOutOfRange(f"alpha must be in (0, 1], got {alpha}")
    _require_valid(family)
    return max(m.abs_moment(1.0 + alpha) for m in family.members)


def upper_variance(family: AmbiguityFamily) -> tuple[float, float]:
    """Minimize ``g(mu) = max_P E_P[(x - mu)^2]`` over the mean interval in closed form.

    ``g(mu) = mu^2 + max_i (m2_i - 2 mu m1_i)`` with ``m1_i``, ``m2_i`` member i's
    mean and second moment: a unit-curvature parabola plus a convex piecewise-linear
    envelope.  Its minimizer is therefore an endpoint, a vertex ``m1_i`` of one
    member's parabola, or a kink ``(m2_i - m2_j) / (2 (m1_i - m1_j))`` where two
    members' lines cross.  g is evaluated at those candidates inside the interval,
    in ascending order, and the first minimum is returned as
    ``(sigma_bar_sq, argmin_mu)``.  The endpoints are member means, so they are
    among the vertices.
    """
    _require_valid(family)
    m1 = np.array([m.mean for m in family.members])
    m2 = np.array([m.abs_moment(2.0) for m in family.members])
    i, j = np.nonzero(m1[:, None] > m1[None, :])
    kinks = (m2[i] - m2[j]) / (2.0 * (m1[i] - m1[j]))
    mus = np.sort(np.concatenate([m1, kinks[(m1.min() <= kinks) & (kinks <= m1.max())]]))
    g = (m2[:, None] - 2.0 * np.outer(m1, mus)).max(axis=0) + mus * mus
    k = int(np.argmin(g))
    return float(g[k]), float(mus[k]) + 0.0  # + 0.0 reports a -0.0 argmin as 0.0


def one_step_expectation(family: AmbiguityFamily, psi: Callable[[float], float]) -> float:
    """Upper expectation of psi for one draw: max over members of E_P[psi]."""
    _require_valid(family)
    return max(m.expectation(psi) for m in family.members)


def moment_summary(family: AmbiguityFamily, alphas: Sequence[float] = DEFAULT_ALPHAS) -> MomentSummary:
    """All moment quantities of the family in one record."""
    lo, hi = mean_bounds(family)
    c = {float(a): moment_c_alpha(family, a) for a in alphas}
    var, argmin = upper_variance(family)
    return MomentSummary(lo, hi, c, var, argmin)
