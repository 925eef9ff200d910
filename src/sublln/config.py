"""Strict JSON experiment configuration.

A config is a single JSON object; unknown keys are rejected anywhere so a
typo cannot silently skip a verification.  See the README for the full
schema and defaults.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any, Mapping

from .ambiguity import DEFAULT_ALPHAS, AmbiguityFamily, mean_bounds, validate_family
from .engine import DEFAULT_STATE_CAP
from .lln_rates import CATALOG, InvalidInterval, LipschitzFunction, spot_check_lipschitz
from .measures import DEFAULT_ENUM_STEPS
from .phi_expr import PhiSyntaxError, parse_phi

__all__ = [
    "CHECKS",
    "ConfigError",
    "ConfigSyntaxError",
    "SchemaError",
    "SemanticError",
    "ExperimentConfig",
    "parse_config",
    "dump_config",
]

CHECKS = ("eval", "sweep", "variance", "chatterji", "prop2", "pstar", "mc")

_TOP_KEYS = {
    "family",
    "phi",
    "n_schedule",
    "alphas",
    "checks",
    "format",
    "seed",
    "state_cap",
    "mc_samples",
    "mc_horizon",
    "enum_horizon",
}


class ConfigError(ValueError):
    pass


class ConfigSyntaxError(ConfigError):
    pass


class SchemaError(ConfigError):
    pass


class SemanticError(ConfigError):
    pass


def _require_keys(obj: Mapping, path: str, allowed: set[str], required: tuple[str, ...]) -> None:
    if not isinstance(obj, dict):
        raise SchemaError(f"{path}: expected an object")
    for key in obj:
        if key not in allowed:
            raise SchemaError(f"{path}.{key}: unknown key")
    for key in required:
        if key not in obj:
            raise SchemaError(f"{path}.{key}: missing required key")


def _number(value: Any, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{path}: expected a number")
    if not math.isfinite(value):
        raise SemanticError(f"{path}: must be finite")
    return float(value)


def _integer(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{path}: expected an integer")
    return value


def _string(value: Any, path: str) -> str:
    if not isinstance(value, str):
        raise SchemaError(f"{path}: expected a string")
    return value


def _parse_family(obj: Any) -> tuple[AmbiguityFamily, str]:
    _require_keys(obj, "family", {"name", "lattice", "members"}, ("lattice", "members"))
    name = _string(obj.get("name", "family"), "family.name")
    lat = obj["lattice"]
    _require_keys(lat, "family.lattice", {"origin", "step"}, ("origin", "step"))
    origin = _number(lat["origin"], "family.lattice.origin")
    step = _number(lat["step"], "family.lattice.step")
    members_obj = obj["members"]
    if not isinstance(members_obj, list) or not members_obj:
        raise SchemaError("family.members: expected a nonempty array")
    members = []
    for i, member in enumerate(members_obj):
        if not isinstance(member, list) or not member:
            raise SchemaError(f"family.members[{i}]: expected a nonempty array of [value, weight] pairs")
        atoms = []
        for j, atom in enumerate(member):
            if not isinstance(atom, list) or len(atom) != 2:
                raise SchemaError(f"family.members[{i}][{j}]: expected a [value, weight] pair")
            atoms.append(
                (
                    _number(atom[0], f"family.members[{i}][{j}][0]"),
                    _number(atom[1], f"family.members[{i}][{j}][1]"),
                )
            )
        members.append(atoms)
    family = AmbiguityFamily.build(origin, step, members, name=name)
    result = validate_family(family)
    if not result.ok:
        raise SemanticError(f"family: {result.code}: {result.message}")
    return family, name


def _parse_phi_spec(obj: Any, family: AmbiguityFamily) -> tuple[LipschitzFunction, dict]:
    if not isinstance(obj, dict):
        raise SchemaError("phi: expected an object")
    if "catalog" in obj:
        _require_keys(obj, "phi", {"catalog", "params"}, ("catalog",))
        name = _string(obj["catalog"], "phi.catalog")
        if name not in CATALOG:
            raise SemanticError(f"phi.catalog: unknown catalog entry {name!r}")
        entry = CATALOG[name]
        raw = obj.get("params", {})
        optional = name == "interval_dist_sq"  # its bounds default to the mean interval
        _require_keys(raw, "phi.params", set(entry.params), () if optional else entry.params)
        params = {k: _number(v, f"phi.params.{k}") for k, v in raw.items()}
        if optional:
            params = {**dict(zip(entry.params, mean_bounds(family))), **params}
        try:
            phi = entry.build(family, **params)
        except InvalidInterval as exc:
            raise SemanticError(f"phi.params: {exc}") from exc
        return phi, {"catalog": name, "params": {k: params[k] for k in sorted(params)}}
    if "expression" in obj:
        _require_keys(obj, "phi", {"expression", "lipschitz"}, ("expression", "lipschitz"))
        source = _string(obj["expression"], "phi.expression")
        constant = _number(obj["lipschitz"], "phi.lipschitz")
        if not constant > 0.0:
            raise SchemaError("phi.lipschitz: a declared Lipschitz constant > 0 is required")
        try:
            expr = parse_phi(source)
        except PhiSyntaxError as exc:
            raise SemanticError(f"phi.expression: {exc}") from exc
        phi = LipschitzFunction(expr, constant, f"expr({source})")
        dlo, dhi = family.support_bounds()
        try:
            check = spot_check_lipschitz(phi, dlo, dhi)
        except ValueError as exc:
            raise SemanticError(f"phi.expression: {exc}") from exc
        if not check.ok:
            raise SemanticError(
                f"phi.lipschitz: declared constant {constant} violated near "
                f"x={check.x!r}, y={check.y!r} (excess {check.worst_excess:.3e})"
            )
        return phi, {"expression": source, "lipschitz": constant}
    raise SchemaError("phi: expected either 'catalog' or 'expression'")


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description; canonical form via :meth:`to_mapping`."""

    family: AmbiguityFamily
    family_name: str
    phi: LipschitzFunction
    phi_spec: dict
    n_schedule: tuple[int, ...]
    alphas: tuple[float, ...]
    checks: tuple[str, ...]
    format: str
    seed: int
    state_cap: int
    mc_samples: int
    mc_horizon: int
    enum_horizon: int

    def to_mapping(self) -> dict:
        return {
            "family": {
                "name": self.family_name,
                "lattice": {"origin": self.family.lattice.origin, "step": self.family.lattice.step},
                "members": [[[v, w] for v, w in m.atoms] for m in self.family.members],
            },
            "phi": self.phi_spec,
            "n_schedule": list(self.n_schedule),
            "alphas": list(self.alphas),
            "checks": list(self.checks),
            "format": self.format,
            "seed": self.seed,
            "state_cap": self.state_cap,
            "mc_samples": self.mc_samples,
            "mc_horizon": self.mc_horizon,
            "enum_horizon": self.enum_horizon,
        }


def parse_config(text: bytes | str) -> ExperimentConfig:
    """Parse and fully validate a JSON config; first error wins, with position."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ConfigSyntaxError(f"config is not valid UTF-8 at byte {exc.start}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigSyntaxError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc

    _require_keys(raw, "config", _TOP_KEYS, ("family", "phi", "n_schedule"))
    family, family_name = _parse_family(raw["family"])
    phi, phi_spec = _parse_phi_spec(raw["phi"], family)

    sched_obj = raw["n_schedule"]
    if not isinstance(sched_obj, list) or not sched_obj:
        raise SchemaError("n_schedule: expected a nonempty array")
    schedule = tuple(_integer(v, f"n_schedule[{i}]") for i, v in enumerate(sched_obj))
    if any(v < 1 for v in schedule):
        raise SemanticError("n_schedule: entries must be positive")
    if any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise SemanticError("n_schedule: entries must be strictly ascending")

    alphas_obj = raw.get("alphas", list(DEFAULT_ALPHAS))
    if not isinstance(alphas_obj, list) or not alphas_obj:
        raise SchemaError("alphas: expected a nonempty array")
    alphas = tuple(sorted({_number(v, f"alphas[{i}]") for i, v in enumerate(alphas_obj)}))
    if any(not 0.0 < a <= 1.0 for a in alphas):
        raise SemanticError("alphas: entries must lie in (0, 1]")

    checks_obj = raw.get("checks", list(CHECKS))
    if not isinstance(checks_obj, list) or not checks_obj:
        raise SchemaError("checks: expected a nonempty array")
    for i, c in enumerate(checks_obj):
        if _string(c, f"checks[{i}]") not in CHECKS:
            raise SemanticError(f"checks[{i}]: unknown check name {c!r}")
    checks = tuple(c for c in CHECKS if c in checks_obj)

    fmt = _string(raw.get("format", "csv"), "format")
    if fmt not in ("csv", "json"):
        raise SemanticError(f"format: expected 'csv' or 'json', got {fmt!r}")

    seed = _integer(raw.get("seed", 0), "seed")
    if not 0 <= seed < 2**64:
        raise SemanticError("seed: must be an unsigned 64-bit integer")

    state_cap = _integer(raw.get("state_cap", DEFAULT_STATE_CAP), "state_cap")
    if state_cap < 1:
        raise SemanticError("state_cap: must be >= 1")

    mc_samples = _integer(raw.get("mc_samples", 100_000), "mc_samples")
    if mc_samples < 2:
        raise SemanticError("mc_samples: must be >= 2")

    mc_horizon = _integer(raw.get("mc_horizon", 50), "mc_horizon")
    if mc_horizon < 1:
        raise SemanticError("mc_horizon: must be >= 1")

    enum_horizon = _integer(raw.get("enum_horizon", 6), "enum_horizon")
    if not 1 <= enum_horizon <= DEFAULT_ENUM_STEPS:
        raise SemanticError(f"enum_horizon: must be in 1..{DEFAULT_ENUM_STEPS}")

    return ExperimentConfig(
        family=family,
        family_name=family_name,
        phi=phi,
        phi_spec=phi_spec,
        n_schedule=schedule,
        alphas=alphas,
        checks=checks,
        format=fmt,
        seed=seed,
        state_cap=state_cap,
        mc_samples=mc_samples,
        mc_horizon=mc_horizon,
        enum_horizon=enum_horizon,
    )


def dump_config(config: ExperimentConfig) -> str:
    """Serialize to canonical JSON; re-parsing yields an equivalent config."""
    return json.dumps(config.to_mapping(), indent=2) + "\n"
