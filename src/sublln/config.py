"""Strict JSON experiment configuration.

A config is a single JSON object; unknown keys are rejected anywhere so a
typo cannot silently skip a verification.  The schema lives in two places
only: ``family`` and ``phi`` have their own parsers (``_parse_family``,
``_parse_phi_spec``), and every other key is one field of
:class:`ExperimentConfig`, declared with its default and rule by ``_key``.
Those field lines fix the allowed and required keys, the defaults, the
order in which rules run (so which error wins) and the canonical key order
of :func:`dump_config`.  The README gives the same schema for users.
"""

from __future__ import annotations

import json
import math
import re
import sys
from dataclasses import MISSING, dataclass, field, fields
from functools import partial
from typing import Any, Callable, Mapping

from .ambiguity import DEFAULT_ALPHAS, AmbiguityFamily, mean_bounds, validate_family
from .engine import DEFAULT_STATE_CAP
from .lln_rates import CATALOG, LipschitzFunction, spot_check_lipschitz
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

# Deepest nesting of JSON arrays and objects a config may use: the decoder recurses once per level,
# and a valid config needs five.
MAX_JSON_DEPTH = 100
_JSON_TOKEN = re.compile(r'"(?:[^"\\]|\\.)*"|[][{}]')


class ConfigError(ValueError):
    pass


class ConfigSyntaxError(ConfigError):
    pass


class SchemaError(ConfigError):
    pass


class SemanticError(ConfigError):
    pass


def _check_nesting(text: str) -> None:
    """Refuse arrays and objects nested deeper than ``MAX_JSON_DEPTH``, at the first bracket past it."""
    depth = 0
    for m in _JSON_TOKEN.finditer(text):
        if m.group() in ("[", "{"):
            depth += 1
            if depth > MAX_JSON_DEPTH:
                pos = m.start()
                line, column = text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)
                raise ConfigSyntaxError(f"line {line}, column {column}: nested deeper than {MAX_JSON_DEPTH} levels")
        elif m.group() in ("]", "}"):
            depth -= 1


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
    try:
        value = float(value)
    except OverflowError:
        raise SemanticError(f"{path}: integer does not fit a float") from None
    if not math.isfinite(value):
        raise SemanticError(f"{path}: must be finite")
    return value


def _integer(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{path}: expected an integer")
    return value


def _integer_at_least(value: Any, path: str, minimum: int) -> int:
    if _integer(value, path) < minimum:
        raise SemanticError(f"{path}: must be >= {minimum}")
    return value


def _string(value: Any, path: str) -> str:
    if not isinstance(value, str):
        raise SchemaError(f"{path}: expected a string")
    return value


def _parse_family(obj: Any) -> AmbiguityFamily:
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
    return family


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
        except ValueError as exc:  # an empty interval, or a Lipschitz constant past the float range
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


def _nonempty_array(value: Any, key: str) -> list:
    if not isinstance(value, list) or not value:
        raise SchemaError(f"{key}: expected a nonempty array")
    return value


def _schedule(value: Any, key: str) -> tuple[int, ...]:
    schedule = tuple(_integer(v, f"{key}[{i}]") for i, v in enumerate(_nonempty_array(value, key)))
    if any(v < 1 for v in schedule):
        raise SemanticError(f"{key}: entries must be positive")
    if any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise SemanticError(f"{key}: entries must be strictly ascending")
    return schedule


def _alphas(value: Any, key: str) -> tuple[float, ...]:
    alphas = tuple(sorted({_number(v, f"{key}[{i}]") for i, v in enumerate(_nonempty_array(value, key))}))
    if any(not 0.0 < a <= 1.0 for a in alphas):
        raise SemanticError(f"{key}: entries must lie in (0, 1]")
    return alphas


def _checks(value: Any, key: str) -> tuple[str, ...]:
    for i, c in enumerate(_nonempty_array(value, key)):
        if _string(c, f"{key}[{i}]") not in CHECKS:
            raise SemanticError(f"{key}[{i}]: unknown check name {c!r}")
    return tuple(c for c in CHECKS if c in value)


def _format(value: Any, key: str) -> str:
    if _string(value, key) not in ("csv", "json"):
        raise SemanticError(f"{key}: expected 'csv' or 'json', got {value!r}")
    return value


def _seed(value: Any, key: str) -> int:
    if not 0 <= _integer(value, key) < 2**64:
        raise SemanticError(f"{key}: must be an unsigned 64-bit integer")
    return value


def _enum_horizon(value: Any, key: str) -> int:
    if not 1 <= _integer(value, key) <= DEFAULT_ENUM_STEPS:
        raise SemanticError(f"{key}: must be in 1..{DEFAULT_ENUM_STEPS}")
    return value


def _key(rule: Callable[[Any, str], Any], default: Any = MISSING):
    """A config key after family and phi: ``rule(value, key)`` admits its JSON value; no default makes it required."""
    return field(metadata={"rule": rule, "default": default})


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description; canonical form via :meth:`to_mapping`.

    Every field declared with ``_key`` is a top-level config key, in canonical order, with its
    default and its rule: parsing, defaults, rule order and serialization all read these lines.
    """

    family: AmbiguityFamily
    phi: LipschitzFunction
    phi_spec: dict
    n_schedule: tuple[int, ...] = _key(_schedule)
    alphas: tuple[float, ...] = _key(_alphas, list(DEFAULT_ALPHAS))
    checks: tuple[str, ...] = _key(_checks, list(CHECKS))
    format: str = _key(_format, "csv")
    seed: int = _key(_seed, 0)
    state_cap: int = _key(partial(_integer_at_least, minimum=1), DEFAULT_STATE_CAP)
    mc_samples: int = _key(partial(_integer_at_least, minimum=2), 100_000)
    mc_horizon: int = _key(partial(_integer_at_least, minimum=1), 50)
    enum_horizon: int = _key(_enum_horizon, 6)

    @property
    def family_name(self) -> str:
        """The family's own name, so a replaced family cannot leave a stale one."""
        return self.family.name

    def to_mapping(self) -> dict:
        return {
            "family": {
                "name": self.family.name,
                "lattice": {"origin": self.family.lattice.origin, "step": self.family.lattice.step},
                "members": [[[v, w] for v, w in m.atoms] for m in self.family.members],
            },
            "phi": self.phi_spec,
            **{k.name: list(v) if isinstance(v := getattr(self, k.name), tuple) else v for k in _KEYS},
        }


_KEYS = tuple(f for f in fields(ExperimentConfig) if "rule" in f.metadata)


def parse_config(text: bytes | str) -> ExperimentConfig:
    """Parse and fully validate a JSON config; first error wins, with position."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ConfigSyntaxError(f"config is not valid UTF-8 at byte {exc.start}") from exc
    _check_nesting(text)
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigSyntaxError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except ValueError as exc:  # an integer literal longer than the interpreter converts
        raise ConfigSyntaxError(f"config: an integer has more than {sys.get_int_max_str_digits()} digits") from exc

    required = ("family", "phi", *(k.name for k in _KEYS if k.metadata["default"] is MISSING))
    _require_keys(raw, "config", {"family", "phi", *(k.name for k in _KEYS)}, required)
    family = _parse_family(raw["family"])
    phi, phi_spec = _parse_phi_spec(raw["phi"], family)
    values = {k.name: k.metadata["rule"](raw.get(k.name, k.metadata["default"]), k.name) for k in _KEYS}
    return ExperimentConfig(family, phi, phi_spec, **values)


def dump_config(config: ExperimentConfig) -> str:
    """Serialize to canonical JSON; re-parsing yields an equivalent config."""
    return json.dumps(config.to_mapping(), indent=2) + "\n"
