"""Every message ``parse_config`` can raise, pinned with its exception type, and which error wins.

``REJECTED`` holds one rejected config per message (per validation code for family
errors), plus configs with two errors at once.  Where two errors meet, the one
checked first in the schema's order wins, whatever order the JSON gives the keys in.
``LIMITS`` holds inputs at the edges of JSON and the expression grammar (huge
integers, deep nesting, subnormal steps), each refused with a message, also by the
CLI.  A property test puts any JSON value anywhere in a valid config: the result is
a config or a ``ConfigError``, never another exception.
"""

import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sublln import config as config_module
from sublln.cli import main
from sublln.config import parse_config

BASE = {
    "family": {
        "name": "delta_pair",
        "lattice": {"origin": 0.0, "step": 1.0},
        "members": [[[0.0, 1.0]], [[1.0, 1.0]]],
    },
    "phi": {"catalog": "abs_dev", "params": {"c": 0.5}},
    "n_schedule": [1, 2, 4],
}


def patched(*edits, base=BASE):
    """BASE with each ``(path, value)`` set (``...`` as the value deletes), as JSON text."""
    cfg = copy.deepcopy(base)
    for path, value in edits:
        *parents, last = path
        target = cfg
        for key in parents:
            target = target[key]
        if value is ...:
            del target[last]
        else:
            target[last] = value
    return json.dumps(cfg)


def expression(source, lipschitz=1.0):
    return (("phi",), {"expression": source, "lipschitz": lipschitz})


NAN, INF = float("nan"), float("inf")

# (id, config text, exception type, exact message)
REJECTED = [
    ("not_utf8", b'{"family": "\xff"}', "ConfigSyntaxError", "config is not valid UTF-8 at byte 12"),
    ("json_syntax", '{"family": }', "ConfigSyntaxError", "line 1, column 12: Expecting value"),
    ("json_empty", "", "ConfigSyntaxError", "line 1, column 1: Expecting value"),
    ("json_trailing", "{} {}", "ConfigSyntaxError", "line 1, column 4: Extra data"),
    ("top_not_object", "[]", "SchemaError", "config: expected an object"),
    ("top_unknown_key", patched((("typo",), 1)), "SchemaError", "config.typo: unknown key"),
    ("top_missing_family", patched((("family",), ...)), "SchemaError", "config.family: missing required key"),
    ("top_missing_phi", patched((("phi",), ...)), "SchemaError", "config.phi: missing required key"),
    ("top_missing_schedule", patched((("n_schedule",), ...)), "SchemaError", "config.n_schedule: missing required key"),
    ("family_not_object", patched((("family",), [])), "SchemaError", "family: expected an object"),
    ("family_unknown_key", patched((("family", "extra"), True)), "SchemaError", "family.extra: unknown key"),
    (
        "family_missing_lattice",
        patched((("family", "lattice"), ...)),
        "SchemaError",
        "family.lattice: missing required key",
    ),
    (
        "family_missing_members",
        patched((("family", "members"), ...)),
        "SchemaError",
        "family.members: missing required key",
    ),
    ("family_name_not_string", patched((("family", "name"), 3)), "SchemaError", "family.name: expected a string"),
    ("lattice_not_object", patched((("family", "lattice"), 1.0)), "SchemaError", "family.lattice: expected an object"),
    (
        "lattice_unknown_key",
        patched((("family", "lattice", "scale"), 1.0)),
        "SchemaError",
        "family.lattice.scale: unknown key",
    ),
    (
        "lattice_missing_step",
        patched((("family", "lattice", "step"), ...)),
        "SchemaError",
        "family.lattice.step: missing required key",
    ),
    (
        "origin_not_number",
        patched((("family", "lattice", "origin"), "0")),
        "SchemaError",
        "family.lattice.origin: expected a number",
    ),
    (
        "step_bool",
        patched((("family", "lattice", "step"), True)),
        "SchemaError",
        "family.lattice.step: expected a number",
    ),
    (
        "step_infinite",
        patched((("family", "lattice", "step"), INF)),
        "SemanticError",
        "family.lattice.step: must be finite",
    ),
    (
        "origin_nan",
        patched((("family", "lattice", "origin"), NAN)),
        "SemanticError",
        "family.lattice.origin: must be finite",
    ),
    (
        "members_not_array",
        patched((("family", "members"), {})),
        "SchemaError",
        "family.members: expected a nonempty array",
    ),
    ("members_empty", patched((("family", "members"), [])), "SchemaError", "family.members: expected a nonempty array"),
    (
        "member_empty",
        patched((("family", "members", 1), [])),
        "SchemaError",
        "family.members[1]: expected a nonempty array of [value, weight] pairs",
    ),
    (
        "member_not_array",
        patched((("family", "members", 0), "a")),
        "SchemaError",
        "family.members[0]: expected a nonempty array of [value, weight] pairs",
    ),
    (
        "atom_short",
        patched((("family", "members", 0, 0), [0.0])),
        "SchemaError",
        "family.members[0][0]: expected a [value, weight] pair",
    ),
    (
        "atom_long",
        patched((("family", "members", 1, 0), [1.0, 1.0, 0.0])),
        "SchemaError",
        "family.members[1][0]: expected a [value, weight] pair",
    ),
    (
        "atom_value_not_number",
        patched((("family", "members", 1, 0, 0), None)),
        "SchemaError",
        "family.members[1][0][0]: expected a number",
    ),
    (
        "atom_weight_not_number",
        patched((("family", "members", 0, 0, 1), "1")),
        "SchemaError",
        "family.members[0][0][1]: expected a number",
    ),
    (
        "atom_weight_infinite",
        patched((("family", "members", 0, 0, 1), -INF)),
        "SemanticError",
        "family.members[0][0][1]: must be finite",
    ),
    (
        "step_zero",
        patched((("family", "lattice", "step"), 0.0)),
        "SemanticError",
        "family: NonPositiveStep: lattice step must be > 0, got 0.0",
    ),
    (
        "step_negative",
        patched((("family", "lattice", "step"), -1)),
        "SemanticError",
        "family: NonPositiveStep: lattice step must be > 0, got -1.0",
    ),
    (
        "atom_off_lattice",
        patched((("family", "members", 0, 0, 0), 0.5)),
        "SemanticError",
        "family: OffLattice: member 0 atom 0: value 0.5 is not on the lattice",
    ),
    (
        "atoms_not_increasing",
        patched((("family", "members", 0), [[1.0, 0.5], [1.0, 0.5]])),
        "SemanticError",
        "family: AtomsNotStrictlyIncreasing: member 0 atom 1: value 1.0 does not exceed 1.0",
    ),
    (
        "negative_weight",
        patched((("family", "members", 0), [[0.0, -0.5], [1.0, 1.5]])),
        "SemanticError",
        "family: NegativeWeight: member 0 atom 0: weight -0.5 is negative",
    ),
    (
        "weights_not_normalized",
        patched((("family", "members", 1, 0, 1), 0.5)),
        "SemanticError",
        "family: WeightsNotNormalized: member 1: weights sum to 0.5, expected 1",
    ),
    ("phi_not_object", patched((("phi",), "abs")), "SchemaError", "phi: expected an object"),
    (
        "phi_neither",
        patched((("phi",), {"lipschitz": 1.0})),
        "SchemaError",
        "phi: expected either 'catalog' or 'expression'",
    ),
    ("catalog_not_string", patched((("phi", "catalog"), 1)), "SchemaError", "phi.catalog: expected a string"),
    (
        "catalog_unknown",
        patched((("phi", "catalog"), "cosine")),
        "SemanticError",
        "phi.catalog: unknown catalog entry 'cosine'",
    ),
    ("catalog_unknown_key", patched((("phi", "lipschitz"), 1.0)), "SchemaError", "phi.lipschitz: unknown key"),
    ("params_not_object", patched((("phi", "params"), [0.5])), "SchemaError", "phi.params: expected an object"),
    ("params_unknown_key", patched((("phi", "params", "d"), 0.5)), "SchemaError", "phi.params.d: unknown key"),
    ("params_missing_key", patched((("phi", "params"), {})), "SchemaError", "phi.params.c: missing required key"),
    ("params_not_number", patched((("phi", "params", "c"), "0.5")), "SchemaError", "phi.params.c: expected a number"),
    ("params_infinite", patched((("phi", "params", "c"), INF)), "SemanticError", "phi.params.c: must be finite"),
    (
        "clip_empty_interval",
        patched((("phi",), {"catalog": "clip", "params": {"lo": 1.0, "hi": 0.0}})),
        "SemanticError",
        "phi.params: clip interval [1.0, 0.0] is empty",
    ),
    (
        "interval_dist_sq_empty",
        patched((("phi",), {"catalog": "interval_dist_sq", "params": {"lo": 2.0}})),
        "SemanticError",
        "phi.params: target interval [2.0, 1.0] is empty",
    ),
    (
        "expression_unknown_key",
        patched((("phi",), {"expression": "x", "lipschitz": 1.0, "c": 0})),
        "SchemaError",
        "phi.c: unknown key",
    ),
    (
        "expression_missing_lipschitz",
        patched((("phi",), {"expression": "x"})),
        "SchemaError",
        "phi.lipschitz: missing required key",
    ),
    ("expression_not_string", patched(expression(["x"])), "SchemaError", "phi.expression: expected a string"),
    ("lipschitz_not_number", patched(expression("x", "1")), "SchemaError", "phi.lipschitz: expected a number"),
    ("lipschitz_infinite", patched(expression("x", INF)), "SemanticError", "phi.lipschitz: must be finite"),
    (
        "lipschitz_zero",
        patched(expression("x", 0)),
        "SchemaError",
        "phi.lipschitz: a declared Lipschitz constant > 0 is required",
    ),
    (
        "lipschitz_negative",
        patched(expression("x", -1.0)),
        "SchemaError",
        "phi.lipschitz: a declared Lipschitz constant > 0 is required",
    ),
    (
        "expression_bad_char",
        patched(expression("2*?")),
        "SemanticError",
        "phi.expression: unexpected character '?' (offset 2)",
    ),
    (
        "expression_unknown_name",
        patched(expression("2*sin(x)")),
        "SemanticError",
        "phi.expression: unknown name 'sin' (offset 2)",
    ),
    ("expression_end", patched(expression("abs(x")), "SemanticError", "phi.expression: expected ')' (offset 5)"),
    (
        "expression_empty",
        patched(expression("")),
        "SemanticError",
        "phi.expression: unexpected end of input (offset 0)",
    ),
    (
        "expression_trailing",
        patched(expression("x x")),
        "SemanticError",
        "phi.expression: unexpected trailing input (offset 2)",
    ),
    (
        "expression_overflow",
        patched(expression("1e999*x")),
        "SemanticError",
        "phi.expression: number '1e999' overflows to inf (offset 0)",
    ),
    (
        "divisor_not_constant",
        patched(expression("1/x")),
        "SemanticError",
        "phi.expression: divisor must be a constant expression (offset 1)",
    ),
    (
        "divisor_zero",
        patched(expression("x/(1-1)")),
        "SemanticError",
        "phi.expression: division by a zero constant (offset 1)",
    ),
    (
        "phi_not_finite",
        patched(expression("x*1e300*1e300")),
        "SemanticError",
        "phi.expression: phi is not finite at x=0.8833108082136426",
    ),
    (
        "lipschitz_violated",
        patched(expression("4*x")),
        "SemanticError",
        "phi.lipschitz: declared constant 1.0 violated near x=0.0, y=1.0 (excess 3.000e+00)",
    ),
    ("schedule_not_array", patched((("n_schedule",), 4)), "SchemaError", "n_schedule: expected a nonempty array"),
    ("schedule_empty", patched((("n_schedule",), [])), "SchemaError", "n_schedule: expected a nonempty array"),
    ("schedule_float", patched((("n_schedule",), [1, 2.0])), "SchemaError", "n_schedule[1]: expected an integer"),
    ("schedule_bool", patched((("n_schedule",), [True])), "SchemaError", "n_schedule[0]: expected an integer"),
    ("schedule_zero", patched((("n_schedule",), [0, 1])), "SemanticError", "n_schedule: entries must be positive"),
    (
        "schedule_descending",
        patched((("n_schedule",), [4, 2])),
        "SemanticError",
        "n_schedule: entries must be strictly ascending",
    ),
    (
        "schedule_repeated",
        patched((("n_schedule",), [2, 2])),
        "SemanticError",
        "n_schedule: entries must be strictly ascending",
    ),
    ("alphas_not_array", patched((("alphas",), 0.5)), "SchemaError", "alphas: expected a nonempty array"),
    ("alphas_empty", patched((("alphas",), [])), "SchemaError", "alphas: expected a nonempty array"),
    ("alphas_not_number", patched((("alphas",), [0.5, "1"])), "SchemaError", "alphas[1]: expected a number"),
    ("alphas_nan", patched((("alphas",), [NAN])), "SemanticError", "alphas[0]: must be finite"),
    ("alphas_zero", patched((("alphas",), [0, 0.5])), "SemanticError", "alphas: entries must lie in (0, 1]"),
    ("alphas_above_one", patched((("alphas",), [1.5])), "SemanticError", "alphas: entries must lie in (0, 1]"),
    ("checks_not_array", patched((("checks",), "eval")), "SchemaError", "checks: expected a nonempty array"),
    ("checks_empty", patched((("checks",), [])), "SchemaError", "checks: expected a nonempty array"),
    ("checks_not_string", patched((("checks",), ["eval", 1])), "SchemaError", "checks[1]: expected a string"),
    (
        "checks_unknown",
        patched((("checks",), ["sweep", "bogus"])),
        "SemanticError",
        "checks[1]: unknown check name 'bogus'",
    ),
    ("format_not_string", patched((("format",), None)), "SchemaError", "format: expected a string"),
    ("format_unknown", patched((("format",), "xml")), "SemanticError", "format: expected 'csv' or 'json', got 'xml'"),
    ("seed_not_integer", patched((("seed",), 1.5)), "SchemaError", "seed: expected an integer"),
    ("seed_negative", patched((("seed",), -1)), "SemanticError", "seed: must be an unsigned 64-bit integer"),
    ("seed_too_large", patched((("seed",), 2**64)), "SemanticError", "seed: must be an unsigned 64-bit integer"),
    ("state_cap_not_integer", patched((("state_cap",), "10")), "SchemaError", "state_cap: expected an integer"),
    ("state_cap_zero", patched((("state_cap",), 0)), "SemanticError", "state_cap: must be >= 1"),
    ("mc_samples_bool", patched((("mc_samples",), True)), "SchemaError", "mc_samples: expected an integer"),
    ("mc_samples_one", patched((("mc_samples",), 1)), "SemanticError", "mc_samples: must be >= 2"),
    ("mc_horizon_float", patched((("mc_horizon",), 50.0)), "SchemaError", "mc_horizon: expected an integer"),
    ("mc_horizon_zero", patched((("mc_horizon",), 0)), "SemanticError", "mc_horizon: must be >= 1"),
    ("enum_horizon_not_integer", patched((("enum_horizon",), [6])), "SchemaError", "enum_horizon: expected an integer"),
    ("enum_horizon_zero", patched((("enum_horizon",), 0)), "SemanticError", "enum_horizon: must be in 1..8"),
    ("enum_horizon_nine", patched((("enum_horizon",), 9)), "SemanticError", "enum_horizon: must be in 1..8"),
    # two errors at once: the first in the schema's order wins
    ("both_unknown_and_missing", patched((("typo",), 1), (("phi",), ...)), "SchemaError", "config.typo: unknown key"),
    ("both_unknown_keys", patched((("zz",), 1), (("aa",), 2)), "SchemaError", "config.zz: unknown key"),
    (
        "both_missing_keys",
        patched((("n_schedule",), ...), (("phi",), ...)),
        "SchemaError",
        "config.phi: missing required key",
    ),
    (
        "both_family_and_phi",
        patched((("family", "lattice", "step"), 0.0), (("phi", "catalog"), "cosine")),
        "SemanticError",
        "family: NonPositiveStep: lattice step must be > 0, got 0.0",
    ),
    (
        "both_phi_and_schedule",
        patched((("phi", "params"), {}), (("n_schedule",), [])),
        "SchemaError",
        "phi.params.c: missing required key",
    ),
    (
        "both_schedule_and_alphas",
        patched((("alphas",), [2.0]), (("n_schedule",), [3, 1])),
        "SemanticError",
        "n_schedule: entries must be strictly ascending",
    ),
    (
        "both_alphas_and_checks",
        patched((("checks",), []), (("alphas",), [0.0])),
        "SemanticError",
        "alphas: entries must lie in (0, 1]",
    ),
    (
        "both_checks_and_format",
        patched((("format",), "xml"), (("checks",), ["bogus"])),
        "SemanticError",
        "checks[0]: unknown check name 'bogus'",
    ),
    (
        "both_format_and_seed",
        patched((("seed",), -1), (("format",), "xml")),
        "SemanticError",
        "format: expected 'csv' or 'json', got 'xml'",
    ),
    (
        "both_seed_and_state_cap",
        patched((("state_cap",), 0), (("seed",), "7")),
        "SchemaError",
        "seed: expected an integer",
    ),
    (
        "both_state_cap_and_samples",
        patched((("mc_samples",), 1), (("state_cap",), 0)),
        "SemanticError",
        "state_cap: must be >= 1",
    ),
    (
        "both_samples_and_horizon",
        patched((("mc_horizon",), 0), (("mc_samples",), 0)),
        "SemanticError",
        "mc_samples: must be >= 2",
    ),
    (
        "both_horizon_and_enum",
        patched((("enum_horizon",), 9), (("mc_horizon",), -1)),
        "SemanticError",
        "mc_horizon: must be >= 1",
    ),
    (
        "both_atom_and_weight",
        patched((("family", "members", 0, 0), ["a", "b"])),
        "SchemaError",
        "family.members[0][0][0]: expected a number",
    ),
]


@pytest.mark.parametrize("text, kind, message", [c[1:] for c in REJECTED], ids=[c[0] for c in REJECTED])
def test_rejection_type_and_message(text, kind, message):
    with pytest.raises(config_module.ConfigError) as exc:
        parse_config(text)
    assert (type(exc.value).__name__, str(exc.value)) == (kind, message)


def test_table_ids_are_unique():
    assert len({c[0] for c in REJECTED}) == len(REJECTED)


BIG = "1" + "0" * 400  # a JSON integer past the float range
SHIFTED = {"name": "f", "lattice": {"origin": 0.0, "step": 1e-320}, "members": [[[-1.0, 0.5], [1.0, 0.5]]]}


def with_text(path, literal):
    """BASE with the JSON text ``literal`` at ``path``."""
    return patched((path, "@@")).replace('"@@"', literal)


# Inputs at the edge of what JSON and the expression grammar allow: each is refused with a message
# naming where it is, as the CLI's "error: config: ..." line.
LIMITS = [
    (
        "step_401_digits",
        with_text(("family", "lattice", "step"), BIG),
        "SemanticError",
        "family.lattice.step: integer does not fit a float",
    ),
    (
        "weight_401_digits",
        with_text(("family", "members", 0, 0, 1), BIG),
        "SemanticError",
        "family.members[0][0][1]: integer does not fit a float",
    ),
    (
        "alpha_401_digits",
        with_text(("alphas",), f"[0.5, -{BIG}]"),
        "SemanticError",
        "alphas[1]: integer does not fit a float",
    ),
    (
        "param_401_digits",
        with_text(("phi", "params", "c"), BIG),
        "SemanticError",
        "phi.params.c: integer does not fit a float",
    ),
    (
        "lipschitz_401_digits",
        with_text(("phi",), f'{{"expression": "x", "lipschitz": {BIG}}}'),
        "SemanticError",
        "phi.lipschitz: integer does not fit a float",
    ),
    ("integer_5000_digits", "1" * 5000, "ConfigSyntaxError", "config: an integer has more than 4300 digits"),
    (
        "json_100000_deep",
        "[" * 100_000 + "]" * 100_000,
        "ConfigSyntaxError",
        "line 1, column 101: nested deeper than 100 levels",
    ),
    (
        "family_5000_deep",
        '{"family": ' + "[" * 5000 + "]" * 5000 + "}",
        "ConfigSyntaxError",
        "line 1, column 111: nested deeper than 100 levels",
    ),
    ("family_100_deep", with_text(("family",), "[" * 99 + "]" * 99), "SchemaError", "family: expected an object"),
    # brackets inside a string do not nest
    (
        "brackets_in_a_string",
        patched((("family", "name"), '\\"[' * 200), (("phi",), "abs")),
        "SchemaError",
        "phi: expected an object",
    ),
    (
        "parens_250",
        patched(expression("(" * 250 + "x" + ")" * 250)),
        "SemanticError",
        "phi.expression: expression nests deeper than 200 levels (offset 201)",
    ),
    (
        "abs_300",
        patched(expression("abs(" * 300 + "x" + ")" * 300)),
        "SemanticError",
        "phi.expression: expression nests deeper than 200 levels (offset 804)",
    ),
    (
        "sum_2000",
        patched(expression("+".join(["x"] * 2000), 2000.0)),
        "SemanticError",
        "phi.expression: expression nests deeper than 200 levels (offset 403)",
    ),
    (
        "signs_201",
        patched(expression("-" * 201 + "x")),
        "SemanticError",
        "phi.expression: expression nests deeper than 200 levels (offset 202)",
    ),
    (
        "step_subnormal",
        patched((("family",), SHIFTED)),
        "SemanticError",
        "family: OffLattice: member 0 atom 0: value -1.0 is not on the lattice",
    ),
    (
        "coordinate_past_2_53",
        patched((("family",), {**SHIFTED, "lattice": {"origin": 0.0, "step": 1e-300}})),
        "SemanticError",
        "family: OffLattice: member 0 atom 0: value -1.0 is not on the lattice",
    ),
    (
        "interval_dist_sq_infinite_constant",
        patched((("phi",), {"catalog": "interval_dist_sq", "params": {"lo": -1e308, "hi": 1e308}})),
        "SemanticError",
        "phi.params: Lipschitz constant must be finite and >= 0, got inf",
    ),
]


@pytest.mark.parametrize("text, kind, message", [c[1:] for c in LIMITS], ids=[c[0] for c in LIMITS])
def test_limit_type_and_message(text, kind, message):
    with pytest.raises(config_module.ConfigError) as exc:
        parse_config(text)
    assert (type(exc.value).__name__, str(exc.value)) == (kind, message)


@pytest.mark.parametrize("text, message", [(c[1], c[3]) for c in LIMITS], ids=[c[0] for c in LIMITS])
def test_cli_reports_a_limit_as_a_config_error(tmp_path, capsys, text, message):
    path = tmp_path / "config.json"
    path.write_text(text)
    assert main(["eval", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: config: {message}\n"


def test_console_entry_reports_an_oversized_integer_without_a_traceback(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(LIMITS[0][1])
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    result = subprocess.run(
        [sys.executable, "-m", "sublln.cli", "eval", "--config", str(path), "--out", str(tmp_path / "out")],
        env=env,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 1
    assert result.stderr.startswith("error: config:") and "Traceback" not in result.stderr


@pytest.mark.parametrize(
    "source, lipschitz",
    [
        ("(" * 200 + "x" + ")" * 200, 1.0),
        ("abs(" * 199 + "x-0.5" + ")" * 199, 1.0),
        ("+".join(["x"] * 201), 201.0),
        ("-" * 199 + "(x-0.5)", 1.0),
    ],
    ids=["parens_200", "abs_199_over_a_difference", "sum_of_201", "signs_199_over_a_difference"],
)
def test_a_tree_at_the_limit_evaluates_and_encloses_in_a_cli_run(tmp_path, source, lipschitz):
    path = tmp_path / "config.json"
    path.write_text(patched(expression(source, lipschitz)))
    for check in ("eval", "sweep"):  # sweep finds the limit on the tree's enclosures
        assert main([check, "--config", str(path), "--out", str(tmp_path / check)]) in (0, 2)
        assert (tmp_path / check / f"report_{check}.csv").exists()


def _paths(value, path=()):
    """Every key path in a JSON value, the root's included."""
    yield path
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield from _paths(child, (*path, key))


def _json_values(depth):
    words = st.sampled_from(["eval", "sweep", "json", "csv", "abs_dev", "clip", "x", "abs(x-1)", "name", ""])
    leaves = (
        st.none()
        | st.booleans()
        | st.integers(min_value=-(10**400), max_value=10**400)
        | st.floats()
        | words
        | st.text(max_size=6)
    )
    if depth == 0:
        return leaves
    inner = _json_values(depth - 1)
    return leaves | st.lists(inner, max_size=3) | st.dictionaries(words | st.text(max_size=4), inner, max_size=3)


JSON_VALUES = _json_values(6)

# Valid configs with every key present: a catalog phi, an expression and interval_dist_sq's optional bounds.
VALID = [
    json.loads(config_module.dump_config(parse_config(patched(*edits))))
    for edits in (
        ((("seed",), 3),),
        (expression("max(x, 0.25) - x/2", 1.5), (("checks",), ["eval", "mc"])),
        ((("phi",), {"catalog": "interval_dist_sq", "params": {"lo": 0.25}}), (("format",), "json")),
    )
]


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_any_value_at_any_path_gives_a_config_or_a_config_error(data):
    cfg = copy.deepcopy(data.draw(st.sampled_from(VALID)))
    value = data.draw(JSON_VALUES)
    paths = list(_paths(cfg))
    if data.draw(st.booleans()):  # a new key in any object
        objects = [p for p in paths if isinstance(_at(cfg, p), dict)]
        _at(cfg, data.draw(st.sampled_from(objects)))[data.draw(st.text(max_size=6))] = value
    else:
        path = data.draw(st.sampled_from(paths))
        if not path:
            cfg = value
        else:
            _at(cfg, path[:-1])[path[-1]] = value
    try:
        result = parse_config(json.dumps(cfg))
    except config_module.ConfigError:
        return
    assert isinstance(result, config_module.ExperimentConfig)


def _at(value, path):
    for key in path:
        value = value[key]
    return value


def test_readme_config_keys_come_in_the_declared_order():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme[readme.index("## Config format") :]
    start = section.index("```json\n") + len("```json\n")
    example = json.loads(section[start : section.index("```\n", start)])
    declared = ["family", "phi", *(f.name for f in config_module._KEYS)]
    assert list(example) == declared
    assert parse_config(json.dumps(example)).to_mapping() == example
