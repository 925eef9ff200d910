"""Config-built shape functions, config defaults and the shipped configs against the library.

Every catalog name a config accepts must build the phi of the public
constructor bit for bit, and every default a config fills in must be the
library's own constant, so that the config layer adds no rule of its own.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sublln import lln_rates
from sublln.ambiguity import DEFAULT_ALPHAS, mean_bounds
from sublln.config import SemanticError, parse_config
from sublln.engine import DEFAULT_STATE_CAP
from sublln.lln_rates import abs_dev, clip_to, interval_dist_sq, linear, neg_abs_dev
from sublln.measures import DEFAULT_ENUM_STEPS

ROOT = Path(__file__).resolve().parent.parent
THREE_ATOM = json.loads((ROOT / "configs" / "three_atom.json").read_text())["family"]

# (catalog name, params, the public constructor call for those params on three_atom)
CATALOG_CASES = [
    ("linear", {"a": -2.0, "b": 0.5}, lambda family: linear(-2.0, 0.5)),
    ("abs_dev", {"c": 0.125}, lambda family: abs_dev(0.125)),
    ("neg_abs_dev", {"c": -0.3}, lambda family: neg_abs_dev(-0.3)),
    ("clip", {"lo": -0.25, "hi": 0.4}, lambda family: clip_to(-0.25, 0.4)),
    (
        "interval_dist_sq",
        {"lo": -0.2, "hi": 0.1},
        lambda family: interval_dist_sq(-0.2, 0.1, *family.support_bounds()),
    ),
]


def parse(phi, **overrides):
    cfg = {"family": THREE_ATOM, "phi": phi, "n_schedule": [1, 2]}
    cfg.update(overrides)
    return parse_config(json.dumps(cfg))


@pytest.mark.parametrize("name, params, build", CATALOG_CASES, ids=[c[0] for c in CATALOG_CASES])
def test_catalog_phi_matches_public_constructor(name, params, build):
    config = parse({"catalog": name, "params": params})
    expected = build(config.family)
    assert config.phi.name == expected.name
    assert config.phi.lipschitz_constant == expected.lipschitz_constant
    xs = np.linspace(-1.5, 1.5, 301)
    assert np.array_equal(np.asarray(config.phi(xs)), np.asarray(expected(xs)))
    assert config.phi_spec == {"catalog": name, "params": dict(sorted(params.items()))}


def test_cases_cover_the_library_catalog():
    assert sorted(lln_rates.CATALOG) == sorted(name for name, _, _ in CATALOG_CASES)
    for name, params, _ in CATALOG_CASES:
        assert lln_rates.CATALOG[name].params == tuple(params)


@pytest.mark.parametrize("name", ["clip", "interval_dist_sq"])
def test_empty_interval_is_a_params_error(name):
    with pytest.raises(SemanticError, match=r"^phi\.params: "):
        parse({"catalog": name, "params": {"lo": 0.5, "hi": 0.25}})


@pytest.mark.parametrize("given, value", [("lo", -0.75), ("hi", 0.75)])
def test_interval_dist_sq_fills_the_missing_bound(given, value):
    config = parse({"catalog": "interval_dist_sq", "params": {given: value}})
    mean_lo, mean_hi = mean_bounds(config.family)
    expected = {"lo": mean_lo, "hi": mean_hi, given: value}
    assert config.phi_spec == {"catalog": "interval_dist_sq", "params": dict(sorted(expected.items()))}


def test_unknown_catalog_name():
    with pytest.raises(SemanticError, match=r"^phi\.catalog: unknown catalog entry 'cosine'$"):
        parse({"catalog": "cosine"})


def test_defaults_are_the_library_constants():
    config = parse({"catalog": "abs_dev", "params": {"c": 0.0}})
    assert config.alphas == DEFAULT_ALPHAS
    assert config.state_cap == DEFAULT_STATE_CAP
    assert parse({"catalog": "abs_dev", "params": {"c": 0.0}}, enum_horizon=DEFAULT_ENUM_STEPS)
    with pytest.raises(SemanticError, match=r"^enum_horizon: must be in 1\.\.8$"):
        parse({"catalog": "abs_dev", "params": {"c": 0.0}}, enum_horizon=DEFAULT_ENUM_STEPS + 1)


def test_generator_reproduces_shipped_configs(tmp_path):
    spec = importlib.util.spec_from_file_location("make_corpus_configs", ROOT / "scripts" / "make_corpus_configs.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.main(["--out", str(tmp_path)]) == 0
    shipped = sorted(p.name for p in (ROOT / "configs").glob("*.json"))
    assert sorted(p.name for p in tmp_path.iterdir()) == shipped
    for name in shipped:
        assert (tmp_path / name).read_bytes() == (ROOT / "configs" / name).read_bytes(), name


_MISSING_KEY_PROBE = """
import json, sys
from sublln.config import SchemaError, parse_config
family = json.loads(sys.argv[1])
for cfg in (
    {"family": family, "phi": {"catalog": "linear"}, "n_schedule": [1]},
    {"family": family, "phi": {"catalog": "clip", "params": {}}, "n_schedule": [1]},
    {"family": family},
    {},
):
    try:
        parse_config(json.dumps(cfg))
    except SchemaError as exc:
        print(exc)
"""


def test_missing_keys_are_named_in_schema_order():
    # the first missing key in the catalog's params order (top level: family, phi, n_schedule),
    # whatever the hash seed
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    outputs = set()
    for hash_seed in range(6):
        result = subprocess.run(
            [sys.executable, "-c", _MISSING_KEY_PROBE, json.dumps(THREE_ATOM)],
            env={**env, "PYTHONHASHSEED": str(hash_seed)},
            capture_output=True,
            text=True,
            check=True,
        )
        outputs.add(result.stdout)
    assert outputs == {
        "phi.params.a: missing required key\n"
        "phi.params.lo: missing required key\n"
        "config.phi: missing required key\n"
        "config.family: missing required key\n"
    }
