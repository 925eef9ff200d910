import dataclasses
import json

import pytest

from sublln.corpus import corpus_families

from sublln.config import (
    ConfigSyntaxError,
    SchemaError,
    SemanticError,
    dump_config,
    parse_config,
)


def minimal_config(**overrides):
    cfg = {
        "family": {
            "name": "delta_pair",
            "lattice": {"origin": 0.0, "step": 1.0},
            "members": [[[0.0, 1.0]], [[1.0, 1.0]]],
        },
        "phi": {"expression": "abs(x-0.5)", "lipschitz": 1.0},
        "n_schedule": [1, 2, 4],
    }
    cfg.update(overrides)
    return cfg


def parse(cfg):
    return parse_config(json.dumps(cfg).encode())


class TestParseConfig:
    def test_minimal_valid(self):
        config = parse(minimal_config())
        assert config.family_name == "delta_pair"
        assert config.n_schedule == (1, 2, 4)
        assert config.alphas == (0.25, 0.5, 0.75, 1.0)
        assert config.format == "csv"
        assert config.phi(0.0) == 0.5

    def test_catalog_phi(self):
        config = parse(minimal_config(phi={"catalog": "abs_dev", "params": {"c": 0.25}}))
        assert config.phi.lipschitz_constant == 1.0
        assert config.phi(0.25) == 0.0

    def test_interval_dist_sq_defaults_to_mean_interval(self):
        config = parse(minimal_config(phi={"catalog": "interval_dist_sq"}))
        assert config.phi_spec["params"] == {"hi": 1.0, "lo": 0.0}
        assert float(config.phi(2.0)) == pytest.approx(1.0)

    def test_json_syntax_error_position(self):
        with pytest.raises(ConfigSyntaxError) as exc:
            parse_config(b'{"family": }')
        assert "line 1" in str(exc.value)

    def test_unknown_top_level_key(self):
        with pytest.raises(SchemaError) as exc:
            parse(minimal_config(typo=1))
        assert "typo" in str(exc.value)

    def test_unknown_nested_key(self):
        cfg = minimal_config()
        cfg["family"]["extra"] = True
        with pytest.raises(SchemaError):
            parse(cfg)

    def test_alpha_out_of_range(self):
        with pytest.raises(SemanticError):
            parse(minimal_config(alphas=[1.5]))

    def test_expression_requires_lipschitz(self):
        with pytest.raises(SchemaError):
            parse(minimal_config(phi={"expression": "abs(x-0.5)"}))

    def test_understated_lipschitz_rejected(self):
        with pytest.raises(SemanticError):
            parse(minimal_config(phi={"expression": "4*x", "lipschitz": 1.0}))

    def test_non_finite_phi_named(self):
        with pytest.raises(SemanticError) as exc:
            parse(minimal_config(phi={"expression": "x*1e300*1e300", "lipschitz": 1.0}))
        assert "phi.expression: phi is not finite at x=" in str(exc.value)

    def test_bad_expression_positioned(self):
        with pytest.raises(SemanticError) as exc:
            parse(minimal_config(phi={"expression": "1+*2", "lipschitz": 1.0}))
        assert "offset 2" in str(exc.value)

    def test_descending_schedule(self):
        with pytest.raises(SemanticError):
            parse(minimal_config(n_schedule=[4, 2]))

    def test_invalid_family_reported(self):
        cfg = minimal_config()
        cfg["family"]["members"] = [[[0.5, 1.0]]]
        with pytest.raises(SemanticError) as exc:
            parse(cfg)
        assert "OffLattice" in str(exc.value)

    def test_unknown_check_name(self):
        with pytest.raises(SemanticError):
            parse(minimal_config(checks=["sweep", "bogus"]))

    def test_bool_is_not_a_number(self):
        cfg = minimal_config()
        cfg["family"]["lattice"]["step"] = True
        with pytest.raises(SchemaError):
            parse(cfg)

    def test_enum_horizon_capped(self):
        with pytest.raises(SemanticError):
            parse(minimal_config(enum_horizon=9))

    def test_seed_range(self):
        with pytest.raises(SemanticError):
            parse(minimal_config(seed=-1))
        with pytest.raises(SemanticError):
            parse(minimal_config(seed=2**64))


class TestRoundTrip:
    @pytest.mark.parametrize(
        "phi",
        [
            {"expression": "max(x,0)-min(x,0)", "lipschitz": 1.0},
            {"catalog": "linear", "params": {"a": -2.0, "b": 0.5}},
            {"catalog": "interval_dist_sq"},
        ],
    )
    def test_serialize_reparse_equivalent(self, phi):
        config = parse(minimal_config(phi=phi, seed=42, checks=["sweep", "mc"]))
        again = parse_config(dump_config(config).encode())
        assert config.to_mapping() == again.to_mapping()

    def test_replaced_family_names_itself(self):
        config = parse(minimal_config())
        other = corpus_families()["three_atom"]
        replaced = dataclasses.replace(config, family=other)
        assert replaced.family_name == other.name == "three_atom"
        assert replaced.to_mapping()["family"]["name"] == "three_atom"
        assert len(dataclasses.fields(config)) == 12

    def test_defaults_materialized(self):
        config = parse(minimal_config())
        mapping = config.to_mapping()
        assert mapping["alphas"] == [0.25, 0.5, 0.75, 1.0]
        assert mapping["state_cap"] == 10_000_000
        assert mapping["mc_horizon"] == 50
