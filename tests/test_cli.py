import csv
import json
from pathlib import Path

import pytest

from sublln.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def write_config(tmp_path, **overrides):
    cfg = {
        "family": {
            "name": "delta_pair",
            "lattice": {"origin": 0.0, "step": 1.0},
            "members": [[[0.0, 1.0]], [[1.0, 1.0]]],
        },
        "phi": {"catalog": "abs_dev", "params": {"c": 0.5}},
        "n_schedule": [1, 2, 4, 8],
        "alphas": [0.5, 1.0],
        "checks": ["eval", "sweep", "variance", "chatterji", "prop2", "pstar", "mc"],
        "seed": 11,
        "mc_samples": 2000,
        "mc_horizon": 12,
        "enum_horizon": 4,
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def read_csv(path):
    with path.open() as fh:
        return list(csv.DictReader(fh))


class TestSubcommands:
    def test_sweep_report_schema(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "reports"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        rows = read_csv(out / "report_sweep.csv")
        assert [r["n"] for r in rows] == ["1", "2", "4", "8"]
        assert list(rows[0]) == [
            "n",
            "expectation",
            "limit",
            "gap",
            "bound_theorem3_0.5",
            "holds_theorem3_0.5",
            "bound_theorem3_1",
            "holds_theorem3_1",
            "bound_corollary",
            "holds_corollary",
        ]
        assert all(r["holds_corollary"] == "true" for r in rows)
        summary = json.loads((out / "summary.json").read_text())
        assert summary["overall_passed"] is True
        assert summary["checks"]["sweep"]["passed"] is True

    def test_csv_floats_round_trip(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "reports"
        main(["variance", "--config", str(cfg), "--out", str(out)])
        rows = read_csv(out / "report_variance.csv")
        sigma = float(rows[0]["sigma_bar_sq"])
        assert repr(sigma) == rows[0]["sigma_bar_sq"]

    def test_json_format(self, tmp_path):
        cfg = write_config(tmp_path, format="json")
        out = tmp_path / "reports"
        assert main(["eval", "--config", str(cfg), "--out", str(out)]) == 0
        rows = json.loads((out / "report_eval.json").read_text())
        assert rows[0]["n"] == 1
        assert isinstance(rows[0]["expectation"], float)

    def test_mc_deterministic_given_seed(self, tmp_path):
        cfg = write_config(tmp_path)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["mc", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["mc", "--config", str(cfg), "--out", str(out2)]) == 0
        assert (out1 / "report_mc.csv").read_text() == (out2 / "report_mc.csv").read_text()

    def test_seed_override_changes_samples(self, tmp_path):
        # neg_abs_dev peaks inside (0, 1), so the pinned measure genuinely mixes
        cfg = write_config(tmp_path, phi={"catalog": "neg_abs_dev", "params": {"c": 0.3}})
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        main(["mc", "--config", str(cfg), "--out", str(out1)])
        main(["mc", "--config", str(cfg), "--out", str(out2), "--seed", "999"])
        a = read_csv(out1 / "report_mc.csv")[0]
        b = read_csv(out2 / "report_mc.csv")[0]
        assert a["sample_mean"] != b["sample_mean"]
        assert a["exact"] == b["exact"]

    # The sampled columns of two shipped configs at their own seeds, pinned to
    # the bit: any change to the stream, the inverse-CDF lookup or the path
    # sums shows up here.
    @pytest.mark.parametrize(
        "stem, pinned",
        [
            (
                "three_atom",
                {
                    "sample_mean": "0.25118060000000003",
                    "sample_std": "0.10217774995842228",
                    "abs_error": "0.0005449591515939156",
                    "tolerance": "0.0012924576642391573",
                },
            ),
            (
                "bernoulli_pair",
                {
                    "sample_mean": "0.2552142",
                    "sample_std": "0.13337739693688783",
                    "abs_error": "0.0009168756829456837",
                    "tolerance": "0.001687105450819723",
                },
            ),
        ],
    )
    def test_mc_sampled_columns_pinned(self, tmp_path, stem, pinned):
        out = tmp_path / "reports"
        assert main(["mc", "--config", str(CONFIGS / f"{stem}.json"), "--out", str(out)]) == 0
        row = read_csv(out / "report_mc.csv")[0]
        assert {k: row[k] for k in pinned} == pinned


class TestExitCodes:
    def test_missing_config_file(self, tmp_path):
        assert main(["sweep", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 1

    def test_corrupted_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"family": oops')
        assert main(["verify-all", "--config", str(path), "--out", str(tmp_path / "r")]) == 1

    def test_unknown_check_in_config(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"family": {}, "phi": {}, "n_schedule": [1], "checks": ["nope"]}))
        assert main(["verify-all", "--config", str(path), "--out", str(tmp_path / "r")]) == 1

    def test_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep"])  # --config is required
        assert exc.value.code == 1

    def test_state_cap_too_small_is_input_error(self, tmp_path):
        cfg = write_config(tmp_path, checks=["eval"])
        code = main(["eval", "--config", str(cfg), "--out", str(tmp_path / "r"), "--state-cap", "3"])
        assert code == 1


class TestVerifyAll:
    def test_shipped_corpus_config(self, tmp_path):
        out = tmp_path / "reports"
        code = main(["verify-all", "--config", str(CONFIGS / "corpus.json"), "--out", str(out)])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["overall_passed"] is True
        for name in ("eval", "sweep", "variance", "chatterji", "prop2", "pstar", "mc"):
            assert summary["checks"][name]["passed"] is True
            assert (out / summary["checks"][name]["report"]).exists()

    def test_runs_only_configured_checks(self, tmp_path):
        cfg = write_config(tmp_path, checks=["eval", "variance"])
        out = tmp_path / "reports"
        assert main(["verify-all", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "report_eval.csv").exists()
        assert (out / "report_variance.csv").exists()
        assert not (out / "report_sweep.csv").exists()
