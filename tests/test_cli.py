import csv
import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import pytest

from sublln import cli
from sublln.cli import main
from sublln.config import parse_config
from sublln import engine
from sublln.engine import payoff_expectations
from sublln.lln_rates import interval_max, verdict
from sublln.measures import conditional_means, construct_pstar

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

    def test_false_verdict_exits_2(self, tmp_path, monkeypatch):
        build_rows, help_text = cli._CHECK_TABLE["eval"]

        def failing_eval(config, pstar):
            rows = build_rows(config, pstar)
            rows[-1]["holds_order"] = False
            return rows

        monkeypatch.setitem(cli._CHECK_TABLE, "eval", (failing_eval, help_text))
        cfg = write_config(tmp_path, checks=["eval", "variance"])
        out = tmp_path / "r"
        assert main(["verify-all", "--config", str(cfg), "--out", str(out)]) == 2
        summary = json.loads((out / "summary.json").read_text())
        assert summary["checks"]["eval"]["passed"] is False
        assert summary["checks"]["variance"]["passed"] is True
        assert summary["overall_passed"] is False
        assert [r["holds_order"] for r in read_csv(out / "report_eval.csv")] == ["true"] * 3 + ["false"]

    def test_empty_cell_is_no_verdict(self, tmp_path):
        # Lipschitz constant 2 > 1: the corollary does not apply and its cells stay empty
        cfg = write_config(tmp_path, phi={"catalog": "linear", "params": {"a": 2.0, "b": 0.0}})
        out = tmp_path / "r"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        rows = read_csv(out / "report_sweep.csv")
        assert [(r["bound_corollary"], r["holds_corollary"]) for r in rows] == [("", "")] * 4
        assert json.loads((out / "summary.json").read_text())["checks"]["sweep"]["passed"] is True

    def test_huge_lipschitz_constant_runs_without_warnings(self, tmp_path, capsys):
        # L * |x - y| exceeds the float range at L = 1e308; the suite turns RuntimeWarning into an error
        cfg = json.loads((CONFIGS / "three_atom.json").read_text())
        cfg["phi"] = {"expression": "x", "lipschitz": 1e308}
        path = tmp_path / "huge_l.json"
        path.write_text(json.dumps(cfg))
        assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "r")]) == 0
        assert capsys.readouterr().err == ""

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


def patch_bindings(monkeypatch, fn, replacement) -> None:
    """Bind ``replacement`` to every sublln module attribute bound to ``fn``."""
    for name, module in list(sys.modules.items()):
        if name == "sublln" or name.startswith("sublln."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, replacement)


def count_calls(monkeypatch, fn) -> list:
    """Count calls of ``fn`` through every sublln module attribute bound to it."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    patch_bindings(monkeypatch, fn, counted)
    return calls


class TestRunPlan:
    def test_shared_values_computed_once_per_run(self, tmp_path, monkeypatch):
        config = parse_config((CONFIGS / "three_atom.json").read_bytes())
        maxima = count_calls(monkeypatch, interval_max)
        sweeps = count_calls(monkeypatch, payoff_expectations)
        enumerations = count_calls(monkeypatch, conditional_means)
        assert cli.run(config, tmp_path / "r") == 0
        # one limit search; one backward sweep stacks phi, -phi (eval) and the distance moment (variance)
        assert len(maxima) == 1
        assert len(sweeps) == 1
        # P*, parity and uniform once per enumerated n for chatterji and prop2, plus prop2's argmax
        assert cli._enum_ns(config) == [1, 2, 4]
        assert len(enumerations) == 3 * 3 + 3
        assert cli.run(config, tmp_path / "r2") == 0
        # nothing carries over to the next run
        assert (len(maxima), len(sweeps), len(enumerations)) == (2, 2, 24)

    @pytest.mark.parametrize("check", ["eval", "variance"])
    def test_single_check_reads_the_same_plan(self, tmp_path, check):
        out = tmp_path / "r"
        args = [check, "--config", str(CONFIGS / "three_atom.json"), "--out", str(out), "--seed", "7"]
        assert main(args) == 0
        name = f"report_{check}.csv"
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == GOLDEN_SHA256["three_atom", "csv"][name]

    def test_single_check_past_the_state_cap(self, tmp_path, capsys):
        # three_atom has (n + 1) * (2n + 1) dense states: 561 at n = 16, 2145 at n = 32
        args = ["variance", "--config", str(CONFIGS / "three_atom.json"), "--out", str(tmp_path / "r")]
        assert main(args + ["--state-cap", "1000"]) == 1
        assert capsys.readouterr().err == (
            "error: check 'variance': 2145 sum states for n=32 exceed the cap of 1000; "
            "the lattice is too fine for this horizon\n"
        )

    def test_pstar_built_and_propagated_once_per_run(self, tmp_path, monkeypatch):
        config = parse_config((CONFIGS / "three_atom.json").read_bytes())
        builds = count_calls(monkeypatch, construct_pstar)
        passes = count_calls(monkeypatch, engine._forward)
        assert cli.run(config, tmp_path / "r") == 0
        # one P* serves chatterji, prop2, pstar and mc; one forward pass covers the schedule and mc_horizon
        assert (len(builds), len(passes)) == (1, 1)
        assert sorted(passes[0][2]) == sorted({*config.n_schedule, config.mc_horizon})
        assert cli.run(config, tmp_path / "r2") == 0
        assert (len(builds), len(passes)) == (2, 2)

    @pytest.mark.parametrize("check, n, states", [("pstar", 32, 2145), ("mc", 50, 5151)])
    def test_pstar_checks_past_the_state_cap(self, tmp_path, capsys, check, n, states):
        args = [check, "--config", str(CONFIGS / "three_atom.json"), "--out", str(tmp_path / "r")]
        assert main(args + ["--state-cap", "1000"]) == 1
        assert capsys.readouterr().err == (
            f"error: check '{check}': {states} sum states for n={n} exceed the cap of 1000; "
            "the lattice is too fine for this horizon\n"
        )

    def test_shared_pstar_pass_fails_in_pstar_past_the_state_cap(self, tmp_path, capsys):
        # the schedule fits the cap and mc_horizon = 50 does not: the pass shared by pstar and mc fails first
        cfg = json.loads((CONFIGS / "three_atom.json").read_text())
        cfg["n_schedule"] = [1, 2, 4]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        message = "5151 sum states for n=50 exceed the cap of 1000; the lattice is too fine for this horizon\n"
        for command, code, err, written in [
            ("verify-all", 1, f"error: check 'pstar': {message}", []),
            ("pstar", 0, "", ["report_pstar.csv", "summary.json"]),
            ("mc", 1, f"error: check 'mc': {message}", []),
        ]:
            out = tmp_path / command
            args = [command, "--config", str(path), "--out", str(out), "--state-cap", "1000"]
            assert main(args) == code, command
            captured = capsys.readouterr()
            assert captured.err == err, command
            # every check runs before the first file is written: a failed run leaves no partial reports
            assert sorted(p.name for p in out.glob("*")) == written, command
            if code == 1:
                assert captured.out == "", command


class TestVerdictOwner:
    def test_every_verdict_but_mc_is_decided_by_the_owner(self, tmp_path, monkeypatch):
        # with the owner answering false, a true cell could only come from a comparison of its own
        patch_bindings(monkeypatch, verdict, lambda lhs, rhs, err: False)
        for path in sorted(CONFIGS.glob("*.json")):
            config = dataclasses.replace(parse_config(path.read_bytes()), format="csv")
            out = tmp_path / path.stem
            assert cli.run(config, out) == 2, path.stem
            for report in sorted(out.glob("report_*.csv")):
                cells = [
                    (column, value)
                    for row in read_csv(report)
                    for column, value in row.items()
                    if value in ("true", "false") and (report.name, column) != ("report_mc.csv", "holds")
                ]
                assert report.name == "report_mc.csv" or cells, (path.stem, report.name)
                assert all(value == "false" for _, value in cells), (path.stem, report.name)


# SHA-256 of every file ``verify-all --seed 7`` writes for each shipped
# config, in each report format.  Reports are a byte-level contract: a
# refactor that changes any digit of any report fails here and names the file.
GOLDEN_SHA256 = {
    ('bernoulli_pair', 'csv'): {
        'report_chatterji.csv': 'e4a74374f144d836a149c2a0283c31355a5109692e0c3b80dd6c038564c213dc',
        'report_eval.csv': 'd97f24a6860896649ae34ad83e0424eeaf2ee629cbd68d0895f1061bf2858093',
        'report_mc.csv': 'eb5563078f6ff4c22824f4093150a1bfd8be14cc39bbdf903f56c7eab29d5ddc',
        'report_prop2.csv': 'dd582aef46c40aa8b91dcb859aa54bef45c047c19805538db6fcb995c41ccd24',
        'report_pstar.csv': '2e2fb46b29da536136f300249bff71fbf192848deb098b24fd18ed3c9a5816eb',
        'report_sweep.csv': '734d541d9a199e9a96634edf9eef12808cb42eb18c17ad801407798f657f45c3',
        'report_variance.csv': '3e89b57465b1121c30d0ebf6cd771edf16ef1612163496b4b42b187534965809',
        'summary.json': 'f555dfa191c7c0a2ad82c91509042033f077876814be32c99c768a54f94cf044',
    },
    ('bernoulli_pair', 'json'): {
        'report_chatterji.json': '1e82e02c56e1de6e73331cded733676579e5482563dcf607e394bc6b0dd144df',
        'report_eval.json': '67469890dfb65ca7fbaa2bad1ccd59560889c8343be3df7414dfc9ad6bb313bc',
        'report_mc.json': 'b9303576dca749156e26d27868903ff79939994560cc13980c25cbd84887da24',
        'report_prop2.json': '9781868e54cc8aa0630c78ae0bc28cb9cd5d4eb506c24fa6249ca450dc356bc7',
        'report_pstar.json': 'a237f2441c9038292ccc05541a0817cf1506801f1a742bdc2821f327477457d6',
        'report_sweep.json': 'c0870e1836341817d3eee583c2f0ab93e8aa29071ae17fda171d015be246aaf2',
        'report_variance.json': '55fbf82a828e68474f4f23fdb214bff3906131eb76af8ba20431f55f0f112bed',
        'summary.json': '4fbd11fc8393efdec1d3bd96ddd4d54bcfc94f86e5787d317e25789f30e93a92',
    },
    ('corpus', 'csv'): {
        'report_chatterji.csv': 'bbea6d76a49493d9dfbaf18b727cd24890aa94b5adcaebaee46e665d68ff152b',
        'report_eval.csv': '69742583b5ffa5f49e52383838415bc1fac1671b6c9f1fd1e195eaf3d43ce5d2',
        'report_mc.csv': 'd7425de49cbb13c833f49d5652df18966ab015039fbcd769010deab1a28fda7a',
        'report_prop2.csv': 'c095dfc1e1698a312af67fccdb48f89f8a373b4cef9b3d7a0d67683e1241227d',
        'report_pstar.csv': 'd9f7998555c3e2b48e64b6ba5e55f1008f96bc0e8a792f5125e82eb7160aaf9e',
        'report_sweep.csv': 'd29a263da4ac885ed0b3393de9d6eb5b8a6c099be129b6fef0d14dfcaf0fc6c5',
        'report_variance.csv': 'db5c903aa16b24325bfafc38c9a940ad8683b2e937cf94e3d9e4764e68c5025d',
        'summary.json': '9bd87d640cf30eca2be2ee9b36ce745dc2233ba49b81368697c75c758b14603e',
    },
    ('corpus', 'json'): {
        'report_chatterji.json': '4374dd1ca450fe8a182da746756708751d39681b4b7f973f9dc9f201046c9a6b',
        'report_eval.json': 'd76d06b6291447bff94cd5bad1b2f146a4425c62285201a95460ceaa10ee9d4a',
        'report_mc.json': '451fc76b055952c3ea2cbbd17dfb1497e78b0ad7c349551c899cd9ac1a09ef66',
        'report_prop2.json': '78b3a7dfb0dd8ac3f7400392b1e0ce18c053079bd673012d82d73576fc564008',
        'report_pstar.json': 'da969e3632bdd917097cb5592f2a8fe54545de552a1a9fe17544c19a9bfc14e2',
        'report_sweep.json': '16551a2fe5e99cc8e25fa0ebaa0b06265dca5773d4a8490cf0bb4b285fb98d0b',
        'report_variance.json': 'bb84161b6406d2aa86a8989ae0f5aa23bbcf7d71c961e1d83f154b9bd0c04889',
        'summary.json': 'c2fc50f35e9341ecc89de92302bd7e2c107b0deb157f5add9f1d7c63ced6343c',
    },
    ('delta_pair', 'csv'): {
        'report_chatterji.csv': '82ae7f88e77da5155b3b2883223b356e470fd2fb547793f989c2971415501f01',
        'report_eval.csv': '8d31d1cea0ec763ee03926945a0b77e7164fc4b19fc07ef29c04cf2621ad6ca3',
        'report_mc.csv': '0e3b91f14155d8b99337d5e7a2ea5b6c72b66a1fc65c808ca856fe4541726fd5',
        'report_prop2.csv': 'da1b7134b2ade9020902c0b6963997f39f61414e85c2d080d7d5a198fa714fe9',
        'report_pstar.csv': '150ed7dac4fdcb86e1cdd0e00954f068d31096bec7a300324b55f6a33f74e111',
        'report_sweep.csv': '3844eb52d75891316564d4ddc559d376e309e0aa037c0fd5077ef7da8b1d0e7f',
        'report_variance.csv': 'a6d4bccfd5abc354408c4da88ab356ba1b96c8f759bd6cc4cda77a1964339528',
        'summary.json': '224136cbfa1cabb43f11018cb1da72d5e197716ac29174953bddb313d80b9c10',
    },
    ('delta_pair', 'json'): {
        'report_chatterji.json': '24e19cf76fe7a24be4a513cf79826e89b89b40b9035db0991d04b972b609aec6',
        'report_eval.json': 'ccf393bf83322d55dda3abd0655b326683e10fdf683fc6dfe419f12a1e07f45c',
        'report_mc.json': '3407e8dbd3c37d34ea85bc8d9cc6f481c3480cef0e25aa6b5153a0b8f28e1eef',
        'report_prop2.json': '04e77bf4d14d53b50b8f5babfa51a12a0a74e8629a55d6af75e712ef48b54cd0',
        'report_pstar.json': '46c0af2bce4b0bdfba3c0b3373aa2c938a97ef4ffa32caf86bd0e7ea5c483899',
        'report_sweep.json': '8ca143b4cfc6a0d77f28561f265905b81f53fb05833e888812310de489ead9cc',
        'report_variance.json': '4d73c1c0b77586c3420c826d035b5f0904e3bee4a8349954aae60dbfa3292dcb',
        'summary.json': 'ab88412a14681367398c69bfe0ad3330ad6fcd885692b7719f3106370dddd201',
    },
    ('fair_coin', 'csv'): {
        'report_chatterji.csv': 'cb12f1c04d3ede4ee023f4fea5959b7ea956dd429827a0bb85775401b020002e',
        'report_eval.csv': '6f03f10050a5bf7eaf04d92272ec4d9c917328530581d92b4e829416af5ce502',
        'report_mc.csv': 'afcdef7d428821cc8b4e174397419bbefbaa583888bcc15d3b4a3314f716470c',
        'report_prop2.csv': 'de3a74eab93a156ad35c1917203bccf3dcd543929515e4ca36c31186e8d3c878',
        'report_pstar.csv': '89d9fa8737d7206c2985520ab8432cce01ff362210e4bc69845427f1e43a1d6c',
        'report_sweep.csv': 'a72cb4584047f70b4c6c665686d354ea97252053d9a33f1cc0669f70fe4801f3',
        'report_variance.csv': '500e9edb9d03387035ab8f4a0d702c7943406dfbbab289988afd904528998ab8',
        'summary.json': '7b42cb6388b89cc666056d2f098dc231311372cbe283b49cfe741ea2f4b808c2',
    },
    ('fair_coin', 'json'): {
        'report_chatterji.json': '8a0f23acda538da55b13ffbd17496fc6498fd174d7474a57fbab907f44ec258d',
        'report_eval.json': '84a8463d476c25ab1aedfd8ae14c22701cb2a4425632d83110a9cf19684f8d9a',
        'report_mc.json': '73d55214e2a54e32f05769d178619cdaa25d259d6c15476ddb8a1aeb8de74423',
        'report_prop2.json': 'c5f70953042e49bf19fe7be98efa30a73aeeb27635183ebfe95d0def18c9106b',
        'report_pstar.json': 'b7fe9385bae6afff8fd6deddd7a6ee15da506e2fc73ad3a23673ec655825662f',
        'report_sweep.json': '2518ebf343ef422eaaea59d3d0df740628605d6fa468e25f420fca9544d423ca',
        'report_variance.json': 'a34f995e641f0ab1c5ee08c1b79170f33b15d867ab12a58c749df52749130b50',
        'summary.json': 'a96bb230990e932f8b77bbf5ae0b9b22f47b5de04e5981a963f002f665d34c07',
    },
    ('point_mass', 'csv'): {
        'report_chatterji.csv': '9337f25d56c7de51a373aaf4d791989b834b2098ac7807121716f15af9b15abf',
        'report_eval.csv': 'ee0301ed37689d18bd62f1b505a521c176c9436a4ce909d393f80071dcfb32af',
        'report_mc.csv': 'f02cebd3ecc7e6eef0937149a60454cd95f8b763a12c71705687818e2d09817d',
        'report_prop2.csv': 'fd1e3bec88f1905d5c2780da0a929c7d6c0093bf69dbb91c5cf39da893bcbb3a',
        'report_pstar.csv': 'e662785325547135a952afd06b2962b629bc42038ea051d63ccac3fbd6060700',
        'report_sweep.csv': '28cb555f4d5a0ab1452ceff7d52afd82df3c674c5a3c2b7217d1e89a926a8e46',
        'report_variance.csv': '646fe726b28604b1e1af73127e4929a2f8e13d1da491f997f882c6510cf07774',
        'summary.json': 'a194037b36b3fa6745ee82d9bd2446cd1a61877f76343ac55ddcb3581137b72c',
    },
    ('point_mass', 'json'): {
        'report_chatterji.json': 'ea3ad43d6c8b105ff74aed28bbda7433332e69e5b29b932f31d8a8fb8be845d6',
        'report_eval.json': 'd999940e3478a7e83472c15ff37536b2368a8fd0efdaa382ed83e8181b7cad56',
        'report_mc.json': '5ac21e5110de50aa5ce8697fae81e73e57641a3f0bac79d19307aaba848deb7f',
        'report_prop2.json': '8ed3db139da7c58d8106f15f2a1017611f5f41568f0fd198d500532b26c8d3b5',
        'report_pstar.json': '6bc216555fac2d5177c16e684dd55f2cfd5a9a1560727aee005b1c365ba855f2',
        'report_sweep.json': '1b36cd0f8b4d6c98d69af889413b3f911d1cf36dfb27ccd248fa89556686d6a0',
        'report_variance.json': '1f0f68aaa1caf1d90d7cda56e971f3c5e70327569e0e737076be074f2704855a',
        'summary.json': 'e9f3e75bcf9706bcd7bf8b978e79b731daac68ab1d98d43002736c0a4d863ea3',
    },
    ('skewed_pair', 'csv'): {
        'report_chatterji.csv': '951185fa8ce45c26c1a850dc105ea7fbc8a94ac9bef38e469d8cdba2fdc2c595',
        'report_eval.csv': '7d67ef9c6f7591c742db511946da1ef699c3d0ee71fdf987bfe8b0f8250d2c4a',
        'report_mc.csv': '02948364709c84dd74fe5cb06bbff555a4a40524f3dd369f720b58c672b40ce8',
        'report_prop2.csv': 'aeb7eb3900b29856180ba1e91a69e561e03b4eb9a2e1255bfe0e079590d5c830',
        'report_pstar.csv': '1562e15a5c7c4e928eb0b11a5156b29f845b7de49af25e85a48a065b2630b9c0',
        'report_sweep.csv': '27bcdd37f5341abe0d79cc3b9cfc4275b0cb4e0d95e919914301e2cb2711dd40',
        'report_variance.csv': '96a1af332ba75c9ccf76dfbf2d24452d5945ce6dcdd8adaa1d5aa7a81e4f27b3',
        'summary.json': 'bd33140cd8db5db641a167b9f724fbadbd5016694faaec76f90bff4528cc9e00',
    },
    ('skewed_pair', 'json'): {
        'report_chatterji.json': 'd19cbf5aa30d68efb35bfe8f9d66c569098cf2c742c6e9b566dd3aadd4b6be6c',
        'report_eval.json': '9e9af2b354ee421aa5cd9b9e894b26688fc377705422a20e933ab0049b419995',
        'report_mc.json': '9747cf0bc2751eaa19d585a2438f2c23f6677d15ec3eda541195375b783135b8',
        'report_prop2.json': '69f4a059de22cc652ec2338c42bfc7658afbaa020720598cd196db498fc577fe',
        'report_pstar.json': '92d1e522ca5e92fee00ef68cccc4277b51d158726484c501686008f405123833',
        'report_sweep.json': '12163efb51c76d8b106ff88f3939b10b91fd432df4e696933f6ee555122ea69f',
        'report_variance.json': '1888159769558f6a423f600bb9da053349977210606d68e8dc045725d8c605d6',
        'summary.json': 'bb7faaa8610677fd0c939235f2e8f2fd4b7c5d1e08710440282a07865ade7820',
    },
    ('three_atom', 'csv'): {
        'report_chatterji.csv': 'bbea6d76a49493d9dfbaf18b727cd24890aa94b5adcaebaee46e665d68ff152b',
        'report_eval.csv': '69742583b5ffa5f49e52383838415bc1fac1671b6c9f1fd1e195eaf3d43ce5d2',
        'report_mc.csv': 'd7425de49cbb13c833f49d5652df18966ab015039fbcd769010deab1a28fda7a',
        'report_prop2.csv': 'c095dfc1e1698a312af67fccdb48f89f8a373b4cef9b3d7a0d67683e1241227d',
        'report_pstar.csv': 'd9f7998555c3e2b48e64b6ba5e55f1008f96bc0e8a792f5125e82eb7160aaf9e',
        'report_sweep.csv': 'd29a263da4ac885ed0b3393de9d6eb5b8a6c099be129b6fef0d14dfcaf0fc6c5',
        'report_variance.csv': 'db5c903aa16b24325bfafc38c9a940ad8683b2e937cf94e3d9e4764e68c5025d',
        'summary.json': '9bd87d640cf30eca2be2ee9b36ce745dc2233ba49b81368697c75c758b14603e',
    },
    ('three_atom', 'json'): {
        'report_chatterji.json': '4374dd1ca450fe8a182da746756708751d39681b4b7f973f9dc9f201046c9a6b',
        'report_eval.json': 'd76d06b6291447bff94cd5bad1b2f146a4425c62285201a95460ceaa10ee9d4a',
        'report_mc.json': '451fc76b055952c3ea2cbbd17dfb1497e78b0ad7c349551c899cd9ac1a09ef66',
        'report_prop2.json': '78b3a7dfb0dd8ac3f7400392b1e0ce18c053079bd673012d82d73576fc564008',
        'report_pstar.json': 'da969e3632bdd917097cb5592f2a8fe54545de552a1a9fe17544c19a9bfc14e2',
        'report_sweep.json': '16551a2fe5e99cc8e25fa0ebaa0b06265dca5773d4a8490cf0bb4b285fb98d0b',
        'report_variance.json': 'bb84161b6406d2aa86a8989ae0f5aa23bbcf7d71c961e1d83f154b9bd0c04889',
        'summary.json': 'c2fc50f35e9341ecc89de92302bd7e2c107b0deb157f5add9f1d7c63ced6343c',
    },
    ('two_point_masses', 'csv'): {
        'report_chatterji.csv': '77cda4332b103156d05872a4c7f193eed9480630d625e1dec8e1777d35031b8b',
        'report_eval.csv': '1d7c4b7ed9e39f2b039f499b1c63884f8f7c59558cebf93ebc444b96a7aa0e31',
        'report_mc.csv': '4ac354492e85879531ff3f644c35c893326a509404736b28f6a35c91e898a81c',
        'report_prop2.csv': '8f1423eb9dd482fdf31959ecc11058956fc776fbd2af0e53693c9c393ee32d04',
        'report_pstar.csv': 'ebb3fc9a5448748241e51b8a993d797e42d50e6c4b92e7ca623eee349f4eca43',
        'report_sweep.csv': 'd1b7242c4644c0c07df545feb2d78d200e0ab3b3ee37120bc18f5f82af9ff8d7',
        'report_variance.csv': '71528fe01463042a94c965acf0c44ecc1b25aa01f6ed02d7175341b53ad8cadd',
        'summary.json': '5855e65748953e1909d50edf0c4110ef88d88f473b033bf48850eb5c6596abc8',
    },
    ('two_point_masses', 'json'): {
        'report_chatterji.json': 'addc4a217e03de25c4ffbd9ca805831f0075bf155d928996519be660b96ec46c',
        'report_eval.json': '71db7c90162c541e07e946e3c1e8e82a7363443f7d341aed56297e5b6fe2891f',
        'report_mc.json': 'd428d2b7d365897784431482cc7a4ae78eeb358a831fb855287da4523d22c4ab',
        'report_prop2.json': '41c60dc2d3f795cdc739070f7317cde208cd81cda71783de1fcf34a03a9b5bec',
        'report_pstar.json': 'a9b4446d7ed8178a8ac4c58de3949a8099b6c797641f7b3b4bdff4e453d437d8',
        'report_sweep.json': 'c64aa813755ddec74a4363a7f750f3bfa6fe396dcf50cf7a43f8920e921f1430',
        'report_variance.json': '27bbba5ff0b510d039c828f3178129365aea0ea8c90b422553f5858d1b9bb52b',
        'summary.json': 'dcb3411779d958fa55d9ba7b3cfbf6c426c97cd378d5886a3a36ef8053ec9e99',
    },
}


class TestGoldenReports:
    @pytest.mark.parametrize("stem, fmt", sorted(GOLDEN_SHA256))
    def test_reports_byte_identical(self, tmp_path, stem, fmt):
        out = tmp_path / "reports"
        args = ["verify-all", "--config", str(CONFIGS / f"{stem}.json"), "--out", str(out)]
        assert main(args + ["--format", fmt, "--seed", "7"]) == 0
        actual = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
        pinned = GOLDEN_SHA256[stem, fmt]
        changed = sorted(name for name in pinned.keys() | actual.keys() if pinned.get(name) != actual.get(name))
        assert not changed, f"{stem} ({fmt}): these files differ from their pinned bytes: {changed}"
