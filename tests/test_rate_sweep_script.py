"""Smoke test of ``scripts/run_rate_sweep.py``, loaded as a module and run through ``main(argv)``."""

import importlib.util
from pathlib import Path

import pytest

from _oracles import fair_coin_expectation

ROOT = Path(__file__).resolve().parent.parent


def load_script():
    spec = importlib.util.spec_from_file_location("run_rate_sweep", ROOT / "scripts" / "run_rate_sweep.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_fair_coin_table(capsys):
    assert load_script().main(["--family", "fair_coin", "--phi", "abs_dev", "--n-max", "8"]) == 0
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    rows = {int(fields[0]): fields for fields in lines if fields[0].isdigit()}
    assert sorted(rows) == [1, 2, 4, 8]
    # E|S_8/8| for a fair +-1 coin, by the binomial closed form E|S_n| = n * C(n, n/2) / 2^n: 70/256
    assert float(rows[8][1]) == 0.2734375 == fair_coin_expectation(8, abs)
    assert "VIOLATION" not in rows[8]


@pytest.mark.parametrize("argv", [["--n-max", "0"], ["--alpha", "1.5"], ["--alpha", "0"]])
def test_bad_arguments_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        load_script().main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("usage: ")


def test_schedule_reaches_n_max_past_1024(capsys):
    assert load_script().main(["--family", "fair_coin", "--phi", "abs_dev", "--n-max", "2048"]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    ns = [int(fields[0]) for fields in rows if fields[0].isdigit()]
    assert ns == [2**k for k in range(12)]


@pytest.mark.parametrize("n_max, ns", [(1, [1]), (3, [1, 2]), (5, [1, 2, 4])])
def test_schedule_is_every_power_of_two_up_to_n_max(capsys, n_max, ns):
    assert load_script().main(["--family", "delta_pair", "--n-max", str(n_max)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert [int(fields[0]) for fields in rows if fields[0].isdigit()] == ns


def test_support_overflow_is_an_error(capsys):
    # three_atom needs 33,566,721 dense states at n = 4096, past the default cap of 10^7
    assert load_script().main(["--family", "three_atom", "--n-max", "4096"]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: ") and "n=4096" in out.err
