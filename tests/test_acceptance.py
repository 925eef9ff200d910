"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v``; the per-criterion summary
is printed in the terminal summary section.
"""

import json
import math
from pathlib import Path
from time import perf_counter

import numpy as np
import pytest

from sublln.ambiguity import mean_bounds, one_step_expectation, upper_variance
from sublln.cli import main as cli_main
from sublln.corpus import catalog_for
from sublln.engine import (
    expectation_under_policy,
    extract_argmax_policy,
    iid_sum_expectation,
)
from sublln.lln_rates import (
    abs_dev,
    distance_sq_moment,
    improved_distance_bound,
    neg_abs_dev,
    rate_sweep,
)
from sublln.measures import (
    chatterji_check,
    conditional_means,
    construct_pstar,
    history_parity_measure,
    lower_bound_check,
    prop2_check,
    sample_paths,
    uniform_mixture,
)

from _oracles import (
    enumerate_history_policies_max,
    enumerate_sum_policies_max,
    fair_coin_expectation,
    history_policy_count,
    history_tree_max,
    sum_policy_count,
)

N_SCHEDULE = [2**k for k in range(11)]  # 1 .. 1024
ALPHAS = (0.25, 0.5, 0.75, 1.0)
CONFIGS = Path(__file__).resolve().parent.parent / "configs"

ENUM_CAP = 33_000  # literal policy enumerations stay below this many policies


@pytest.fixture(scope="session")
def corpus_sweeps(families):
    """Every (family, catalog phi) sweep over the full n schedule, computed once."""
    out = {}
    for name, family in families.items():
        for phi in catalog_for(family):
            out[(name, phi.name)] = (phi, rate_sweep(family, phi, N_SCHEDULE, ALPHAS))
    return out


def test_criterion_1_axiom_suite(acceptance_log, families):
    t0 = perf_counter()
    rng = np.random.default_rng(20240810)
    cases = 1000
    worst = 0.0
    for family in families.values():
        _, values, _ = family.union_atoms()
        k = len(values)
        psi_all = rng.uniform(-10.0, 10.0, size=(cases, k))
        gap_all = rng.uniform(0.0, 5.0, size=(cases, k))
        lam_all = rng.uniform(0.0, 8.0, size=cases)
        c_all = rng.uniform(-10.0, 10.0, size=cases)
        for i in range(cases):
            table = dict(zip(map(float, values), map(float, psi_all[i])))
            chi_table = {v: t - g for (v, t), g in zip(table.items(), gap_all[i])}
            psi = lambda x: table[float(x)]
            chi = lambda x: chi_table[float(x)]
            e_psi = one_step_expectation(family, psi)
            e_chi = one_step_expectation(family, chi)
            worst = max(worst, e_chi - e_psi)  # monotonicity
            worst = max(
                worst,
                abs(one_step_expectation(family, lambda x: c_all[i]) - c_all[i]),
            )
            e_sum = one_step_expectation(family, lambda x: psi(x) + chi(x))
            worst = max(worst, e_sum - (e_psi + e_chi))  # sub-additivity
            lam = float(lam_all[i])
            e_scaled = one_step_expectation(family, lambda x: lam * psi(x))
            worst = max(worst, abs(e_scaled - lam * e_psi))  # homogeneity
    elapsed = perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 5.0
    acceptance_log(
        1, f"axiom suite, 1000 cases x {len(families)} families: worst {worst:.2e}, {elapsed:.1f}s", ok
    )
    assert worst <= 1e-12
    assert elapsed < 5.0


def test_criterion_2_oracle_equivalence(acceptance_log, families):
    t0 = perf_counter()
    worst = 0.0
    literal_runs = 0
    for family in families.values():
        assert len(family.members) <= 3
        assert max(len(m.atoms) for m in family.members) <= 3
        lo, hi = family.support_bounds()
        phis = (neg_abs_dev(0.45 * lo + 0.55 * hi), abs_dev(0.5 * (lo + hi)))
        for phi in phis:
            for n in (1, 2, 3, 4):
                engine_value = iid_sum_expectation(family, n, phi)
                tree = history_tree_max(family, n, phi)
                worst = max(worst, abs(engine_value - tree))
                if sum_policy_count(family, n) <= ENUM_CAP:
                    literal_runs += 1
                    best = enumerate_sum_policies_max(family, n, phi)
                    worst = max(worst, abs(engine_value - best))
                if history_policy_count(family, n) <= ENUM_CAP:
                    literal_runs += 1
                    best = enumerate_history_policies_max(family, n, phi)
                    worst = max(worst, abs(engine_value - best))
    elapsed = perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 30.0
    acceptance_log(
        2,
        f"history-policy oracle, n<=4 ({literal_runs} literal enumerations): "
        f"worst {worst:.2e}, {elapsed:.1f}s",
        ok,
    )
    assert worst <= 1e-12
    assert elapsed < 30.0


def test_criterion_3_theorem_rate_bound(acceptance_log, corpus_sweeps):
    t0 = perf_counter()
    violations = []
    checked = 0
    for (fam_name, phi_name), (_, reports) in corpus_sweeps.items():
        for rep in reports:
            for alpha in ALPHAS:
                checked += 1
                if rep.gap > rep.bound_theorem3[alpha] + 1e-9:
                    violations.append((fam_name, phi_name, alpha, rep.n))
    elapsed = perf_counter() - t0
    ok = not violations and elapsed < 300.0
    acceptance_log(
        3, f"rate bound, {checked} (family,phi,alpha,n) cells: {len(violations)} violations", ok
    )
    assert violations == []
    assert elapsed < 300.0


def test_criterion_4_corollary_bound(acceptance_log, corpus_sweeps):
    violations = []
    checked = 0
    for (fam_name, phi_name), (phi, reports) in corpus_sweeps.items():
        if phi.lipschitz_constant > 1.0:
            continue
        for rep in reports:
            checked += 1
            assert rep.bound_corollary is not None
            if rep.gap > rep.bound_corollary + 1e-9:
                violations.append((fam_name, phi_name, rep.n))
    ok = not violations
    acceptance_log(
        4, f"sigma/sqrt(n) bound, {checked} 1-Lipschitz cells: {len(violations)} violations", ok
    )
    assert violations == []


def test_criterion_5_distance_moment(acceptance_log, families):
    violations = []
    for name, family in families.items():
        var, _ = upper_variance(family)
        for n in N_SCHEDULE:
            value = distance_sq_moment(family, n)
            if value > improved_distance_bound(var, n) + 1e-9:
                violations.append((name, n))
    # classical equality case: single fair coin, exact value 1/n by binomial count
    coin = families["fair_coin"]
    equality_err = 0.0
    for n in N_SCHEDULE:
        value = distance_sq_moment(coin, n)
        equality_err = max(equality_err, abs(value - 1.0 / n))
        if n <= 16:
            oracle = fair_coin_expectation(n, lambda x: x * x)
            equality_err = max(equality_err, abs(value - oracle))
    ok = not violations and equality_err <= 1e-9
    acceptance_log(
        5,
        f"distance moment <= var/n, equality error {equality_err:.2e}: {len(violations)} violations",
        ok,
    )
    assert violations == []
    assert equality_err <= 1e-9


def _diagnostic_measures(family, n, phi):
    lo, hi = mean_bounds(family)
    mu_mid = 0.5 * (lo + hi)
    return [
        construct_pstar(family, mu_mid, n),
        history_parity_measure(family, n),
        uniform_mixture(family, n),
    ]


def test_criterion_6_chatterji(acceptance_log, families):
    t0 = perf_counter()
    violations = []
    checked = 0
    for name, family in families.items():
        lo, hi = family.support_bounds()
        phi = abs_dev(0.5 * (lo + hi))
        for n in range(1, 7):
            for measure in _diagnostic_measures(family, n, phi):
                dec = conditional_means(family, measure, n)
                for p in (1.0, 1.25, 1.5, 1.75, 2.0):
                    checked += 1
                    rep = chatterji_check(dec, p)
                    if rep.lhs > rep.rhs + 1e-12 or not rep.chain_holds:
                        violations.append((name, measure.name, n, p))
    elapsed = perf_counter() - t0
    ok = not violations
    acceptance_log(
        6, f"Chatterji + moment chain, {checked} cells: {len(violations)} violations ({elapsed:.1f}s)", ok
    )
    assert violations == []


def test_criterion_7_conditional_mean_containment(acceptance_log, families):
    violations = []
    checked = 0
    for name, family in families.items():
        lo, hi = mean_bounds(family)
        phi = neg_abs_dev(0.5 * (lo + hi))
        for n in (1, 2, 3, 4, 5):
            measures = _diagnostic_measures(family, n, phi)
            measures += [construct_pstar(family, lo, n), construct_pstar(family, hi, n)]
            from sublln.measures import PathMeasure

            policy = extract_argmax_policy(family, n, phi)
            measures.append(PathMeasure.from_policy(policy, len(family.members), name="argmax"))
            for measure in measures:
                checked += 1
                rep = prop2_check(conditional_means(family, measure, n))
                if not rep.ok:
                    violations.append((name, measure.name, n, rep.worst_excess))
    ok = not violations
    acceptance_log(
        7, f"conditional means within mean interval, {checked} measures: {len(violations)} violations", ok
    )
    assert violations == []


def test_criterion_8_pstar_chain(acceptance_log, families):
    violations = []
    checked = 0
    for name, family in families.items():
        lo, hi = mean_bounds(family)
        phi = abs_dev(0.5 * (lo + hi))
        for n in (1, 2, 4, 8, 16, 32, 64, 128, 256):
            checked += 1
            rep = lower_bound_check(family, phi, n, alphas=ALPHAS)
            if rep.step_mean_error > 1e-12:
                violations.append((name, n, "pinning"))
            if not rep.upper_dominates:
                violations.append((name, n, "dominance"))
            if not all(rep.lower_holds.values()):
                violations.append((name, n, "lower bound"))
        # conditional means under the pinned measure, exact small-n enumeration
        measure = construct_pstar(family, lo, 4)
        dec = conditional_means(family, measure, 4)
        if np.max(np.abs(dec.cond_means - lo)) > 1e-12:
            violations.append((name, 4, "conditional pinning"))
    ok = not violations
    acceptance_log(8, f"pinned-measure chain, {checked} (family,n) cells: {len(violations)} violations", ok)
    assert violations == []


def test_criterion_9_argmax_attainment(acceptance_log, families):
    worst = 0.0
    for family in families.values():
        lo, hi = family.support_bounds()
        phi = neg_abs_dev(0.45 * lo + 0.55 * hi)
        for n in (1, 2, 4, 8, 16, 32, 64, 128, 256):
            policy = extract_argmax_policy(family, n, phi)
            attained = expectation_under_policy(family, n, phi, policy)
            upper = iid_sum_expectation(family, n, phi)
            worst = max(worst, abs(attained - upper))
    ok = worst <= 1e-10
    acceptance_log(9, f"argmax policy attainment, worst |E_policy - E_up| = {worst:.2e}", ok)
    assert worst <= 1e-10


def test_criterion_10_monte_carlo(acceptance_log, families):
    count = 100_000
    n = 50
    seed = 20240810
    failures = []
    for name in ("delta_pair", "three_atom"):
        family = families[name]
        lo, hi = mean_bounds(family)
        phi = neg_abs_dev(0.3 * lo + 0.7 * hi)
        mu_star = 0.3 * lo + 0.7 * hi
        measure = construct_pstar(family, mu_star, n)
        exact = expectation_under_policy(family, n, phi, measure)
        paths = sample_paths(family, measure, n, count, seed)
        values = np.asarray(phi(paths.sum(axis=1) / n), dtype=float)
        estimate = float(values.mean())
        tol = 4.0 * float(values.std(ddof=1)) / math.sqrt(count)
        if abs(estimate - exact) > tol:
            failures.append((name, "consistency"))
        again = sample_paths(family, measure, n, count, seed)
        if not np.array_equal(paths, again):
            failures.append((name, "reproducibility"))
        estimate_again = float(np.asarray(phi(again.sum(axis=1) / n), dtype=float).mean())
        if estimate_again != estimate:
            failures.append((name, "bit-identical estimate"))
    ok = not failures
    acceptance_log(10, f"Monte Carlo, {count} paths at n={n}: {failures or 'consistent'}", ok)
    assert failures == []


_BOUND_COLS = [
    f"{stem}_{tag}"
    for tag in ("0.25", "0.5", "0.75", "1")
    for stem in ("bound_theorem3", "holds_theorem3")
]
_EXPECTED_COLUMNS = {
    "eval": "n,expectation,lower_expectation,holds_order",
    "sweep": "n,expectation,limit,gap," + ",".join(_BOUND_COLS) + ",bound_corollary,holds_corollary",
    "variance": "n,mu_lower,mu_upper,sigma_bar_sq,sigma_bar_argmin,dist_sq_moment,"
    "dist_lipschitz,improved_bound,fang_bound,holds_improved,holds_fang,holds_ordering",
    "chatterji": "measure,n,p,lhs,rhs,holds,chain_bound,holds_chain",
    "prop2": "measure,n,ok,worst_excess,mu_lower,mu_upper",
    "pstar": "n,mu_star,phi_mu_star,e_pstar,e_upper,lower_gap,step_mean_error,holds_dominance,"
    + ",".join(
        f"{stem}_{tag}"
        for tag in ("0.25", "0.5", "0.75", "1")
        for stem in ("bound_theorem3", "holds_lower")
    )
    + ",holds_pinning",
    "mc": "n,samples,seed,exact,sample_mean,sample_std,abs_error,tolerance,holds",
}


def test_criterion_11_cli_end_to_end(acceptance_log, tmp_path):
    out = tmp_path / "reports"
    code = cli_main(["verify-all", "--config", str(CONFIGS / "corpus.json"), "--out", str(out)])
    summary = json.loads((out / "summary.json").read_text())
    schema_ok = summary["overall_passed"] is True and "version" in summary
    for check, meta in summary["checks"].items():
        report = out / meta["report"]
        if not report.exists():
            schema_ok = False
            continue
        header = report.read_text().splitlines()[0]
        if header != _EXPECTED_COLUMNS[check]:
            schema_ok = False
    bad = tmp_path / "bad.json"
    bad.write_text('{"family": {"lattice"')
    bad_code = cli_main(["verify-all", "--config", str(bad), "--out", str(tmp_path / "r2")])
    ok = code == 0 and bad_code == 1 and schema_ok
    acceptance_log(
        11, f"CLI verify-all exit {code}, corrupted-config exit {bad_code}, reports conformant", ok
    )
    assert code == 0
    assert bad_code == 1
    assert schema_ok
