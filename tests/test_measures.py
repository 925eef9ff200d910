import math
from collections import defaultdict

import numpy as np
import pytest

from sublln import measures
from sublln.ambiguity import AmbiguityFamily, mean_bounds, upper_variance
from sublln.engine import (
    PolicyIncomplete,
    SupportOverflow,
    expectation_under_policy,
    extract_argmax_policy,
    iid_sum_expectation,
)
from sublln.lln_rates import abs_dev, interval_max, linear, neg_abs_dev
from sublln.measures import (
    MuStarOutOfRange,
    PathMeasure,
    POutOfRange,
    chatterji_check,
    conditional_means,
    construct_pstar,
    history_parity_measure,
    lower_bound_check,
    lower_bound_checks,
    prop2_check,
    sample_paths,
    uniform_mixture,
)

DELTA_PAIR = AmbiguityFamily.build(0, 1, [[(0, 1.0)], [(1, 1.0)]])
TWO_POINT = AmbiguityFamily.build(0, 1, [[(-1, 1.0)], [(1, 1.0)]])
FAIR_COIN = AmbiguityFamily.build(0, 1, [[(-1, 0.5), (1, 0.5)]])
POINT_MASS = AmbiguityFamily.build(0, 0.5, [[(0.5, 1.0)]])


def diagnostic_measures(family, n):
    lo, hi = mean_bounds(family)
    return [
        construct_pstar(family, lo, n),
        construct_pstar(family, 0.5 * (lo + hi), n),
        construct_pstar(family, hi, n),
        uniform_mixture(family, n),
        history_parity_measure(family, n),
    ]


class TestConstructPstar:
    def test_lambda_formula(self):
        measure = construct_pstar(DELTA_PAIR, 0.3, 4)
        w = measure.mixture_weights(0)
        assert w[1] == pytest.approx(0.3)  # upper member gets lambda
        assert w[0] == pytest.approx(0.7)

    def test_degenerate_interval(self):
        measure = construct_pstar(FAIR_COIN, 0.0, 3)
        assert list(measure.mixture_weights(0)) == [1.0]

    def test_mu_star_at_upper_end(self):
        measure = construct_pstar(DELTA_PAIR, 1.0, 2)
        w = measure.mixture_weights(0)
        assert w[1] == 1.0
        means = DELTA_PAIR.member_means()
        assert float(w @ means) == 1.0

    def test_out_of_range(self):
        with pytest.raises(MuStarOutOfRange):
            construct_pstar(DELTA_PAIR, 1.5, 2)
        with pytest.raises(MuStarOutOfRange):
            construct_pstar(DELTA_PAIR, -0.5, 2)

    def test_mean_pinning(self, families):
        for family in families.values():
            lo, hi = mean_bounds(family)
            for mu_star in (lo, 0.25 * lo + 0.75 * hi, hi):
                measure = construct_pstar(family, mu_star, 3)
                mean = float(measure.mixture_weights(0) @ family.member_means())
                assert abs(mean - mu_star) <= 1e-12
                dec = conditional_means(family, measure, 3)
                assert np.max(np.abs(dec.cond_means - mu_star)) <= 1e-12


class TestConditionalMeans:
    def test_single_member(self):
        measure = uniform_mixture(FAIR_COIN, 3)
        dec = conditional_means(FAIR_COIN, measure, 3)
        assert np.allclose(dec.cond_means, 0.0, atol=1e-15)
        assert dec.path_probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_pstar_history_independent(self):
        measure = construct_pstar(DELTA_PAIR, 0.3, 4)
        dec = conditional_means(DELTA_PAIR, measure, 4)
        assert np.max(np.abs(dec.cond_means - 0.3)) <= 1e-15

    def test_parity_rule_within_bounds(self):
        measure = history_parity_measure(TWO_POINT, 4)
        dec = conditional_means(TWO_POINT, measure, 4)
        assert dec.cond_means.min() >= -1.0 - 1e-15
        assert dec.cond_means.max() <= 1.0 + 1e-15

    def test_probabilities_sum_to_one(self, families):
        for family in families.values():
            for measure in diagnostic_measures(family, 3):
                dec = conditional_means(family, measure, 3)
                assert dec.path_probs.sum() == pytest.approx(1.0, abs=1e-12)
                assert dec.path_probs.min() >= -1e-15

    def test_martingale_property_per_prefix(self, families):
        # E[D_i ; prefix] = 0 for every realized prefix (F_{i-1}-measurable events)
        for family in families.values():
            for measure in diagnostic_measures(family, 3):
                dec = conditional_means(family, measure, 3)
                diffs = dec.diffs
                for i in range(dec.n):
                    bucket = defaultdict(float)
                    for p in range(dec.paths.shape[0]):
                        prefix = tuple(dec.paths[p, :i])
                        bucket[prefix] += dec.path_probs[p] * diffs[p, i]
                    worst = max(abs(v) for v in bucket.values())
                    assert worst <= 1e-12, (family.name, measure.name, i)

    def test_enumeration_cutoff(self):
        measure = uniform_mixture(DELTA_PAIR, 9)
        with pytest.raises(SupportOverflow):
            conditional_means(DELTA_PAIR, measure, 9)

    def test_state_cap(self):
        measure = uniform_mixture(DELTA_PAIR, 8)
        with pytest.raises(SupportOverflow):
            conditional_means(DELTA_PAIR, measure, 8, state_cap=10)


class TestProp2:
    def test_containment_for_constructed_measures(self, families):
        for family in families.values():
            for measure in diagnostic_measures(family, 3):
                report = prop2_check(family, measure, 3)
                assert report.ok, (family.name, measure.name, report)

    def test_point_mass_exact(self):
        report = prop2_check(POINT_MASS, uniform_mixture(POINT_MASS, 2), 2)
        assert report.ok
        assert report.mu_lower == report.mu_upper == 0.5

    def test_argmax_policy_measure(self, families):
        for family in families.values():
            lo, hi = family.support_bounds()
            phi = neg_abs_dev(0.5 * (lo + hi))
            policy = extract_argmax_policy(family, 3, phi)
            measure = PathMeasure.from_policy(policy, len(family.members))
            assert prop2_check(family, measure, 3).ok


class TestChatterji:
    def test_orthogonal_increments_equality(self):
        rep = chatterji_check(FAIR_COIN, uniform_mixture(FAIR_COIN, 2), 2, 2.0)
        assert rep.lhs == pytest.approx(2.0, abs=1e-14)
        assert rep.rhs == pytest.approx(2.0, abs=1e-14)
        assert rep.holds

    def test_p_one_enumeration(self):
        rep = chatterji_check(FAIR_COIN, uniform_mixture(FAIR_COIN, 2), 2, 1.0)
        assert rep.lhs == pytest.approx(1.0, abs=1e-14)
        assert rep.rhs == pytest.approx(4.0, abs=1e-14)
        assert rep.holds and rep.chain_holds

    def test_pstar_mixture(self):
        measure = construct_pstar(DELTA_PAIR, 0.4, 3)
        rep = chatterji_check(DELTA_PAIR, measure, 3, 1.5)
        assert rep.holds and rep.chain_holds

    def test_p_out_of_range(self):
        with pytest.raises(POutOfRange):
            chatterji_check(FAIR_COIN, uniform_mixture(FAIR_COIN, 2), 2, 2.5)

    def test_all_measures_all_p(self, families):
        ps = (1.0, 1.25, 1.5, 1.75, 2.0)
        for family in families.values():
            for measure in diagnostic_measures(family, 4):
                dec = conditional_means(family, measure, 4)
                for p in ps:
                    rep = chatterji_check(family, measure, 4, p, decomposition=dec)
                    assert rep.lhs <= rep.rhs + 1e-12, (family.name, measure.name, p)
                    assert rep.chain_holds


def test_conditional_variance_domination(families):
    # per-step squared martingale differences stay below the upper variance
    for family in families.values():
        var, _ = upper_variance(family)
        for measure in diagnostic_measures(family, 3):
            dec = conditional_means(family, measure, 3)
            sq = dec.diffs**2
            for i in range(dec.n):
                step_var = float(dec.path_probs @ sq[:, i])
                assert step_var <= var + 1e-12, (family.name, measure.name, i)


class TestSamplePaths:
    def test_point_mass_paths_identical(self):
        measure = uniform_mixture(POINT_MASS, 4)
        paths = sample_paths(POINT_MASS, measure, 4, 10, seed=5)
        assert np.all(paths == 0.5)

    def test_seed_reproducibility(self):
        measure = construct_pstar(DELTA_PAIR, 0.3, 6)
        a = sample_paths(DELTA_PAIR, measure, 6, 100, seed=99)
        b = sample_paths(DELTA_PAIR, measure, 6, 100, seed=99)
        assert np.array_equal(a, b)
        c = sample_paths(DELTA_PAIR, measure, 6, 100, seed=100)
        assert not np.array_equal(a, c)

    def test_vectorized_matches_generic_loop(self):
        # a constant rule routed through the "sum" path must reproduce the fast path
        constant = construct_pstar(DELTA_PAIR, 0.7, 5)
        w = constant.mixture_weights(0)
        slow = PathMeasure.from_sum_rule(lambda step, total: w, 5, 2)
        a = sample_paths(DELTA_PAIR, constant, 5, 50, seed=123)
        b = sample_paths(DELTA_PAIR, slow, 5, 50, seed=123)
        assert np.array_equal(a, b)

    def test_monte_carlo_consistency_small(self):
        measure = construct_pstar(TWO_POINT, 0.2, 20)
        phi = abs_dev(0.1)
        exact = expectation_under_policy(TWO_POINT, 20, phi, measure)
        paths = sample_paths(TWO_POINT, measure, 20, 20_000, seed=7)
        values = phi(paths.sum(axis=1) / 20)
        err = abs(float(values.mean()) - exact)
        tol = 4.0 * float(values.std(ddof=1)) / math.sqrt(20_000)
        assert err <= tol

    def test_bad_seed(self):
        measure = uniform_mixture(DELTA_PAIR, 2)
        with pytest.raises(ValueError):
            sample_paths(DELTA_PAIR, measure, 2, 5, seed=-1)


class TestLowerBoundCheck:
    def test_point_mass_all_equal(self):
        report = lower_bound_check(POINT_MASS, abs_dev(0.0), 4)
        assert report.mu_star == 0.5
        assert report.phi_mu_star == pytest.approx(0.5)
        assert report.e_pstar == pytest.approx(0.5)
        assert report.e_upper == pytest.approx(0.5)
        assert report.all_hold

    def test_delta_pair_chain(self):
        report = lower_bound_check(DELTA_PAIR, neg_abs_dev(0.5), 4)
        assert report.e_pstar <= report.e_upper + 1e-12
        assert report.e_upper <= 0.0 + 1e-12
        assert report.phi_mu_star == pytest.approx(0.0, abs=1e-9)
        assert report.all_hold

    def test_linear_everything_attained(self):
        report = lower_bound_check(TWO_POINT, linear(1.0, 0.0), 5)
        assert report.mu_star == 1.0
        assert report.e_pstar == pytest.approx(1.0)
        assert report.e_upper == pytest.approx(1.0)
        assert report.step_mean_error <= 1e-12
        assert report.all_hold

    def test_corpus_chain(self, families):
        for family in families.values():
            lo, hi = mean_bounds(family)
            report = lower_bound_check(family, abs_dev(0.5 * (lo + hi)), 8)
            assert report.all_hold, (family.name, report)
            assert report.step_mean_error <= 1e-12

    def test_batched_horizons_match_single_horizons(self, families, monkeypatch):
        calls = []
        monkeypatch.setattr(measures, "interval_max", lambda *a: calls.append(a) or interval_max(*a))
        ns = [8, 1, 4, 4, 2]
        for family in families.values():
            lo, hi = mean_bounds(family)
            phi = abs_dev(0.25 * lo + 0.75 * hi)
            calls.clear()
            reports = lower_bound_checks(family, phi, ns, alphas=(0.5, 1.0))
            assert len(calls) == 1
            assert [r.n for r in reports] == ns
            for n, rep in zip(ns, reports):
                assert rep == lower_bound_check(family, phi, n, alphas=(0.5, 1.0))
                assert rep.e_upper == iid_sum_expectation(family, n, phi)
                pstar = construct_pstar(family, rep.mu_star, n)
                assert rep.e_pstar == expectation_under_policy(family, n, phi, pstar)


def test_measures_dominated_by_upper_expectation(families):
    for family in families.values():
        lo, hi = family.support_bounds()
        phi = abs_dev(0.3 * lo + 0.7 * hi)
        for n in (2, 4):
            upper = iid_sum_expectation(family, n, phi)
            for measure in diagnostic_measures(family, n):
                value = expectation_under_policy(family, n, phi, measure)
                assert value <= upper + 1e-12, (family.name, measure.name)


def test_measure_horizon_guard():
    measure = uniform_mixture(DELTA_PAIR, 2)
    with pytest.raises(PolicyIncomplete):
        conditional_means(DELTA_PAIR, measure, 3)
