import math

import numpy as np
import pytest

from sublln import lln_rates
from sublln.ambiguity import AlphaOutOfRange, AmbiguityFamily, mean_bounds, moment_summary, upper_variance
from sublln.corpus import catalog_for, one_lipschitz_catalog_for
from sublln.lln_rates import (
    BOUND_TOL,
    InvalidInterval,
    LipschitzFunction,
    NonPositiveN,
    abs_dev,
    clip_to,
    corollary_bound,
    distance_sq_moment,
    fang_bound,
    improved_distance_bound,
    interval_dist_sq,
    interval_distance_phi,
    interval_max,
    linear,
    neg_abs_dev,
    rate_sweep,
    spot_check_lipschitz,
    theorem3_bound,
    verdict,
)
from sublln.measures import lower_bound_check

from _oracles import dense_interval_max, fair_coin_expectation

FAIR_COIN = AmbiguityFamily.build(0, 1, [[(-1, 0.5), (1, 0.5)]])
DELTA_PAIR = AmbiguityFamily.build(0, 1, [[(0, 1.0)], [(1, 1.0)]])
TWO_POINT = AmbiguityFamily.build(0, 1, [[(-1, 1.0)], [(1, 1.0)]])
POINT_MASS = AmbiguityFamily.build(0, 0.5, [[(0.5, 1.0)]])


class TestVerdict:
    def test_float_form_is_lhs_at_most_rhs_plus_err(self):
        # 1 - 2^-53 + 2^-54 rounds to 1.0 (a tie, to even), but 1.0 - (1 - 2^-53) = 2^-53 exceeds 2^-54
        assert verdict(1.0, 1.0 - 2**-53, 2**-54) is True
        assert not 1.0 - (1.0 - 2**-53) <= 2**-54
        assert verdict(np.float64(1.0), np.float64(0.5), 0.0) is False


class TestIntervalMax:
    def test_kink_inside(self):
        res = interval_max(neg_abs_dev(0.3), 0.0, 1.0)
        assert res.max_value == pytest.approx(0.0, abs=res.grid_error_bound + 1e-15)
        assert res.argmax_r == pytest.approx(0.3, abs=1e-6)

    def test_monotone(self):
        res = interval_max(linear(1.0, 0.0), -1.0, 2.0)
        assert res.max_value == 2.0
        assert res.argmax_r == 2.0

    def test_quadratic_vertex(self):
        phi = LipschitzFunction(lambda x: -((x - 0.37) ** 2), 2.0, "neg_sq")
        res = interval_max(phi, 0.0, 1.0)
        assert res.max_value <= 0.0
        assert res.max_value >= -res.grid_error_bound
        assert abs(res.argmax_r - 0.37) <= 1e-3

    def test_grid_cap_sets_the_error_bound(self):
        # L*(hi-lo) = 1 > 2e-3, so the 10^6-interval cap binds and the bound is L*(hi-lo)/(2*10^6)
        assert interval_max(abs_dev(0.5), 0.0, 1.0).grid_error_bound == 1.0 * 1.0 / (2 * 10**6)

    def test_degenerate_interval(self):
        res = interval_max(abs_dev(0.0), 0.5, 0.5)
        assert res == type(res)(0.5, 0.5, 0.0)

    def test_huge_finite_lipschitz_constant(self, monkeypatch):
        # L*span overflows to inf; the grid still takes its 10^6-interval cap
        sizes, evaluate = [], lln_rates._eval_phi

        def recording(phi, xs):
            sizes.append(xs.size)
            return evaluate(phi, xs)

        monkeypatch.setattr(lln_rates, "_eval_phi", recording)
        res = interval_max(LipschitzFunction(lambda x: x, 1e308, "big"), 0.0, 10.0)
        assert (res.argmax_r, res.max_value) == (10.0, 10.0)
        assert sum(sizes) == 10**6 + 1
        assert math.isfinite(res.grid_error_bound)

    def test_zero_lipschitz(self):
        phi = LipschitzFunction(lambda x: np.full_like(np.asarray(x, dtype=float), 3.0), 0.0, "const")
        res = interval_max(phi, 0.0, 1.0)
        assert res.max_value == 3.0
        assert res.grid_error_bound == 0.0

    def test_invalid_interval(self):
        with pytest.raises(InvalidInterval):
            interval_max(abs_dev(0.0), 1.0, 0.0)

    def test_endpoints_dominated(self):
        res = interval_max(abs_dev(0.21), -0.5, 1.25)
        assert res.max_value >= abs(-0.5 - 0.21)
        assert res.max_value >= abs(1.25 - 0.21)
        assert -0.5 <= res.argmax_r <= 1.25

    @pytest.mark.parametrize(
        "phi,lo,hi",
        [
            (neg_abs_dev(0.137), 0.0, 1.0),
            (LipschitzFunction(lambda x: np.sin(7.0 * x), 7.0, "sin7"), -1.0, 1.0),
            (interval_dist_sq(0.1, 0.4, -1.0, 1.5), -1.0, 1.5),
        ],
    )
    def test_certified_error(self, phi, lo, hi):
        res = interval_max(phi, lo, hi)
        truth = dense_interval_max(phi, lo, hi)
        assert truth <= res.max_value + res.grid_error_bound
        assert res.max_value <= truth + 1e-15


class TestBoundFormulas:
    def test_theorem3_values(self):
        assert theorem3_bound(1.0, 1.0, 1.0, 4) == pytest.approx(1.0)
        assert theorem3_bound(1.0, 1.0, 1.0, 100) == pytest.approx(0.2)
        assert theorem3_bound(2.0, 1.0, 0.5, 16) == pytest.approx(2.0)

    def test_corollary_values(self):
        assert corollary_bound(1.0, 100) == pytest.approx(0.1)
        assert corollary_bound(0.0, 7) == 0.0
        assert corollary_bound(1.0, 4) == pytest.approx(0.5)

    def test_fang_values(self):
        assert fang_bound(1.0, 0.0, 2) == pytest.approx(1.0)
        assert fang_bound(0.0, 1.0, 4) == pytest.approx(0.5)
        assert fang_bound(1.0, 2.0, 10) == pytest.approx(1.0)

    def test_improved_values(self):
        assert improved_distance_bound(1.0, 4) == pytest.approx(0.25)
        assert improved_distance_bound(0.25, 25) == pytest.approx(0.01)
        assert improved_distance_bound(1.0, 1) == pytest.approx(1.0)

    def test_errors(self):
        with pytest.raises(AlphaOutOfRange):
            theorem3_bound(1.0, 1.0, 1.5, 4)
        with pytest.raises(NonPositiveN):
            theorem3_bound(1.0, 1.0, 1.0, 0)
        with pytest.raises(NonPositiveN):
            corollary_bound(1.0, -3)
        with pytest.raises(NonPositiveN):
            fang_bound(1.0, 1.0, 0)
        with pytest.raises(NonPositiveN):
            improved_distance_bound(1.0, 0)
        with pytest.raises(ValueError):
            corollary_bound(-1.0, 4)


class TestDistanceMoment:
    def test_classical_equality_case(self):
        # for the fair coin the mean interval is {0}, so this is E[(S_n/n)^2] = 1/n
        for n in (1, 2, 4, 8):
            value = distance_sq_moment(FAIR_COIN, n)
            assert value == pytest.approx(1.0 / n, abs=1e-12)
            oracle = fair_coin_expectation(n, lambda x: x * x)
            assert value == pytest.approx(oracle, abs=1e-12)

    def test_point_mass_zero(self):
        for n in (1, 3, 9):
            assert distance_sq_moment(POINT_MASS, n) == 0.0

    def test_delta_pair_inside_interval(self):
        # every terminal S_2/2 lies inside [0, 1], so the distance vanishes
        assert distance_sq_moment(DELTA_PAIR, 2) == 0.0

    def test_recorded_lipschitz_constant(self):
        phi = interval_distance_phi(FAIR_COIN)
        assert phi.lipschitz_constant == pytest.approx(2.0)
        check = spot_check_lipschitz(phi, -1.0, 1.0, pairs=2000, seed=3)
        assert check.ok


class TestRateSweep:
    def test_point_mass_zero_gaps(self):
        reports = rate_sweep(POINT_MASS, abs_dev(0.5), [1, 2, 4, 8])
        for rep in reports:
            assert rep.gap == 0.0
            assert rep.all_hold

    def test_two_point_one_lipschitz(self):
        reports = rate_sweep(TWO_POINT, neg_abs_dev(0.0), list(range(1, 65)))
        for rep in reports:
            assert rep.bound_corollary is not None
            assert rep.gap <= rep.bound_corollary + BOUND_TOL
            assert rep.all_hold

    def test_fair_coin_abs_gap(self):
        # binomial enumeration: E|S_4|/4 = 1.5/4
        reports = rate_sweep(FAIR_COIN, abs_dev(0.0), [4])
        assert reports[0].gap == pytest.approx(0.375, abs=1e-13)
        assert reports[0].limit == pytest.approx(0.0, abs=1e-15)

    def test_corollary_absent_for_steep_phi(self):
        reports = rate_sweep(TWO_POINT, linear(3.0, 0.0), [1, 2])
        for rep in reports:
            assert rep.bound_corollary is None
            assert rep.corollary_holds is None

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            rate_sweep(TWO_POINT, abs_dev(0.0), [])
        with pytest.raises(ValueError):
            rate_sweep(TWO_POINT, abs_dev(0.0), [4, 2])
        with pytest.raises(NonPositiveN):
            rate_sweep(TWO_POINT, abs_dev(0.0), [0, 2])
        with pytest.raises(NonPositiveN):
            rate_sweep(TWO_POINT, abs_dev(0.0), [2.5])
        with pytest.raises(NonPositiveN, match="got True"):
            rate_sweep(TWO_POINT, abs_dev(0.0), [True, 2])
        with pytest.raises(NonPositiveN, match="got True"):
            corollary_bound(1.0, True)

    def test_empty_alphas_rejected(self, families):
        # no alpha would leave no theorem-3 bound, and all_hold would pass vacuously
        family = families["three_atom"]
        with pytest.raises(AlphaOutOfRange, match="^alphas must be nonempty$"):
            moment_summary(family, ())
        with pytest.raises(AlphaOutOfRange, match="^alphas must be nonempty$"):
            rate_sweep(family, linear(2.0, 0.0), [1, 2], alphas=())
        with pytest.raises(AlphaOutOfRange, match="^alphas must be nonempty$"):
            lower_bound_check(family, linear(2.0, 0.0), 2, alphas=())
        with pytest.raises(AlphaOutOfRange):
            lower_bound_check(family, linear(2.0, 0.0), 2, alphas=(0.5, 1.5))
        got = lower_bound_check(family, linear(2.0, 0.0), 2, alphas=iter([1.0, 0.5]))
        assert list(got.bound_theorem3) == [1.0, 0.5]

    def test_monotone_vanishing(self, families):
        schedule = [1, 1024]
        for family in families.values():
            var, _ = upper_variance(family)
            sigma = math.sqrt(var)
            for phi in catalog_for(family):
                first, last = rate_sweep(family, phi, schedule, alphas=(1.0,))
                assert last.gap <= first.gap + 1e-12, (family.name, phi.name)
            for phi in one_lipschitz_catalog_for(family):
                (_, last) = rate_sweep(family, phi, schedule, alphas=(1.0,))
                assert last.gap <= corollary_bound(sigma, 1024) + BOUND_TOL


class TestLipschitzSpotCheck:
    def test_catalog_constants_sound(self, families):
        for family in families.values():
            dlo, dhi = family.support_bounds()
            for phi in catalog_for(family):
                check = spot_check_lipschitz(phi, dlo, dhi, pairs=10_000, seed=1)
                assert check.ok, (family.name, phi.name, check)

    def test_understated_constant_caught(self):
        lying = LipschitzFunction(lambda x: 3.0 * x, 1.0, "steep")
        check = spot_check_lipschitz(lying, 0.0, 1.0, pairs=500, seed=0)
        assert not check.ok

    def test_numpy_seed_gives_the_check_of_the_int(self):
        phi = abs_dev(0.25)
        for seed in (0, 7, 2**64 - 1):
            want = spot_check_lipschitz(phi, -1.0, 1.0, pairs=100, seed=seed)
            assert spot_check_lipschitz(phi, -1.0, 1.0, pairs=100, seed=np.uint64(seed)) == want
        assert spot_check_lipschitz(phi, -1.0, 1.0, pairs=100, seed=np.int64(1)) == spot_check_lipschitz(
            phi, -1.0, 1.0, pairs=100, seed=1
        )

    def test_negative_constant_rejected(self):
        with pytest.raises(ValueError):
            LipschitzFunction(lambda x: x, -1.0, "bad")


def test_improved_bound_never_exceeds_fang(families):
    for family in families.values():
        lo, hi = mean_bounds(family)
        var, _ = upper_variance(family)
        for n in (1, 2, 16, 256):
            assert improved_distance_bound(var, n) <= fang_bound(var, hi - lo, n) + 1e-15


def test_clip_requires_ordered_interval():
    with pytest.raises(InvalidInterval):
        clip_to(1.0, 0.0)


@pytest.mark.parametrize("constant", [math.inf, -1.0, math.nan])
def test_lipschitz_constant_must_be_finite_and_nonnegative(constant):
    with pytest.raises(ValueError, match=rf"^Lipschitz constant must be finite and >= 0, got {constant}$"):
        LipschitzFunction(lambda x: x, constant, "bad")
