import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sublln.ambiguity import (
    AlphaOutOfRange,
    AmbiguityFamily,
    DiscreteDistribution,
    FamilyInvalid,
    LatticeSpec,
    mean_bounds,
    moment_c_alpha,
    moment_summary,
    one_step_expectation,
    upper_variance,
    validate_family,
)

from _oracles import grid_upper_variance

TWO_POINT = AmbiguityFamily.build(0, 1, [[(-1, 1.0)], [(1, 1.0)]])
FAIR_COIN = AmbiguityFamily.build(0, 1, [[(-1, 0.5), (1, 0.5)]])
BERN_PAIR = AmbiguityFamily.build(0, 1, [[(0, 0.5), (2, 0.5)], [(0, 0.25), (2, 0.75)]])


def table_fn(values, table_values):
    table = {float(v): float(t) for v, t in zip(values, table_values)}
    return lambda x: table[float(x)]


class TestValidation:
    def test_well_formed(self):
        fam = AmbiguityFamily.build(0, 1, [[(0, 0.5), (1, 0.5)]])
        result = validate_family(fam)
        assert result.ok and result.warnings == ()

    def test_weights_not_normalized(self):
        fam = AmbiguityFamily.build(0, 1, [[(0, 0.6), (1, 0.5)]])
        result = validate_family(fam)
        assert not result.ok
        assert result.code == "WeightsNotNormalized"
        assert result.member_index == 0

    def test_off_lattice(self):
        fam = AmbiguityFamily.build(0, 1, [[(0.5, 1.0)]])
        result = validate_family(fam)
        assert result.code == "OffLattice"
        assert (result.member_index, result.atom_index) == (0, 0)

    def test_negative_weight(self):
        fam = AmbiguityFamily.build(0, 1, [[(0, -0.25), (1, 1.25)]])
        result = validate_family(fam)
        assert result.code == "NegativeWeight"
        assert result.atom_index == 0

    def test_empty_family(self):
        fam = AmbiguityFamily(LatticeSpec(0.0, 1.0), ())
        assert validate_family(fam).code == "EmptyFamily"

    def test_empty_member(self):
        fam = AmbiguityFamily(LatticeSpec(0.0, 1.0), (DiscreteDistribution(()),))
        result = validate_family(fam)
        assert result.code == "EmptyFamily"
        assert result.member_index == 0

    def test_non_positive_step(self):
        fam = AmbiguityFamily.build(0, 0.0, [[(0, 1.0)]])
        assert validate_family(fam).code == "NonPositiveStep"

    def test_duplicate_atom(self):
        fam = AmbiguityFamily(
            LatticeSpec(0.0, 1.0),
            (DiscreteDistribution(((0.0, 0.5), (0.0, 0.5))),),
        )
        assert validate_family(fam).code == "AtomsNotStrictlyIncreasing"

    def test_duplicate_members_warn(self):
        fam = AmbiguityFamily.build(0, 1, [[(0, 1.0)], [(0, 1.0)]])
        result = validate_family(fam)
        assert result.ok
        assert len(result.warnings) == 1

    def test_lattice_tolerance(self):
        fam = AmbiguityFamily.build(0, 1, [[(1 + 5e-13, 1.0)]])
        assert validate_family(fam).ok

    def test_ops_propagate_validation(self):
        bad = AmbiguityFamily.build(0, 1, [[(0.5, 1.0)]])
        with pytest.raises(FamilyInvalid) as exc:
            mean_bounds(bad)
        assert exc.value.result.code == "OffLattice"

    def test_validated_once_per_instance(self):
        fam = AmbiguityFamily.build(0, 1, [[(0, 0.5), (1, 0.5)]])
        assert validate_family(fam) is validate_family(fam)
        # an equal family built separately carries its own result
        assert validate_family(AmbiguityFamily.build(0, 1, [[(0, 0.5), (1, 0.5)]])) is not validate_family(fam)

    def test_invalid_family_raises_on_every_call(self):
        bad = AmbiguityFamily.build(0, 1, [[(0, 0.6), (1, 0.5)]])
        for _ in range(3):
            with pytest.raises(FamilyInvalid, match="^member 0: weights sum to 1.1, expected 1$"):
                mean_bounds(bad)
            assert validate_family(bad).code == "WeightsNotNormalized"


class TestMeanBounds:
    def test_point_masses(self):
        assert mean_bounds(TWO_POINT) == (-1.0, 1.0)

    def test_weighted_pair(self):
        assert mean_bounds(BERN_PAIR) == (1.0, 1.5)

    def test_classical_coin(self):
        assert mean_bounds(FAIR_COIN) == (0.0, 0.0)


class TestMomentCAlpha:
    def test_unit_atoms_alpha_one(self):
        assert moment_c_alpha(TWO_POINT, 1.0) == 1.0

    def test_unit_atoms_alpha_half(self):
        assert moment_c_alpha(FAIR_COIN, 0.5) == 1.0

    def test_two_atom(self):
        fam = AmbiguityFamily.build(0, 1, [[(0, 0.5), (2, 0.5)]])
        assert moment_c_alpha(fam, 1.0) == pytest.approx(2.0, abs=1e-15)

    @pytest.mark.parametrize("alpha", [0.0, -0.5, 1.5, 2.0])
    def test_alpha_out_of_range(self, alpha):
        with pytest.raises(AlphaOutOfRange):
            moment_c_alpha(TWO_POINT, alpha)


class TestUpperVariance:
    def test_symmetric_point_masses(self):
        var, argmin = upper_variance(TWO_POINT)
        assert var == pytest.approx(1.0, abs=1e-11)
        assert argmin == pytest.approx(0.0, abs=1e-11)

    def test_classical_coin_on_01(self):
        fam = AmbiguityFamily.build(0, 1, [[(0, 0.5), (1, 0.5)]])
        var, argmin = upper_variance(fam)
        assert var == pytest.approx(0.25, abs=1e-11)
        assert argmin == pytest.approx(0.5, abs=1e-11)

    def test_bernoulli_pair_frozen(self):
        # dense grid scan of g over [1, 1.5] pins the minimum at (1, 1)
        var, argmin = upper_variance(BERN_PAIR)
        assert var == pytest.approx(1.0, abs=1e-9)
        assert argmin == pytest.approx(1.0, abs=1e-6)

    def test_grid_scan_agreement(self, families):
        for family in families.values():
            var, _ = upper_variance(family)
            ref, _ = grid_upper_variance(family)
            assert abs(var - ref) <= 1e-9, family.name

    def test_endpoint_dominance(self, families):
        for family in families.values():
            lo, hi = mean_bounds(family)
            var, argmin = upper_variance(family)
            g_lo = max(m.second_moment_about(lo) for m in family.members)
            g_hi = max(m.second_moment_about(hi) for m in family.members)
            assert var <= g_lo + 1e-12
            assert var <= g_hi + 1e-12
            assert lo - 1e-12 <= argmin <= hi + 1e-12


class TestOneStepExpectation:
    def test_square(self):
        assert one_step_expectation(TWO_POINT, lambda x: x * x) == 1.0

    def test_upper_and_lower_mean(self):
        assert one_step_expectation(TWO_POINT, lambda x: x) == 1.0
        assert -one_step_expectation(TWO_POINT, lambda x: -x) == -1.0

    def test_max_over_members(self):
        fam = AmbiguityFamily.build(0, 1, [[(0, 0.5), (2, 0.5)], [(1, 1.0)]])
        assert one_step_expectation(fam, lambda x: abs(x - 1)) == 1.0

    def test_agrees_with_mean_bounds(self, families):
        for family in families.values():
            lo, hi = mean_bounds(family)
            assert abs(one_step_expectation(family, lambda x: x) - hi) <= 1e-12
            assert abs(-one_step_expectation(family, lambda x: -x) - lo) <= 1e-12


@pytest.mark.parametrize("family_name", ["fair_coin", "three_atom", "bernoulli_pair"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_axioms_on_random_tables(family_name, data):
    """Sublinear-expectation axioms on randomized atom tables."""
    from sublln.corpus import corpus_families

    family = corpus_families()[family_name]
    _, values, _ = family.union_atoms()
    k = len(values)
    psi_t = data.draw(st.lists(st.floats(-50, 50), min_size=k, max_size=k))
    gap_t = data.draw(st.lists(st.floats(0, 20), min_size=k, max_size=k))
    lam = data.draw(st.floats(0, 10))
    c = data.draw(st.floats(-50, 50))
    chi_t = [p - g for p, g in zip(psi_t, gap_t)]
    e_psi = one_step_expectation(family, table_fn(values, psi_t))
    e_chi = one_step_expectation(family, table_fn(values, chi_t))
    # monotonicity: chi <= psi pointwise
    assert e_psi >= e_chi - 1e-12
    # constant preserving
    assert abs(one_step_expectation(family, lambda x: c) - c) <= 1e-12
    # sub-additivity
    e_sum = one_step_expectation(family, table_fn(values, [p + q for p, q in zip(psi_t, chi_t)]))
    assert e_sum <= e_psi + e_chi + 1e-12
    # positive homogeneity
    e_scaled = one_step_expectation(family, table_fn(values, [lam * p for p in psi_t]))
    assert abs(e_scaled - lam * e_psi) <= 1e-12 * max(1.0, lam)


def test_moment_summary_invariants(families):
    for family in families.values():
        summary = moment_summary(family, alphas=(0.25, 0.5, 0.75, 1.0))
        assert summary.mu_lower <= summary.mu_upper
        assert summary.sigma_bar_sq >= 0.0
        assert summary.sigma_bar == pytest.approx(math.sqrt(summary.sigma_bar_sq))
        assert set(summary.c_alpha) == {0.25, 0.5, 0.75, 1.0}
        assert all(v >= 0.0 for v in summary.c_alpha.values())


def test_union_atoms_merges_on_coords():
    fam = AmbiguityFamily.build(0, 0.5, [[(0.5, 1.0)], [(0.5, 0.25), (1.0, 0.75)]])
    coords, values, w = fam.union_atoms()
    assert list(coords) == [1, 2]
    assert list(values) == [0.5, 1.0]
    assert np.allclose(w, [[1.0, 0.25], [0.0, 0.75]])
