import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sublln import engine
from sublln.ambiguity import AmbiguityFamily, FamilyInvalid, mean_bounds, one_step_expectation
from sublln.corpus import catalog_for, corpus_families
from sublln.engine import (
    NonPositiveN,
    PolicyIncomplete,
    SelectionPolicy,
    SupportOverflow,
    build_support,
    expectation_under_policy,
    expectations_under_policy,
    extract_argmax_policy,
    iid_sum_expectation,
    iid_sum_expectations,
    lower_iid_sum_expectation,
    pairwise_total,
    payoff_expectations,
    value_table,
)
from sublln.measures import PathMeasure, construct_pstar, history_parity_measure, uniform_mixture

from _oracles import (
    history_tree_max,
    per_horizon_backward,
    per_state_forward,
    rational_backward,
    reachable_coords,
    sum_value,
    unreduced_window,
    window_expectation,
)

DELTA_PAIR = AmbiguityFamily.build(0, 1, [[(0, 1.0)], [(1, 1.0)]])
TWO_POINT = AmbiguityFamily.build(0, 1, [[(-1, 1.0)], [(1, 1.0)]])
FAIR_COIN = AmbiguityFamily.build(0, 1, [[(-1, 0.5), (1, 0.5)]])
# Step 0.01 with every atom on a multiple of 0.25: the gcd reduction shrinks the lattice 25x.
FINE_LATTICE = AmbiguityFamily.build(
    0.0,
    0.01,
    [
        [(-0.75, 0.3), (0.25, 0.4), (1.0, 0.3)],
        [(-0.5, 0.5), (0.5, 0.5)],
        [(-1.0, 0.2), (0.0, 0.3), (0.75, 0.5)],
    ],
    name="fine_lattice",
)


def bits(values):
    """Bit patterns of floats, so that exact comparisons also see the sign of zero."""
    return np.asarray(values, dtype=float).view(np.int64).tolist()


def assert_on_sublattice(got, want, g, off_value):
    """Engine index i holds the unreduced oracle's entry i*g; every other oracle entry is ``off_value``."""
    want = np.asarray(want)
    assert bits(np.asarray(got, dtype=float)) == bits(want[::g].astype(float))
    off = np.ones(want.size, dtype=bool)
    off[::g] = False
    assert np.all(want[off] == off_value)


def oracle_values(family, phi, ns):
    return [per_horizon_backward(family, n, phi)[0] for n in ns]


class TestIidSumExpectation:
    def test_always_pick_upper(self):
        assert iid_sum_expectation(DELTA_PAIR, 3, lambda x: x) == 1.0

    def test_classical_mean(self):
        for n in (1, 2, 5, 16):
            assert abs(iid_sum_expectation(FAIR_COIN, n, lambda x: x)) <= 1e-15

    def test_kink_reachable(self):
        # the maximizing policy lands on s=1, where phi attains its maximum 0
        value = iid_sum_expectation(DELTA_PAIR, 3, lambda x: -abs(x - 1 / 3))
        assert abs(value) <= 1e-15

    def test_one_step_consistency(self, families):
        for family in families.values():
            lo, hi = family.support_bounds()
            mid = 0.5 * (lo + hi)
            for phi in (lambda x: x, lambda x: abs(x - mid), lambda x: -((x - mid) ** 2)):
                assert abs(
                    iid_sum_expectation(family, 1, phi) - one_step_expectation(family, phi)
                ) <= 1e-12

    def test_support_overflow(self):
        with pytest.raises(SupportOverflow):
            iid_sum_expectation(TWO_POINT, 100, lambda x: x, state_cap=100)

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            iid_sum_expectation(TWO_POINT, 0, lambda x: x)

    def test_invalid_family(self):
        with pytest.raises(FamilyInvalid):
            iid_sum_expectation(AmbiguityFamily.build(0, 1, [[(0.25, 1.0)]]), 2, lambda x: x)

    def test_matches_exact_rationals(self, families):
        # both sides read the same phi floats and normalized weights; only the recursion's rounding differs
        ns = list(range(1, 13))
        for name, family in families.items():
            for phi in catalog_for(family):
                for n, value in zip(ns, iid_sum_expectations(family, phi, ns)):
                    exact = rational_backward(family, n, phi)
                    assert abs(Fraction(value) - exact) <= 1e-12 * max(1, abs(exact)), (name, phi.name, n)

    def test_range_invariant(self, families):
        for family in families.values():
            for n in (1, 3, 7):
                support = build_support(family, n)
                xs = support.reachable_values(n) / n
                phi = lambda x: np.sin(3.0 * x) + 0.25 * x
                value = iid_sum_expectation(family, n, phi)
                vals = phi(xs)
                assert vals.min() - 1e-12 <= value <= vals.max() + 1e-12


class TestBatchedKernel:
    """iid_sum_expectations against the per-horizon oracle, bit for bit."""

    def test_corpus_every_n_to_64(self, families):
        ns = range(1, 65)
        for family in families.values():
            for i, phi in enumerate(catalog_for(family)):
                got = iid_sum_expectations(family, phi, ns)
                assert bits(got) == bits(oracle_values(family, phi, ns)), (family.name, i)

    def test_fine_lattice_to_32(self):
        ns = range(1, 33)
        for i, phi in enumerate(catalog_for(FINE_LATTICE)):
            got = iid_sum_expectations(FINE_LATTICE, phi, ns)
            assert bits(got) == bits(oracle_values(FINE_LATTICE, phi, ns)), i

    def test_single_horizon_wrappers(self, families):
        for family in list(families.values()) + [FINE_LATTICE]:
            phi = catalog_for(family)[3]
            for n in (1, 5, 16):
                want = per_horizon_backward(family, n, phi)[0]
                assert bits([iid_sum_expectation(family, n, phi)]) == bits([want])
                lower = -per_horizon_backward(family, n, lambda x: -phi(x))[0]
                assert bits([lower_iid_sum_expectation(family, n, phi)]) == bits([lower])
                assert bits([value_table(family, n, phi).root]) == bits([want])

    def test_argmax_policy_matches_oracle(self, families):
        for family in list(families.values()) + [FINE_LATTICE]:
            g = unreduced_window(family, 0)[2]
            for phi in catalog_for(family):
                policy = extract_argmax_policy(family, 9, phi)
                _, selections = per_horizon_backward(family, 9, phi)
                for k in range(9):
                    assert_on_sublattice(policy.selections[k], selections[k], g, -1)

    def test_signed_zero_ties_follow_oracle(self):
        # Members tie at +0.0 and -0.0; the sign of the result depends on the max order.
        for low in (-0.0, 0.0):
            phi = lambda x, low=low: np.where(x == 0.0, low, -low)
            for n in (1, 2, 3):
                want = per_horizon_backward(DELTA_PAIR, n, phi)[0]
                assert bits(iid_sum_expectations(DELTA_PAIR, phi, [n, 1])[:1]) == bits([want])

    def test_unsorted_and_duplicate_ns(self, families):
        family = families["three_atom"]
        phi = catalog_for(family)[2]
        ns = [8, 3, 8, 1, 17, 3]
        got = iid_sum_expectations(family, phi, ns)
        assert len(got) == len(ns)
        assert bits(got) == bits(oracle_values(family, phi, ns))
        assert iid_sum_expectations(family, phi, []) == ()

    def test_row_groups_do_not_change_values(self, families, monkeypatch):
        family = families["skewed_pair"]
        phi = catalog_for(family)[4]
        ns = list(range(1, 41))
        whole = iid_sum_expectations(family, phi, ns)
        monkeypatch.setattr(engine, "_ROW_BUDGET", 200)
        assert len(engine._row_groups([(n, phi) for n in ns[::-1]], 3)) > 1
        assert bits(iid_sum_expectations(family, phi, ns)) == bits(whole)

    @pytest.mark.parametrize("split", [False, True])
    def test_stacked_payoffs_match_single_sweeps(self, families, monkeypatch, split):
        ns = [9, 2, 17, 9, 1, 33, 2]
        for name, family in families.items():
            shapes = catalog_for(family)
            payoffs = [*shapes, *(lambda x, p=p: -p(x) for p in shapes)]
            singles = [bits(iid_sum_expectations(family, phi, ns)) for phi in payoffs]
            with monkeypatch.context() as patch:
                if split:
                    # five rows of the largest horizon per group: the twelve rows of a horizon split
                    span = engine._grid(family).span
                    patch.setattr(engine, "_ROW_BUDGET", 5 * (max(ns) * span + 1))
                    groups = engine._row_groups([(n, p) for n in (33, 17) for p in payoffs], span)
                    assert any(a[-1][0] == b[0][0] for a, b in zip(groups, groups[1:])), name
                assert [bits(row) for row in payoff_expectations(family, payoffs, ns)] == singles, name
            assert payoff_expectations(family, payoffs, []) == ((),) * len(payoffs)

    def test_four_atom_member_close_to_pairwise_fold(self):
        # Left-to-right and pairwise sums differ in rounding from four atoms on.
        family = AmbiguityFamily.build(
            0, 1, [[(-2, 0.1), (-1, 0.2), (1, 0.3), (3, 0.4)], [(-1, 0.7), (2, 0.3)]]
        )
        phi = lambda x: np.sin(x) + 0.3 * x
        ns = range(1, 40)
        got = iid_sum_expectations(family, phi, ns)
        for g, want in zip(got, oracle_values(family, phi, ns)):
            assert g == pytest.approx(want, abs=1e-13)

    @pytest.mark.parametrize("name", ["fair_coin", "bernoulli_pair", "three_atom", "skewed_pair"])
    def test_overflow_same_as_oracle(self, families, name):
        family = families[name]
        phi = lambda x: x
        for n in (1, 2, 7, 30):
            for cap in (1, 2, 3, 10, 50, 100, 465, 466, 1000, 2000):
                try:
                    per_horizon_backward(family, n, phi, state_cap=cap)
                    want = None
                except SupportOverflow as exc:
                    want = str(exc)
                for ns in ([n], [n, 1], [1, n, n]):
                    try:
                        iid_sum_expectations(family, phi, ns, state_cap=cap)
                        got = None
                    except SupportOverflow as exc:
                        got = str(exc)
                    # smaller horizons overflow only when n does; the message names the smallest
                    assert (got is None) == (want is None), (n, cap, ns)
                    if ns == [n]:
                        assert got == want, (n, cap)

    def test_overflow_names_smallest_horizon(self):
        # 3 states at n=1 and 6 at n=2 on the +-1 lattice
        with pytest.raises(SupportOverflow, match="n=2 exceed the cap of 5"):
            iid_sum_expectations(TWO_POINT, lambda x: x, [3, 1, 2], state_cap=5)

    def test_invalid_horizon(self):
        measure = PathMeasure.constant([0.5, 0.5], 3)
        for n in (0, 2.5, True):
            message = f"^n must be a positive integer, got {n}$"
            with pytest.raises(NonPositiveN, match=message):
                iid_sum_expectations(TWO_POINT, lambda x: x, [3, n])
            with pytest.raises(NonPositiveN, match=message):
                payoff_expectations(TWO_POINT, [abs], [n])
            with pytest.raises(NonPositiveN, match=message):
                expectations_under_policy(TWO_POINT, lambda x: x, [2, n], measure)
        # a numpy horizon is the Python int of its value: same roots, same bits
        ns = [np.int64(3), np.uint8(1), np.int32(3)]
        want = iid_sum_expectations(TWO_POINT, np.cos, [3, 1, 3])
        assert bits(iid_sum_expectations(TWO_POINT, np.cos, ns)) == bits(want)
        got = expectations_under_policy(TWO_POINT, np.cos, ns, measure)
        assert bits(got) == bits(expectations_under_policy(TWO_POINT, np.cos, [3, 1, 3], measure))

    @pytest.mark.parametrize("name", ["bernoulli_pair", "skewed_pair", "three_atom", "fine_lattice"])
    def test_phi_called_only_at_reachable_sums(self, families, name):
        family = FINE_LATTICE if name == "fine_lattice" else families[name]
        ns = [12, 1, 5, 12, 2]
        levels = reachable_coords(family, max(ns))
        calls = []

        def phi(xs):
            calls.append(sorted(np.asarray(xs).tolist()))
            return np.cos(xs)

        iid_sum_expectations(family, phi, ns)
        want = [sorted(sum_value(family, n, c) / n for c in levels[n]) for n in sorted(set(ns))]
        assert sorted(calls) == sorted(want)
        for single in (value_table, extract_argmax_policy):
            calls.clear()
            single(family, 5, phi)
            assert calls == [want[2]]


class TestLowerExpectation:
    def test_adversary_picks_zero(self):
        assert lower_iid_sum_expectation(DELTA_PAIR, 2, lambda x: x) == 0.0

    def test_constant_preserving(self, families):
        for family in families.values():
            assert abs(lower_iid_sum_expectation(family, 3, lambda x: 4.25) - 4.25) <= 1e-12

    def test_alternation_reaches_zero(self):
        assert abs(lower_iid_sum_expectation(TWO_POINT, 2, lambda x: np.abs(x))) <= 1e-15

    def test_order(self, families):
        for family in families.values():
            lo, hi = family.support_bounds()
            phi = lambda x: -abs(x - 0.3 * hi - 0.7 * lo)
            for n in (1, 2, 5):
                low = lower_iid_sum_expectation(family, n, phi)
                up = iid_sum_expectation(family, n, phi)
                assert low <= up + 1e-12


class TestSumSupport:
    def test_recursive_definition(self, families):
        for family in list(families.values()) + [FINE_LATTICE]:
            n = 4
            support = build_support(family, n)
            levels = reachable_coords(family, n)
            k_min, span, g, _ = unreduced_window(family, 0)
            for k in range(n + 1):
                dense = k * k_min + np.arange(k * span + 1)
                expected = np.isin(dense, sorted(levels[k]))
                assert_on_sublattice(support.masks[k], expected, g, False)

    def test_size_bound(self, families):
        for family in families.values():
            support = build_support(family, 6)
            for k in range(7):
                assert support.masks[k].sum() <= 1 + k * support.span

    def test_root_is_zero(self):
        support = build_support(TWO_POINT, 2)
        assert support.dense_index(0, 0.0) == 0
        with pytest.raises(KeyError):
            support.dense_index(2, 1.0)  # odd sums unreachable for +-1 atoms


class TestValueTable:
    def test_terminal_and_recursion(self):
        n = 3
        phi = lambda x: np.abs(x - 0.25)
        table = value_table(DELTA_PAIR, n, phi)
        support = table.support
        for s in support.reachable_values(n):
            assert table.value_at(n, s) == phi(s / n)
        # one-step recursion at a sampled state
        for k in range(n):
            for s in support.reachable_values(k):
                best = max(
                    math.fsum(w * table.value_at(k + 1, s + v) for v, w in member.atoms)
                    for member in DELTA_PAIR.members
                )
                assert table.value_at(k, s) == pytest.approx(best, abs=1e-14)
        assert table.root == iid_sum_expectation(DELTA_PAIR, n, phi)


@pytest.mark.parametrize("name", [*corpus_families(), "fine_lattice"])
def test_whole_tables_follow_the_recursion(name):
    """Every reachable entry of the value table and the argmax policy, recomputed in Python floats.

    A member's value is the left-to-right sum ``w_0*v[i+s_0] + w_1*v[i+s_1] + ...``
    over its atoms in increasing value order, read from ``values[k+1]``; the
    entry is the maximum over members and the selection the lowest member
    index that attains it.
    """
    family = FINE_LATTICE if name == "fine_lattice" else corpus_families()[name]
    for i, phi in enumerate(catalog_for(family)):
        for n in (1, 5, 16):
            table = value_table(family, n, phi)
            policy = extract_argmax_policy(family, n, phi)
            support = table.support
            assert policy.support.masks[n].tolist() == support.masks[n].tolist()
            for k in range(n):
                v_next = table.values[k + 1].tolist()
                for s in support.reachable_values(k).tolist():
                    members = []
                    for member in family.members:
                        terms = [w * v_next[support.dense_index(k + 1, s + v)] for v, w in member.atoms]
                        total = terms[0]
                        for term in terms[1:]:
                            total = total + term
                        members.append(total)
                    best = max(members)
                    j = support.dense_index(k, s)
                    assert table.values[k][j] == best, (name, i, n, k, s)
                    assert policy.selections[k][j] == members.index(best), (name, i, n, k, s)


class TestArgmaxPolicy:
    def test_constant_upper(self):
        policy = extract_argmax_policy(DELTA_PAIR, 2, lambda x: x)
        for k, s in [(0, 0.0), (1, 0.0), (1, 1.0)]:
            assert policy.member_at(k, s) == 1

    def test_single_member(self):
        policy = extract_argmax_policy(FAIR_COIN, 3, lambda x: np.cos(x))
        assert policy.member_at(0, 0.0) == 0

    def test_attainment_spec_example(self):
        phi = lambda x: -np.abs(x)
        policy = extract_argmax_policy(TWO_POINT, 2, phi)
        value = expectation_under_policy(TWO_POINT, 2, phi, policy)
        assert abs(value - iid_sum_expectation(TWO_POINT, 2, phi)) <= 1e-15
        assert abs(value) <= 1e-15

    def test_attainment_everywhere(self, families):
        for family in families.values():
            lo, hi = family.support_bounds()
            phi = lambda x: -np.abs(x - 0.4 * hi - 0.6 * lo)
            for n in (1, 2, 6, 17):
                policy = extract_argmax_policy(family, n, phi)
                attained = expectation_under_policy(family, n, phi, policy)
                assert abs(attained - iid_sum_expectation(family, n, phi)) <= 1e-10


class TestExpectationUnderPolicy:
    def test_single_member_classical(self):
        policy = SelectionPolicy.constant(FAIR_COIN, 4, 0)
        value = expectation_under_policy(FAIR_COIN, 4, lambda x: x * x, policy)
        assert value == pytest.approx(1.0 / 4.0, abs=1e-15)

    def test_always_upper(self):
        policy = SelectionPolicy.constant(DELTA_PAIR, 2, 1)
        assert expectation_under_policy(DELTA_PAIR, 2, lambda x: x, policy) == 1.0

    def test_uniform_mixture(self):
        measure = uniform_mixture(DELTA_PAIR, 2)
        assert expectation_under_policy(DELTA_PAIR, 2, lambda x: x, measure) == pytest.approx(0.5)

    def test_policy_incomplete_horizon(self):
        policy = SelectionPolicy.constant(DELTA_PAIR, 2, 1)
        with pytest.raises(PolicyIncomplete):
            expectation_under_policy(DELTA_PAIR, 3, lambda x: x, policy)

    def test_validation_messages(self):
        phi = lambda x: x
        policy = extract_argmax_policy(DELTA_PAIR, 3, phi)
        holed = SelectionPolicy(
            policy.support,
            (policy.selections[0], np.full_like(policy.selections[1], -1), policy.selections[2]),
        )
        with pytest.raises(PolicyIncomplete, match=r"^no selection at step 1, sum 0\.0$"):
            expectation_under_policy(DELTA_PAIR, 3, phi, holed)
        with pytest.raises(PolicyIncomplete, match="^policy was extracted for a different lattice grid$"):
            expectation_under_policy(TWO_POINT, 3, phi, policy)

        class UnknownTag:
            depends_on, horizon = "path", 3

            def mixture_weights(self, step, total=None, history=None):
                return [1.0, 0.0]

        with pytest.raises(TypeError, match="^unsupported policy object"):
            expectation_under_policy(DELTA_PAIR, 3, phi, UnknownTag())
        with pytest.raises(TypeError, match="^unsupported policy object"):
            expectation_under_policy(DELTA_PAIR, 3, phi, object())

    def test_weights_checked_against_family_member_count(self, families):
        # a 2-member measure passes its own check; only the engine compares it with the family
        measure = PathMeasure.constant([0.5, 0.5], 3)
        message = r"^mixture weights have shape \(2,\), expected \(3,\)$"
        with pytest.raises(PolicyIncomplete, match=message):
            expectation_under_policy(families["three_atom"], 3, lambda x: x, measure)

    def test_policy_from_coarser_lattice_rejected(self):
        # same origin, step, k_min and k_max; only the gcd of the atom shifts differs
        even = AmbiguityFamily.build(0, 1, [[(0, 0.5), (2, 0.5)]])
        dense = AmbiguityFamily.build(0, 1, [[(0, 0.25), (1, 0.5), (2, 0.25)]])
        policy = extract_argmax_policy(even, 3, lambda x: x)
        with pytest.raises(PolicyIncomplete, match="^policy was extracted for a different lattice grid$"):
            expectation_under_policy(dense, 3, lambda x: x, policy)

    def test_invalid_weights_rejected(self):
        bad = PathMeasure.constant([0.7, 0.7], 2)
        with pytest.raises(PolicyIncomplete):
            expectation_under_policy(DELTA_PAIR, 2, lambda x: x, bad)

    @pytest.mark.parametrize(
        "weights, message",
        [
            ([math.nan, 0.5, 0.5], r"mixture weights array([nan, 0.5, 0.5]) are not nonnegative"),
            ([math.inf, 0.0, 0.0], r"mixture weights array([inf,  0.,  0.]) are not nonnegative"),
            (
                [-1e-11, 0.5, 0.5],
                r"mixture weights array([-1.e-11,  5.e-01,  5.e-01]) are not nonnegative",
            ),
            ([0.5, 0.5 + 2e-12, 0.0], r"mixture weights array([0.5, 0.5, 0. ]) do not sum to one"),
        ],
    )
    def test_weight_check_messages(self, weights, message):
        # raised by the measure's own check and by the engine's check against the family
        with pytest.raises(PolicyIncomplete, match=f"^{re.escape(message)}$"):
            PathMeasure.constant(weights, 2).mixture_weights(0)
        with pytest.raises(PolicyIncomplete, match=f"^{re.escape(message)}$"):
            engine._check_weights(weights, 3)

    def test_weight_check_tolerances(self):
        # -1e-12 and a sum 1e-12 away from one are accepted; negatives, -0.0 too, clamp to +0.0
        assert engine._check_weights([-1e-12, 0.5, 0.5], 3).tolist() == [0.0, 0.5, 0.5]
        assert engine._check_weights([0.25, 0.75 + 5e-13], 2).tolist() == [0.25, 0.75 + 5e-13]
        assert math.copysign(1.0, engine._check_weights([-0.0, 1.0], 2)[0]) == 1.0

    def test_sum_rule_measure(self):
        # pick the high member only while the running sum is zero
        def rule(step, total):
            return [0.0, 1.0] if total == 0.0 else [1.0, 0.0]

        measure = PathMeasure.from_sum_rule(rule, 3, 2)
        value = expectation_under_policy(DELTA_PAIR, 3, lambda x: x, measure)
        assert value == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_history_rule_matches_sum_rule(self):
        def sum_rule(step, total):
            return [1.0, 0.0] if total >= 1.0 else [0.5, 0.5]

        def history_rule(step, history):
            return [1.0, 0.0] if sum(history) >= 1.0 else [0.5, 0.5]

        m_sum = PathMeasure.from_sum_rule(sum_rule, 4, 2)
        m_hist = PathMeasure.from_history_rule(history_rule, 4, 2)
        phi = lambda x: (x - 0.3) ** 2
        a = expectation_under_policy(DELTA_PAIR, 4, phi, m_sum)
        b = expectation_under_policy(DELTA_PAIR, 4, phi, m_hist)
        assert a == pytest.approx(b, abs=1e-14)

    @pytest.mark.parametrize("family", [TWO_POINT, FINE_LATTICE], ids=lambda f: f.name)
    def test_history_rule_on_reduced_lattice(self, family):
        # gcd 2 and 25: the history walker must place each path's mass at its reduced index
        m = len(family.members)

        def sum_rule(step, total):
            w = np.zeros(m)
            w[int(round(total / family.lattice.step)) % m] = 1.0
            return w

        m_sum = PathMeasure.from_sum_rule(sum_rule, 4, m)
        m_hist = PathMeasure.from_history_rule(lambda step, history: sum_rule(step, math.fsum(history)), 4, m)
        phi = lambda x: (x - 0.3) ** 2
        a = expectation_under_policy(family, 4, phi, m_sum)
        b = expectation_under_policy(family, 4, phi, m_hist)
        assert a == pytest.approx(b, abs=1e-14)

    def test_dominance(self, families):
        rng = np.random.default_rng(7)
        for family in families.values():
            m = len(family.members)
            lo, hi = family.support_bounds()
            phi = lambda x: np.abs(x - 0.6 * hi - 0.4 * lo)
            for n in (1, 3, 5):
                upper = iid_sum_expectation(family, n, phi)
                for _ in range(4):
                    w = rng.dirichlet(np.ones(m))
                    measure = PathMeasure.constant(w, n)
                    value = expectation_under_policy(family, n, phi, measure)
                    assert value <= upper + 1e-12


FORWARD_NS = (1, 3, 7, 16, 40)


def engine_mass(family, n, measure):
    if isinstance(measure, SelectionPolicy):  # the kernel reads a policy through the measure that carries it
        measure = PathMeasure.from_policy(measure, len(family.members))
    return engine._forward(build_support(family, n), measure, [n])[n]


def cosine_sum_rule(family, n):
    members = np.arange(1, len(family.members) + 1)

    def rule(step, total):
        w = 1.0 + np.cos(total * members + step)
        return w / w.sum()

    return PathMeasure.from_sum_rule(rule, n, len(members), name="cosine-sum-rule")


@pytest.mark.parametrize("name", list(corpus_families()))
class TestForwardKernel:
    """The one forward kernel against the three per-state propagators it replaced."""

    def test_product_measures_bit_for_bit(self, families, name):
        family = families[name]
        g = unreduced_window(family, 0)[2]
        lo, hi = mean_bounds(family)
        for n in FORWARD_NS:
            pstars = [construct_pstar(family, mu, n) for mu in (lo, 0.5 * (lo + hi), hi)]
            for measure in pstars + [uniform_mixture(family, n)]:
                want = per_state_forward(family, n, measure)
                assert_on_sublattice(engine_mass(family, n, measure), want, g, 0.0)
                for i, phi in enumerate(catalog_for(family)):
                    got = expectation_under_policy(family, n, phi, measure)
                    assert bits([got]) == bits([window_expectation(family, n, phi, want)]), (n, i)

    def test_argmax_policy_bit_for_bit(self, families, name):
        family = families[name]
        g = unreduced_window(family, 0)[2]
        for n in FORWARD_NS:
            for i, phi in enumerate(catalog_for(family)):
                policy = extract_argmax_policy(family, n, phi)
                as_rule = PathMeasure.from_policy(policy, len(family.members))
                want = per_state_forward(family, n, policy)
                assert_on_sublattice(engine_mass(family, n, policy), want, g, 0.0)
                assert_on_sublattice(engine_mass(family, n, as_rule), want, g, 0.0)
                value = expectation_under_policy(family, n, phi, policy)
                assert bits([value]) == bits([window_expectation(family, n, phi, want)]), (n, i)
                assert bits([expectation_under_policy(family, n, phi, as_rule)]) == bits([value]), (n, i)

    def test_sum_rule_within_rounding(self, families, name):
        # member-major accumulation reorders the additions into each state
        family = families[name]
        g = unreduced_window(family, 0)[2]
        for n in FORWARD_NS:
            measure = cosine_sum_rule(family, n)
            want = per_state_forward(family, n, measure)
            assert np.max(np.abs(engine_mass(family, n, measure) - want[::g])) <= 1e-15, n
            assert np.all(np.delete(want, np.s_[::g]) == 0.0), n
            for i, phi in enumerate(catalog_for(family)):
                got = expectation_under_policy(family, n, phi, measure)
                assert abs(got - window_expectation(family, n, phi, want)) <= 1e-15, (n, i)

    def test_every_horizon_from_one_pass_bit_for_bit(self, families, name):
        # the mass at step k does not depend on the last step, so one pass serves unsorted, repeated horizons
        family = families[name]
        lo, hi = mean_bounds(family)
        ns = [7, 1, 4, 7, 2]
        top = max(ns)
        for i, phi in enumerate(catalog_for(family)):
            policy = extract_argmax_policy(family, top, phi)
            measures = [construct_pstar(family, mu, top) for mu in (lo, 0.5 * (lo + hi), hi)]
            measures += [
                uniform_mixture(family, top),
                policy,
                PathMeasure.from_policy(policy, len(family.members)),
                cosine_sum_rule(family, top),
                history_parity_measure(family, top),
            ]
            for measure in measures:
                want = [expectation_under_policy(family, n, phi, measure) for n in ns]
                assert bits(expectations_under_policy(family, phi, ns, measure)) == bits(want), (i, measure)
                assert expectations_under_policy(family, phi, [], measure) == ()


class TestEvalPhi:
    def test_a_warning_reaches_the_caller_after_one_call(self):
        calls = []

        def phi(x):
            calls.append(x)
            return x * 1e300 * 1e300

        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(RuntimeWarning, match="overflow"):
                engine._eval_phi(phi, np.linspace(0.0, 1.0, 1001))
        assert len(calls) == 1

    def test_scalar_only_phis_still_fall_back(self):
        xs = np.linspace(-1.0, 1.0, 9)
        table = {float(x): 2.0 * float(x) for x in xs}
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert engine._eval_phi(lambda x: table[float(x)], xs).tolist() == (2.0 * xs).tolist()
            assert engine._eval_phi(lambda x: min(abs(x), 0.5), xs).tolist() == np.minimum(abs(xs), 0.5).tolist()


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_sublinearity_in_phi(data):
    """Sub-additivity, homogeneity, monotonicity, constants at the sequence level."""
    family = TWO_POINT
    n = data.draw(st.integers(1, 4))
    support = build_support(family, n)
    xs = support.reachable_values(n) / n
    k = len(xs)
    psi_t = data.draw(st.lists(st.floats(-20, 20), min_size=k, max_size=k))
    gap_t = data.draw(st.lists(st.floats(0, 10), min_size=k, max_size=k))
    lam = data.draw(st.floats(0, 5))
    c = data.draw(st.floats(-20, 20))

    def fn(values):
        table = {float(x): float(v) for x, v in zip(xs, values)}
        return lambda x: table[float(x)]

    e_psi = iid_sum_expectation(family, n, fn(psi_t))
    e_chi = iid_sum_expectation(family, n, fn([p - g for p, g in zip(psi_t, gap_t)]))
    e_sum = iid_sum_expectation(family, n, fn([2 * p - g for p, g in zip(psi_t, gap_t)]))
    assert e_psi >= e_chi - 1e-12
    assert e_sum <= e_psi + e_chi + 1e-12
    e_scaled = iid_sum_expectation(family, n, fn([lam * p for p in psi_t]))
    assert abs(e_scaled - lam * e_psi) <= 1e-12 * max(1.0, lam)
    assert abs(iid_sum_expectation(family, n, lambda x: c) - c) <= 1e-12


class TestShiftedLattices:
    """Nonzero origins move the sum lattice by origin per step."""

    SHIFTED = AmbiguityFamily.build(0.25, 0.5, [[(0.25, 1.0)], [(0.75, 1.0)]])
    NEGATIVE = AmbiguityFamily.build(-1.5, 0.5, [[(-1.5, 0.5), (0.5, 0.5)], [(-1.0, 1.0)]])

    def test_identity_bounds(self):
        assert iid_sum_expectation(self.SHIFTED, 3, lambda x: x) == 0.75
        assert lower_iid_sum_expectation(self.SHIFTED, 3, lambda x: x) == 0.25

    def test_interior_kink_reachable(self):
        # S_3/3 can hit exactly (0.25 + 0.25 + 0.75)/3 = 5/12
        value = iid_sum_expectation(self.SHIFTED, 3, lambda x: -np.abs(x - 5 / 12))
        assert abs(value) <= 1e-15

    def test_attainment_and_tree_oracle(self):
        for family in (self.SHIFTED, self.NEGATIVE):
            phi = lambda x: np.abs(x + 0.2)
            for n in (1, 2, 3):
                upper = iid_sum_expectation(family, n, phi)
                assert abs(upper - history_tree_max(family, n, phi)) <= 1e-13
                policy = extract_argmax_policy(family, n, phi)
                assert abs(expectation_under_policy(family, n, phi, policy) - upper) <= 1e-12

    def test_argmax_ties_break_to_lowest_index(self):
        dup = AmbiguityFamily.build(0, 1, [[(0, 1.0)], [(0, 1.0)]])
        policy = extract_argmax_policy(dup, 2, lambda x: x)
        assert policy.member_at(0, 0.0) == 0
        assert policy.member_at(1, 0.0) == 0


def test_pairwise_total_matches_fsum():
    rng = np.random.default_rng(11)
    for size in (0, 1, 2, 3, 17, 1000):
        a = rng.normal(size=size)
        assert pairwise_total(a) == pytest.approx(math.fsum(a.tolist()), abs=1e-12)


def full_or_masks(shifts, span, n):
    """Every step's reachable mask of the shift set, by the plain OR pass."""
    masks = [np.ones(1, dtype=bool)]
    for _ in range(n):
        nxt = np.zeros(masks[-1].size + span, dtype=bool)
        for s in shifts:
            nxt[s : s + masks[-1].size] |= masks[-1]
        masks.append(nxt)
    return masks


@settings(max_examples=300, deadline=None)
@given(
    span=st.integers(0, 12),
    inner=st.sets(st.integers(1, 11), max_size=6),
    n=st.integers(1, 120),
    keep=st.sets(st.integers(0, 120), max_size=8),
)
def test_reachable_masks_match_the_full_or_pass(span, inner, n, keep):
    # shift sets hold 0 and span with gcd 1, as the engine's reduced lattice does
    shifts = sorted({0, span} | {s for s in inner if s < span})
    assume(span == 0 or math.gcd(*shifts) == 1)
    grid = engine._Grid(0.0, 1.0, 0, span, 1, span, tuple(((1.0, s),) for s in shifts))
    want = full_or_masks(shifts, span, n)
    keep = {k for k in keep if k <= n} | {n}
    got = engine._reachable_masks(grid, n, keep)
    assert sorted(got) == sorted(keep)
    for k in keep:
        assert np.array_equal(got[k], want[k]), k
    every = engine._reachable_masks(grid, n, range(n + 1))
    for k in range(n + 1):
        assert np.array_equal(every[k], want[k]), k


def test_skewed_masks_stop_at_their_stable_shape(families, monkeypatch):
    # skewed_pair (shifts 0, 1, 3) never fills its window, as 3k - 1 is never a sum, yet its
    # masks are stable from step 2 on: the OR pass allocates one window per step up to there
    grid = engine._grid(families["skewed_pair"])
    windows = []
    zeros = np.zeros

    def counting(*args, **kwargs):
        windows.append(args)
        return zeros(*args, **kwargs)

    monkeypatch.setattr(engine.np, "zeros", counting)
    masks = engine._reachable_masks(grid, 1024, [1024])
    monkeypatch.undo()
    assert not masks[1024].all()
    assert np.array_equal(masks[1024], full_or_masks([0, 1, 3], 3, 1024)[1024])
    assert len(windows) == 2


@pytest.mark.parametrize(
    "members",
    [
        [[(0, 1.0)], [(1, 1.0)]],  # two point masses: one np.maximum per step
        [[(-1, 1.0)]],  # one point mass: a copy
        [[(-1, 0.5), (1, 0.5)], [(0, 1.0)]],  # a point mass after a mixed member
        [[(0, 1.0)], [(-1, 0.25), (1, 0.75)], [(1, 1.0)]],  # point masses around a mixed member
    ],
)
def test_point_mass_members_cost_no_arithmetic(members):
    family = AmbiguityFamily.build(0, 1, members)
    for phi in catalog_for(family) + (lambda x: np.where(x == 0.0, -0.0, np.cos(x)),):
        for n in (1, 4, 9):
            want, selections = per_horizon_backward(family, n, phi)
            assert bits([iid_sum_expectation(family, n, phi)]) == bits([want])
            policy = extract_argmax_policy(family, n, phi)
            for k in range(n):
                assert_on_sublattice(policy.selections[k], selections[k], unreduced_window(family, 0)[2], -1)
    if all(len(m) == 1 for m in members):
        # only views of v_next are read: the scratch arrays keep their NaNs
        grid = engine._grid(family)
        v_next = np.arange(2.0 * grid.span + 1)[None, :]
        out, acc, tmp = (np.full((1, grid.span + 1), np.nan) for _ in range(3))
        engine._step(v_next, grid, out, acc, tmp)
        assert np.isnan(acc).all() and np.isnan(tmp).all()
        assert not np.isnan(out).any()
