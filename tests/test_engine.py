import dataclasses
import math
import re
import warnings
import weakref
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
    extract_argmax_policy,
    iid_sum_expectation,
    lower_iid_sum_expectation,
    pairwise_total,
    payoff_expectations,
    value_table,
)
from sublln.measures import PathMeasure, construct_pstar, history_parity_measure, uniform_mixture

from _oracles import (
    history_tree_max,
    measure_backward,
    per_horizon_backward,
    per_state_forward,
    per_state_forwards,
    rational_backward,
    reachable_coords,
    sum_value,
    unreduced_window,
    window_expectation,
    window_values,
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

    def test_coordinate_sums_past_int64(self):
        # 2047 * 2**52 < 2**63 = 2048 * 2**52, one past the largest int64; the states stay far under the cap
        family = AmbiguityFamily.build(0, 1, [[(2.0**52 - 1, 0.5), (2.0**52, 0.5)]])
        assert build_support(family, 2047).reachable_values(2047)[-1] == 2047 * 2**52
        message = f"sums for n=2048 reach lattice coordinate {2**63}, past the 64-bit integers that hold it"
        with pytest.raises(SupportOverflow, match=f"^{re.escape(message)}$"):
            payoff_expectations(family, [lambda x: x], [4096, 1, 2048])

    def test_invalid_family(self):
        with pytest.raises(FamilyInvalid):
            iid_sum_expectation(AmbiguityFamily.build(0, 1, [[(0.25, 1.0)]]), 2, lambda x: x)

    def test_matches_exact_rationals(self, families):
        # both sides read the same phi floats and normalized weights; only the recursion's rounding differs
        ns = list(range(1, 13))
        for name, family in families.items():
            for phi in catalog_for(family):
                for n, value in zip(ns, payoff_expectations(family, [phi], ns)[0]):
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
    """payoff_expectations of one payoff against the per-horizon oracle, bit for bit."""

    def test_corpus_every_n_to_64(self, families):
        ns = range(1, 65)
        for family in families.values():
            for i, phi in enumerate(catalog_for(family)):
                got = payoff_expectations(family, [phi], ns)[0]
                assert bits(got) == bits(oracle_values(family, phi, ns)), (family.name, i)

    def test_fine_lattice_to_32(self):
        ns = range(1, 33)
        for i, phi in enumerate(catalog_for(FINE_LATTICE)):
            got = payoff_expectations(FINE_LATTICE, [phi], ns)[0]
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
                assert bits(payoff_expectations(DELTA_PAIR, [phi], [n, 1])[0][:1]) == bits([want])

    def test_unsorted_and_duplicate_ns(self, families):
        family = families["three_atom"]
        phi = catalog_for(family)[2]
        ns = [8, 3, 8, 1, 17, 3]
        got = payoff_expectations(family, [phi], ns)[0]
        assert len(got) == len(ns)
        assert bits(got) == bits(oracle_values(family, phi, ns))
        assert payoff_expectations(family, [phi], [])[0] == ()

    def test_row_groups_do_not_change_values(self, families, monkeypatch):
        family = families["skewed_pair"]
        phi = catalog_for(family)[4]
        ns = list(range(1, 41))
        whole = payoff_expectations(family, [phi], ns)[0]
        monkeypatch.setattr(engine, "_ROW_BUDGET", 200)
        assert len(engine._row_groups([(n, phi) for n in ns[::-1]], 3)) > 1
        assert bits(payoff_expectations(family, [phi], ns)[0]) == bits(whole)

    @pytest.mark.parametrize("split", [False, True])
    def test_stacked_payoffs_match_single_sweeps(self, families, monkeypatch, split):
        ns = [9, 2, 17, 9, 1, 33, 2]
        for name, family in families.items():
            shapes = catalog_for(family)
            payoffs = [*shapes, *(lambda x, p=p: -p(x) for p in shapes)]
            singles = [bits(payoff_expectations(family, [phi], ns)[0]) for phi in payoffs]
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
        got = payoff_expectations(family, [phi], ns)[0]
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
                        payoff_expectations(family, [phi], ns, state_cap=cap)
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
            payoff_expectations(TWO_POINT, [lambda x: x], [3, 1, 2], state_cap=5)

    def test_invalid_horizon(self):
        measure = PathMeasure.constant([0.5, 0.5], 3)
        for n in (0, 2.5, True):
            message = f"^n must be a positive integer, got {n}$"
            with pytest.raises(NonPositiveN, match=message):
                payoff_expectations(TWO_POINT, [lambda x: x], [3, n])
            with pytest.raises(NonPositiveN, match=message):
                payoff_expectations(TWO_POINT, [abs], [n])
            with pytest.raises(NonPositiveN, match=message):
                payoff_expectations(TWO_POINT, [lambda x: x], [2, n], measure=measure)
        # a numpy horizon is the Python int of its value: same roots, same bits
        ns = [np.int64(3), np.uint8(1), np.int32(3)]
        want = payoff_expectations(TWO_POINT, [np.cos], [3, 1, 3])[0]
        assert bits(payoff_expectations(TWO_POINT, [np.cos], ns)[0]) == bits(want)
        got = payoff_expectations(TWO_POINT, [np.cos], ns, measure=measure)[0]
        assert bits(got) == bits(payoff_expectations(TWO_POINT, [np.cos], [3, 1, 3], measure=measure)[0])

    @pytest.mark.parametrize("name", ["bernoulli_pair", "skewed_pair", "three_atom", "fine_lattice"])
    def test_phi_called_only_at_reachable_sums(self, families, name):
        family = FINE_LATTICE if name == "fine_lattice" else families[name]
        ns = [12, 1, 5, 12, 2]
        levels = reachable_coords(family, max(ns))
        calls = []

        def phi(xs):
            calls.append(sorted(np.asarray(xs).tolist()))
            return np.cos(xs)

        payoff_expectations(family, [phi], ns)
        want = [sorted(sum_value(family, n, c) / n for c in levels[n]) for n in sorted(set(ns))]
        assert sorted(calls) == sorted(want)
        for single in (value_table, extract_argmax_policy):
            calls.clear()
            single(family, 5, phi)
            assert calls == [want[2]]


BLOCK = engine._BLOCK_STEPS


class TestStepBlocks:
    """The sweep across the boundaries of its blocks of steps, against the per-horizon oracle bit for bit."""

    @pytest.mark.parametrize("name", [*corpus_families(), "fine_lattice"])
    def test_horizons_around_a_block(self, families, name):
        family = FINE_LATTICE if name == "fine_lattice" else families[name]
        singles = [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1, 100]
        for i, phi in enumerate(catalog_for(family)):
            want = oracle_values(family, phi, singles)
            assert bits([iid_sum_expectation(family, n, phi) for n in singles]) == bits(want), (name, i)
            # rows join mid-block, and at or next to a block's end
            for ns in ([3, 40, 77], [1, BLOCK - 1, BLOCK + 1, 2 * BLOCK + 1, 100]):
                got = payoff_expectations(family, [phi], ns)[0]
                assert bits(got) == bits(oracle_values(family, phi, ns)), (name, i, ns)

    @pytest.mark.parametrize("name", [*corpus_families(), "fine_lattice"])
    def test_tables_and_selections_past_a_block(self, families, name):
        family = FINE_LATTICE if name == "fine_lattice" else families[name]
        g = unreduced_window(family, 0)[2]
        n = 2 * BLOCK + 1
        for phi in catalog_for(family):
            want, selections = per_horizon_backward(family, n, phi)
            table = value_table(family, n, phi)
            assert bits([table.root]) == bits([want])
            assert [v.size for v in table.values] == [table.support.size(k) for k in range(n + 1)]
            policy = extract_argmax_policy(family, n, phi)
            assert len(policy.selections) == n
            for k in range(n):
                assert_on_sublattice(policy.selections[k], selections[k], g, -1)

    def test_signed_zero_ties_past_a_block(self):
        for low in (-0.0, 0.0):
            phi = lambda x, low=low: np.where(x == 0.0, low, -low)
            for n in (BLOCK + 1, 2 * BLOCK + 1):
                want = per_horizon_backward(DELTA_PAIR, n, phi)[0]
                assert bits(payoff_expectations(DELTA_PAIR, [phi], [n, 1])[0][:1]) == bits([want])

    def test_a_program_per_block_and_direction(self, families, monkeypatch):
        # 66 -> 40 (a row joins) -> 8 -> 3 (a row joins) -> 0, below three_atom's first trimmed step
        built = []

        def recording(weights, members, rows, src, dst, *rest):
            built.append((rows, dst.shape))
            return program(weights, members, rows, src, dst, *rest)

        program = engine._program
        monkeypatch.setattr(engine, "_program", recording)
        family = families["three_atom"]
        payoff_expectations(family, [catalog_for(family)[2]], [3, 40, 66])
        blocks = [(66, 1), (40, 2), (8, 2), (3, 3)]  # (first step, joined rows); span 4
        assert built == [(rows, (rows * (4 * (k - 1) + 1),)) for k, rows in blocks for _ in range(2)]

    def test_step_arrays_start_on_cache_lines(self, families, monkeypatch):
        starts = []

        def recording(weights, members, rows, src, dst, acc, products, *rest):
            starts.extend(a.ctypes.data % 64 for a in (src, dst, acc, products) if a.size)
            return program(weights, members, rows, src, dst, acc, products, *rest)

        program = engine._program
        monkeypatch.setattr(engine, "_program", recording)
        for family in families.values():
            payoff_expectations(family, [catalog_for(family)[2]], [3, 40, 77])
            extract_argmax_policy(family, 9, catalog_for(family)[2])
        assert starts and set(starts) == {0}

    def test_row_groups_count_the_products(self, monkeypatch):
        rows = [(10, None)] * 4
        monkeypatch.setattr(engine, "_ROW_BUDGET", 2 * 4 * 31)
        assert [len(g) for g in engine._row_groups(rows, 3)] == [2, 2]
        assert [len(g) for g in engine._row_groups(rows, 3, weights=5)] == [1, 1, 1, 1]

    def test_row_groups_count_the_member_weights(self, monkeypatch):
        # a weighted sweep also holds an array of weights per member.  three_atom has 6 product weights,
        # 3 members and span 4: three rows of horizon 10 fit in 3 * 41 * (3 + 6) states, but not with
        # the weights of its 3 members
        family = corpus_families()["three_atom"]
        monkeypatch.setattr(engine, "_ROW_BUDGET", 3 * 41 * (3 + 6))
        sweeps, sweep = [], engine._sweep

        def counting(grid, rows, *rest, **kwargs):
            sweeps.append(len(rows))
            return sweep(grid, rows, *rest, **kwargs)

        monkeypatch.setattr(engine, "_sweep", counting)
        lo, hi = mean_bounds(family)
        payoff_expectations(family, [abs], [8, 9, 10])
        payoff_expectations(family, [abs], [7, 8, 9, 10], measure=construct_pstar(family, 0.5 * (lo + hi), 10))
        assert sweeps == [3, 2, 2]

    def test_stale_columns_raise_no_float_error(self, families):
        schedule = [2**k for k in range(11)]
        for family in families.values():
            for phi in catalog_for(family):
                with np.errstate(all="raise"):
                    roots = payoff_expectations(family, [phi], schedule)[0]
                assert all(math.isfinite(r) for r in roots)
        # a deep banded sweep, whose entries outside each block's views are its rows' own values, on the
        # benchmark's shape and the interval distance.  Underflow is let through: the interval distance's
        # own values underflow from n = 2048 on, dense or not.
        family = families["three_atom"]
        payoffs = [catalog_for(family)[i] for i in (2, 5)]
        with np.errstate(all="raise", under="ignore"):
            roots = payoff_expectations(family, payoffs, [4096], state_cap=40_000_000)
        assert all(math.isfinite(r) for (r,) in roots)


def band_bound(family, n, phi):
    """The banded root's distance bound from the dense recursion, with the float rounding of both.

    phi is taken over step n's whole window, and the unreachable entries' zeros count in its oscillation.
    """
    values = np.asarray(phi(engine._grid(family).values(n) / n), dtype=float)
    osc = max(values.max(), 0.0) - min(values.min(), 0.0)
    atoms = max(len(m.atoms) for m in family.members)
    return 2.0**-100 * osc + 2 * n * atoms * 2.0**-53 * np.abs(values).max()


class TestProbabilityBand:
    """Sweeps that record no table trim each step to its Chernoff band (``engine._band``)."""

    FIRST_TRIM = {"fair_coin": 138, "bernoulli_pair": 138, "three_atom": 67, "skewed_pair": 139, "fine_lattice": 52}

    @pytest.mark.parametrize("name", ["three_atom", "fair_coin", "fine_lattice"])
    def test_mass_outside_the_band_is_certified(self, families, name):
        family = FINE_LATTICE if name == "fine_lattice" else families[name]
        # every step's mass from the oracle's forward propagators; reduced index i is unreduced index i * gcd
        n, cap = 320, 1 << 40  # the fine lattice passes the default cap at n = 320; its reduced arrays are small
        grid = engine._grid(family)
        lo, hi = engine._band(grid, n)[1:]
        lower, upper = mean_bounds(family)
        policy = extract_argmax_policy(family, n, catalog_for(family)[2], cap)
        measures = [policy] + [construct_pstar(family, mu, n) for mu in (lower, 0.5 * (lower + upper), upper)]
        for measure in measures:
            for k, mass in enumerate(per_state_forwards(family, n, measure)[1:], start=1):
                mass = mass[:: grid.gcd]
                outside = mass[: lo[k]].sum() + mass[hi[k] + 1 :].sum()
                assert outside <= 2.0**-100 / (k * (k + 1)), (measure, k, outside)

    @pytest.mark.parametrize("name", ["fair_coin", "bernoulli_pair", "three_atom", "skewed_pair", "fine_lattice"])
    def test_no_adapted_choice_leaves_the_band(self, families, name):
        # the oracle's worst-case recursion of an indicator is the exact supremum of its mass over every
        # adapted choice of members, mixtures and fixed measures included
        family = FINE_LATTICE if name == "fine_lattice" else families[name]
        grid, lat = engine._grid(family), family.lattice
        last = 200 if name == "fine_lattice" else 320
        first = engine._band(grid, last)[0]
        for k in (first, 2 * first, last):
            lo, hi = (edge[k] for edge in engine._band(grid, k)[1:])

            def past(i, k=k):  # S_k / k halfway between reduced index i and i + 1
                return (k * lat.origin + (k * grid.k_min + (i + 0.5) * grid.gcd) * lat.step) / k

            above = per_horizon_backward(family, k, lambda x: (x > past(hi)).astype(float))[0]
            below = per_horizon_backward(family, k, lambda x: (x < past(lo - 1)).astype(float))[0]
            assert above + below <= 2.0**-100 / (k * (k + 1)), (k, above, below)

    def test_never_wider_than_azuma_hoeffding(self, families):
        n = 4096
        for name, family in {**families, "fine_lattice": FINE_LATTICE}.items():
            grid = engine._grid(family)
            lo, hi = (np.array(edge) for edge in engine._band(grid, n)[1:])
            # the Azuma-Hoeffding band: k * (least, greatest member mean shift) -+ t_k, one index of slack
            means = [sum(w * s for w, s in terms) for terms in grid.terms]
            k = np.arange(n + 1, dtype=float)
            t = np.zeros(n + 1)
            t[1:] = grid.span * np.sqrt(k[1:] * np.log(2.0 * k[1:] * (k[1:] + 1.0) / 2.0**-100) / 2.0)
            assert (lo >= np.maximum(np.floor(k * min(means) - t) - 1.0, 0.0)).all(), name
            assert (hi <= np.minimum(np.ceil(k * max(means) + t) + 1.0, k * grid.span)).all(), name

    def test_reach(self, families):
        cases = {**families, "fine_lattice": FINE_LATTICE}
        n = 4096
        for name, family in cases.items():
            grid = engine._grid(family)
            first, lo, hi = engine._band(grid, n)
            trimmed = [k for k in range(n + 1) if lo[k] > 0 or hi[k] < k * grid.span]
            assert all(0 <= lo[k] <= hi[k] <= k * grid.span for k in range(n + 1)), name
            assert not trimmed or trimmed[0] >= 52, name
            assert (trimmed[0] if trimmed else None) == self.FIRST_TRIM.get(name), name
            assert first == (trimmed[0] if trimmed else n), name
        grid = engine._grid(families["three_atom"])
        lo, hi = engine._band(grid, n)[1:]
        band = sum(hi[k] - lo[k] + 1 for k in range(1, n + 1))
        assert band <= 0.45 * sum(grid.size(k) for k in range(1, n + 1))

    def test_a_sweep_computes_only_its_bands(self, families, monkeypatch):
        # one row of horizon 4096 runs 128 full blocks, each with one program per direction
        sizes = []

        def recording(weights, members, rows, src, dst, *rest):
            sizes.append(dst.size)
            return program(weights, members, rows, src, dst, *rest)

        program = engine._program
        monkeypatch.setattr(engine, "_program", recording)
        family = families["three_atom"]
        iid_sum_expectation(family, 4096, catalog_for(family)[2], state_cap=40_000_000)
        grid = engine._grid(family)
        assert len(sizes) == 2 * 4096 // BLOCK
        assert BLOCK * sum(sizes[::2]) <= 0.5 * sum(grid.size(k) for k in range(4096))

    def test_roots_and_lower_values_match_the_oracle(self, families):
        ns = [200, 320]
        for name, family in families.items():
            catalog = catalog_for(family)
            upper = payoff_expectations(family, catalog, ns)
            lower = payoff_expectations(family, [lambda x, phi=phi: -phi(x) for phi in catalog], ns)
            for i, phi in enumerate(catalog):
                for j, n in enumerate(ns):
                    bound = band_bound(family, n, phi)
                    assert abs(upper[i][j] - per_horizon_backward(family, n, phi)[0]) <= bound, (name, i, n)
                    want = per_horizon_backward(family, n, lambda x: -phi(x))[0]
                    assert abs(lower[i][j] - want) <= bound, (name, i, n)

    def test_a_row_alone_and_inside_a_deeper_sweep(self, families):
        for name, family in families.items():
            catalog = catalog_for(family)
            alone = payoff_expectations(family, catalog, [300])
            inside = payoff_expectations(family, catalog, [300, 1024])
            for i, phi in enumerate(catalog):
                assert abs(alone[i][0] - inside[i][0]) <= band_bound(family, 300, phi), (name, i)
        # a row never reads another row's values, however far apart their scales: after the re-lay at step
        # 300, the small row sits where the large one sat before
        family = families["fair_coin"]
        grid = engine._grid(family)
        rows = [(1024, lambda x: 2.0**900 * np.abs(x)), (300, np.abs)]
        roots = engine._sweep(grid, rows, engine._reachable_masks(grid, 1024, [300, 1024])).tolist()
        for (n, phi), root in zip(rows, roots):
            assert abs(root - per_horizon_backward(family, n, phi)[0]) <= band_bound(family, n, phi), n

    def test_an_infinite_far_edge_keeps_the_full_window(self, families):
        family = families["fair_coin"]
        edge = lambda x: np.where(x >= 1.0, np.inf, np.abs(x))
        assert iid_sum_expectation(family, 300, edge) == math.inf == per_horizon_backward(family, 300, edge)[0]
        # a row that joins later turns the band off from its step on
        grid = engine._grid(family)
        masks = engine._reachable_masks(grid, 1024, [300, 1024])
        top, late = engine._sweep(grid, [(1024, np.abs), (300, edge)], masks).tolist()
        assert late == math.inf
        assert abs(top - per_horizon_backward(family, 1024, np.abs)[0]) <= band_bound(family, 1024, np.abs)


class TestBandCache:
    """``engine._grid`` and ``engine._band`` are memoized by value and return read-only results."""

    def test_equal_inputs_share_read_only_results(self, families):
        for name, family in corpus_families().items():  # built again: equal, but not the same instances
            grid = engine._grid(family)
            assert family is not families[name] and grid is engine._grid(families[name]), name
            band = engine._band(grid, 300)
            assert band is engine._band(engine._grid(families[name]), 300), name
            assert all(type(edge) is tuple for edge in band[1:]), name
            assert type(grid.terms) is tuple and all(type(terms) is tuple for terms in grid.terms), name
            with pytest.raises(dataclasses.FrozenInstanceError):
                grid.span = 0
        # a -0.0 weight equals 0.0 but keeps products of its own, so it keys a grid of its own
        plus, minus = (AmbiguityFamily.build(0, 1, [[(0, zero), (1, 1.0)], [(0, 1.0)]]) for zero in (0.0, -0.0))
        assert plus == minus and engine._grid(plus) is not engine._grid(minus)
        assert math.copysign(1.0, engine._grid(minus).terms[0][0][0]) == -1.0

    def test_cold_and_warm_roots_are_the_same_bits(self, families):
        ns = [1, 64, 150, 300]
        for name, family in families.items():
            catalog = catalog_for(family)
            engine._band.cache_clear()
            engine._grid_of.cache_clear()
            cold = payoff_expectations(family, catalog, ns)
            warm = payoff_expectations(family, catalog, ns)
            assert engine._grid_of.cache_info().hits and engine._band.cache_info().hits, name
            assert bits(cold) == bits(warm), name

    def test_a_sum_support_never_reaches_the_band_cache(self, families):
        # a support holds its masks as arrays, so it cannot be hashed; tables and selections keep full windows
        family = families["three_atom"]
        with pytest.raises(TypeError):
            hash(build_support(family, 100))
        before = engine._band.cache_info()
        value_table(family, 100, abs)
        extract_argmax_policy(family, 100, abs)
        after = engine._band.cache_info()
        assert (after.hits, after.misses) == (before.hits, before.misses)


CORPUS_SCHEDULE = [2**k for k in range(11)]
# a point mass after a mixed member: -inf at the top sums is reached only by a member the maximum avoids
MIXED_AND_POINT = AmbiguityFamily.build(0, 1, [[(-1, 0.5), (1, 0.5)], [(0, 1.0)]])


class TestPlans:
    """A plain sweep keeps its plan; the next one of the same grid and row horizons runs the held programs."""

    @staticmethod
    def cold(family, payoffs, ns, monkeypatch):
        monkeypatch.setattr(engine, "_held", None)
        return [bits(row) for row in payoff_expectations(family, payoffs, ns)]

    def test_warm_roots_are_the_cold_bits(self, families, monkeypatch):
        for name, family in families.items():
            catalog = catalog_for(family)
            cold = [self.cold(family, [phi], CORPUS_SCHEDULE, monkeypatch)[0] for phi in catalog]
            for order in (list(range(len(catalog))), list(reversed(range(len(catalog))))):
                monkeypatch.setattr(engine, "_held", None)
                for step, i in enumerate(order):
                    held = engine._held
                    assert bits(payoff_expectations(family, [catalog[i]], CORPUS_SCHEDULE)[0]) == cold[i], (name, i)
                    assert (engine._held is held) == (step > 0), (name, i)  # every shape after the first reuses the plan

    def test_a_phi_that_sweeps_the_same_geometry_gets_the_bits_of_separate_calls(self, families, monkeypatch):
        family = families["three_atom"]
        inner_phi, outer_phi = catalog_for(family)[0], catalog_for(family)[2]
        want_inner = self.cold(family, [inner_phi], CORPUS_SCHEDULE, monkeypatch)[0]
        want_outer = self.cold(family, [outer_phi], CORPUS_SCHEDULE, monkeypatch)[0]
        inner = []

        def reentrant(xs):
            inner.append(bits(payoff_expectations(family, [inner_phi], CORPUS_SCHEDULE)[0]))
            return outer_phi(xs)

        payoff_expectations(family, [inner_phi], CORPUS_SCHEDULE)  # the geometry's plan is held
        assert bits(payoff_expectations(family, [reentrant], CORPUS_SCHEDULE)[0]) == want_outer
        assert inner == [want_inner] * len(CORPUS_SCHEDULE)
        assert bits(payoff_expectations(family, [inner_phi], CORPUS_SCHEDULE)[0]) == want_inner

    def test_an_infinite_payoff_after_a_finite_one_gives_its_cold_bits(self, monkeypatch):
        edge = lambda x: np.where(x >= 1.0, -np.inf, np.abs(x))
        want = self.cold(MIXED_AND_POINT, [edge], CORPUS_SCHEDULE, monkeypatch)[0]
        assert engine._held is None  # the sweep met the infinity and kept nothing
        assert all(math.isfinite(r) for r in payoff_expectations(MIXED_AND_POINT, [edge], CORPUS_SCHEDULE)[0])
        payoff_expectations(MIXED_AND_POINT, [np.abs], CORPUS_SCHEDULE)
        assert engine._held is not None
        assert bits(payoff_expectations(MIXED_AND_POINT, [edge], CORPUS_SCHEDULE)[0]) == want
        assert engine._held is None
        assert bits(payoff_expectations(MIXED_AND_POINT, [np.abs], CORPUS_SCHEDULE)[0]) == self.cold(
            MIXED_AND_POINT, [np.abs], CORPUS_SCHEDULE, monkeypatch
        )[0]

    def test_a_call_split_into_row_groups_gives_its_cold_bits(self, families, monkeypatch):
        # two rows of horizon 300 per group: the three groups share one geometry, so the later two run the first's plan
        program = engine._program
        for name, family in families.items():
            catalog, grid = catalog_for(family), engine._grid(family)
            weights = engine._products(grid)[0].size
            cold = [row for i in range(0, 6, 2) for row in self.cold(family, catalog[i : i + 2], [300], monkeypatch)]
            with monkeypatch.context() as patch:
                patch.setattr(engine, "_ROW_BUDGET", 2 * grid.size(300) * (3 + weights))
                groups = engine._row_groups([(300, phi) for phi in catalog], grid.span, weights)
                assert [len(g) for g in groups] == [2, 2, 2], name
                built = []
                patch.setattr(engine, "_program", lambda *args: built.append(1) or program(*args))
                patch.setattr(engine, "_held", None)
                assert [bits(row) for row in payoff_expectations(family, catalog, [300])] == cold, name
                assert len(built) == 2 * math.ceil(300 / BLOCK), name  # the first group's programs only

    def test_another_geometry_releases_the_held_arrays(self, families, monkeypatch):
        family = families["three_atom"]
        phi = catalog_for(family)[2]
        payoff_expectations(family, [phi], CORPUS_SCHEDULE)
        plan = engine._held
        refs = [weakref.ref(a.base) for a in (plan.cur, plan.nxt, plan.products, plan.acc)]
        del plan
        released = []
        aligned = engine._aligned

        def recording(alloc, n):
            released.append([ref() is None for ref in refs])
            return aligned(alloc, n)

        monkeypatch.setattr(engine, "_aligned", recording)
        payoff_expectations(family, [phi], CORPUS_SCHEDULE[:-1])
        assert released == [[True] * 4] * 4  # dropped before the first of the new plan's four arrays

    def test_roots_and_phi_arguments_are_never_views_of_the_plan(self, families, monkeypatch):
        family = families["fair_coin"]
        want = self.cold(family, [np.abs], CORPUS_SCHEDULE, monkeypatch)[0]

        def scribbling(xs):
            out = np.abs(xs)
            xs[:] = np.nan
            return out

        for phi in (scribbling, scribbling, np.abs):
            assert bits(payoff_expectations(family, [phi], CORPUS_SCHEDULE)[0]) == want
        grid, seen = engine._grid(family), []
        rows = [(n, lambda xs: seen.append(xs) or np.abs(xs)) for n in reversed(CORPUS_SCHEDULE)]
        for _ in range(2):
            roots = engine._sweep(grid, rows)
            plan = engine._held
            held = [plan.cur, plan.nxt, plan.products, plan.acc, *plan.points.values(), *plan.masks.values()]
            assert not any(np.shares_memory(roots, a) for a in held)
            assert all(xs.flags.writeable and not any(np.shares_memory(xs, a) for a in held) for xs in seen)
            assert bits(roots.tolist()) == want[::-1]


class TestBufferSize:
    """The step programs run under their own ufunc buffer size; phi and the caller keep theirs."""

    @staticmethod
    def sweep_bits(family, n):
        # every shape's roots on a row-joining and a doubling schedule, and its table and policy at n
        cap = 1 << 40  # the fine lattice passes the default cap at n = 1024; its reduced arrays are small
        out = []
        for phi in catalog_for(family):
            for ns in ([3, 40, 77], [2**k for k in range(11)]):
                out.append(bits(payoff_expectations(family, [phi], ns, state_cap=cap)[0]))
            out.append([bits(v) for v in value_table(family, n, phi).values])
            out.append([s.tolist() for s in extract_argmax_policy(family, n, phi).selections])
        return out

    @pytest.mark.parametrize("n", [33, 70])
    @pytest.mark.parametrize("name", [*corpus_families(), "fine_lattice"])
    def test_bits_do_not_depend_on_the_callers_buffer_size(self, families, name, n):
        family = FINE_LATTICE if name == "fine_lattice" else families[name]
        got = {}
        for size in (16, 8192, 2**20):
            with np.errstate():
                np.setbufsize(size)
                got[size] = self.sweep_bits(family, n)
                assert np.getbufsize() == size
        assert got[16] == got[8192] == got[2**20]

    def test_callers_state_is_restored(self, families):
        family = families["three_atom"]
        calls = []

        def failing(xs):
            calls.append(xs.size)
            if len(calls) == 2:  # the second row joins mid-sweep
                raise RuntimeError("phi failed")
            return np.cos(xs)

        with np.errstate(over="ignore", divide="raise", invalid="warn", under="print"):
            np.setbufsize(4096)
            state = np.geterr()
            payoff_expectations(family, [np.cos], [3, 40, 77])
            value_table(family, 40, np.cos)
            assert (np.getbufsize(), np.geterr()) == (4096, state)
            with pytest.raises(RuntimeError, match="phi failed"):
                payoff_expectations(family, [failing], [3, 40, 77])
            assert len(calls) == 2
            assert (np.getbufsize(), np.geterr()) == (4096, state)

    def test_phi_runs_under_the_callers_buffer_size(self, families):
        family = families["skewed_pair"]
        seen = []

        def phi(xs):
            seen.append(np.getbufsize())
            return np.sin(xs)

        for size in (16, 8192, 2**20):
            with np.errstate():
                np.setbufsize(size)
                seen.clear()
                payoff_expectations(family, [phi, phi], [3, 40, 77])
                extract_argmax_policy(family, 40, phi)
                assert seen == [size] * 7

    @pytest.mark.parametrize("ns", [[3, 40, 77], [1, 1, 2, 64]])
    def test_three_payoffs_match_the_oracle(self, families, ns):
        for name, family in [*families.items(), ("fine_lattice", FINE_LATTICE)]:
            payoffs = catalog_for(family)[:3]
            got = payoff_expectations(family, payoffs, ns)
            assert [bits(row) for row in got] == [bits(oracle_values(family, phi, ns)) for phi in payoffs], name


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

    @pytest.mark.parametrize(
        "lookup, k, total, error, message",
        [
            ("dense_index", 3, 0.0, KeyError, "step 3 outside 0..2"),
            ("dense_index", -1, 0.0, KeyError, "step -1 outside 0..2"),
            ("dense_index", 1, 0.5, KeyError, "0.5 is not a lattice sum at step 1"),
            ("member_at", 2, 0.0, PolicyIncomplete, "policy has no step 2"),
            ("member_at", 1, 0.0, PolicyIncomplete, "0.0 is not reachable at step 1"),
            ("member_at", 0, 0.0, PolicyIncomplete, "no selection at step 0, sum 0.0"),
        ],
    )
    def test_lookups_off_the_support(self, lookup, k, total, error, message):
        # a policy of horizon 2 that selects nothing at the root and member 1 at step 1
        support = build_support(TWO_POINT, 2)
        root, step_1 = np.full(1, -1, dtype=np.int32), np.where(support.masks[1], 1, -1).astype(np.int32)
        holed = SelectionPolicy(support, (root, step_1))
        with pytest.raises(error, match=re.escape(message)):
            getattr(support if lookup == "dense_index" else holed, lookup)(k, total)


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
        for n in (1, 5, 16, BLOCK + 2):
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

    def test_weight_check_shape(self):
        # a rule that answers with fewer weights than the members it declares
        measure = PathMeasure.from_sum_rule(lambda step, total: [1.0], 3, 2)
        with pytest.raises(PolicyIncomplete, match=r"^mixture weights have shape \(1,\), expected \(2,\)$"):
            expectation_under_policy(DELTA_PAIR, 3, lambda x: x, measure)

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


def cosine_sum_rule(family, n):
    members = np.arange(1, len(family.members) + 1)

    def rule(step, total):
        w = 1.0 + np.cos(total * members + step)
        return w / w.sum()

    return PathMeasure.from_sum_rule(rule, n, len(members), name="cosine-sum-rule")


@pytest.mark.parametrize("name", list(corpus_families()))
class TestForwardKernel:
    """Fixed measures and policies, evaluated by the weighted backward sweep, against the oracle's
    per-state forward propagators and its float and exact weighted recursions (``measure_backward``)."""

    def test_product_measures_bit_for_bit(self, families, name):
        # bit for bit as the float recursion; within rounding of forward propagation, also past the
        # first trimmed step of every banded family (n = 256)
        family = families[name]
        lo, hi = mean_bounds(family)
        for n in FORWARD_NS + (256,):
            pstars = [construct_pstar(family, mu, n) for mu in (lo, 0.5 * (lo + hi), hi)]
            for measure in pstars + [uniform_mixture(family, n)]:
                mass = per_state_forward(family, n, measure)
                for i, phi in enumerate(catalog_for(family)):
                    got = expectation_under_policy(family, n, phi, measure)
                    want = window_expectation(family, n, phi, mass)
                    assert abs(got - want) <= 1e-14 * max(1.0, abs(want)), (n, i)
                    if n in FORWARD_NS:
                        assert bits([got]) == bits([measure_backward(family, n, phi, measure)]), (n, i)

    def test_argmax_policy_bit_for_bit(self, families, name):
        family = families[name]
        for n in FORWARD_NS:
            for i, phi in enumerate(catalog_for(family)):
                policy = extract_argmax_policy(family, n, phi)
                as_rule = PathMeasure.from_policy(policy, len(family.members))
                value = expectation_under_policy(family, n, phi, policy)
                assert bits([expectation_under_policy(family, n, phi, as_rule)]) == bits([value]), (n, i)
                assert bits([value]) == bits([measure_backward(family, n, phi, policy)]), (n, i)
                want = window_expectation(family, n, phi, per_state_forward(family, n, policy))
                assert abs(value - want) <= 1e-14 * max(1.0, abs(want)), (n, i)
                # the weighted sweep takes the selected member's value, which the max sweep takes too
                assert value == iid_sum_expectation(family, n, phi), (n, i)

    def test_sum_rule_within_rounding(self, families, name):
        family = families[name]
        for n in FORWARD_NS:
            measure = cosine_sum_rule(family, n)
            mass = per_state_forward(family, n, measure)
            for i, phi in enumerate(catalog_for(family)):
                got = expectation_under_policy(family, n, phi, measure)
                assert bits([got]) == bits([measure_backward(family, n, phi, measure)]), (n, i)
                want = window_expectation(family, n, phi, mass)
                assert abs(got - want) <= 1e-14 * max(1.0, abs(want)), (n, i)

    def test_matches_exact_rationals(self, families, name):
        # every value after phi is exact in the oracle, so only the sweep's rounding differs
        family = families[name]
        lo, hi = mean_bounds(family)
        ns = (1, 2, 3, 5, 8, 12)
        for i, phi in enumerate(catalog_for(family)):
            measures = [construct_pstar(family, mu, 12) for mu in (lo, 0.5 * (lo + hi), hi)]
            measures += [uniform_mixture(family, 12), cosine_sum_rule(family, 12)]
            measures.append(extract_argmax_policy(family, 12, phi))
            for measure in measures:
                for n, got in zip(ns, payoff_expectations(family, [phi], ns, measure=measure)[0]):
                    exact = measure_backward(family, n, phi, measure, Fraction)
                    assert abs(Fraction(got) - exact) <= 1e-15 * max(1, abs(exact)), (i, measure, n)

    def test_row_groups_do_not_change_values(self, families, name, monkeypatch):
        family = families[name]
        lo, hi = mean_bounds(family)
        measure, ns = construct_pstar(family, 0.5 * (lo + hi), 40), list(range(1, 41))
        for phi in catalog_for(family):
            whole = payoff_expectations(family, [phi], ns, measure=measure)[0]
            with monkeypatch.context() as patch:
                patch.setattr(engine, "_ROW_BUDGET", 400)
                assert bits(payoff_expectations(family, [phi], ns, measure=measure)[0]) == bits(whole)

    def test_horizons_below_the_first_trimmed_step_bit_for_bit(self, families, name):
        # every window is full below step 162, so a row's root does not depend on the rows beside it
        family = families[name]
        lo, hi = mean_bounds(family)
        ns = [161, 3, 100, 161]
        for phi in catalog_for(family)[2::3]:
            measures = [construct_pstar(family, mu, 161) for mu in (lo, 0.5 * (lo + hi), hi)]
            measures += [uniform_mixture(family, 161), extract_argmax_policy(family, 161, phi)]
            for measure in measures:
                single = {n: expectation_under_policy(family, n, phi, measure) for n in set(ns)}
                assert bits(payoff_expectations(family, [phi], ns, measure=measure)[0]) == bits([single[n] for n in ns])

    def test_stacked_payoffs_match_single_evaluations(self, families, name):
        # every payoff is a row of one weighted sweep, or reads one history walk per horizon; every window
        # is full below step 162, so a row's root does not depend on the rows beside it
        family = families[name]
        lo, hi = mean_bounds(family)
        payoffs = catalog_for(family)
        ns = [128, 3, 40, 128, 1]
        point_masses = all(len(m.normalized_weights) == 1 for m in family.members)
        history_ns = ns if point_masses else [6, 3, 1]  # the parity rule's walk keeps one path per step on point masses
        cases = [
            (construct_pstar(family, 0.5 * (lo + hi), 128), ns),
            (uniform_mixture(family, 128), ns),
            (cosine_sum_rule(family, 40), [40, 3, 1]),  # a sum rule is called at every state: 128 steps cost seconds
            (extract_argmax_policy(family, 128, payoffs[1]), ns),
            (history_parity_measure(family, max(history_ns)), history_ns),
        ]
        for measure, hs in cases:
            singles = [bits(payoff_expectations(family, [phi], hs, measure=measure)[0]) for phi in payoffs]
            assert [bits(row) for row in payoff_expectations(family, payoffs, hs, measure=measure)] == singles, measure
            assert payoff_expectations(family, payoffs, [], measure=measure) == ((),) * len(payoffs)
        with pytest.raises(TypeError, match="unsupported policy object"):
            payoff_expectations(family, payoffs, ns, measure=lambda step: None)

    def test_bits_do_not_depend_on_the_callers_buffer_size(self, families, name):
        # a weighted sweep's bits do not depend on the caller's buffer size, which it leaves as it found it
        family = families[name]
        lo, hi = mean_bounds(family)
        got = {}
        for size in (16, 8192, 2**20):
            with np.errstate():
                np.setbufsize(size)
                got[size] = [
                    bits(payoff_expectations(family, [phi], [3, 40, 77], measure=measure)[0])
                    for phi in catalog_for(family)
                    for measure in (construct_pstar(family, 0.5 * (lo + hi), 77), extract_argmax_policy(family, 77, phi))
                ]
                assert np.getbufsize() == size
        assert got[16] == got[8192] == got[2**20]

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
                assert bits(payoff_expectations(family, [phi], ns, measure=measure)[0]) == bits(want), (i, measure)
                assert payoff_expectations(family, [phi], [], measure=measure)[0] == ()


class TestInfinitePayoffs:
    """An infinite payoff counts only where the measure puts mass: a member of weight 0 adds nothing."""

    def test_infinity_off_the_paths_of_a_delta_pair_policy(self):
        phi = lambda x: np.where(x < 0.5, np.inf, x)  # only S_3 = 3 is reached: phi(1) = 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert expectation_under_policy(DELTA_PAIR, 3, phi, SelectionPolicy.constant(DELTA_PAIR, 3, 1)) == 1.0
            assert expectation_under_policy(DELTA_PAIR, 3, phi, PathMeasure.constant([0.0, 1.0], 3)) == 1.0
            assert expectation_under_policy(DELTA_PAIR, 3, phi, PathMeasure.constant([0.5, 0.5], 3)) == np.inf

    def test_infinity_off_the_paths_of_a_history_rule(self):
        # the parity rule draws member 0 at every step of the delta pair, so it reaches only S_3 = 0, where
        # phi is 0: the sums of mass 0, where phi is infinite, add exactly 0
        phi = lambda x: np.where(x > 0.5, np.inf, x)
        parity = history_parity_measure(DELTA_PAIR, 3)
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            assert expectation_under_policy(DELTA_PAIR, 3, phi, parity) == 0.0
            assert expectation_under_policy(DELTA_PAIR, 3, lambda x: -phi(x), parity) == 0.0
            # where phi is finite, a sum of mass 0 adds 0 * phi, so a total of -0.0 keeps its sign
            assert bits([expectation_under_policy(DELTA_PAIR, 3, lambda x: -0.0 * x, parity)]) == bits([-0.0])

    @pytest.mark.parametrize("n", [1, 2])
    def test_a_member_of_weight_0_may_reach_both_infinities(self, n):
        # member 0's atoms 0 and 3 read +inf at S_n = 0 and -inf at S_n = 3 from S_{n-1} = 0, a state of
        # the support, and compute inf - inf there; the one-hot measures take member 1 to S_n = n
        family = AmbiguityFamily.build(0, 1, [[(0, 0.5), (3, 0.5)], [(1, 1.0)]])
        phi = lambda x: np.where(x == 0.0, np.inf, np.where(x == 3.0 / n, -np.inf, x))
        policy = SelectionPolicy.constant(family, n, 1)
        measures = [policy, PathMeasure.from_policy(policy, 2), PathMeasure.constant([0.0, 1.0], n)]
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            assert [expectation_under_policy(family, n, phi, m) for m in measures] == [1.0] * 3
        assert math.isnan(expectation_under_policy(family, n, phi, PathMeasure.constant([0.5, 0.5], n)))

    def test_phi_keeps_the_callers_error_handling(self, families):
        # the weighted sweep ignores invalid operations in its own steps only: phi's reach the caller
        family = families["fair_coin"]
        phi = lambda x: np.sqrt(x - 0.5)
        for measure in (construct_pstar(family, 0.0, 4), SelectionPolicy.constant(family, 4, 0)):
            with np.errstate(invalid="raise"), pytest.raises(FloatingPointError):
                expectation_under_policy(family, 4, phi, measure)

    @pytest.mark.parametrize("ends", ["lowest", "highest", "both"])
    @pytest.mark.parametrize("name", list(corpus_families()))
    def test_matches_the_sum_over_states_of_positive_mass(self, families, name, ends):
        # +inf at the lowest or the highest reachable terminal sum, or +inf at the lowest and -inf at the highest
        family, n = families[name], 5
        lo, hi = mean_bounds(family)
        xs = build_support(family, n).reachable_values(n) / n
        base = catalog_for(family)[2]
        marks = {"lowest": [(xs.min(), np.inf)], "highest": [(xs.max(), np.inf)]}
        marks["both"] = [(xs.min(), np.inf), (xs.max(), -np.inf)]

        def phi(x):
            out = np.asarray(base(x), dtype=float).copy()
            for at, value in marks[ends]:
                out[x == at] = value
            return out

        mask = unreduced_window(family, n)[3][n]
        window = window_values(family, n, mask.size)[mask] / n
        with warnings.catch_warnings():
            # inf - inf is the one invalid operation, and only where both ends can carry mass
            warnings.simplefilter("ignore" if ends == "both" else "error")
            measures = [extract_argmax_policy(family, n, phi), uniform_mixture(family, n)]
            measures += [construct_pstar(family, mu, n) for mu in (lo, hi)]
            for measure in measures:
                mass = per_state_forward(family, n, measure)[mask]
                positive = mass > 0.0
                want = float(np.sum(mass[positive] * phi(window[positive])))
                got = expectation_under_policy(family, n, phi, measure)
                if math.isfinite(want):
                    assert abs(got - want) <= 1e-14 * max(1.0, abs(want)), measure
                else:
                    assert bits([got]) == bits([want]) or (math.isnan(got) and math.isnan(want)), measure
                assert not math.isnan(got) or ends == "both", measure


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
        # the step program multiplies and adds nothing: np.maximum over 1-D views, or one copy of a view
        grid = engine._grid(family)
        weights, terms = engine._products(grid)
        rows, width = 2, grid.span + 1
        src = np.arange(float(rows * (width + grid.span)))
        dst, acc = (np.full(rows * width, np.nan) for _ in range(2))
        products = np.empty((0, src.size))
        program = engine._program(weights, terms, rows, src, dst, acc, products)
        functions = [call.func for call in program]
        assert functions == ([np.maximum] * (len(members) - 1) if len(members) > 1 else [np.copyto])
        views = [a for call in program for a in call.args if a is not dst]
        assert all(a.ndim == 1 and np.shares_memory(a, src) for a in views)
        for call in program:
            call()
        assert np.isnan(acc).all()
        # state-major: a shift of s states is a shift of s * rows entries
        want = np.max([src[s * rows : (s + width) * rows] for ((_, s),) in grid.terms], axis=0)
        assert bits(dst) == bits(want)
