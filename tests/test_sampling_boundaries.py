"""CDF boundaries the sampler drops, folds or merges, against the ``searchsorted`` oracle bit for bit.

A ``"none"`` measure's boundary whose threshold is ``2^32`` or above at every
step never fires and is dropped; one whose threshold is 0 at every step
always fires and is folded into a base count; boundaries with equal
thresholds are merged.  When none is left, no uniform is drawn.  Each case
here must still give the oracle's paths and the counts of their sums.
"""

from pathlib import Path

import numpy as np
import pytest

from _oracles import per_step_sampler, reduced_sum_counts
from sublln import measures
from sublln.ambiguity import AmbiguityFamily, mean_bounds
from sublln.config import parse_config
from sublln.lln_rates import interval_max
from sublln.measures import PathMeasure, construct_pstar, sample_paths, sample_sum_counts

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
THREE_ATOM = parse_config((CONFIGS / "three_atom.json").read_bytes())


def bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def assert_matches_oracle(family, measure, n, count, seed):
    want = per_step_sampler(family, measure, n, count, seed)
    assert np.array_equal(bits(sample_paths(family, measure, n, count, seed)), bits(want))
    assert np.array_equal(sample_sum_counts(family, measure, n, count, seed), reduced_sum_counts(family, want)[0])


def cdf(family, measure, k=0):
    return np.cumsum(family.union_atoms()[2] @ measure.mixture_weights(k))


def block_rows(n):
    return 8 * max(1, measures._BLOCK_UNIFORMS // (8 * n))


def pstar(config, n):
    mu_star = interval_max(config.phi, *mean_bounds(config.family)).argmax_r
    return construct_pstar(config.family, mu_star, n)


def test_first_atom_of_weight_zero_always_fires():
    family = AmbiguityFamily.build(0, 1, [[(0, 0.0), (1, 0.3), (2, 0.7)], [(0, 0.0), (1, 0.6), (3, 0.4)]])
    measure = PathMeasure.constant([0.5, 0.5], 9)
    assert cdf(family, measure)[0] == 0.0
    assert_matches_oracle(family, measure, 9, 2 * block_rows(9) + 3, seed=11)
    assert sample_paths(family, measure, 9, 500, seed=11).min() >= 1.0


def test_three_atom_pstar_repeats_its_thresholds():
    family = THREE_ATOM.family
    measure = pstar(THREE_ATOM, 13)
    assert cdf(family, measure).tolist() == [0.6, 0.6, 0.6, 1.0, 1.0]
    assert_matches_oracle(family, measure, 13, 2 * block_rows(13) + 7, seed=THREE_ATOM.seed)


@pytest.mark.parametrize(
    "members, weights",
    [
        # the tiny last weight vanishes from the total: cum reaches 1.0 one atom early
        ([[(0, 0.5), (1, 0.5), (2, 1e-17)]], [1.0]),
        # a mixture weight above one: cum passes 1.0 at the second atom
        ([[(0, 0.25), (1, 0.75)], [(0, 0.5), (2, 0.5)]], [1.0 + 4e-13, 0.0]),
    ],
)
def test_cdf_at_one_before_the_last_atom(members, weights):
    family = AmbiguityFamily.build(0, 1, members)
    measure = PathMeasure.constant(weights, 6)
    assert cdf(family, measure)[-2] >= 1.0
    assert_matches_oracle(family, measure, 6, block_rows(6) + 9, seed=2**64 - 1)
    assert sample_paths(family, measure, 6, 3000, seed=4).max() < 2.0


def test_boundary_degenerate_at_some_steps_only():
    # member 0 has no atom 0 (cum 0 there) and member 1 no atom 2 (cum 1 at atom 1): each boundary
    # is degenerate at the steps of one member and live at the mixing steps
    family = AmbiguityFamily.build(0, 1, [[(1, 0.4), (2, 0.6)], [(0, 0.5), (1, 0.5)]])

    def rule(step):
        return [np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([0.5, 0.5])][step % 3]

    measure = PathMeasure(10, 2, rule, "none", "cycle")
    assert [cdf(family, measure, k)[0] for k in range(3)] == [0.0, 0.5, 0.25]
    assert [cdf(family, measure, k)[1] for k in range(3)] == [0.4, 1.0, 0.7]
    assert_matches_oracle(family, measure, 10, 2 * block_rows(10) + 1, seed=5)


def test_thresholds_equal_at_some_steps_only_stay_apart():
    # atom 1 has weight 0 under member 0, so both boundaries tie at member 0's steps only
    family = AmbiguityFamily.build(0, 1, [[(0, 0.5), (2, 0.5)], [(0, 0.2), (1, 0.3), (2, 0.5)]])
    measure = PathMeasure(8, 2, lambda step: np.array([1 - step % 2, step % 2], dtype=float), "none", "alt")
    assert cdf(family, measure, 0)[:2].tolist() == [0.5, 0.5]
    assert cdf(family, measure, 1)[:2].tolist() == [0.2, 0.5]
    assert_matches_oracle(family, measure, 8, block_rows(8) + 2, seed=17)


NO_DRAW_CONFIGS = ("point_mass", "delta_pair", "two_point_masses")


@pytest.mark.parametrize("name", ["point_mass", "delta_pair", "three_atom"])
@pytest.mark.parametrize("offset", [None, -1, 0, 1])
def test_counts_around_the_block_size(name, offset):
    config = parse_config((CONFIGS / f"{name}.json").read_bytes())
    n = 7
    count = 0 if offset is None else block_rows(n) + offset
    measure = pstar(config, n)
    for seed in (0, 2**64 - 1):
        assert_matches_oracle(config.family, measure, n, count, seed)


@pytest.mark.parametrize("name", NO_DRAW_CONFIGS)
def test_single_member_pstar_draws_no_uniform(name, monkeypatch):
    def no_draws(*args):
        raise AssertionError("a uniform was drawn")

    monkeypatch.setattr(measures, "outputs", no_draws)
    config = parse_config((CONFIGS / f"{name}.json").read_bytes())
    n = config.mc_horizon
    measure = pstar(config, n)
    assert_matches_oracle(config.family, measure, n, 2 * block_rows(n) + 5, config.seed)
