"""The blocked inverse-CDF sampler against the per-step ``searchsorted`` oracle.

Samples are compared as bit patterns (``view(np.uint64)``), so a changed
atom, a changed sum or a flipped sign of zero all fail.
"""

from pathlib import Path

import numpy as np
import pytest

from _oracles import per_step_sampler, seed_with_unit_at
from sublln import measures
from sublln.ambiguity import AmbiguityFamily, mean_bounds
from sublln.config import parse_config
from sublln.lln_rates import interval_max
from sublln.measures import (
    PathMeasure,
    construct_pstar,
    history_parity_measure,
    sample_path_sums,
    sample_paths,
    uniform_mixture,
)
from sublln.rng import unit_at

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
THREE_ATOM = AmbiguityFamily.build(
    0, 1, [[(-1, 0.25), (0, 0.5), (1, 0.25)], [(-1, 0.5), (1, 0.5)], [(0, 0.3), (1, 0.7)]]
)


def bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def assert_matches_oracle(family, measure, n, count, seed):
    want = per_step_sampler(family, measure, n, count, seed)
    paths = sample_paths(family, measure, n, count, seed)
    sums = sample_path_sums(family, measure, n, count, seed)
    assert paths.shape == (count, n) and sums.shape == (count,)
    assert np.array_equal(bits(paths), bits(want))
    assert np.array_equal(bits(sums), bits(want.sum(axis=1)))


def block_rows(n):
    return max(1, measures._BLOCK_UNIFORMS // n)


def shipped_measures():
    for path in sorted(CONFIGS.glob("*.json")):
        config = parse_config(path.read_bytes())
        lo, hi = mean_bounds(config.family)
        mu_star = interval_max(config.phi, lo, hi).argmax_r
        n = config.mc_horizon
        for measure in (construct_pstar(config.family, mu_star, n), uniform_mixture(config.family, n)):
            yield pytest.param(config.family, measure, n, config.seed, id=f"{path.stem}-{measure.name[:5]}")


@pytest.mark.parametrize("family, measure, n, seed", list(shipped_measures()))
def test_shipped_configs(family, measure, n, seed):
    # several blocks, the last one partial
    assert_matches_oracle(family, measure, n, 3 * block_rows(n) + 17, seed)


def test_step_varying_rule():
    def rule(step):
        lam = (step % 5) / 4.0
        return np.array([lam, 1.0 - lam, 0.0]) if step % 2 else np.array([0.2, 0.3, 0.5])

    measure = PathMeasure(30, 3, rule, "none", "step-varying")
    assert_matches_oracle(THREE_ATOM, measure, 30, 2 * block_rows(30) + 5, seed=99)


def test_zero_weight_atoms_tie_the_cdf():
    # the middle atom has weight zero under every member, so two CDF entries tie
    family = AmbiguityFamily.build(0, 1, [[(0, 0.5), (1, 0.0), (2, 0.5)], [(0, 0.25), (2, 0.75)]])
    measure = construct_pstar(family, 1.2, 8)
    assert_matches_oracle(family, measure, 8, 5000, seed=3)
    # a member left out of the mixture also ties the CDF at its atoms
    lo, hi = mean_bounds(THREE_ATOM)
    assert_matches_oracle(THREE_ATOM, construct_pstar(THREE_ATOM, hi, 8), 8, 5000, seed=4)


@pytest.mark.parametrize("path", [0, 1, 3])
def test_uniform_equal_to_a_cdf_value(path):
    # cum = [0.25, 0.75, 1.0]: a uniform exactly on a CDF value picks the next atom
    family = AmbiguityFamily.build(0, 1, [[(0, 0.25), (1, 0.5), (2, 0.25)]])
    measure = uniform_mixture(family, 4)
    n, step = 4, 2
    count = path + 2
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(measures, "_BLOCK_UNIFORMS", 2 * n)  # two paths per block
        for u, atom in ((0.25, 1.0), (0.75, 2.0), (0.0, 0.0)):
            seed = seed_with_unit_at(path * n + step, u)
            assert unit_at(seed, path * n + step) == u
            assert per_step_sampler(family, measure, n, count, seed)[path, step] == atom
            assert sample_paths(family, measure, n, count, seed)[path, step] == atom
            assert_matches_oracle(family, measure, n, count, seed)


def test_top_uniform_is_clamped_to_the_last_atom():
    # the mixture weight is 1 - 4e-13, so the largest uniform lies past the CDF's end
    family = AmbiguityFamily.build(0, 1, [[(0, 0.5), (1, 0.5)]])
    measure = PathMeasure.constant([1.0 - 4e-13], 3)
    top = 1.0 - 2.0**-53
    assert np.cumsum(family.union_atoms()[2] @ measure.mixture_weights(0))[-1] < top
    seed = seed_with_unit_at(4, top)
    paths = sample_paths(family, measure, 3, 2, seed)
    assert paths[1, 1] == 1.0
    assert_matches_oracle(family, measure, 3, 2, seed)


def test_single_step_paths():
    measure = uniform_mixture(THREE_ATOM, 1)
    assert_matches_oracle(THREE_ATOM, measure, 1, 2 * block_rows(1) + 1, seed=5)


@pytest.mark.parametrize("offset", [None, -1, 0, 1])
def test_counts_around_the_block_size(offset):
    n = 7
    count = 0 if offset is None else block_rows(n) + offset
    measure = construct_pstar(THREE_ATOM, 0.1, n)
    assert_matches_oracle(THREE_ATOM, measure, n, count, seed=2**64 - 1)
    assert_matches_oracle(THREE_ATOM, measure, n, min(count, 1), seed=0)


@pytest.mark.parametrize("block", [1, 5, 21, 22])
def test_small_blocks(block):
    # a block shorter than one path still holds one whole path
    measure = construct_pstar(THREE_ATOM, 0.4, 11)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(measures, "_BLOCK_UNIFORMS", block)
        assert_matches_oracle(THREE_ATOM, measure, 11, 40, seed=12345)


def test_sum_rule():
    def rule(step, total):
        return np.array([1.0, 0.0, 0.0]) if total < 0 else np.array([0.0, 0.5, 0.5])

    measure = PathMeasure.from_sum_rule(rule, 9, 3)
    assert_matches_oracle(THREE_ATOM, measure, 9, 300, seed=8)


def test_history_rule():
    measure = history_parity_measure(THREE_ATOM, 9)
    assert_matches_oracle(THREE_ATOM, measure, 9, 300, seed=8)
