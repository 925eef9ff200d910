"""Edges of the blocked sampler's integer kernel, against the ``searchsorted`` oracle bit for bit.

The kernel compares 32-bit words w (the uniform ``w * 2^-32``) with the
integer CDF thresholds ``ceil(c * 2^32)`` and counts the comparisons in the
smallest unsigned dtype that holds the last atom index; these tests cover a
count wider than one byte, a single atom, words on either side of every
threshold, and which word of which output each path reads.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import per_step_sampler, reduced_sum_counts, sampler_words, seed_with_unit_at
from sublln import measures
from sublln.ambiguity import AmbiguityFamily
from sublln.measures import PathMeasure, sample_paths, sample_sum_counts, uniform_mixture
from sublln.rng import u64_at


def bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def assert_matches_oracle(family, measure, n, count, seed):
    want = per_step_sampler(family, measure, n, count, seed)
    assert np.array_equal(bits(sample_paths(family, measure, n, count, seed)), bits(want))
    assert np.array_equal(sample_sum_counts(family, measure, n, count, seed), reduced_sum_counts(family, want)[0])


@pytest.mark.parametrize("atoms", [256, 257, 300])
def test_more_atoms_than_a_byte_counts(atoms):
    # the comparison count reaches atoms - 1: it fits uint8 for 256 atoms and widens past it
    weights = np.linspace(1.0, 2.0, atoms)
    weights /= weights.sum()
    family = AmbiguityFamily.build(
        0, 1, [zip(range(atoms), weights), zip(range(atoms), weights[::-1])]
    )
    assert len(family.union_atoms()[1]) == atoms
    measure = uniform_mixture(family, 6)
    assert_matches_oracle(family, measure, 6, 3000, seed=77)
    assert sample_paths(family, measure, 6, 3000, seed=77).max() == atoms - 1


def test_single_atom_family():
    family = AmbiguityFamily.build(0, 0.5, [[(1.5, 1.0)]])
    measure = uniform_mixture(family, 5)
    count = measures._BLOCK_UNIFORMS // 5 + 3  # two blocks
    assert_matches_oracle(family, measure, 5, count, seed=6)
    assert np.all(sample_paths(family, measure, 5, count, seed=6) == 1.5)


EDGE_CDF_VALUES = [
    0.0,
    5e-324,
    2.0**-40,
    2.0**-32,
    2.0**-32 + 2.0**-60,
    0.5,
    1.0 - 3 * 2.0**-32,
    1.0 - 2.0**-32,
    1.0 - 2.0**-33,
    1.0 - 2.0**-53,
    1.0,
    1.0 + 2.0**-52,
    1.0 + 4e-13,
]


def two_point_masses(c, rule=False):
    """Point masses at atoms 0 and 1 mixed as (c, 1 - c): the first CDF value is exactly c.

    With ``rule`` the weights come from a sum rule, whose thresholds the kernel builds per (path, step).
    """
    family = AmbiguityFamily.build(0, 1, [[(0, 1.0)], [(1, 1.0)]])
    weights = [c, max(0.0, 1.0 - c)]
    if rule:
        measure = PathMeasure.from_sum_rule(lambda step, total: np.array(weights), 1, 2)
    else:
        measure = PathMeasure.constant(weights, 1)
    assert np.cumsum(family.union_atoms()[2] @ measure.mixture_weights(0, total=0.0))[0] == c
    return family, measure


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(
        st.sampled_from(EDGE_CDF_VALUES),
        st.floats(0.0, 1.0),
        st.integers(0, 2**32).map(lambda k: k * 2.0**-32),
    )
)
def test_integer_thresholds_agree_with_float_comparison(c):
    family, measure = two_point_masses(c)  # c may pass 1 within the mixture weight tolerance
    # every word next to c * 2^32, read as the low word (path 0) or the high word (path 1), picks the
    # atom that ``u >= c`` picks
    edge = math.ceil(Fraction(c) * 2**32)
    for w in range(max(0, edge - 2), min(2**32, edge + 3)):
        u = w * 2.0**-32
        want = 1.0 if u >= c else 0.0
        for path in (0, 1):
            seed = seed_with_unit_at(1, path, 0, u)
            assert per_step_sampler(family, measure, 1, 2, seed)[path, 0] == want
            assert sample_paths(family, measure, 1, 2, seed)[path, 0] == want
        assert sample_sum_counts(family, measure, 1, 1, seed_with_unit_at(1, 0, 0, u))[int(want)] == 1


@pytest.mark.parametrize("rule", [False, True], ids=["constant", "sum-rule"])
@pytest.mark.parametrize(
    "c, edge, tie", [(0.5, 2**31, True), (2.0**-32 + 2.0**-60, 2, False), (1.0 - 3 * 2.0**-32, 2**32 - 3, True)]
)
def test_words_on_either_side_of_a_threshold(c, edge, tie, rule):
    # the word ceil(c * 2^32) is the first that draws the second atom; a CDF value on a multiple of
    # 2^-32 ties with that word (u == c), which draws it too.  Path 1 reads the high word w and its
    # partner, path 0, the low word, set here to the complement of w.
    family, measure = two_point_masses(c, rule)
    assert math.ceil(Fraction(c) * 2**32) == edge
    assert (edge * 2.0**-32 == c) is tie
    for w in (edge - 1, edge, edge + 1):
        other = w ^ 0xFFFFFFFF
        seed = seed_with_unit_at(1, 1, 0, w * 2.0**-32, other=other)
        paths = sample_paths(family, measure, 1, 2, seed)
        assert paths[:, 0].tolist() == [float(other >= edge), float(w >= edge)]
        assert np.array_equal(paths, per_step_sampler(family, measure, 1, 2, seed))


def test_cdf_value_one_never_fires():
    # c = 1 has the threshold 2^32, past every word: at the step where the CDF reaches 1 at the first atom,
    # the largest word still draws it, while the boundary is kept for the step where it can fire
    family = AmbiguityFamily.build(0, 1, [[(0, 1.0)], [(1, 1.0)]])
    measure = PathMeasure(2, 2, lambda step: np.array([1.0 - 0.5 * step, 0.5 * step]), "none", "c=1, then 1/2")
    top = 1.0 - 2.0**-32
    for path in (0, 1):
        seed = seed_with_unit_at(2, path, 0, top)
        paths = sample_paths(family, measure, 2, 2, seed)
        assert paths[path, 0] == 0.0
        assert np.array_equal(paths, per_step_sampler(family, measure, 2, 2, seed))


def test_first_atom_below_the_resolution_is_drawn_at_word_zero_only():
    # a first atom of weight 2^-40 has the threshold ceil(2^-8) = 1: only the word 0 draws it
    family, measure = two_point_masses(2.0**-40)
    for path in (0, 1):
        for w, want in ((0, 0.0), (1, 1.0), (2**32 - 1, 1.0)):
            seed = seed_with_unit_at(1, path, 0, w * 2.0**-32)
            assert sample_paths(family, measure, 1, 2, seed)[path, 0] == want
            assert per_step_sampler(family, measure, 1, 2, seed)[path, 0] == want


def top_bytes(seed, n, count):
    """The ``(count, n)`` top 8 bits of the word of each (path, step), read straight from ``u64_at``."""
    return np.array(
        [[(u64_at(seed, p // 2 * n + k) >> (56 if p % 2 else 24)) & 0xFF for k in range(n)] for p in range(count)]
    )


@pytest.mark.parametrize("block", [None, 2, 4])
@pytest.mark.parametrize("count", [1, 2, 7, 8])
def test_paths_pair_on_the_two_words_of_one_output(count, block, monkeypatch):
    # 256 atoms of weight 2^-8 each: the atom is the top byte of the word, so the paths show which word
    # they read; path 2j reads the low word of output j*n + k and path 2j+1 its high word, an odd count
    # leaves the high words of its last outputs unread, and a block edge falls between two pairs
    n, seed = 3, 2024
    family = AmbiguityFamily.build(0, 1, [[(a, 2.0**-8) for a in range(256)]])
    measure = uniform_mixture(family, n)
    if block is not None:
        monkeypatch.setattr(measures, "_BLOCK_UNIFORMS", block * n)  # ``block`` paths per block
    paths = sample_paths(family, measure, n, count, seed)
    assert np.array_equal(paths, top_bytes(seed, n, count))
    assert np.array_equal(paths, sample_paths(family, measure, n, count + 1, seed)[:count])
    assert np.array_equal(sampler_words(seed, n, count) >> 24, top_bytes(seed, n, count))
