"""Edges of the blocked sampler's integer kernel, against the ``searchsorted`` oracle bit for bit.

The kernel compares 53-bit mantissas with integer CDF thresholds and counts
the comparisons in the smallest unsigned dtype that holds the last atom
index; these tests cover a count wider than one byte, a single atom, and
mantissas on either side of every threshold.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import per_step_sampler, reduced_sum_counts, seed_with_unit_at
from sublln import measures
from sublln.ambiguity import AmbiguityFamily
from sublln.measures import PathMeasure, sample_paths, sample_sum_counts, uniform_mixture


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
    2.0**-53,
    0.5,
    1.0 - 3 * 2.0**-53,
    1.0 - 2.0**-52,
    1.0 - 2.0**-53,
    1.0,
    1.0 + 2.0**-52,
    1.0 + 4e-13,
]


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(
        st.sampled_from(EDGE_CDF_VALUES),
        st.floats(0.0, 1.0),
        st.integers(0, 2**53).map(lambda k: k * 2.0**-53),
    )
)
def test_integer_thresholds_agree_with_float_comparison(c):
    # point masses at atoms 0 and 1 mixed as (c, 1 - c), so the first CDF value is exactly c
    # (above 1 within the mixture weight tolerance)
    family = AmbiguityFamily.build(0, 1, [[(0, 1.0)], [(1, 1.0)]])
    measure = PathMeasure.constant([c, max(0.0, 1.0 - c)], 1)
    assert np.cumsum(family.union_atoms()[2] @ measure.mixture_weights(0))[0] == c
    # every mantissa next to c * 2^53 picks the atom that ``u >= c`` picks
    edge = math.ceil(Fraction(c) * 2**53)
    for m in range(max(0, edge - 2), min(2**53, edge + 3)):
        u = m * 2.0**-53
        seed = seed_with_unit_at(0, u)
        want = 1.0 if u >= c else 0.0
        assert per_step_sampler(family, measure, 1, 1, seed)[0, 0] == want
        assert sample_paths(family, measure, 1, 1, seed)[0, 0] == want
        assert sample_sum_counts(family, measure, 1, 1, seed)[int(want)] == 1
