"""Edges of the blocked sampler's integer kernel, against the ``searchsorted`` oracle bit for bit.

The kernel compares b-bit fields f (8, 16 or 32 bits, the uniform
``f * 2^-b``) with the integer CDF thresholds ``ceil(c * 2^32) >> (32 - b)``
and counts the comparisons in the smallest unsigned dtype that holds the
last atom index; these tests cover a count wider than one byte, a single
atom, fields on either side of every threshold, the width each law selects,
and which field of which output each path reads.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _oracles import field_bits, per_step_sampler, reduced_sum_counts, sampler_words, seed_with_unit_at
from sublln import measures
from sublln.ambiguity import AmbiguityFamily
from sublln.measures import PathMeasure, sample_paths, sample_sum_counts, uniform_mixture
from sublln.rng import outputs, u64_at


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
    # every field next to c * 2^b, read as the first field (path 0) or the second (path 1) of an output,
    # picks the atom that ``u >= c`` picks; a threshold on a multiple of 2^-8 or 2^-16 reads 8 or 16 bits
    bits = field_bits(family, measure, 1)
    edge = math.ceil(Fraction(c) * 2**bits)
    for w in range(max(0, edge - 2), min(2**bits, edge + 3)):
        u = w * 2.0**-bits
        want = 1.0 if u >= c else 0.0
        for path in (0, 1):
            seed = seed_with_unit_at(1, path, 0, u, bits=bits)
            assert per_step_sampler(family, measure, 1, 2, seed)[path, 0] == want
            assert sample_paths(family, measure, 1, 2, seed)[path, 0] == want
        assert sample_sum_counts(family, measure, 1, 1, seed_with_unit_at(1, 0, 0, u, bits=bits))[int(want)] == 1


@pytest.mark.parametrize("rule", [False, True], ids=["constant", "sum-rule"])
@pytest.mark.parametrize(
    "c, edge, tie", [(0.5, 2**31, True), (2.0**-32 + 2.0**-60, 2, False), (1.0 - 3 * 2.0**-32, 2**32 - 3, True)]
)
def test_words_on_either_side_of_a_threshold(c, edge, tie, rule):
    # the word ceil(c * 2^32) is the first that draws the second atom; a CDF value on a multiple of
    # 2^-32 ties with that word (u == c), which draws it too.  The constant law of c = 1/2 reads 8-bit
    # fields, whose edge is 128, and the others 32-bit words.  Path 1 reads the second field w of an
    # output and its neighbour, path 0, the first, set here to the complement of w.
    family, measure = two_point_masses(c, rule)
    assert math.ceil(Fraction(c) * 2**32) == edge
    assert (edge * 2.0**-32 == c) is tie
    bits = field_bits(family, measure, 1)
    assert bits == (8 if (c, rule) == (0.5, False) else 32)
    edge >>= 32 - bits
    for w in (edge - 1, edge, edge + 1):
        other = w ^ ((1 << bits) - 1)
        seed = seed_with_unit_at(1, 1, 0, w * 2.0**-bits, other=other, bits=bits)
        paths = sample_paths(family, measure, 1, 2, seed)
        assert paths[:, 0].tolist() == [float(other >= edge), float(w >= edge)]
        assert np.array_equal(paths, per_step_sampler(family, measure, 1, 2, seed))


def test_cdf_value_one_never_fires():
    # c = 1 has the threshold 2^32, past every word: at the step where the CDF reaches 1 at the first atom,
    # the largest word still draws it, while the boundary is kept for the step where it can fire.  That
    # step's threshold is 2^31, so the law reads 8-bit fields and compares them with 256, then 128
    family = AmbiguityFamily.build(0, 1, [[(0, 1.0)], [(1, 1.0)]])
    measure = PathMeasure(2, 2, lambda step: np.array([1.0 - 0.5 * step, 0.5 * step]), "none", "c=1, then 1/2")
    bits = field_bits(family, measure, 2)
    assert bits == 8
    top = 1.0 - 2.0**-bits
    for path in (0, 1):
        seed = seed_with_unit_at(2, path, 0, top, bits=bits)
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


def top_bytes(seed, n, count, bits):
    """The ``(count, n)`` top 8 bits of the b-bit field of each (path, step), read straight from ``u64_at``."""
    per_output = 64 // bits
    return np.array(
        [
            [(u64_at(seed, p // per_output * n + k) >> (bits * (p % per_output) + bits - 8)) & 0xFF for k in range(n)]
            for p in range(count)
        ]
    )


# 256 atoms of weight 2^-8 each, whose thresholds are multiples of 2^24, and the same atoms with 2^-32 moved
# from the second to the first, whose first threshold 2^24 + 1 is not: they read 8- and 32-bit fields
BYTE_ATOMS = [[(a, 2.0**-8) for a in range(256)]]
WORD_ATOMS = [[(0, 2.0**-8 + 2.0**-32), (1, 2.0**-8 - 2.0**-32)] + [(a, 2.0**-8) for a in range(2, 256)]]


@pytest.mark.parametrize("block", [None, 2, 4])
@pytest.mark.parametrize("count", [1, 2, 7, 8])
def test_paths_pair_on_the_two_words_of_one_output(count, block, monkeypatch):
    # the atom is the top byte of the field (but for the 32-bit word 2^24, which draws atom 0 under the
    # second law), so the paths show which field they read: path p reads field p mod F of output
    # (p div F)*n + k, F = 8 or 2 paths to an output, a count short of a multiple of F leaves the high
    # fields of its last outputs unread, and every block of eight paths starts a new output
    n, seed = 3, 2024
    if block is not None:
        monkeypatch.setattr(measures, "_BLOCK_UNIFORMS", block * n)  # eight paths per block, the fewest
    for members, bits in ((BYTE_ATOMS, 8), (WORD_ATOMS, 32)):
        family = AmbiguityFamily.build(0, 1, members)
        measure = uniform_mixture(family, n)
        assert field_bits(family, measure, n) == bits
        paths = sample_paths(family, measure, n, count, seed)
        assert np.array_equal(paths, top_bytes(seed, n, count, bits))
        assert np.array_equal(paths, sample_paths(family, measure, n, count + 1, seed)[:count])
        assert np.array_equal(sampler_words(seed, n, count, bits) >> (bits - 8), top_bytes(seed, n, count, bits))
        more = count + 16  # across two more block edges when a block holds eight paths
        assert np.array_equal(sample_paths(family, measure, n, more, seed), top_bytes(seed, n, more, bits))


def point_mass_law(weights):
    """Point masses at 0, 1, ... mixed by a constant measure with these weights."""
    return AmbiguityFamily.build(0, 1, [[(a, 1.0)] for a in range(len(weights))]), PathMeasure.constant(weights, 1)


@st.composite
def constant_laws(draw):
    """``point_mass_law`` with CDF values on multiples of 2^-k (k <= 32), or not."""
    m = draw(st.integers(2, 6))
    if draw(st.booleans()):
        k = draw(st.one_of(st.sampled_from([8, 9, 16, 17]), st.integers(0, 32)))  # k next to a width, often
        cuts = sorted(draw(st.lists(st.integers(0, 2**k), min_size=m - 1, max_size=m - 1)))
        return point_mass_law([(b - a) * 2.0**-k for a, b in zip([0, *cuts], [*cuts, 2**k])])
    raw = draw(st.lists(st.integers(1, 1000), min_size=m, max_size=m))
    return point_mass_law([w / sum(raw) for w in raw])


@settings(max_examples=100, deadline=None)
@given(constant_laws(), st.integers(0, 2**64 - 1))
@example(point_mass_law([3 * 2.0**-9, 1 - 3 * 2.0**-9]), 1)  # 16 bits, one short of 8
@example(point_mass_law([3 * 2.0**-17, 1 - 3 * 2.0**-17]), 1)  # 32 bits, one short of 16
def test_field_width_is_the_fewest_bits_that_hold_every_threshold(law, seed):
    family, measure = law
    cum = np.cumsum(family.union_atoms()[2] @ measure.mixture_weights(0))[:-1]
    live = [t for t in (math.ceil(Fraction(c) * 2**32) for c in cum.tolist()) if 0 < t < 2**32]
    bits = next(b for b in (8, 16, 32) if all(t % 2 ** (32 - b) == 0 for t in live))
    # eight one-step paths draw 8 / F = b / 8 outputs, F = 64 / b paths to an output, or none with no threshold left
    draws = []

    def counting(seed, start, offsets, out, scratch):
        draws.append(out.size)
        return outputs(seed, start, offsets, out, scratch)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(measures, "outputs", counting)
        sample_paths(family, measure, 1, 8, seed)
    assert sum(draws) == (bits // 8 if live else 0)
    assert field_bits(family, measure, 1) == bits
    if bits <= 16:
        # every field f draws the atom of the 32-bit words f * 2^(32-b) and f * 2^(32-b) + 2^(32-b) - 1
        fields = np.arange(2**bits, dtype=np.int64)
        want = np.searchsorted(cum, fields * 2.0**-bits, side="right")
        for words in (fields << (32 - bits), (fields + 1 << (32 - bits)) - 1):
            assert np.array_equal(np.searchsorted(cum, words * 2.0**-32, side="right"), want)
    count = 8 * 256  # 256 outputs of 8-bit fields
    want = per_step_sampler(family, measure, 1, count, seed, bits)
    assert np.array_equal(sample_paths(family, measure, 1, count, seed), want)
