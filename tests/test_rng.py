import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sublln.rng import MASK64, counter_offsets, mantissas, u64_at, unit_array, unit_at


def test_reference_vector_seed_zero():
    # first outputs of the standard generator seeded with 0
    assert u64_at(0, 0) == 0xE220A8397B1DCDAF
    assert u64_at(0, 1) == 0x6E789E6AA1B965F4
    assert u64_at(0, 2) == 0x06C45D188009454F


def test_units_in_unit_interval():
    u = unit_array(123, 0, 10_000)
    assert u.min() >= 0.0
    assert u.max() < 1.0


@settings(max_examples=50, deadline=None)
@given(
    st.integers(0, MASK64),
    st.integers(0, 10_000),
    st.integers(1, 64),
)
def test_vector_matches_scalar(seed, start, count):
    vec = unit_array(seed, start, count)
    ref = np.array([unit_at(seed, start + i) for i in range(count)])
    assert np.array_equal(vec, ref)


def test_counter_based_random_access():
    seed = 2**63 + 17
    whole = unit_array(seed, 0, 100)
    tail = unit_array(seed, 60, 40)
    assert np.array_equal(whole[60:], tail)


def test_distinct_seeds_distinct_streams():
    assert not np.array_equal(unit_array(1, 0, 32), unit_array(2, 0, 32))


def test_mean_roughly_half():
    u = unit_array(7, 0, 200_000)
    assert abs(float(u.mean()) - 0.5) < 0.005


@pytest.mark.parametrize("seed", [0, MASK64])
@pytest.mark.parametrize("start", [2**64 - 40, 2**64 - 2, MASK64])
def test_vector_matches_scalar_across_the_counter_wrap(seed, start):
    # the counter wraps mod 2^64 without a numpy overflow warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vec = unit_array(seed, start, 64)
    ref = np.array([unit_at(seed, start + i) for i in range(64)])
    assert np.array_equal(vec, ref)


@pytest.mark.parametrize("seed", [0, 12345, MASK64])
def test_mantissas_reuse_one_offset_array(seed):
    # one offset array serves slices of any length at any start, across the counter wrap too
    offsets = counter_offsets(64)
    before = offsets.copy()
    for start, count in ((0, 64), (1000, 17), (2**64 - 5, 64), (MASK64, 1), (7, 0)):
        got = mantissas(seed, start, offsets, np.empty(count, dtype=np.uint64))
        assert got.tolist() == [u64_at(seed, start + i) >> 11 for i in range(count)]
    assert np.array_equal(offsets, before)


@pytest.mark.parametrize("seed", [0, 7, MASK64])
@pytest.mark.parametrize("start", [0, 5, 2**64 - 2])
def test_numpy_integers_give_the_bits_of_python_ints(seed, start):
    # seed, start and index are reduced as Python ints, so a numpy integer cannot overflow the counter
    for np_seed, np_start in ((np.uint64(seed), start), (seed, np.uint64(start)), (np.uint64(seed), np.uint64(start))):
        assert unit_array(np_seed, np_start, 4).tobytes() == unit_array(seed, start, 4).tobytes()
        assert u64_at(np_seed, np_start) == u64_at(seed, start)
        assert unit_at(np_seed, np_start) == unit_at(seed, start)
        out = np.empty(4, dtype=np.uint64)
        want = [u64_at(seed, start + i) >> 11 for i in range(4)]
        assert mantissas(np_seed, np_start, counter_offsets(4), out).tolist() == want
    if seed < 2**63 and start < 2**63:
        assert unit_array(np.int64(seed), np.int64(start), 4).tobytes() == unit_array(seed, start, 4).tobytes()
        assert u64_at(np.int64(seed), np.int64(start)) == u64_at(seed, start)
