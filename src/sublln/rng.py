"""Deterministic counter-based uniforms (SplitMix64).

The generator is fully specified so that sample streams can be reproduced
bit-for-bit by any implementation:

    state_i = (seed + (i + 1) * 0x9E3779B97F4A7C15) mod 2^64
    z = state_i
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) mod 2^64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) mod 2^64
    out_i = z ^ (z >> 31)

and the i-th uniform in [0, 1) is ``(out_i >> 11) * 2^-53``.  Outputs are
pure functions of (seed, index), so any subsequence can be generated
independently and in parallel.

There is one vector implementation, :func:`mantissas`.  Since
``state_{start+i} = ((start + 1) * GAMMA + seed) + i * GAMMA``, a caller
that draws many slices of one length builds the counter offsets
``i * GAMMA mod 2^64`` once (:func:`counter_offsets`), and each slice then
costs one scalar add before the mix.  :func:`unit_array` is that core plus
the conversion to floats.
"""

from __future__ import annotations

import operator

import numpy as np

__all__ = ["MASK64", "mix64", "u64_at", "unit_at", "counter_offsets", "mantissas", "unit_array"]

MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MULT1 = 0xBF58476D1CE4E5B9
_MULT2 = 0x94D049BB133111EB


def mix64(z: int) -> int:
    z &= MASK64
    z = ((z ^ (z >> 30)) * _MULT1) & MASK64
    z = ((z ^ (z >> 27)) * _MULT2) & MASK64
    return z ^ (z >> 31)


def u64_at(seed: int, index: int) -> int:
    """The index-th raw 64-bit output of the stream for this seed."""
    return mix64((operator.index(seed) + (operator.index(index) + 1) * _GAMMA) & MASK64)


def unit_at(seed: int, index: int) -> float:
    """The index-th uniform in [0, 1)."""
    return (u64_at(seed, index) >> 11) * 2.0**-53


def counter_offsets(count: int) -> np.ndarray:
    """The counter offsets ``i * GAMMA mod 2^64`` for i < count, as uint64."""
    z = np.arange(count, dtype=np.uint64)
    z *= np.uint64(_GAMMA)
    return z


def mantissas(seed: int, start: int, offsets: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Fill the uint64 array ``out`` with ``u64_at(seed, start + i) >> 11`` and return it.

    ``offsets`` holds :func:`counter_offsets` of at least ``len(out)``.  The
    mantissas are below 2^53, so ``out.view(np.int64)`` holds the same
    integers.  Works in place on ``out`` plus one scratch buffer; uint64
    array arithmetic wraps mod 2^64 as the definition requires, and the
    scalar seed and start are reduced as ``operator.index`` ints, so no counter overflows.
    """
    base = (operator.index(start) + 1) * _GAMMA + operator.index(seed)
    np.add(offsets[: out.size], np.uint64(base & MASK64), out=out)
    t = np.empty_like(out)
    for shift, mult in ((30, _MULT1), (27, _MULT2)):
        np.right_shift(out, np.uint64(shift), out=t)
        out ^= t
        out *= np.uint64(mult)
    np.right_shift(out, np.uint64(31), out=t)
    out ^= t
    out >>= np.uint64(11)
    return out


def unit_array(seed: int, start: int, count: int) -> np.ndarray:
    """Vectorized ``[unit_at(seed, start + i) for i in range(count)]``."""
    z = counter_offsets(count)
    return mantissas(seed, start, z, z).view(np.int64) * 2.0**-53
