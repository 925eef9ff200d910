"""Deterministic counter-based uniforms (SplitMix64).

The generator is fully specified so that sample streams can be reproduced
bit-for-bit by any implementation:

    state_i = (seed + (i + 1) * 0x9E3779B97F4A7C15) mod 2^64
    z = state_i
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) mod 2^64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) mod 2^64
    out_i = z ^ (z >> 31)

Outputs are pure functions of (seed, index), so any subsequence can be
generated independently and in parallel.  The i-th uniform of
:func:`unit_at` and :func:`unit_array` is ``(out_i >> 11) * 2^-53``, with
53 bits.

The Monte Carlo sampler (``sublln.measures``) reads each output as F = 64/b
fields of b bits, b one of 8, 16 and 32: for paths of n steps, path p at
step k reads field ``p mod F``, ``(out >> (b*(p mod F))) & (2^b - 1)``, of
output ``(p div F)*n + k``.  So F consecutive paths share their outputs, and
``count`` paths draw ``ceil(count/F)*n`` outputs; a ``count`` that is not a
multiple of F leaves the high fields of its last n outputs unread.  A law
whose mixture depends only on the step reads the fewest bits of 8, 16 and
32 for which every threshold ``t_j`` below in ``(0, 2^32)`` is a multiple
of ``2^(32-b)``; a fair coin, whose one threshold is 2^31, reads bytes.
Every rule or policy reads 32-bit fields.  The field f stands for the
32-bit word ``w = f * 2^(32-b)``, the uniform ``w * 2^-32``, and all words
with the same top b bits draw the same atom, so the resolution is 2^-32
(about 2.3e-10) at every width.  Atom j is drawn with probability
``(t_j - t_{j-1}) * 2^-32``, where ``t_j = min(ceil(c_j * 2^32), 2^32)`` is
the threshold of its upper CDF value c_j (``t_{-1} = 0``, and the last
atom's is 2^32): each weight is rounded at its CDF ends to a multiple of
2^-32.  So an atom of weight below 2^-32 is drawn with probability 0 or
2^-32; a first atom of weight in ``(0, 2^-32]``, for one, is drawn exactly
when the word is 0.

There is one vector implementation, :func:`outputs`.  Since
``state_{start+i} = ((start + 1) * GAMMA + seed) + i * GAMMA``, a caller
that draws many slices of one length builds the counter offsets
``i * GAMMA mod 2^64`` once (:func:`counter_offsets`), and each slice then
costs one scalar add before the mix.  :func:`unit_array` is that core plus
the conversion to floats.
"""

from __future__ import annotations

import operator

import numpy as np

__all__ = ["MASK64", "mix64", "u64_at", "unit_at", "counter_offsets", "outputs", "unit_array"]

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


def outputs(seed: int, start: int, offsets: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Fill the uint64 array ``out`` with ``u64_at(seed, start + i)`` and return it.

    ``offsets`` holds :func:`counter_offsets` of at least ``len(out)``, and
    ``scratch`` is a uint64 array of at least ``len(out)`` that the mix
    overwrites; a caller that draws many slices allocates both once.  Works
    in place on ``out``; uint64 array arithmetic wraps mod 2^64 as the
    definition requires, and the scalar seed and start are reduced as
    ``operator.index`` ints, so no counter overflows.
    """
    base = (operator.index(start) + 1) * _GAMMA + operator.index(seed)
    np.add(offsets[: out.size], np.uint64(base & MASK64), out=out)
    t = scratch[: out.size]
    for shift, mult in ((30, _MULT1), (27, _MULT2)):
        np.right_shift(out, np.uint64(shift), out=t)
        out ^= t
        out *= np.uint64(mult)
    np.right_shift(out, np.uint64(31), out=t)
    out ^= t
    return out


def unit_array(seed: int, start: int, count: int) -> np.ndarray:
    """Vectorized ``[unit_at(seed, start + i) for i in range(count)]``."""
    z = counter_offsets(count)
    outputs(seed, start, z, z, np.empty_like(z))
    z >>= np.uint64(11)
    return z.view(np.int64) * 2.0**-53
