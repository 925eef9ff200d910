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
"""

from __future__ import annotations

import numpy as np

__all__ = ["MASK64", "mix64", "u64_at", "unit_at", "unit_array"]

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
    return mix64((seed + (index + 1) * _GAMMA) & MASK64)


def unit_at(seed: int, index: int) -> float:
    """The index-th uniform in [0, 1)."""
    return (u64_at(seed, index) >> 11) * 2.0**-53


def unit_array(seed: int, start: int, count: int) -> np.ndarray:
    """Vectorized ``[unit_at(seed, start + i) for i in range(count)]``.

    Works in place on one uint64 buffer plus one scratch buffer; uint64
    array arithmetic wraps mod 2^64 as the definition requires.
    """
    z = np.arange(count, dtype=np.uint64)
    z += np.uint64((start + 1) & MASK64)
    z *= np.uint64(_GAMMA)
    z += np.uint64(seed & MASK64)
    t = np.empty_like(z)
    for shift, mult in ((30, _MULT1), (27, _MULT2)):
        np.right_shift(z, np.uint64(shift), out=t)
        z ^= t
        z *= np.uint64(mult)
    np.right_shift(z, np.uint64(31), out=t)
    z ^= t
    z >>= np.uint64(11)
    out = t.view(np.float64)
    np.copyto(out, z, casting="unsafe")
    out *= 2.0**-53
    return out
