"""The sampler's hash one point at a time, in Python ints, kept as a test oracle.

``point_uniform(seed, x, y)`` is the uniform in [0, 1) that
``no3l.sampling.sample_window`` compares with a shell's probability: two
rounds of the splitmix64 finalizer ``mix64`` over coordinate-salted
inputs, the top 53 bits scaled by 2**-53.  The tests check the vectorized
sampler against a scan of the window with it, bit for bit.
"""

from __future__ import annotations

from no3l.sampling import _MIX_MUL1, _MIX_MUL2, _X_SALT, _Y_SALT

MASK64 = (1 << 64) - 1


def mix64(z: int) -> int:
    """The splitmix64 finalizer on a 64-bit word."""
    z = ((z ^ (z >> 30)) * _MIX_MUL1) & MASK64
    z = ((z ^ (z >> 27)) * _MIX_MUL2) & MASK64
    return z ^ (z >> 31)


def point_uniform(seed: int, x: int, y: int) -> float:
    """The uniform in [0, 1) attached to (x, y) under this seed."""
    h = mix64(seed ^ ((x * _X_SALT) & MASK64))
    h = mix64(h ^ ((y * _Y_SALT) & MASK64))
    return (h >> 11) * 2.0**-53
