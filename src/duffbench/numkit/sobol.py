"""One-dimensional base-2 Sobol sequence.

The first dimension of the Sobol sequence uses direction numbers
v_j = 2^(-j), which reduces to the van der Corput sequence in base 2
generated with Antonov-Saleev Gray-code ordering. The sequence starts
at 0: its first points are 0, 1/2, 3/4, 1/4, 3/8, ...
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError

_BITS = 32
_SCALE = float(1 << _BITS)


def sobol_sequence(n):
    """First n points of the dimension-1 Sobol sequence in [0, 1)."""
    if n < 1:
        raise ConfigError("need n >= 1")
    out = np.empty(n)
    x = 0
    out[0] = 0.0
    for i in range(1, n):
        # index of the lowest zero bit of i-1
        c = 0
        m = i - 1
        while m & 1:
            m >>= 1
            c += 1
        x ^= 1 << (_BITS - 1 - c)
        out[i] = x / _SCALE
    return out


def sobol_indices(n, length):
    """n distinct grid indices chosen by the Sobol sequence.

    For n a power of two and n <= length the first n points form a
    regular net, so the mapped indices are automatically distinct.
    """
    if n > length:
        raise ConfigError("cannot pick more indices than grid points")
    idx = np.unique((sobol_sequence(n) * length).astype(int))
    i = n
    while len(idx) < n:
        # ask for more points until n distinct indices accumulate
        i *= 2
        idx = np.unique((sobol_sequence(i) * length).astype(int))[:n]
    return np.sort(idx[:n])
