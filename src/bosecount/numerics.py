"""Log-factorials for the combinatorial prefactors.

Transfer probabilities at particle numbers around 1e5 pair binomial
coefficients of order exp(7e4) with probability powers of order
1e-5**k.  Neither factor fits a double on its own, so the kernels work
with ln k! and exponentiate only final probabilities.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["MAX_TABLE_N", "log_factorial", "log_factorial_array"]

_TABLE_SIZE = 21  # ln(n!) from exact integer factorials through 20!
# Largest particle number the specs accept; the ln k! table at this
# size takes 32 MiB.
MAX_TABLE_N = 1 << 22

_LOG_FACTORIAL_TABLE = tuple(math.log(math.factorial(k)) for k in range(_TABLE_SIZE))

_lf_cache = np.array(_LOG_FACTORIAL_TABLE, dtype=np.float64)
_lf_cache.setflags(write=False)


def log_factorial_array(n_max: int) -> np.ndarray:
    """Read-only array of ln(k!) for k = 0..n_max.

    Entries through 20! come from exact integer factorials, the rest
    from ``math.lgamma`` (within 2 ulp of the correctly rounded value
    over the cached range).  The backing cache grows monotonically, so
    repeated calls share one array.
    """
    global _lf_cache
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    if n_max >= _lf_cache.size:
        grown = np.empty(n_max + 1, dtype=np.float64)
        grown[: _lf_cache.size] = _lf_cache
        grown[_lf_cache.size:] = np.fromiter(
            map(math.lgamma, range(_lf_cache.size + 1, n_max + 2)),
            dtype=np.float64, count=n_max + 1 - _lf_cache.size)
        grown.setflags(write=False)
        _lf_cache = grown
    return _lf_cache[: n_max + 1]


def log_factorial(n: int) -> float:
    """ln(n!), bitwise equal to log_factorial_array(n)[n]."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n < _TABLE_SIZE:
        return _LOG_FACTORIAL_TABLE[n]
    return math.lgamma(n + 1.0)
