"""Sign-and-log scalar arithmetic for huge combinatorial products.

Transfer probabilities at particle numbers around 1e5 pair binomial
coefficients of order exp(7e4) with probability powers of order
1e-5**k.  Neither factor fits a double on its own, so every heavy
intermediate is carried as (sign, ln|value|) and only final
probabilities are exponentiated back to linear scale.  Alternating
sums are reduced by factoring out the largest magnitude and running a
Neumaier-compensated accumulation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

__all__ = [
    "CANCELLATION_EPS",
    "MAX_TABLE_N",
    "SignedLog",
    "log_factorial",
    "log_factorial_array",
    "log_binomial",
    "generalized_log_binomial",
    "signed_log_sum",
]

# Mixed-sign accumulations whose total lands below this fraction of the
# largest term collapse to the exact zero element: genuine interference
# nulls must not surface as stray values like -1e-18.
CANCELLATION_EPS = 1e-15

_TABLE_SIZE = 21  # ln(n!) from exact integer factorials through 20!
# Largest n whose ln(n!) log_factorial reads from the table (32 MiB).
MAX_TABLE_N = 1 << 22
_EXACT_COMB_LIMIT = 512  # binomials with a side this small use exact integers


@dataclass(frozen=True)
class SignedLog:
    """A real number stored as an exact sign and ln(abs(value)).

    ``sign`` is -1, 0 or +1; ``log_magnitude`` is meaningless (and
    ignored) when ``sign`` is 0.
    """

    sign: int
    log_magnitude: float = 0.0

    def __post_init__(self) -> None:
        if self.sign not in (-1, 0, 1):
            raise ValueError(f"sign must be -1, 0 or +1, got {self.sign!r}")

    @staticmethod
    def zero() -> "SignedLog":
        return _ZERO

    @staticmethod
    def one() -> "SignedLog":
        return _ONE

    @staticmethod
    def from_linear(x: float) -> "SignedLog":
        if math.isnan(x) or math.isinf(x):
            raise ValueError(f"cannot represent {x!r}")
        if x == 0.0:
            return _ZERO
        return SignedLog(1 if x > 0.0 else -1, math.log(abs(x)))

    def to_linear(self) -> float:
        if self.sign == 0:
            return 0.0
        return self.sign * math.exp(self.log_magnitude)

    def is_zero(self) -> bool:
        return self.sign == 0

    def __neg__(self) -> "SignedLog":
        return SignedLog(-self.sign, self.log_magnitude)

    def __mul__(self, other: "SignedLog") -> "SignedLog":
        if not isinstance(other, SignedLog):
            return NotImplemented
        if self.sign == 0 or other.sign == 0:
            return _ZERO
        return SignedLog(self.sign * other.sign,
                         self.log_magnitude + other.log_magnitude)

    def pow(self, k: int) -> "SignedLog":
        """Integer power, with 0**0 taken as 1."""
        if k < 0:
            raise ValueError("negative exponents are not supported")
        if k == 0:
            return _ONE
        if self.sign == 0:
            return _ZERO
        sign = -1 if (self.sign < 0 and k % 2) else 1
        return SignedLog(sign, k * self.log_magnitude)


_ZERO = SignedLog(0, 0.0)
_ONE = SignedLog(1, 0.0)

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
    """ln(n!) with relative error below 1e-13."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n < _TABLE_SIZE:
        return _LOG_FACTORIAL_TABLE[n]
    if n > MAX_TABLE_N:
        return math.lgamma(n + 1.0)
    return float(log_factorial_array(n)[n])


def log_binomial(n: int, k: int) -> SignedLog:
    """ln C(n, k) as a SignedLog; the zero element outside 0 <= k <= n.

    When a side of the coefficient is small the exact integer value is
    taken first: ln C(1e5, 3) through log-gamma differences loses the
    cancelled leading digits (only ~7e-12 relative), while the log of
    the exact integer is correctly rounded.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if k < 0 or k > n:
        return _ZERO
    if min(k, n - k) <= _EXACT_COMB_LIMIT:
        return SignedLog(1, math.log(math.comb(n, k)))
    return SignedLog(1, log_factorial(n) - log_factorial(k) - log_factorial(n - k))


def generalized_log_binomial(top: int, k: int) -> SignedLog:
    """C(top, k) for any integer top and integer k, as a SignedLog.

    Negative tops follow the reflection C(-t, k) = (-1)**k C(t+k-1, k),
    which is the value of the falling-factorial definition.
    """
    if k < 0:
        return _ZERO
    if top >= 0:
        return log_binomial(top, k)
    mag = log_binomial(-top + k - 1, k)
    if k % 2:
        return -mag
    return mag


def signed_log_sum(terms: Iterable[SignedLog]) -> SignedLog:
    """Sum SignedLog terms without leaving the representable range.

    The largest magnitude is factored out, the rescaled signed terms are
    accumulated in descending-magnitude order with Neumaier compensation,
    and totals below CANCELLATION_EPS of the largest term collapse to the
    exact zero element.
    """
    live = [t for t in terms if t.sign != 0]
    if not live:
        return _ZERO
    live.sort(key=lambda t: t.log_magnitude, reverse=True)
    lead = live[0].log_magnitude
    if lead == -math.inf:
        return _ZERO
    total = 0.0
    comp = 0.0
    for t in live:
        v = t.sign * math.exp(t.log_magnitude - lead)
        s = total + v
        if abs(total) >= abs(v):
            comp += (total - s) + v
        else:
            comp += (v - s) + total
        total = s
    total += comp
    if abs(total) < CANCELLATION_EPS:
        return _ZERO
    return SignedLog(1 if total > 0.0 else -1, lead + math.log(abs(total)))
