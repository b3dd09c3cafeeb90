import math

import mpmath
import pytest

from bosecount.numerics import log_factorial, log_factorial_array


class TestLogFactorial:
    def test_zero(self):
        assert log_factorial(0) == 0.0

    def test_five(self):
        assert log_factorial(5) == pytest.approx(math.log(120), rel=1e-15)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            log_factorial(-1)

    def test_large_against_extended_precision_sum(self):
        # Independent oracle: accumulate ln k at 30 significant digits.
        with mpmath.workdps(30):
            reference = mpmath.fsum(mpmath.log(k) for k in range(1, 100001))
        assert log_factorial(100000) == pytest.approx(float(reference), rel=1e-12)

    def test_array_matches_scalar(self):
        arr = log_factorial_array(5000)
        for n in (0, 1, 7, 20, 21, 500, 5000):
            assert arr[n] == log_factorial(n)

    def test_array_is_read_only(self):
        arr = log_factorial_array(10)
        with pytest.raises(ValueError):
            arr[0] = 1.0

    def test_beyond_cache_limit_uses_lgamma(self):
        n = (1 << 22) + 5
        assert log_factorial(n) == pytest.approx(math.lgamma(n + 1.0), rel=1e-15)
