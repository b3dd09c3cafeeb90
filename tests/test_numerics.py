import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bosecount.numerics import log_factorial, log_factorial_array
from bosecount.oracles import (
    CANCELLATION_EPS,
    SignedLog,
    generalized_log_binomial,
    log_binomial,
    signed_log_sum,
)


def exact_general_binomial(top: int, k: int) -> Fraction:
    """Falling-factorial binomial in exact rationals (independent oracle)."""
    if k < 0:
        return Fraction(0)
    num = Fraction(1)
    for j in range(k):
        num *= Fraction(top - j)
    return num / math.factorial(k)


class TestSignedLog:
    def test_zero_round_trip(self):
        z = SignedLog.from_linear(0.0)
        assert z.sign == 0
        assert z.to_linear() == 0.0
        assert z.is_zero()

    def test_rejects_bad_sign(self):
        with pytest.raises(ValueError):
            SignedLog(2, 0.0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            SignedLog.from_linear(math.inf)
        with pytest.raises(ValueError):
            SignedLog.from_linear(math.nan)

    @given(st.floats(min_value=1e-300, max_value=1e300))
    def test_round_trip_positive(self, x):
        back = SignedLog.from_linear(x).to_linear()
        assert back == pytest.approx(x, rel=1e-12)

    @given(st.floats(min_value=1e-300, max_value=1e300))
    def test_round_trip_negative(self, x):
        back = SignedLog.from_linear(-x).to_linear()
        assert back == pytest.approx(-x, rel=1e-12)

    def test_multiplication_signs(self):
        a = SignedLog.from_linear(-2.0)
        b = SignedLog.from_linear(3.0)
        assert (a * b).to_linear() == pytest.approx(-6.0, rel=1e-14)
        assert (a * a).to_linear() == pytest.approx(4.0, rel=1e-14)
        assert (a * SignedLog.zero()).is_zero()

    def test_pow_conventions(self):
        assert SignedLog.zero().pow(0).to_linear() == 1.0
        assert SignedLog.zero().pow(3).is_zero()
        assert SignedLog.from_linear(-2.0).pow(3).to_linear() == pytest.approx(-8.0, rel=1e-14)
        with pytest.raises(ValueError):
            SignedLog.one().pow(-1)


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


class TestLogBinomial:
    def test_small(self):
        assert log_binomial(4, 2).sign == 1
        assert log_binomial(4, 2).log_magnitude == pytest.approx(math.log(6), rel=1e-15)

    def test_out_of_range_is_zero(self):
        assert log_binomial(10, 11).is_zero()
        assert log_binomial(10, -1).is_zero()

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            log_binomial(-2, 1)

    def test_large_against_big_integer(self):
        # C(100000, 3) = 166661666700000 exactly.
        exact = math.comb(100000, 3)
        assert exact == 166661666700000
        got = log_binomial(100000, 3).log_magnitude
        assert got == pytest.approx(math.log(exact), rel=1e-12)

    @given(st.integers(min_value=0, max_value=400), st.integers(min_value=-2, max_value=402))
    def test_matches_exact_integer(self, n, k):
        got = log_binomial(n, k)
        exact = math.comb(n, k) if 0 <= k <= n else 0
        if exact == 0:
            assert got.is_zero()
        else:
            assert got.log_magnitude == pytest.approx(math.log(exact), rel=1e-13)

    def test_mid_binomial_beyond_exact_path(self):
        n, k = 100000, 50000
        got = log_binomial(n, k).log_magnitude
        with mpmath.workdps(40):
            reference = float(mpmath.log(mpmath.binomial(n, k)))
        assert got == pytest.approx(reference, rel=1e-12)


class TestGeneralizedLogBinomial:
    def test_negative_top_values(self):
        assert generalized_log_binomial(-3, 2).to_linear() == pytest.approx(6.0, rel=1e-13)
        assert generalized_log_binomial(-3, 3).to_linear() == pytest.approx(-10.0, rel=1e-13)
        assert generalized_log_binomial(-1, 0).to_linear() == 1.0
        assert generalized_log_binomial(5, 7).is_zero()
        assert generalized_log_binomial(-5, -1).is_zero()

    @given(st.integers(min_value=-60, max_value=60), st.integers(min_value=0, max_value=40))
    def test_matches_exact_rational(self, top, k):
        exact = exact_general_binomial(top, k)
        got = generalized_log_binomial(top, k)
        if exact == 0:
            assert got.is_zero()
        else:
            assert got.to_linear() == pytest.approx(float(exact), rel=1e-12)


class TestSignedLogSum:
    def test_exact_cancellation(self):
        terms = [SignedLog(1, 1.0), SignedLog(-1, 1.0)]
        assert signed_log_sum(terms).is_zero()

    def test_two_units(self):
        got = signed_log_sum([SignedLog(1, 0.0), SignedLog(1, 0.0)])
        assert got.sign == 1
        assert got.log_magnitude == pytest.approx(math.log(2), rel=1e-15)

    def test_empty_and_all_zero(self):
        assert signed_log_sum([]).is_zero()
        assert signed_log_sum([SignedLog.zero()] * 3).is_zero()

    def test_single_element_identity(self):
        t = SignedLog(-1, 123.456)
        got = signed_log_sum([t])
        assert got.sign == t.sign
        assert got.log_magnitude == t.log_magnitude

    def test_near_cancellation_threshold(self):
        # Positive and negative parts differ by ~1e-16 of the magnitude.
        terms = [SignedLog(1, 0.0), SignedLog(-1, 1e-16)]
        assert signed_log_sum(terms).is_zero()

    def test_alternating_series_for_exp_minus_three(self):
        # 1001 leading terms of sum (-3)**k / k!; the truncated tail is
        # far below double precision, so the sum must hit exp(-3).
        terms = [SignedLog(-1 if k % 2 else 1, k * math.log(3) - log_factorial(k))
                 for k in range(1001)]
        got = signed_log_sum(terms)
        with mpmath.workdps(50):
            reference = float(mpmath.fsum(
                (-3) ** k / mpmath.factorial(k) for k in range(1001)))
        assert got.sign == 1
        assert got.to_linear() == pytest.approx(reference, rel=1e-12)
        assert got.to_linear() == pytest.approx(math.exp(-3), rel=1e-12)

    @given(st.lists(st.floats(min_value=-50.0, max_value=50.0),
                    min_size=1, max_size=40),
           st.lists(st.sampled_from([-1, 1]), min_size=40, max_size=40),
           st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=200)
    def test_permutation_invariance(self, logs, signs, seed):
        terms = [SignedLog(s, lg) for lg, s in zip(logs, signs)]
        shuffled = list(terms)
        random.Random(seed).shuffle(shuffled)
        a = signed_log_sum(terms)
        b = signed_log_sum(shuffled)
        assert a.sign == b.sign
        if a.sign != 0:
            assert a.log_magnitude == pytest.approx(b.log_magnitude, abs=1e-13)

    @given(st.lists(st.floats(min_value=-30.0, max_value=30.0),
                    min_size=1, max_size=20),
           st.floats(min_value=-20.0, max_value=20.0).filter(lambda x: abs(x) > 1e-6))
    @settings(max_examples=200)
    def test_product_distributes(self, logs, factor):
        terms = [SignedLog(1 if i % 3 else -1, lg) for i, lg in enumerate(logs)]
        c = SignedLog.from_linear(factor)
        lhs = c * signed_log_sum(terms)
        rhs = signed_log_sum([c * t for t in terms])
        assert lhs.sign == rhs.sign
        if lhs.sign != 0:
            assert lhs.to_linear() == pytest.approx(rhs.to_linear(), rel=1e-12)

    def test_null_within_log_rounding_collapses(self):
        # ln magnitudes one ulp apart near 30 leave a stray 3.6e-15 of the
        # lead; scaled by 8 the same two terms round to equal logs.
        terms = [SignedLog(-1, 30.0), SignedLog(1, math.nextafter(30.0, 0.0))]
        c = SignedLog.from_linear(8.0)
        assert signed_log_sum(terms).is_zero()
        assert signed_log_sum([c * t for t in terms]).is_zero()

    def test_cancellation_threshold_constant(self):
        assert CANCELLATION_EPS == 1e-15
