import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import eval_genlaguerre

from bosecount.distributions import (
    OccupancyDistribution,
    RareEventSpec,
    TransferSpec,
    bose_exact,
    bose_rare_limit,
    classical_exact,
    classical_rare_limit,
    recapture_probability,
    transfer_probabilities,
)
from bosecount.distributions import (
    _SWEEP_MIN_COUNT,
    _WINDOW_PAD,
    _WINDOW_SDS,
    _bose_log_range,
    _bose_window,
    _rare_limit_tail_bound,
    _sweep_row,
)
from bosecount.numerics import log_factorial_array
from bosecount.oracles import exact_bose_limit_row, exact_bose_row, exact_classical_row

P_GRID = (0.1, 0.3, 0.5, 0.7, 0.9)


def exact_general_binomial(top: int, k: int) -> Fraction:
    if k < 0:
        return Fraction(0)
    num = Fraction(1)
    for j in range(k):
        num *= Fraction(top - j)
    return num / math.factorial(k)


def jacobi_exact(degree: int, a: int, b: int, x: Fraction) -> Fraction:
    """Terminating hypergeometric sum in exact rationals."""
    total = Fraction(0)
    for s in range(degree + 1):
        total += (exact_general_binomial(degree + a, degree - s)
                  * exact_general_binomial(degree + b, s)
                  * ((x - 1) / 2) ** s * ((x + 1) / 2) ** (degree - s))
    return total


def jacobi_hypergeometric(degree: int, a: int, b: int, x: Fraction) -> Fraction:
    """The same polynomial from its expansion about x = 1, sum over k of
    C(degree+a, degree-k) C(degree+a+b+k, k) ((x-1)/2)**k (independent of
    jacobi_exact; both are polynomial identities in a and b)."""
    return sum((exact_general_binomial(degree + a, degree - k)
                * exact_general_binomial(degree + a + b + k, k) * ((x - 1) / 2) ** k
                for k in range(degree + 1)), Fraction(0))


def jacobi_closed_form(spec: TransferSpec, m_prime: int) -> float:
    """P(m'|m) = m!(n-m)!/(m'!(n-m')!) p**(m'-m) (1-p)**(n-m'-m) J**2 with
    J = P_m^(n-m'-m, m'-m)(2p-1), correctly rounded, for 0 < p < 1.

    With p = num/den and rest = den - num, den**m J is the integer sum over
    s of C(n-m', m-s) C(m', s) (-rest)**s num**(m-s) (jacobi_exact at
    x = 2p - 1, whose binomial tops m + a = n - m' and m + b = m' are never
    negative); the den powers of the prefactor and J**2 total den**n.
    """
    n, m = spec.n, spec.m
    num, den = spec.p.as_integer_ratio()
    rest = den - num
    jac = sum(math.comb(n - m_prime, m - s) * math.comb(m_prime, s)
              * (-rest) ** s * num ** (m - s) for s in range(m + 1))
    q, a = m_prime - m, n - m_prime - m
    top = (math.factorial(m) * math.factorial(n - m) * jac * jac
           * num ** max(q, 0) * rest ** max(a, 0))
    bottom = (math.factorial(m_prime) * math.factorial(n - m_prime) * den ** n
              * num ** max(-q, 0) * rest ** max(-a, 0))
    return top / bottom


def limit_entry_mp(w: float, m: int, m_prime: int):
    """Bosonic limit entry w**(h-l) exp(-w) l!/h! L_l^(h-l)(w)**2, l and h
    the smaller and larger of (m, m_prime), with mpmath's Laguerre
    polynomial (which raises its working precision past the cancellation;
    a sum below 2**-300 of its largest term is an exact node, taken as 0)."""
    low, high = min(m, m_prime), max(m, m_prime)
    with mpmath.workdps(30):
        ww = mpmath.mpf(w)
        lag = mpmath.laguerre(low, high - low, ww, zeroprec=300)
        return +(ww ** (high - low) * mpmath.exp(-ww) * lag ** 2
                 * mpmath.factorial(low) / mpmath.factorial(high))


def laguerre_exact(degree: int, a: int, x: Fraction) -> Fraction:
    return sum(Fraction((-1) ** k * math.comb(degree + a, degree - k),
                        math.factorial(k)) * x ** k
               for k in range(degree + 1))


def chernoff_every_term(w: float, m: int, m_prime_max: int) -> float:
    """The Chernoff tail bound of bose_rare_limit summing all m + 1 terms of
    L_m(-x) at every z, in blocks of 2**21 terms."""
    hi = min(700.0, 1.0 + math.log1p((m_prime_max + 1) / w))
    log_z = np.geomspace(1e-3, hi, 64)
    z_minus_1 = np.expm1(log_z)
    log_x = math.log(w) + 2.0 * np.log(z_minus_1) - log_z
    lf = log_factorial_array(m)
    k = np.arange(m + 1)
    log_coef = (lf[m] - lf[m - k] - 2.0 * lf[k])[:, None]
    log_lag = np.empty(64)
    step = max(1, (1 << 21) // (m + 1))
    for lo in range(0, 64, step):
        terms = log_coef + k[:, None] * log_x[lo: lo + step]
        top = terms.max(axis=0)
        log_lag[lo: lo + step] = top + np.log(np.exp(terms - top).sum(axis=0))
    log_bound = (m - m_prime_max - 1) * log_z + w * z_minus_1 + log_lag
    return min(1.0, math.exp(float(log_bound.min())))


def pathway_entry_mp(n: int, m: int, p: float, m_prime: int, bose: bool):
    """P(m_prime | m) from the literal pathway sum in mpmath, raising the
    working precision until two evaluations agree to 1e-20 (the bosonic
    sum cancels by up to n*log10(sqrt(p) + sqrt(1-p)) digits)."""
    q = m_prime - m
    lo, hi = max(0, -q), min(m, n - m - q)

    def at(dps):
        with mpmath.workdps(dps):
            pp = mpmath.mpf(p)
            half = mpmath.sqrt(pp) if bose else pp
            rest = mpmath.sqrt(1 - pp) if bose else 1 - pp
            term = (mpmath.binomial(m, lo) * mpmath.binomial(n - m, q + lo)
                    * half ** (q + 2 * lo) * rest ** (n - q - 2 * lo))
            ratio = (-1 if bose else 1) * (half / rest) ** 2
            total = term
            for mu in range(lo, hi):
                term *= ratio * ((m - mu) * (n - m - q - mu)) / ((mu + 1) * (q + mu + 1))
                total += term
            if bose:
                total = total ** 2 * mpmath.binomial(n, m) / mpmath.binomial(n, m_prime)
            return +total

    dps = 40 + int(n * math.log10(math.sqrt(p) + math.sqrt(1 - p))) if bose else 40
    prev = at(dps)
    while True:
        dps += 40
        value = at(dps)
        if abs(value - prev) <= abs(value) * mpmath.mpf(10) ** -20:
            return value
        prev = value


def envelope(probs: np.ndarray) -> np.ndarray:
    """Per entry the larger of P(k) and sqrt(P(k-1) P(k+1)): the entry on a
    smooth stretch, the local amplitude scale at an interference dip."""
    padded = np.concatenate(([0.0], probs, [0.0]))
    return np.maximum(probs, np.sqrt(padded[:-2] * padded[2:]))


class TestSpecs:
    def test_transfer_spec_validation(self):
        with pytest.raises(ValueError):
            TransferSpec(0, 0, 0.5)
        with pytest.raises(ValueError):
            TransferSpec(5, 6, 0.5)
        with pytest.raises(ValueError):
            TransferSpec(5, -1, 0.5)
        with pytest.raises(ValueError):
            TransferSpec(5, 2, 1.5)

    def test_rare_event_spec_validation(self):
        with pytest.raises(ValueError):
            RareEventSpec(-0.1, 0)
        with pytest.raises(ValueError):
            RareEventSpec(1.0, -1)

    @pytest.mark.parametrize("make", [
        lambda: TransferSpec(10.5, 3, 0.1),
        lambda: TransferSpec(10, True, 0.1),
        lambda: TransferSpec(True, 0, 0.1),
        lambda: TransferSpec(10, 3.0, 0.1),
        lambda: RareEventSpec(3.0, 2.5),
        lambda: RareEventSpec(3.0, False),
        lambda: OccupancyDistribution("oracle", 0, [math.nan, 0.5]),
        lambda: TransferSpec(2 ** 22 + 1, 0, 0.1),
        lambda: RareEventSpec(3.0, 2 ** 22 + 1),
        lambda: RareEventSpec(2 ** 22 + 1.0, 0),
        lambda: bose_rare_limit(RareEventSpec(3.0, 3), 2 ** 22 + 1),
        lambda: bose_rare_limit(RareEventSpec(2.0 ** 22, 2 ** 22)),
    ], ids=["n-float", "m-bool", "n-bool", "m-integral-float", "limit-m-float",
            "limit-m-bool", "nan-prob", "n-above-table", "limit-m-above-table",
            "limit-w-above-table", "limit-mmax-above-table", "limit-window-above-table"])
    def test_rejects_malformed_inputs(self, make):
        with pytest.raises(ValueError):
            make()

    def test_numpy_integers_accepted(self):
        spec = TransferSpec(np.int64(10), np.int32(3), 0.1)
        assert (spec.n, spec.m) == (10, 3) and type(spec.n) is int
        assert RareEventSpec(3.0, np.int64(2)).m == 2

    def test_distribution_support_and_lookup(self):
        d = OccupancyDistribution("oracle", 2, np.array([0.25, 0.75]))
        assert list(d.support) == [2, 3]
        assert d.probability(3) == 0.75
        assert d.probability(4) == 0.0
        assert d.total() == 1.0

    def test_distribution_rejects_bad_probs(self):
        with pytest.raises(ValueError):
            OccupancyDistribution("oracle", 0, np.array([1.5]))
        with pytest.raises(ValueError):
            OccupancyDistribution("nonsense", 0, np.array([1.0]))


class TestClassicalExact:
    def test_two_coins_balanced(self):
        # p**2 + (1-p)**2 at p = 1/2: enumeration over the 4 outcomes
        d = classical_exact(TransferSpec(2, 1, 0.5))
        assert d.probs[1] == pytest.approx(0.5, abs=1e-15)
        assert d.probs[0] == pytest.approx(0.25, abs=1e-15)

    @given(st.floats(min_value=0.01, max_value=0.99))
    def test_empty_start_is_binomial(self, p):
        d = classical_exact(TransferSpec(3, 0, p))
        for mp in range(4):
            expected = math.comb(3, mp) * p ** mp * (1 - p) ** (3 - mp)
            assert d.probs[mp] == pytest.approx(expected, rel=1e-13)

    def test_rare_regime_single_recapture_entry(self):
        # leading pathway: one of the three marked particles leaves,
        # nothing enters; cross-checked against the exact sum at 30
        # significant digits
        n, m, p = 100000, 3, 3e-5
        d = classical_exact(TransferSpec(n, m, p))
        with mpmath.workdps(30):
            exact = mpmath.fsum(
                mpmath.binomial(3, mu) * mpmath.binomial(n - 3, mu - 1)
                * mpmath.mpf(p) ** (2 * mu - 1) * (1 - mpmath.mpf(p)) ** (n + 1 - 2 * mu)
                for mu in range(1, 4))
        assert d.probs[2] == pytest.approx(float(exact), rel=1e-10)
        assert d.probs[2] == pytest.approx(4.48e-6, rel=2e-3)

    def test_normalization_grid(self):
        for n in (1, 2, 7, 40, 100):
            for m in range(0, n + 1, max(1, n // 4)):
                for p in P_GRID:
                    d = classical_exact(TransferSpec(n, m, p))
                    assert abs(d.total() - 1.0) < 1e-10

    def test_deterministic_boundaries(self):
        d0 = classical_exact(TransferSpec(6, 2, 0.0))
        assert d0.probs[2] == 1.0 and d0.total() == 1.0
        d1 = classical_exact(TransferSpec(6, 2, 1.0))
        assert d1.probs[4] == 1.0 and d1.total() == 1.0

    def test_mode_relabel_symmetry(self):
        for n, p in [(9, 0.3), (40, 0.7), (100, 0.5)]:
            for m in range(0, n + 1, 3):
                a = classical_exact(TransferSpec(n, m, p)).probs
                b = classical_exact(TransferSpec(n, n - m, p)).probs
                assert np.abs(a - b[::-1]).max() < 1e-12

    def test_reversal_asymmetry_is_real(self):
        # The classical transfer matrix is not symmetric: with one empty
        # mode there are two ways in but only one way back.
        p = 0.3
        d_up = classical_exact(TransferSpec(2, 0, p)).probs[1]
        d_down = classical_exact(TransferSpec(2, 1, p)).probs[0]
        assert d_up == pytest.approx(2 * p * (1 - p), rel=1e-13)
        assert d_down == pytest.approx(p * (1 - p), rel=1e-13)
        assert abs(d_up - d_down) > 0.1


class TestClassicalRareLimit:
    def test_no_events(self):
        d = classical_rare_limit(RareEventSpec(0.0, 2))
        assert d.start == 2
        assert d.probs[0] == 1.0

    def test_poisson_values(self):
        d = classical_rare_limit(RareEventSpec(3.0, 0))
        assert d.probs[0] == pytest.approx(math.exp(-3), rel=1e-14)
        assert d.probs[2] == pytest.approx(9 * math.exp(-3) / 2, rel=1e-14)

    def test_truncation_and_mass(self):
        d = classical_rare_limit(RareEventSpec(3.0, 5))
        assert d.start == 5
        assert d.meta["tail_bound"] < 1e-14
        assert abs(d.total() - 1.0) < 1e-13

    def test_large_w_reads_no_table(self, monkeypatch):
        # ln q! per term comes from lgamma, not from a table regrown per q
        from bosecount import numerics

        def no_table(n_max):
            raise AssertionError(f"log-factorial table of size {n_max} requested")

        monkeypatch.setattr(numerics, "log_factorial_array", no_table)
        d = classical_rare_limit(RareEventSpec(2.4e5))
        assert abs(d.total() - 1.0) < 1e-9

    def test_support_shifts_with_m_but_values_do_not(self):
        a = classical_rare_limit(RareEventSpec(2.5, 0))
        b = classical_rare_limit(RareEventSpec(2.5, 7))
        assert b.start == 7
        assert np.array_equal(a.probs, b.probs)


class TestBoseAmplitude:
    """Closed-form entries of the exact pathway-sum oracle, bit for bit:
    each entry is one correctly rounded division, as float(Fraction) is."""

    @pytest.mark.parametrize("p", P_GRID)
    def test_two_boson_same_count(self, p):
        got = exact_bose_row(TransferSpec(2, 1, p))[1]
        assert got == float((1 - 2 * Fraction(p)) ** 2)

    def test_two_boson_interference_null(self):
        assert exact_bose_row(TransferSpec(2, 1, 0.5))[1] == 0.0

    @pytest.mark.parametrize("p", P_GRID)
    def test_single_particle(self, p):
        assert exact_bose_row(TransferSpec(1, 1, p))[1] == float(1 - Fraction(p))

    @pytest.mark.parametrize("p", P_GRID)
    def test_two_boson_down_transfer(self, p):
        row = exact_bose_row(TransferSpec(2, 1, p))
        assert row[0] == row[2] == float(2 * Fraction(p) * (1 - Fraction(p)))

    def test_point_masses(self):
        assert exact_bose_row(TransferSpec(4, 1, 0.0)).tolist() == [0.0, 1.0, 0.0, 0.0, 0.0]
        assert exact_bose_row(TransferSpec(4, 1, 1.0)).tolist() == [0.0, 0.0, 0.0, 1.0, 0.0]


class TestBoseExact:
    def test_two_boson_balanced_distribution(self):
        d = bose_exact(TransferSpec(2, 1, 0.5))
        assert d.probs[0] == pytest.approx(0.5, abs=1e-14)
        assert d.probs[1] == 0.0
        assert d.probs[2] == pytest.approx(0.5, abs=1e-14)

    @pytest.mark.parametrize("p", P_GRID)
    def test_single_particle_unitarity(self, p):
        d = bose_exact(TransferSpec(1, 1, p))
        assert d.probs[0] == pytest.approx(p, rel=1e-13)
        assert d.probs[1] == pytest.approx(1 - p, rel=1e-13)

    def test_empty_mode_coincides_with_classical_bitwise(self):
        for n, p in [(1, 0.3), (7, 0.5), (300, 0.9), (10000, 0.1)]:
            b = bose_exact(TransferSpec(n, 0, p))
            c = classical_exact(TransferSpec(n, 0, p))
            assert np.array_equal(b.probs, c.probs)

    def test_full_mode_coincides_with_classical_bitwise(self):
        for n, p in [(5, 0.4), (120, 0.8)]:
            b = bose_exact(TransferSpec(n, n, p))
            c = classical_exact(TransferSpec(n, n, p))
            assert np.array_equal(b.probs, c.probs)

    def test_reversal_symmetry_exact(self):
        for n, p in [(17, 0.3), (64, 0.7), (1000, 0.5)]:
            table = [bose_exact(TransferSpec(n, m, p)).probs for m in range(0, 9)]
            for m in range(9):
                for mp in range(9):
                    assert table[m][mp] == table[mp][m]

    def test_mode_relabel_symmetry_exact(self):
        n = 500
        for p in (0.2, 0.8):
            for m in (0, 1, 5):
                a = bose_exact(TransferSpec(n, m, p)).probs
                b = bose_exact(TransferSpec(n, n - m, p)).probs
                assert np.array_equal(a, b[::-1])

    def test_normalization_grid(self):
        for n in (1, 2, 7, 40, 100):
            for m in range(0, n + 1, max(1, n // 4)):
                for p in P_GRID:
                    d = bose_exact(TransferSpec(n, m, p))
                    assert abs(d.total() - 1.0) < 1e-10

    def test_deterministic_boundaries(self):
        d = bose_exact(TransferSpec(6, 2, 0.0))
        assert d.probs[2] == 1.0
        d = bose_exact(TransferSpec(6, 2, 1.0))
        assert d.probs[4] == 1.0

    def test_matches_exact_pathway_sum(self):
        # kernel vs the exact-integer pathway sum at every N <= 30; relative
        # with a 4e-14 absolute floor for interference-cancelled entries
        for n in (1, 2, 3, 5, 8, 13, 21, 30):
            for m in range(n + 1):
                for p in P_GRID:
                    spec = TransferSpec(n, m, p)
                    ref = exact_bose_row(spec)
                    assert np.all(np.abs(bose_exact(spec).probs - ref) <= 1e-12 * (ref + 0.04))

    def test_matches_jacobi_closed_form_channel(self):
        # the paper's Jacobi closed form, in exact integers, at every N <= 30
        for n in (1, 2, 3, 5, 8, 13, 21, 30):
            for m in range(n + 1):
                for p in P_GRID:
                    spec = TransferSpec(n, m, p)
                    probs = bose_exact(spec).probs
                    for mp in range(n + 1):
                        ref = jacobi_closed_form(spec, mp)
                        assert abs(probs[mp] - ref) <= 1e-12 * (ref + 0.04)

    def test_range_query_matches_full(self):
        spec = TransferSpec(200, 7, 0.4)
        full = bose_exact(spec).probs
        part = transfer_probabilities(spec, 5, 30, bose=True)
        assert np.array_equal(full[5:31], part)

    @given(st.integers(min_value=1, max_value=40),
           st.data(),
           st.floats(min_value=0.01, max_value=0.99))
    @settings(max_examples=150, deadline=None)
    def test_random_specs_normalized_and_symmetric(self, n, data, p):
        m = data.draw(st.integers(min_value=0, max_value=n))
        mp = data.draw(st.integers(min_value=0, max_value=n))
        d = bose_exact(TransferSpec(n, m, p))
        assert abs(d.total() - 1.0) < 1e-10
        assert float(d.probs.min()) >= 0.0
        rev = bose_exact(TransferSpec(n, mp, p))
        assert d.probs[mp] == rev.probs[m]


class TestSupportWindowSweep:
    """The Miller sweeps behind every classical row with 0 < m < n and the
    bosonic rows with min(m, n-m) > _SWEEP_MIN_COUNT."""

    @staticmethod
    def full_row(n, m, p, bose):
        lo, row = _sweep_row(n, m, p, bose)
        probs = np.zeros(n + 1)
        probs[lo: lo + row.size] = row
        return probs

    @pytest.mark.parametrize("bose", [False, True])
    def test_full_rows_match_pathway_sums(self, bose):
        # every m of small n, below the bosonic routing threshold as well
        for n in (2, 3, 5, 8, 13, 21, 30):
            for m in range(1, n):
                for p in P_GRID:
                    probs = self.full_row(n, m, p, bose)
                    if bose:
                        ref = exact_bose_row(TransferSpec(n, m, p))
                        assert np.all(np.abs(probs - ref) <= 1e-12 * (ref + 0.04))
                    else:
                        ref = exact_classical_row(TransferSpec(n, m, p))
                        assert np.all(np.abs(probs - ref) <= 1e-13 * ref)

    def test_predicted_windows_match_exact_rows(self):
        # swept rows past n = 2 _WINDOW_PAD, where the first window is
        # predicted from the recurrence wherever it can shrink much
        predicted = 0
        for n in (64, 96):
            for m in range(_SWEEP_MIN_COUNT + 1, n - _SWEEP_MIN_COUNT):
                for p in (0.01, 0.3, 0.9):
                    q = 1.0 - p
                    sd = math.sqrt(p * q * (n + 2.0 * m * (n - m)))
                    mean = m * q + (n - m) * p
                    predicted += _bose_window(n, m, p, mean, sd, 0, n) is not None
                    probs = bose_exact(TransferSpec(n, m, p)).probs
                    ref = exact_bose_row(TransferSpec(n, m, p))
                    assert np.all(np.abs(probs - ref) <= 1e-12 * (ref + 0.04))
        assert predicted > 0

    @pytest.mark.parametrize("n, m, p, bose, picks", [
        # the Poisson-like right tail the fixed mean +- (45 sd + 30) window cut
        (10000, 1000, 3e-4, False, (990, 1003, 1110)),
        (10000, 1000, 3e-4, True, (980, 1002, 1090)),
        (10000, 5000, 0.3, False, (4500, 5000, 5600)),
        (10000, 300, 0.01, True, (150, 398, 700)),
        (1000, 31, 0.3, True, (0, 100, 300, 700)),
        (1000, 500, 0.003, False, (480, 501, 530)),
        (1000, 300, 0.01, True, (250, 303, 330)),
    ])
    def test_entries_match_mpmath(self, n, m, p, bose, picks):
        probs = (bose_exact if bose else classical_exact)(TransferSpec(n, m, p)).probs
        env = envelope(probs)
        for mp in picks:
            ref = pathway_entry_mp(n, m, p, mp, bose)
            assert ref > 1e-290
            assert abs(probs[mp] - ref) <= 1e-10 * env[mp]

    @pytest.mark.parametrize("p", [3e-5, 0.3])
    @pytest.mark.parametrize("bose", [False, True])
    def test_moment_identities(self, p, bose):
        n, m = 100000, 316
        probs = (bose_exact if bose else classical_exact)(TransferSpec(n, m, p)).probs
        k = np.arange(n + 1, dtype=np.float64)
        mean = m * (1 - p) + (n - m) * p
        var = p * (1 - p) * (n + 2 * m * (n - m)) if bose else n * p * (1 - p)
        assert abs(math.fsum(k * probs) - mean) <= 1e-9 * mean
        assert abs(math.fsum((k - mean) ** 2 * probs) - var) <= 1e-9 * var
        assert abs(math.fsum(probs) - 1.0) <= 1e-12

    @pytest.mark.parametrize("n", [60, 200])
    @pytest.mark.parametrize("p", [0.05, 0.3, 0.5, 0.9])
    def test_bose_routes_agree_at_threshold(self, n, p):
        for m in (_SWEEP_MIN_COUNT, _SWEEP_MIN_COUNT + 1,
                  n - _SWEEP_MIN_COUNT, n - _SWEEP_MIN_COUNT - 1):
            jacobi = np.exp(_bose_log_range(n, m, p, 0, n))
            swept = self.full_row(n, m, p, True)
            routed = bose_exact(TransferSpec(n, m, p)).probs
            assert np.array_equal(routed,
                                  jacobi if min(m, n - m) <= _SWEEP_MIN_COUNT else swept)
            assert (np.abs(swept - jacobi) <= 1e-12 * envelope(jacobi)).all()

    def test_paper_scale_classical_row_normalized(self):
        probs = classical_exact(TransferSpec(100000, 3, 0.3)).probs
        assert abs(math.fsum(probs) - 1.0) <= 1e-12

    @pytest.mark.parametrize("bose", [False, True])
    def test_range_query_matches_full(self, bose):
        spec = TransferSpec(5000, 1200, 0.02)
        full = (bose_exact if bose else classical_exact)(spec).probs
        for lo, hi in ((0, 5000), (1200, 1200), (1000, 1400), (0, 10), (4990, 5000)):
            part = transfer_probabilities(spec, lo, hi, bose=bose)
            assert np.array_equal(full[lo: hi + 1], part)

    def test_swept_rows_read_no_table(self, monkeypatch):
        from bosecount import distributions

        def no_table(n_max):
            raise AssertionError(f"log-factorial table of size {n_max} requested")

        monkeypatch.setattr(distributions, "log_factorial_array", no_table)
        for kernel, m in ((classical_exact, 3), (classical_exact, 40000),
                          (bose_exact, 40000)):
            assert abs(kernel(TransferSpec(100000, m, 0.3)).total() - 1.0) < 1e-12

    @pytest.mark.parametrize("p", [1e-99, 1e-200, 1e-300, 5e-324])
    @pytest.mark.parametrize("bose", [False, True])
    def test_tiny_p_rows(self, p, bose):
        # one step of the recurrence grows a value by ~1/p here
        n, m = 100, 40
        probs = (bose_exact if bose else classical_exact)(TransferSpec(n, m, p)).probs
        assert np.isfinite(probs).all() and probs[m] == 1.0
        # leading pathways: one particle out, or one in (bosons: enhanced)
        down = m * (n - m + 1) * p if bose else m * p
        up = (m + 1) * (n - m) * p if bose else (n - m) * p
        assert probs[m - 1] == pytest.approx(down, rel=1e-10)
        assert probs[m + 1] == pytest.approx(up, rel=1e-10)
        assert abs(math.fsum(probs) - 1.0) <= 1e-15


class TestSupportWindowRoutes:
    """The binomial (m in {0, n}) and Jacobi-image rows, evaluated over
    their support window only: byte for byte the full-range evaluation."""

    P_WINDOW = (1e-120, 3e-5, 0.01, 0.3, 0.5, 0.999)

    @staticmethod
    def full_row(n, m, p):
        """Every entry 0..n by the full-range expression of each route."""
        if 0 < m < n:
            return np.exp(_bose_log_range(n, m, p, 0, n))
        lf = log_factorial_array(n)
        counts = np.arange(n + 1)
        if m == n:
            counts = n - counts
        c = counts.astype(np.float64)
        return np.exp(lf[n] - lf[counts] - lf[n - counts]
                      + c * math.log(p) + (n - c) * math.log1p(-p))

    @staticmethod
    def ranges(n, m, p):
        """[0, 12], [1, 1], [m, m] and ranges straddling the edges of the
        first 45-sd window and of the predicted window of a Jacobi-image
        row, clipped to 0..n."""
        q = 1.0 - p
        mean = m * q + (n - m) * p
        sd = math.sqrt(p * q * (n + 2.0 * m * (n - m)))
        margin = _WINDOW_SDS * sd + _WINDOW_PAD
        edges = [math.floor(mean - margin), math.ceil(mean + margin)]
        if 0 < m < n:
            edges += _bose_window(n, m, p, mean, sd, 0, n) or ()
        spans = [(0, 12), (1, 1), (m, m)]
        for edge in edges:
            spans += [(edge - 2, edge + 2), (edge, edge), (edge - 1, n), (0, edge + 1)]
        return {(max(0, lo), min(n, hi)) for lo, hi in spans if lo <= n and hi >= 0}

    def test_rows_and_ranges_equal_full_evaluation(self):
        grid = [(n, self.P_WINDOW) for n in (1, 2, 5, 17, 64, 1000, 10000)]
        for n, ps in grid + [(100000, (0.01, 0.3))]:
            for m in sorted({m for m in (0, 1, 2, 3, 8, 20, n - 20, n - 3, n)
                             if 0 <= m <= n}):
                models = (True, False) if m in (0, n) else (True,)
                for p in ps:
                    spec = TransferSpec(n, m, p)
                    full = self.full_row(n, m, p)
                    for bose in models:
                        kernel = bose_exact if bose else classical_exact
                        assert kernel(spec).probs.tobytes() == full.tobytes()
                        for lo, hi in self.ranges(n, m, p):
                            part = transfer_probabilities(spec, lo, hi, bose=bose)
                            assert part.tobytes() == full[lo: hi + 1].tobytes()

    def test_work_is_the_window(self, monkeypatch):
        from bosecount import distributions

        asked = []

        def bose_log_range(n, m, p, mp_lo, mp_hi):
            asked.append(mp_hi - mp_lo + 1)
            return _bose_log_range(n, m, p, mp_lo, mp_hi)

        binomial = distributions._binomial_log_pmf

        def binomial_log_pmf(n, counts, *args):
            asked.append(counts.size)
            return binomial(n, counts, *args)

        monkeypatch.setattr(distributions, "_bose_log_range", bose_log_range)
        monkeypatch.setattr(distributions, "_binomial_log_pmf", binomial_log_pmf)
        # the full rows have 100,001 entries; the support window ~230
        for kernel, m in ((bose_exact, 3), (classical_exact, 0)):
            asked.clear()
            kernel(TransferSpec(100000, m, 3e-5))
            assert 0 < sum(asked) < 2000


class TestPredictedWindows:
    """The first window of a finite bosonic row comes from its Krawtchouk
    recurrence (_bose_window); the 45-sd windows are the fallback."""

    @staticmethod
    def counted(monkeypatch):
        """Points each sweep and Jacobi-image evaluation is asked for."""
        from bosecount import distributions

        swept, columns = [], []
        miller = distributions._miller_sweep

        def miller_sweep(alpha, beta):
            swept.append(alpha.size + 1)
            return miller(alpha, beta)

        def bose_log_range(n, m, p, mp_lo, mp_hi):
            columns.append(mp_hi - mp_lo + 1)
            return _bose_log_range(n, m, p, mp_lo, mp_hi)

        monkeypatch.setattr(distributions, "_miller_sweep", miller_sweep)
        monkeypatch.setattr(distributions, "_bose_log_range", bose_log_range)
        return swept, columns

    @pytest.mark.parametrize("m", [3, 316])
    def test_work_is_the_support(self, monkeypatch, m):
        # the 45-sd window held 34,568 columns (m = 3) and 100,018 points
        swept, columns = self.counted(monkeypatch)
        probs = bose_exact(TransferSpec(100000, m, 0.3)).probs
        assert sum(swept) + sum(columns) <= 1.1 * np.count_nonzero(probs)

    @pytest.mark.parametrize("m", [3, 316])
    def test_rare_rows_take_one_window(self, monkeypatch, m):
        # one Jacobi-image evaluation, or one sweep from each edge
        swept, columns = self.counted(monkeypatch)
        bose_exact(TransferSpec(100000, m, 3e-5))
        assert (len(columns), len(swept)) == ((1, 0) if m <= _SWEEP_MIN_COUNT else (0, 2))

    @pytest.mark.parametrize("n, m, p", [(1000, 25, 1e-6), (100000, 316, 0.3),
                                         (100000, 3, 0.3)])
    def test_failed_prediction_falls_back(self, monkeypatch, n, m, p):
        from bosecount import distributions

        spec = TransferSpec(n, m, p)
        swept, columns = self.counted(monkeypatch)
        monkeypatch.setattr(distributions, "_bose_window", lambda *args: None)
        unpredicted = bose_exact(spec).probs
        calls = len(swept) + len(columns)
        monkeypatch.setattr(distributions, "_bose_window",
                            lambda n, m, p, mean, *args: (math.floor(mean) - 2,
                                                          math.floor(mean) + 2))
        fallen = bose_exact(spec).probs
        # the narrow window fails the edge test, and the 45-sd windows that
        # follow hold it: one window more, then the same row
        per_window = 2 if swept else 1
        assert len(swept) + len(columns) == 2 * calls + per_window
        assert fallen.tobytes() == unpredicted.tobytes()

    def test_steep_rare_row_normalized(self):
        # each step off m' = m costs ~10 in ln here, so the Gaussian sd
        # (0.22) says nothing about the edges
        probs = bose_exact(TransferSpec(1000, 25, 1e-6)).probs
        assert abs(math.fsum(probs) - 1.0) <= 1e-15


class TestJacobiPolynomial:
    """jacobi_exact, the Jacobi value behind the closed-form defect tests,
    against known values and the independent expansion about x = 1."""

    def test_degree_zero(self):
        assert jacobi_exact(0, 7, -3, Fraction(2, 5)) == 1

    @given(st.floats(min_value=-1.0, max_value=1.0))
    def test_degree_one_legendre(self, x):
        assert jacobi_exact(1, 0, 0, Fraction(x)) == Fraction(x)

    def test_degree_two_example(self):
        # the degree-2, (3,1) polynomial at 1/5 is 12/25 = 0.48
        assert jacobi_exact(2, 3, 1, Fraction(1, 5)) == Fraction(12, 25)
        assert jacobi_hypergeometric(2, 3, 1, Fraction(1, 5)) == Fraction(12, 25)

    @given(st.integers(min_value=0, max_value=25),
           st.integers(min_value=0, max_value=30),
           st.integers(min_value=0, max_value=30),
           st.floats(min_value=-1.0, max_value=1.0))
    @settings(max_examples=200)
    def test_matches_exact_rational_for_nonnegative_params(self, n, a, b, x):
        # a float is an exact dyadic rational, so both sides are exact
        assert jacobi_exact(n, a, b, Fraction(x)) == jacobi_hypergeometric(n, a, b, Fraction(x))

    @given(st.integers(min_value=0, max_value=12),
           st.integers(min_value=-12, max_value=12),
           st.integers(min_value=-12, max_value=12),
           st.fractions(min_value=-1, max_value=1))
    @settings(max_examples=200)
    def test_matches_exact_rational_any_integer_params(self, n, a, b, x):
        assert jacobi_exact(n, a, b, x) == jacobi_hypergeometric(n, a, b, x)

    def test_exact_zero_is_not_a_stray_value(self):
        # float terms once left 1.7e-12 at this exact node
        assert jacobi_exact(11, 8, -5, Fraction(0)) == 0
        assert jacobi_hypergeometric(11, 8, -5, Fraction(0)) == 0

    def test_large_parameters_stay_finite(self):
        x = Fraction(2 * 3e-5 - 1.0)
        got = jacobi_exact(12, 99976, 12, x)
        assert got == jacobi_hypergeometric(12, 99976, 12, x)
        assert got != 0 and math.isfinite(float(got))


class TestBoseRareLimit:
    def test_empty_start_reduces_to_poisson(self):
        d = bose_rare_limit(RareEventSpec(3.0, 0), 20)
        poisson = classical_rare_limit(RareEventSpec(3.0, 0))
        take = min(len(d.probs), len(poisson.probs))
        assert np.abs(d.probs[:take] - poisson.probs[:take]).max() < 1e-14

    def test_single_marked_same_count(self):
        # two interfering pathways: (1 - w)**2 prefactor shape
        got = bose_rare_limit(RareEventSpec(3.0, 1), 3).probs[1]
        assert got == pytest.approx(4 * math.exp(-3), rel=1e-13)
        assert got == pytest.approx(0.1991483, rel=1e-6)

    def test_two_marked_same_count(self):
        got = bose_rare_limit(RareEventSpec(3.0, 2), 3).probs[2]
        assert got == pytest.approx(0.25 * math.exp(-3), rel=1e-13)
        assert got == pytest.approx(0.0124468, rel=1e-5)

    def test_no_events_point_mass(self):
        d = bose_rare_limit(RareEventSpec(0.0, 2), 5)
        assert d.probs[2] == 1.0 and d.total() == 1.0

    def test_auto_truncation_is_normalized(self):
        for w in (0.5, 3.0, 5.0):
            for m in (0, 1, 4, 9):
                d = bose_rare_limit(RareEventSpec(w, m))
                assert abs(d.total() - 1.0) < 1e-10
                assert d.meta["tail_bound"] < 1e-10

    @pytest.mark.parametrize("w, m, m_prime_max", [
        (0.5, 0, None), (3.0, 3, None), (5.0, 30, None), (20.0, 300, None),
        (0.5, 100, None), (3.0, 3, 5), (3.0, 3, 12), (3.0, 3, 20),
        (5.0, 30, 45), (0.5, 0, 0), (20.0, 3, 40)])
    def test_tail_bound_covers_the_tail(self, w, m, m_prime_max):
        # Chernoff bound from the generating function, against the mass of
        # the next 400 entries; automatic truncation leaves under 1e-10
        spec = RareEventSpec(w, m)
        d = bose_rare_limit(spec, m_prime_max)
        top = len(d.probs) - 1
        beyond = bose_rare_limit(spec, top + 400).probs[top + 1:]
        bound = d.meta["tail_bound"]
        assert float(beyond.sum()) <= bound <= 1.0
        if m_prime_max is None:
            assert bound < 1e-10

    def test_structured_zero_for_single_marked(self):
        # with one marked particle the final count m + 2 is forbidden at
        # w = q + 1: for w = 3 the entry m' = 3 vanishes
        d = bose_rare_limit(RareEventSpec(3.0, 1), 6)
        assert d.probs[3] < 1e-25
        assert d.probs[4] > 0.05

    def test_matches_exact_rational_oracle(self):
        for w in (1, 3, 5):
            for m in range(13):
                d = bose_rare_limit(RareEventSpec(float(w), m), m + 14)
                for q in range(14):
                    mp = m + q
                    lag = laguerre_exact(m, q, Fraction(w))
                    ref = float(Fraction(w) ** q
                                * Fraction(math.factorial(m), math.factorial(mp))
                                * lag * lag) * math.exp(-w)
                    assert abs(d.probs[mp] - ref) <= 1e-12 * ref + 1e-16

    def test_laguerre_identity_against_scipy(self):
        # independent evaluation of the q >= 0 closed form
        for w in (1.0, 3.0):
            for m in range(13):
                d = bose_rare_limit(RareEventSpec(w, m), m + 12)
                for q in range(12):
                    mp = m + q
                    lag = eval_genlaguerre(m, q, w)
                    ref = (w ** q * math.exp(-w)
                           * math.exp(math.lgamma(m + 1) - math.lgamma(mp + 1))
                           * lag * lag)
                    assert abs(d.probs[mp] - ref) <= 1e-12 * max(ref, 1e-3)

    def test_pathway_sum_cross_check(self):
        # against the exact-integer Laguerre form of the pathway sum
        for w in (0.5, 1.0, 3.0):
            for m in range(10):
                spec = RareEventSpec(w, m)
                ref = exact_bose_limit_row(spec, 12)
                got = bose_rare_limit(spec, 12).probs
                assert np.all(np.abs(got - ref) <= 1e-12 * (ref + 0.04))

    @pytest.mark.parametrize("w", [0.5, 3.0, 20.0])
    @pytest.mark.parametrize("m", [0, 3, 30, 300, 1000])
    def test_matches_mpmath_laguerre(self, w, m):
        # both truncation modes come from one row; sampled bulk entries lie
        # within 1e-11 of the local envelope (the benchmark's limit entry
        # tolerance), and row 0 is the recapture closed form
        spec = RareEventSpec(w, m)
        auto = bose_rare_limit(spec).probs
        explicit = bose_rare_limit(spec, m + 20).probs
        common = min(auto.size, explicit.size)
        assert explicit[:common].tolist() == auto[:common].tolist()
        row = auto if auto.size >= explicit.size else explicit
        bulk = np.flatnonzero(row > 1e-6 * row.max())
        picks = bulk[np.linspace(0, bulk.size - 1, min(bulk.size, 25)).astype(int)]
        for k in picks.tolist():
            ref = limit_entry_mp(w, m, k)
            scale = max(ref, mpmath.sqrt(limit_entry_mp(w, m, k + 1)
                                         * (limit_entry_mp(w, m, k - 1) if k else 0)))
            assert abs(row[k] - ref) <= 1e-11 * scale, k
        assert recapture_probability(spec) == auto[0] == explicit[0]

    @pytest.mark.parametrize("w", [0.5, 3.0, 20.0, 1e-200])
    def test_empty_start_is_the_classical_poisson_row(self, w):
        spec = RareEventSpec(w, 0)
        poisson = classical_rare_limit(spec).probs.tolist()
        assert bose_rare_limit(spec).probs.tolist() == poisson
        padded = bose_rare_limit(spec, len(poisson) + 5).probs.tolist()
        assert padded[:len(poisson)] == poisson

    @pytest.mark.parametrize("w", [5e-324, 1e-200])
    @pytest.mark.parametrize("m", [0, 3, 50])
    def test_vanishing_w_is_a_point_mass(self, w, m):
        for m_prime_max in (None, m + 5):
            probs = bose_rare_limit(RareEventSpec(w, m), m_prime_max).probs
            assert probs.max() <= 1.0
            assert abs(probs[m] - 1.0) <= 1e-15
            assert np.abs(np.delete(probs, m)).max(initial=0.0) <= 1e-15

    @pytest.mark.parametrize("m", [10 ** 4, 10 ** 5])
    def test_large_m_normalized_with_exact_moments(self, m):
        w = 3.0
        spec = RareEventSpec(w, m)
        probs = bose_rare_limit(spec).probs
        k = np.arange(probs.size, dtype=np.float64)
        mean, var = m + w, w * (1.0 + 2.0 * m)
        assert abs(1.0 - math.fsum(probs)) <= 1e-10
        assert abs(math.fsum(k * probs) - mean) <= 1e-9 * mean
        assert abs(math.fsum((k - mean) ** 2 * probs) - var) <= 1e-9 * var
        assert probs[0] == recapture_probability(spec)

    def test_explicit_support_slices_or_pads_the_window(self):
        spec = RareEventSpec(3.0, 3)
        short = bose_rare_limit(spec, 40).probs
        long = bose_rare_limit(spec, 5000).probs
        assert long.size == 5001 and long[:41].tolist() == short.tolist()
        assert not long[1000:].any()
        # m' = 500 lies below the window of m = 1000
        below = bose_rare_limit(RareEventSpec(3.0, 1000), 500)
        assert below.probs.size == 501 and not below.probs.any()
        assert below.meta["tail_bound"] == 1.0

    @pytest.mark.parametrize("w, m, m_prime_max", [
        (3.0, 3, 20), (20.0, 300, 600), (0.5, 1000, 1040), (3.0, 30000, 30603)])
    def test_tail_bound_unbanded_equals_every_term(self, w, m, m_prime_max):
        # up to 2**21 terms in all, every k of every z is summed
        bound = _rare_limit_tail_bound(w, m, m_prime_max)
        assert 0.0 < bound < 1.0
        assert bound == chernoff_every_term(w, m, m_prime_max)

    @pytest.mark.parametrize("w, m, m_prime_max", [
        (3.0, 40000, 40695), (3.0, 40000, 40834), (0.5, 100000, 100537),
        (20.0, 50000, 52020), (20.0, 50000, 52420)])
    def test_banded_tail_bound_matches_every_term(self, w, m, m_prime_max):
        # beyond 2**21 terms each z sums only the band near its largest
        # term; the terms left out underflow to 0 against it
        ref = chernoff_every_term(w, m, m_prime_max)
        assert 1e-200 < ref < 0.1
        assert _rare_limit_tail_bound(w, m, m_prime_max) == pytest.approx(ref, rel=1e-12)

    def test_tail_bound_of_a_short_support_is_one(self):
        # the Chernoff exponent exceeds the double range here; the bound
        # saturates at 1 instead of overflowing
        d = bose_rare_limit(RareEventSpec(4194304.0, 1), 0)
        assert d.probs.size == 1 and d.meta["tail_bound"] == 1.0

    def test_matches_finite_n_at_large_n(self):
        n = 10 ** 5
        for m in (0, 1, 3, 7):
            exact = bose_exact(TransferSpec(n, m, 3.0 / n)).probs[:11]
            lim = bose_rare_limit(RareEventSpec(3.0, m), 10).probs
            assert np.abs(exact - lim).max() < 1e-3


class TestRecapture:
    def test_nothing_to_transfer(self):
        assert recapture_probability(RareEventSpec(0.0, 0)) == 1.0

    def test_headline_value(self):
        got = recapture_probability(RareEventSpec(3.0, 3))
        assert got == pytest.approx(27 * math.exp(-3) / 6, rel=1e-15)
        assert got == pytest.approx(0.2240418, rel=1e-6)
        # just under a quarter of all cases
        assert 0.22 < got < 0.25

    def test_single_marked(self):
        assert recapture_probability(RareEventSpec(3.0, 1)) == pytest.approx(
            3 * math.exp(-3), rel=1e-14)

    def test_bit_for_bit_with_limit_distribution(self):
        for w in (0.0, 0.4, 3.0, 7.5):
            for m in (0, 1, 3, 10):
                lhs = recapture_probability(RareEventSpec(w, m))
                rhs = bose_rare_limit(RareEventSpec(w, m), max(m, 1)).probs[0]
                assert lhs == rhs

    def test_poisson_shape_in_m(self):
        # recapture as a function of m is itself Poisson with mean w
        w = 3.0
        values = [recapture_probability(RareEventSpec(w, m)) for m in range(20)]
        assert sum(values) == pytest.approx(1.0, abs=1e-10)
        # integer mean puts the two modes at w - 1 and w
        assert values[2] == values[3]
        assert values.index(max(values)) in (2, 3)
        for m in range(20):
            expected = w ** m * math.exp(-w) / math.factorial(m)
            assert values[m] == pytest.approx(expected, rel=1e-13)


class TestDocumentedClosedFormDefect:
    """The (1-p) exponent in the Jacobi closed form must be n - m' - m.

    The sign-flipped variant n - m' + m breaks unitarity already for a
    single particle; this pins the corrected exponent so a 'fix' back to
    the broken form cannot pass silently.
    """

    @staticmethod
    def closed_form(p, broken):
        """The Jacobi closed form at n = m = m' = 1 with the (1-p) exponent
        n - m' + m if broken, else n - m' - m; the exact Jacobi value there
        is p - 1."""
        n = m = m_prime = 1
        jac = float(jacobi_exact(m, n - m_prime - m, m_prime - m, Fraction(2 * p - 1)))
        exponent = n - m_prime + m if broken else n - m_prime - m
        return math.exp(
            math.log(math.factorial(m)) + math.log(math.factorial(n - m))
            - math.log(math.factorial(m_prime)) - math.log(math.factorial(n - m_prime))
            + (m_prime - m) * math.log(p) + exponent * math.log1p(-p)) * jac ** 2

    @pytest.mark.parametrize("p", P_GRID)
    def test_broken_exponent_fails_unitarity(self, p):
        broken = self.closed_form(p, broken=True)
        assert broken == pytest.approx((1 - p) ** 3, rel=1e-12)
        assert abs(broken - (1 - p)) > 0.05

    @pytest.mark.parametrize("p", P_GRID)
    def test_corrected_exponent_passes_unitarity(self, p):
        assert self.closed_form(p, broken=False) == pytest.approx(1 - p, abs=1e-12)
        assert bose_exact(TransferSpec(1, 1, p)).probs[1] == pytest.approx(1 - p, abs=1e-12)
