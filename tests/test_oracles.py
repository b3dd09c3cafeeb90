import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from bosecount.distributions import RareEventSpec, TransferSpec, bose_exact, classical_exact
from bosecount.dynamics import TwoLevelParams, evolve, solve_pulse_duration
from bosecount.oracles import (
    SizeLimit,
    enumerate_bose_first_quantized,
    enumerate_distinguishable,
    exact_bose_limit_row,
    exact_bose_row,
    exact_classical_row,
    fock_evolve,
    mc_sample_classical,
)
from bosecount.verification import DEFAULT_P_GRID
from test_distributions import jacobi_closed_form

P_GRID = (0.1, 0.3, 0.5, 0.7, 0.9)

# detuned complex-tunnelling parameters with transfer ceiling ~0.969
PARAMS = TwoLevelParams(epsilon=0.2, xi=1.0, eta=0.5)


def unitary_with_p(p: float, params: TwoLevelParams = PARAMS):
    tau = solve_pulse_duration(params, p)
    return evolve(params, tau), tau


def kronecker_first_quantized(n: int, m: int, u) -> np.ndarray:
    """The product-space oracle through the explicit 2**n x 2**n Kronecker
    power of the one-particle matrix, applied as one dense matvec."""
    dim = 1 << n
    psi = np.zeros(dim, dtype=np.complex128)
    for positions in combinations(range(n), m):
        psi[sum(1 << j for j in positions)] = 1.0 / math.sqrt(math.comb(n, m))
    single = np.array([[u.u22, u.u21],
                       [u.u12, u.u11]], dtype=np.complex128)
    full = np.ones((1, 1), dtype=np.complex128)
    for _ in range(n):
        full = np.kron(full, single)
    psi = full @ psi
    popc = np.bitwise_count(np.arange(dim, dtype=np.uint64)).astype(np.int64)
    return np.array([abs(psi[popc == k].sum() / math.sqrt(math.comb(n, k))) ** 2
                     for k in range(n + 1)])


class TestEnumerateDistinguishable:
    def test_single_particle(self):
        d = enumerate_distinguishable(TransferSpec(1, 0, 0.3))
        assert d.probs[0] == pytest.approx(0.7, rel=1e-15)
        assert d.probs[1] == pytest.approx(0.3, rel=1e-15)

    def test_two_fair_coins(self):
        d = enumerate_distinguishable(TransferSpec(2, 1, 0.5))
        assert np.allclose(d.probs, [0.25, 0.5, 0.25], atol=1e-15)

    def test_matches_closed_form_mid_size(self):
        spec = TransferSpec(8, 3, 0.3)
        brute = enumerate_distinguishable(spec).probs
        exact = classical_exact(spec).probs
        assert np.abs(brute - exact).max() < 1e-13

    def test_matches_closed_form_upper_cap(self):
        spec = TransferSpec(16, 7, 0.42)
        brute = enumerate_distinguishable(spec).probs
        exact = classical_exact(spec).probs
        assert np.abs(brute - exact).max() < 1e-12

    def test_size_limit(self):
        with pytest.raises(SizeLimit):
            enumerate_distinguishable(TransferSpec(21, 0, 0.5))

    def test_deterministic_edges(self):
        d = enumerate_distinguishable(TransferSpec(5, 2, 0.0))
        assert d.probs[2] == 1.0
        d = enumerate_distinguishable(TransferSpec(5, 2, 1.0))
        assert d.probs[3] == 1.0


class TestEnumerateBoseFirstQuantized:
    def test_single_particle(self):
        u, _ = unitary_with_p(0.3)
        d = enumerate_bose_first_quantized(1, 1, u)
        assert d.probs[0] == pytest.approx(0.3, abs=1e-13)
        assert d.probs[1] == pytest.approx(0.7, abs=1e-13)

    def test_two_boson_null_from_amplitudes(self):
        # hand-worked: u11*u22 + u12*u21 = 1 - 2p vanishes at p = 1/2
        u, _ = unitary_with_p(0.5)
        d = enumerate_bose_first_quantized(2, 1, u)
        assert d.probs[1] < 1e-13
        assert d.probs[0] == pytest.approx(0.5, abs=1e-12)
        assert d.probs[2] == pytest.approx(0.5, abs=1e-12)

    def test_matches_closed_form(self):
        u, _ = unitary_with_p(0.3)
        brute = enumerate_bose_first_quantized(6, 2, u).probs
        exact = bose_exact(TransferSpec(6, 2, u.p)).probs
        assert np.abs(brute - exact).max() < 1e-12

    def test_phase_independence(self):
        # same p through different detunings and tunnelling phases
        p = 0.37
        variants = [
            TwoLevelParams(0.0, 1.0, 0.0),
            TwoLevelParams(0.5, 1.0, 0.0),
            TwoLevelParams(0.0, 0.8, 0.6),
            TwoLevelParams(-0.7, 0.3, 1.1),
            TwoLevelParams(0.2, -1.0, 0.4),
        ]
        dists = []
        for params in variants:
            u, _ = unitary_with_p(p, params)
            assert u.p == pytest.approx(p, abs=1e-14)
            dists.append(enumerate_bose_first_quantized(7, 3, u).probs)
        for other in dists[1:]:
            assert np.abs(dists[0] - other).max() < 1e-12

    def test_size_limit(self):
        u, _ = unitary_with_p(0.3)
        with pytest.raises(SizeLimit):
            enumerate_bose_first_quantized(11, 2, u)
        assert len(enumerate_bose_first_quantized(10, 2, u).probs) == 11

    def test_matches_kronecker_power(self):
        # applying the one-particle matrix particle by particle is the
        # n-fold tensor power, to roundoff
        for p in DEFAULT_P_GRID:
            u, _ = unitary_with_p(p)
            for n in range(1, 9):
                for m in range(n + 1):
                    got = enumerate_bose_first_quantized(n, m, u).probs
                    ref = kronecker_first_quantized(n, m, u)
                    assert np.abs(got - ref).max() < 1e-14

    def test_normalized(self):
        u, _ = unitary_with_p(0.7)
        for n in range(1, 9):
            for m in range(n + 1):
                d = enumerate_bose_first_quantized(n, m, u)
                assert abs(d.total() - 1.0) < 1e-12


class TestFockEvolve:
    def test_zero_time_point_mass(self):
        d = fock_evolve(40, PARAMS, 0.0, 11)
        assert d.probs[11] == pytest.approx(1.0, abs=1e-13)

    def test_two_boson_balanced(self):
        params = TwoLevelParams(0.0, 1.0, 0.0)
        d = fock_evolve(2, params, math.pi / 4, 1)
        assert d.probs[0] == pytest.approx(0.5, abs=1e-12)
        assert d.probs[1] == pytest.approx(0.0, abs=1e-12)
        assert d.probs[2] == pytest.approx(0.5, abs=1e-12)

    def test_matches_closed_form_large(self):
        params = TwoLevelParams(0.5, 1.0, 0.2)
        t = 0.7
        u = evolve(params, t)
        got = fock_evolve(200, params, t, 5).probs
        exact = bose_exact(TransferSpec(200, 5, u.p)).probs
        assert np.abs(got - exact).max() < 1e-8

    def test_probability_conserved(self):
        for n in (3, 50, 200):
            for t in (0.1, 1.0, 4.0):
                d = fock_evolve(n, PARAMS, t, n // 2)
                assert abs(d.total() - 1.0) < 1e-10

    def test_phase_independence_second_route(self):
        # rotating the tunnelling element at fixed magnitude leaves the
        # distribution unchanged
        t = 0.9
        base = fock_evolve(60, TwoLevelParams(0.3, 1.0, 0.0), t, 4).probs
        for phi in (0.4, 1.1, 2.0):
            params = TwoLevelParams(0.3, math.cos(phi), math.sin(phi))
            other = fock_evolve(60, params, t, 4).probs
            assert np.abs(base - other).max() < 1e-12

    def test_size_limit(self):
        with pytest.raises(SizeLimit):
            fock_evolve(501, PARAMS, 0.1, 0)

    def test_state_vector_normalized(self):
        d = fock_evolve(30, PARAMS, 1.3, 7)
        assert len(d.probs) == 31
        assert d.meta["norm_deviation"] < 1e-12


class TestThreeWayAgreement:
    def test_small_scale_grid(self):
        for n in range(1, 11):
            for m in range(n + 1):
                for p in (0.3, 0.7):
                    u, tau = unitary_with_p(p)
                    first = enumerate_bose_first_quantized(n, m, u).probs
                    second = fock_evolve(n, PARAMS, tau, m).probs
                    closed = bose_exact(TransferSpec(n, m, u.p)).probs
                    assert np.abs(first - second).max() < 1e-10
                    assert np.abs(first - closed).max() < 1e-10
                    assert np.abs(second - closed).max() < 1e-10


class TestExactOracles:
    # every entry is one correctly rounded integer division, so entries
    # that are equal rationals are equal floats, bit for bit; the bosonic
    # closed forms are in test_distributions.TestBoseAmplitude

    @pytest.mark.parametrize("p", [0.1, 0.5, 0.9, 3e-5, 0.999])
    def test_reversal_and_relabel_bitwise(self, p):
        for n in range(1, 13):
            rows = [exact_bose_row(TransferSpec(n, m, p)) for m in range(n + 1)]
            for m in range(n + 1):
                assert rows[n - m].tolist() == rows[m][::-1].tolist()
                for mp in range(n + 1):
                    assert rows[m][mp] == rows[mp][m]

    @pytest.mark.parametrize("p", P_GRID + (3e-5,))
    def test_two_particle_classical_closed_form(self, p):
        x = Fraction(p)
        assert exact_classical_row(TransferSpec(2, 1, p)).tolist() == [
            float(x * (1 - x)), float(x * x + (1 - x) ** 2), float(x * (1 - x))]

    def test_point_masses(self):
        assert exact_classical_row(TransferSpec(4, 1, 0.0)).tolist() == [0.0, 1.0, 0.0, 0.0, 0.0]
        assert exact_classical_row(TransferSpec(4, 1, 1.0)).tolist() == [0.0, 0.0, 0.0, 1.0, 0.0]
        assert exact_bose_limit_row(RareEventSpec(0.0, 3), 6).tolist() == [
            0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0]

    def test_tiny_p_rows_are_finite(self):
        for oracle in (exact_bose_row, exact_classical_row):
            row = oracle(TransferSpec(30, 7, 1e-300))
            assert np.isfinite(row).all()
            assert row[7] == 1.0

    def test_limit_rejects_negative_m_prime_max(self):
        with pytest.raises(ValueError):
            exact_bose_limit_row(RareEventSpec(3.0, 2), -1)


def pathway_sum_per_factor(spec: TransferSpec, m_prime: int) -> Fraction:
    """C(n,m)/C(n,m') p**(q+2lo) (1-p)**(n-q-2hi) s**2, q = m' - m, with
    s = sum of (-1)**mu C(m,mu) C(n-m,q+mu) p**(mu-lo) (1-p)**(hi-mu) over
    the pathways mu = lo..hi, one Fraction per factor."""
    n, m, p = spec.n, spec.m, Fraction(spec.p)
    q = m_prime - m
    lo, hi = max(0, -q), min(m, n - m - q)
    s = sum((-1) ** mu * math.comb(m, mu) * math.comb(n - m, q + mu)
            * p ** (mu - lo) * (1 - p) ** (hi - mu) for mu in range(lo, hi + 1))
    return (Fraction(math.comb(n, m), math.comb(n, m_prime))
            * p ** (q + 2 * lo) * (1 - p) ** (n - q - 2 * hi) * s * s)


def convolution_per_factor(spec: TransferSpec, m_prime: int) -> Fraction:
    """Sum over k leaving and j = m' - m + k entering of C(m,k) p**k
    (1-p)**(m-k) C(n-m,j) p**j (1-p)**(n-m-j), one Fraction per factor."""
    n, m, p = spec.n, spec.m, Fraction(spec.p)
    return sum((math.comb(m, k) * p ** k * (1 - p) ** (m - k)
                * math.comb(n - m, m_prime - m + k) * p ** (m_prime - m + k)
                * (1 - p) ** (n - m_prime - k)
                for k in range(max(0, m - m_prime), min(m, n - m_prime) + 1)), Fraction(0))


class TestScalarChannelsPerTerm:
    # the exact reference channels build each entry from scaled integers;
    # the values must be those of per-factor Fraction arithmetic (and of the
    # Jacobi closed form, an independent formula), bit for bit

    @pytest.mark.parametrize("p", [0.1, 0.5, 0.9, 3e-5, 0.999])
    def test_bitwise_equal_to_per_factor_arithmetic(self, p):
        for n in range(1, 13):
            for m in range(n + 1):
                spec = TransferSpec(n, m, p)
                bose, classical = exact_bose_row(spec), exact_classical_row(spec)
                for mp in range(n + 1):
                    assert bose[mp] == float(pathway_sum_per_factor(spec, mp))
                    assert bose[mp] == jacobi_closed_form(spec, mp)
                    assert classical[mp] == float(convolution_per_factor(spec, mp))


def sampled_counts(dist) -> np.ndarray:
    """Per-bin trial counts behind an empirical distribution."""
    return np.rint(dist.probs * dist.meta["trials"]).astype(np.int64)


class TestMonteCarlo:
    def test_no_switch(self):
        d = mc_sample_classical(TransferSpec(5, 0, 0.0), 1000, seed=7)
        assert d.probs[0] == 1.0

    def test_deterministic_swap(self):
        d = mc_sample_classical(TransferSpec(5, 2, 1.0), 1000, seed=7)
        assert d.probs[3] == 1.0

    def test_seed_reproducibility(self):
        a = mc_sample_classical(TransferSpec(20, 5, 0.1), 200000, seed=1234)
        b = mc_sample_classical(TransferSpec(20, 5, 0.1), 200000, seed=1234)
        assert np.array_equal(a.probs, b.probs)
        c = mc_sample_classical(TransferSpec(20, 5, 0.1), 200000, seed=1235)
        assert not np.array_equal(a.probs, c.probs)

    def test_against_exact_within_standard_errors(self):
        spec = TransferSpec(20, 5, 0.1)
        trials = 200000
        emp = mc_sample_classical(spec, trials, seed=20260809)
        exact = classical_exact(spec).probs
        se = np.sqrt(trials * exact * (1 - exact))
        assert np.all(np.abs(sampled_counts(emp) - trials * exact) <= 4 * se + 1e-9)

    def test_counts_metadata(self):
        d = mc_sample_classical(TransferSpec(4, 1, 0.25), 5000, seed=99)
        assert d.model == "empirical"
        assert d.start == 0 and len(d.probs) == 5
        assert d.meta["trials"] == 5000
        assert d.meta["seed"] == 99
        assert "PCG64" in d.meta["generator"]
        counts = sampled_counts(d)
        assert counts.sum() == 5000
        assert np.array_equal(counts / 5000, d.probs)
        assert d.total() == pytest.approx(1.0, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            mc_sample_classical(TransferSpec(4, 1, 0.25), 0, seed=1)
