import math
from itertools import combinations

import numpy as np
import pytest

from bosecount.distributions import TransferSpec, bose_exact, classical_exact
from bosecount.dynamics import TwoLevelParams, evolve, solve_pulse_duration
from bosecount.numerics import log_factorial
from bosecount.oracles import (
    SignedLog,
    SizeLimit,
    bose_amplitude_probability,
    bose_jacobi_probability,
    enumerate_bose_first_quantized,
    enumerate_distinguishable,
    fock_evolve,
    jacobi_polynomial,
    mc_sample_classical,
    signed_log_sum,
)
from bosecount.verification import DEFAULT_P_GRID

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


def signed_comb(top: int, k: int) -> SignedLog:
    """C(top, k) for integer top and k >= 0, as the log of the exact integer."""
    if top >= 0:
        value = math.comb(top, k)
        return SignedLog(1, math.log(value)) if value else SignedLog.zero()
    return SignedLog(-1 if k % 2 else 1, math.log(math.comb(-top + k - 1, k)))


def pathway_sum_per_factor(spec: TransferSpec, m_prime: int) -> float:
    """bose_amplitude_probability with one SignedLog per factor."""
    n, m, p = spec.n, spec.m, spec.p
    if p == 0.0:
        return 1.0 if m_prime == m else 0.0
    if p == 1.0:
        return 1.0 if m_prime == n - m else 0.0
    q = m_prime - m
    lp = math.log(p)
    l1p = math.log1p(-p)
    terms = []
    for mu in range(max(0, -q), min(m, n - m - q) + 1):
        mag = (signed_comb(m, mu).log_magnitude
               + signed_comb(n - m, q + mu).log_magnitude
               + 0.5 * ((q + 2 * mu) * lp + (n - q - 2 * mu) * l1p))
        terms.append(SignedLog(-1 if mu % 2 else 1, mag))
    pref = signed_comb(n, m).log_magnitude - signed_comb(n, m_prime).log_magnitude
    log_abs_sum = signed_log_sum(
        [SignedLog(1, t.log_magnitude) for t in terms]).log_magnitude
    log_bound = (pref + 2.0 * log_abs_sum + math.log(4.0 * len(terms))
                 - 53.0 * math.log(2.0))
    if log_bound > math.log(1e-10):
        raise ArithmeticError("beyond double precision")
    s = signed_log_sum(terms)
    if s.sign == 0:
        return 0.0
    return math.exp(pref + 2.0 * s.log_magnitude)


def jacobi_per_factor(spec: TransferSpec, m_prime: int) -> float:
    """bose_jacobi_probability with the finite sum over per-factor SignedLogs."""
    n, m, p = spec.n, spec.m, spec.p
    if p == 0.0:
        return 1.0 if m_prime == m else 0.0
    if p == 1.0:
        return 1.0 if m_prime == n - m else 0.0
    q = m_prime - m
    a, b, x = n - m_prime - m, q, 2.0 * p - 1.0
    if m == 0 or (a >= 0 and b >= 0):
        jac = jacobi_polynomial(m, a, b, x)
    else:
        minus = SignedLog.from_linear((x - 1.0) / 2.0)
        plus = SignedLog.from_linear((x + 1.0) / 2.0)
        jac = signed_log_sum([signed_comb(m + a, m - s) * signed_comb(m + b, s)
                              * minus.pow(s) * plus.pow(m - s)
                              for s in range(m + 1)])
    if jac.sign == 0:
        return 0.0
    pref = (log_factorial(m) + log_factorial(n - m)
            - log_factorial(m_prime) - log_factorial(n - m_prime)
            + q * math.log(p) + (n - m_prime - m) * math.log1p(-p))
    return math.exp(pref + 2.0 * jac.log_magnitude)


class TestScalarChannelsPerTerm:
    # the channels build one (sign, ln) per term from floats; the values
    # must be those of per-factor SignedLog arithmetic, bit for bit

    @pytest.mark.parametrize("p", [0.1, 0.5, 0.9, 3e-5, 0.999])
    def test_bitwise_equal_to_per_factor_arithmetic(self, p):
        for n in range(1, 13):
            for m in range(n + 1):
                spec = TransferSpec(n, m, p)
                for mp in range(n + 1):
                    assert (bose_jacobi_probability(spec, mp)
                            == jacobi_per_factor(spec, mp))
                    assert (bose_amplitude_probability(spec, mp)
                            == pathway_sum_per_factor(spec, mp))

    @pytest.mark.parametrize("n, m, p", [(20, 10, 0.5), (25, 7, 0.5), (30, 12, 0.3)])
    def test_rounding_guard_fires_alike(self, n, m, p):
        spec = TransferSpec(n, m, p)
        raised = 0
        for mp in range(n + 1):
            try:
                ref = pathway_sum_per_factor(spec, mp)
            except ArithmeticError:
                raised += 1
                with pytest.raises(ArithmeticError):
                    bose_amplitude_probability(spec, mp)
                continue
            assert bose_amplitude_probability(spec, mp) == ref
        assert raised > 0


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
