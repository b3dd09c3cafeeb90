"""Acceptance gate: one test per criterion, at the stated tolerances.

Each test prints a single summary line (visible with pytest -s or in the
captured output) after its assertions pass.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import eval_laguerre

from bosecount.distributions import (
    RareEventSpec,
    TransferSpec,
    bose_exact,
    bose_rare_limit,
    classical_exact,
    figure_table,
)
from bosecount.dynamics import TwoLevelParams, evolve, solve_pulse_duration
from bosecount.oracles import (
    enumerate_bose_first_quantized,
    fock_evolve,
    mc_sample_classical,
)
from bosecount.verification import run_verification
from test_distributions import jacobi_exact

P_GRID = (0.1, 0.3, 0.5, 0.7, 0.9)
HEADLINE = TransferSpec(100000, 3, 3e-5)


def report(number: int, message: str) -> None:
    print(f"ACCEPTANCE {number} PASS: {message}")


def unitary_with_p(params: TwoLevelParams, p: float):
    tau = solve_pulse_duration(params, p)
    return evolve(params, tau), tau


def test_criterion_1_headline_recapture():
    start = time.perf_counter()
    dist = bose_exact(HEADLINE)
    elapsed = time.perf_counter() - start
    got = dist.probs[0]
    limit = 3.0 ** 3 * math.exp(-3.0) / math.factorial(3)
    assert abs(got - 0.2240) <= 1e-3
    assert abs(got - limit) <= 1e-3
    assert limit == pytest.approx(0.2240418, abs=5e-8)
    assert 0.22 < got < 0.25  # found empty in just under a quarter of runs
    assert elapsed < 1.0
    report(1, f"bosonic P(0<-3) = {got:.7f} vs limit {limit:.7f} "
              f"(N=1e5, {elapsed * 1e3:.0f} ms)")


def test_criterion_2_classical_contrast():
    start = time.perf_counter()
    dist = classical_exact(HEADLINE)
    elapsed = time.perf_counter() - start
    recapture_mass = float(dist.probs[:3].sum())
    empty = float(dist.probs[0])
    assert recapture_mass <= 1e-4
    assert empty <= 1e-12
    assert elapsed < 1.0
    report(2, f"classical P(m'<3) = {recapture_mass:.3e}, "
              f"P(0<-3) = {empty:.3e} ({elapsed * 1e3:.0f} ms)")


def test_criterion_3_two_boson_interference_null():
    bose = bose_exact(TransferSpec(2, 1, 0.5)).probs[1]
    classical = classical_exact(TransferSpec(2, 1, 0.5)).probs[1]
    assert abs(bose) <= 1e-12
    assert classical == pytest.approx(0.5, abs=1e-12)
    report(3, f"bose P(1<-1) = {bose:.1e} vs classical {classical:.3f}")


def test_criterion_4_oracle_equivalence_small_scale():
    # run_verification's N <= 8 grid: classical vs 2**N enumeration, the
    # bose closed form, first-quantized enumeration and number-basis
    # evolution pairwise on the detuned complex-tunnelling pulse, and the
    # finite and limit rows against the exact-integer oracles
    start = time.perf_counter()
    checks = {r.name: r for r in run_verification(8)}
    elapsed = time.perf_counter() - start
    three_way = [checks[name] for name in (
        "bose vs first-quantized enumeration",
        "bose vs number-basis evolution",
        "bose first-quantized vs number-basis evolution")]
    classical = checks["classical vs 2**n enumeration"]
    exact = [checks[name] for name in (
        "classical vs exact convolution",
        "bose vs exact pathway sum",
        "bose limit vs exact Laguerre form")]
    worst_bose = max(r.max_deviation for r in three_way)
    worst_classical = classical.max_deviation
    cases = classical.cases
    assert all(r.cases == cases for r in three_way)
    assert all(r.passed for r in checks.values())
    assert worst_bose <= 1e-10
    assert worst_classical <= 1e-12
    assert all(r.tolerance <= 1e-12 for r in exact)
    assert elapsed < 30.0
    exact_devs = ", ".join(f"{r.name} {r.max_deviation:.2e}" for r in exact)
    report(4, f"{cases} cases, bose three-way dev {worst_bose:.2e}, "
              f"classical dev {worst_classical:.2e}, {exact_devs} ({elapsed:.1f} s)")


def test_criterion_5_fock_oracle_scale_check():
    rng = np.random.Generator(np.random.PCG64(20260809))
    worst = 0.0
    for _ in range(5):
        params = TwoLevelParams(rng.uniform(-1, 1), rng.uniform(0.3, 1.5),
                                rng.uniform(-1, 1))
        t = rng.uniform(0.1, 3.0)
        m = int(rng.integers(0, 201))
        u = evolve(params, t)
        got = fock_evolve(200, params, t, m).probs
        exact = bose_exact(TransferSpec(200, m, u.p)).probs
        worst = max(worst, float(np.abs(got - exact).max()))
    assert worst <= 1e-8
    report(5, f"N=200 number-basis evolution vs closed form, dev {worst:.2e}")


def test_criterion_6_normalization_and_symmetries():
    phase_sets = [
        TwoLevelParams(0.0, 1.0, 0.0),
        TwoLevelParams(0.5, 1.0, 0.0),
        TwoLevelParams(0.0, 0.8, 0.6),
        TwoLevelParams(-0.7, 0.3, 1.1),
        TwoLevelParams(0.2, -1.0, 0.4),
    ]
    worst_norm = 0.0
    worst_sym = 0.0
    for n, m_grid in ((10, range(11)), (100, (0, 1, 3, 7, 25, 50, 99)),
                      (10 ** 4, (0, 1, 2, 3, 5, 8, 12))):
        for p in P_GRID:
            table = {m: bose_exact(TransferSpec(n, m, p)).probs for m in m_grid}
            for m in m_grid:
                worst_norm = max(worst_norm, abs(float(table[m].sum()) - 1.0),
                                 abs(classical_exact(TransferSpec(n, m, p)).total() - 1.0))
                relabeled = bose_exact(TransferSpec(n, n - m, p)).probs
                for mp in m_grid:
                    worst_sym = max(
                        worst_sym,
                        abs(float(table[m][mp] - table[mp][m])),
                        abs(float(table[m][mp] - relabeled[n - mp])))
    assert worst_norm <= 1e-10
    assert worst_sym <= 1e-12

    worst_phase = 0.0
    for p in (0.2, 0.6):
        small = [enumerate_bose_first_quantized(
            10, 4, unitary_with_p(ps, p)[0]).probs for ps in phase_sets]
        mid = [fock_evolve(100, ps, unitary_with_p(ps, p)[1], 7).probs
               for ps in phase_sets]
        big = [bose_exact(TransferSpec(10 ** 4, 3, unitary_with_p(ps, p)[0].p)).probs
               for ps in phase_sets]
        for batch in (small, mid, big):
            for other in batch[1:]:
                worst_phase = max(worst_phase, float(np.abs(batch[0] - other).max()))
    assert worst_phase <= 1e-12
    report(6, f"norm dev {worst_norm:.2e}, symmetry dev {worst_sym:.2e}, "
              f"phase dev {worst_phase:.2e}")


def test_criterion_7_limit_convergence():
    w = 3.0
    sup_bose = []
    sup_classical = []
    for n in (10 ** 3, 10 ** 4, 10 ** 5):
        p = w / n
        worst_b = 0.0
        worst_c = 0.0
        for m in range(11):
            exact_b = bose_exact(TransferSpec(n, m, p)).probs[:11]
            lim_b = bose_rare_limit(RareEventSpec(w, m), 10).probs
            worst_b = max(worst_b, float(np.abs(exact_b - lim_b).max()))
            exact_c = classical_exact(TransferSpec(n, m, p)).probs[:11]
            lim_c = np.zeros(11)
            for mp in range(m, 11):
                q = mp - m
                lim_c[mp] = w ** q * math.exp(-w) / math.factorial(q)
            worst_c = max(worst_c, float(np.abs(exact_c - lim_c).max()))
        sup_bose.append(worst_b)
        sup_classical.append(worst_c)
    assert sup_bose[0] > sup_bose[1] > sup_bose[2]
    assert sup_classical[0] > sup_classical[1] > sup_classical[2]
    assert sup_bose[-1] <= 1e-3
    assert sup_classical[-1] <= 5e-4
    # the O(1/N) law: the observed constant C = N * sup stays bounded
    constants = [n * s for n, s in zip((10 ** 3, 10 ** 4, 10 ** 5), sup_bose)]
    assert constants[0] >= constants[1] >= constants[2]
    report(7, f"sup deviation vs limit, bose {sup_bose} classical {sup_classical}, "
              f"C=N*sup {constants}")


def test_criterion_8_figure_reproduction():
    start = time.perf_counter()
    tables = {fig: figure_table(fig, 100000, 3.0)[1] for fig in (3, 4, 5, 6)}
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0

    classical_corner = {(r[0], r[1]): r[2] for r in tables[3]}
    bose_corner = {(r[0], r[1]): r[2] for r in tables[4]}
    for m in range(6):
        assert bose_corner[(m, 0)] > 0.01
    # classical recapture suppression (w/N)**m exp(-w): below 1e-10 from
    # m = 2 at N = 1e5; at m = 1 the law itself sits at ~1.5e-6
    for m in range(2, 6):
        assert classical_corner[(m, 0)] < 1e-10
    p = 3.0 / 100000
    law_m1 = p * math.exp(100000 * math.log1p(-p))
    assert classical_corner[(1, 0)] == pytest.approx(law_m1, rel=1e-2)
    assert classical_corner[(1, 0)] < 1e4 * bose_corner[(1, 0)] * 1e-4

    into_one = [r[1] for r in tables[6]]
    unchanged = [r[2] for r in tables[6]]
    # bimodality: interior local minimum of P(1 <- m) at m = w
    minima_into_one = [m for m in range(1, 15)
                       if into_one[m] < into_one[m - 1] and into_one[m] < into_one[m + 1]]
    assert 3 in minima_into_one
    assert into_one[3] < 1e-6 < into_one[1] and into_one[5] > 0.1

    # near-zeros of P(m <- m) sit where |L_m(3)| has local minima
    lag = [eval_laguerre(m, 3.0) for m in range(16)]
    expected_dips = [m for m in range(1, 15)
                     if abs(lag[m]) < abs(lag[m - 1]) and abs(lag[m]) < abs(lag[m + 1])]
    observed_dips = [m for m in range(1, 15)
                     if unchanged[m] < unchanged[m - 1] and unchanged[m] < unchanged[m + 1]]
    assert expected_dips == observed_dips
    assert 2 in observed_dips and 6 in observed_dips

    # rare-event values behind the dips agree with the independent
    # Laguerre evaluation to 1e-12
    worst = 0.0
    for m in range(16):
        ref = math.exp(-3.0) * lag[m] ** 2
        got = bose_rare_limit(RareEventSpec(3.0, m), m).probs[m]
        worst = max(worst, abs(got - ref) / max(ref, 1e-3))
    assert worst <= 1e-12
    report(8, f"figures in {elapsed:.2f} s, dips at {observed_dips}, "
              f"Laguerre dev {worst:.2e}")


def test_criterion_9_monte_carlo():
    spec = TransferSpec(20, 5, 0.1)
    trials = 10 ** 6
    first = mc_sample_classical(spec, trials, seed=42)
    second = mc_sample_classical(spec, trials, seed=42)
    assert np.array_equal(first.probs, second.probs)
    assert first.model == "empirical" and first.meta["trials"] == trials
    counts = np.rint(first.probs * trials)
    assert counts.sum() == trials
    exact = classical_exact(spec).probs
    expected = trials * exact
    se = np.sqrt(trials * exact * (1 - exact))
    deviations = np.abs(counts - expected)
    assert np.all(deviations <= 4 * se + 1e-9)
    worst_sigma = float((deviations / np.maximum(se, 1e-300)).max())
    report(9, f"1e6 seeded trials, worst bin at {worst_sigma:.2f} sigma, "
              f"frequencies bit-identical on rerun")


def test_criterion_10_documented_defect_guard():
    results = {}
    for p in P_GRID:
        n = m = m_prime = 1
        jac = float(jacobi_exact(m, n - m_prime - m, m_prime - m, Fraction(2 * p - 1)))
        scale = (math.log(math.factorial(m)) + math.log(math.factorial(n - m))
                 - math.log(math.factorial(m_prime))
                 - math.log(math.factorial(n - m_prime))
                 + (m_prime - m) * math.log(p))
        printed = math.exp(scale + (n - m_prime + m) * math.log1p(-p)) * jac ** 2
        corrected = math.exp(scale + (n - m_prime - m) * math.log1p(-p)) * jac ** 2
        assert abs(printed - (1 - p)) > 0.04          # broken exponent
        assert corrected == pytest.approx(1 - p, abs=1e-12)
        assert bose_exact(TransferSpec(1, 1, p)).probs[1] == pytest.approx(1 - p, abs=1e-12)
        results[p] = printed
    report(10, f"sign-flipped exponent yields (1-p)**3, e.g. {results[0.5]:.3f} "
               f"instead of 0.5 at p=0.5; corrected form passes unitarity")
