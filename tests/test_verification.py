from bosecount.verification import run_verification

# (name, tolerance, cases) of every check, in report order.  Over n = 1..N
# with P pulses: the classical check covers n <= 16 and the three bosonic
# oracle checks n <= 10, one case per (n, m, p), sum of (n+1) P; the
# scalar channels one per (n, m, m', p), sum of (n+1)**2 P, less the
# entries beyond the pathway sum's resolution; the symmetries two per
# (n, m, m', p); the coincidence one per (n, p).
EXPECTED_9 = [
    ("classical vs 2**n enumeration", 1e-12, 270),
    ("bose vs first-quantized enumeration", 1e-10, 270),
    ("bose vs number-basis evolution", 1e-10, 270),
    ("bose first-quantized vs number-basis evolution", 1e-10, 270),
    ("bose vs Jacobi closed form", 1e-10, 1920),
    ("bose vs scalar pathway sum", 1e-10, 1920),
    ("single-particle unitarity (closed-form exponent)", 1e-12, 5),
    ("bose normalization", 1e-10, 270),
    ("empty-mode coincidence with classical", 0.0, 45),
    ("transfer symmetries (reverse, relabel)", 1e-12, 3840),
]

EXPECTED_20_HALF = [
    ("classical vs 2**n enumeration", 1e-12, 152),
    ("bose vs first-quantized enumeration", 1e-10, 65),
    ("bose vs number-basis evolution", 1e-10, 65),
    ("bose first-quantized vs number-basis evolution", 1e-10, 65),
    ("bose vs Jacobi closed form", 1e-10, 3310),
    ("bose vs scalar pathway sum (9 entries beyond its resolution skipped)",
     1e-10, 3301),
    ("single-particle unitarity (closed-form exponent)", 1e-12, 1),
    ("bose normalization", 1e-10, 230),
    ("empty-mode coincidence with classical", 0.0, 20),
    ("transfer symmetries (reverse, relabel)", 1e-12, 6620),
]


def summary(results):
    return [(r.name, r.tolerance, r.cases) for r in results]


def test_default_grid_checks_and_counts():
    results = run_verification(9)
    assert summary(results) == EXPECTED_9
    assert all(r.passed for r in results)


def test_single_pulse_grid_with_skipped_entries():
    results = run_verification(20, (0.5,))
    assert summary(results) == EXPECTED_20_HALF
    assert all(r.passed for r in results)

