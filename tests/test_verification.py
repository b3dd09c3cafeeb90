from bosecount.verification import run_verification

# (name, tolerance, cases) of every check, in report order.  Over n = 1..N
# with P pulses: the enumeration check covers n <= 16 and the three bosonic
# oracle checks n <= 10, one case per (n, m, p), sum of (n+1) P; the exact
# convolution one per (n, m, p) up to N; the exact pathway sum one per
# (n, m, m', p), sum of (n+1)**2 P; the limit check one per (w, m, m') with
# three w, m <= N and m' <= 2N; the symmetries two per (n, m, m', p); the
# coincidence one per (n, p).
EXPECTED_9 = [
    ("classical vs 2**n enumeration", 1e-12, 270),
    ("classical vs exact convolution", 1e-12, 270),
    ("bose vs first-quantized enumeration", 1e-10, 270),
    ("bose vs number-basis evolution", 1e-10, 270),
    ("bose first-quantized vs number-basis evolution", 1e-10, 270),
    ("bose vs exact pathway sum", 1e-12, 1920),
    ("bose limit vs exact Laguerre form", 1e-12, 570),
    ("single-particle unitarity", 1e-12, 5),
    ("bose normalization", 1e-10, 270),
    ("empty-mode coincidence with classical", 0.0, 45),
    ("transfer symmetries (reverse, relabel)", 1e-12, 3840),
]

EXPECTED_20_HALF = [
    ("classical vs 2**n enumeration", 1e-12, 152),
    ("classical vs exact convolution", 1e-12, 230),
    ("bose vs first-quantized enumeration", 1e-10, 65),
    ("bose vs number-basis evolution", 1e-10, 65),
    ("bose first-quantized vs number-basis evolution", 1e-10, 65),
    ("bose vs exact pathway sum", 1e-12, 3310),
    ("bose limit vs exact Laguerre form", 1e-12, 2583),
    ("single-particle unitarity", 1e-12, 1),
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


def test_single_pulse_grid():
    # p = 0.5 at n = 20 is where the old float pathway sum lost entries
    # to cancellation; the exact oracle covers every one
    results = run_verification(20, (0.5,))
    assert summary(results) == EXPECTED_20_HALF
    assert all(r.passed for r in results)
