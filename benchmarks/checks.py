"""Correctness checks made apart from bosecount.

Every reference here is computed from the defining sums in mpmath, with
no code shared with the package: finite-N entries from the (mu, nu)
pathway sum, limit entries from the rare-event pathway sum, Poisson
values and the recapture law in closed form.  Each checker raises
``CheckFailed`` naming the check; ``self_test`` feeds every checker a
correct output and a deliberately perturbed one.
"""

from __future__ import annotations

import json
import math
import random

import mpmath
import numpy as np

NORM_TOL = 1e-10       # |sum(p) - 1| of a row; the package's own floor
MOMENT_TOL = 1e-9      # relative, mean and variance; worst measured 1.1e-10
LIMIT_TOL = 1e-12      # relative, Poisson and recapture closed forms
LIMIT_SUM_TOL = 1e-11  # relative, bose limit entries; worst measured 2e-12 (m = 1000)
FIG5_GAP = 1e-3        # absolute, figure 5 exact columns vs their Poisson law
PLAN_TOL = 1e-12       # relative, planner p vs w/N
TINY = 1e-290          # references below this may underflow to zero
MAX_DPS = 400          # entries needing more digits than this are skipped
_AGREE = mpmath.mpf(10) ** -20


def entry_tol(n: int) -> float:
    """Relative tolerance of a finite-N entry: the 1e-10 oracle floor,
    widened to 8 ulps of ln(n!) (1.9e-9 at n = 1e5), the resolution of
    the ln-factorial differences every entry is built from."""
    return max(1e-10, 8.0 * 2.0 ** -52 * math.lgamma(n + 1.0))


class CheckFailed(Exception):
    def __init__(self, check: str, detail: str) -> None:
        super().__init__(f"{check}: {detail}")
        self.check = check


def _ln_binom(n: int, k: int) -> float:
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def _ladder(terms_at, lead: float, approx: float | None):
    """Evaluate ``terms_at(dps)`` at rising precision until two agree.

    ``lead`` is ln of the largest term and ``approx`` ln of the expected
    result; their gap sets the first precision.  Returns None when more
    than MAX_DPS digits would be needed.
    """
    cancel = 0 if approx is None else max(0, int((lead - approx) / math.log(10)))
    dps = 30 + cancel
    prev = None
    while dps <= MAX_DPS:
        with mpmath.workdps(dps):
            value = +terms_at(dps)
        if prev is not None and abs(value - prev) <= abs(value) * _AGREE:
            return value
        prev = value
        dps += 20
    return None


def pathway_entry(n: int, m: int, p: float, m_prime: int, bose: bool,
                  approx: float | None = None):
    """P(m_prime | m) for n particles from the literal pathway sum.

    Classical: sum over mu of C(m,mu) C(n-m,q+mu) p**(q+2mu)
    (1-p)**(n-q-2mu).  Bosons: C(n,m)/C(n,m') times the square of the
    same sum with sign (-1)**mu and halved powers.  ``approx`` (a double
    estimate of the result) only picks the starting precision.
    """
    q = m_prime - m
    lo, hi = max(0, -q), min(m, n - m - q)
    if lo > hi:
        return mpmath.mpf(0)
    half = 0.5 if bose else 1.0
    lp, l1p = math.log(p), math.log1p(-p)
    lead = max(_ln_binom(m, mu) + _ln_binom(n - m, q + mu)
               + half * ((q + 2 * mu) * lp + (n - q - 2 * mu) * l1p)
               for mu in range(lo, hi + 1))
    target = None
    if approx is not None and approx > 0.0:
        target = math.log(approx)
        if bose:
            target = 0.5 * (target - _ln_binom(n, m) + _ln_binom(n, m_prime))

    def terms_at(dps):
        pp = mpmath.mpf(p)
        qq = 1 - pp
        if bose:
            ratio = -pp / qq
            term = ((-1) ** lo * mpmath.binomial(m, lo) * mpmath.binomial(n - m, q + lo)
                    * mpmath.sqrt(pp) ** (q + 2 * lo) * mpmath.sqrt(qq) ** (n - q - 2 * lo))
        else:
            ratio = (pp / qq) ** 2
            term = (mpmath.binomial(m, lo) * mpmath.binomial(n - m, q + lo)
                    * pp ** (q + 2 * lo) * qq ** (n - q - 2 * lo))
        total = term
        for mu in range(lo, hi):
            term = term * ratio * ((m - mu) * (n - m - q - mu)) / ((mu + 1) * (q + mu + 1))
            total += term
        if bose:
            total = total * total * mpmath.binomial(n, m) / mpmath.binomial(n, m_prime)
        return total

    return _ladder(terms_at, lead, target)


def limit_entry(w: float, m: int, m_prime: int, approx: float | None = None):
    """Bosonic rare-event entry: w**q e**-w m'! m! times the square of
    sum over mu of (-w)**mu / (mu! (m-mu)! (q+mu)!)."""
    q = m_prime - m
    lo = max(0, -q)
    if lo > m:
        return mpmath.mpf(0)
    lw = math.log(w)
    lead = max(mu * lw - math.lgamma(mu + 1) - math.lgamma(m - mu + 1)
               - math.lgamma(q + mu + 1) for mu in range(lo, m + 1))
    target = None
    if approx is not None and approx > 0.0:
        target = 0.5 * (math.log(approx) - q * lw + w
                        - math.lgamma(m_prime + 1) - math.lgamma(m + 1))

    def terms_at(dps):
        ww = mpmath.mpf(w)
        total = mpmath.mpf(0)
        for mu in range(lo, m + 1):
            total += ((-ww) ** mu / (mpmath.factorial(mu) * mpmath.factorial(m - mu)
                                     * mpmath.factorial(q + mu)))
        return (ww ** q * mpmath.exp(-ww) * mpmath.factorial(m_prime)
                * mpmath.factorial(m) * total * total)

    return _ladder(terms_at, lead, target)


def poisson(w: float, k: int):
    if k < 0:
        return mpmath.mpf(0)
    with mpmath.workdps(40):
        return +(mpmath.mpf(w) ** k * mpmath.exp(-mpmath.mpf(w)) / mpmath.factorial(k))


def _close(value: float, ref, tol: float, scale=None) -> bool:
    if ref < TINY:
        return value <= 1e-280
    return abs(mpmath.mpf(value) - ref) <= tol * max(ref, scale or 0)


def check_entry(k: int, value: float, reference, tol: float, around=(None, None)) -> None:
    """Compare one entry with ``reference(k, approx)``, unless skipped.

    The error is taken relative to the larger of the reference and the
    geometric mean of the references at k - 1 and k + 1 (``around`` holds
    the program's values there, used only to pick the precision).  On a
    smooth row that is the entry itself; at an interference dip, where
    the amplitude cancels to a small part of its envelope, the envelope
    sets the scale, as it does for any double-precision evaluation.
    """
    ref = reference(k, value)
    if ref is None:
        return
    left, right = reference(k - 1, around[0]), reference(k + 1, around[1])
    scale = mpmath.sqrt(left * right) if left and right else None
    if not _close(value, ref, tol, scale):
        raise CheckFailed("entry", f"P({k}) = {value!r}, reference {mpmath.nstr(ref, 17)}")


def check_recapture(value: float, w: float, m: int) -> None:
    """Row 0 of the bosonic limit is w**m e**-w / m!."""
    if not _close(value, poisson(w, m), LIMIT_TOL):
        raise CheckFailed("recapture", f"P(0) = {value!r}, expected w**m e**-w / m!")


def check_range(probs: np.ndarray) -> None:
    if not (np.isfinite(probs).all() and (probs >= 0.0).all() and (probs <= 1.0).all()):
        raise CheckFailed("range", "entries outside [0, 1] or not finite")


def check_normalization(probs: np.ndarray) -> None:
    defect = math.fsum(probs) - 1.0
    if abs(defect) > NORM_TOL:
        raise CheckFailed("normalization", f"sum - 1 = {defect:.3e}")


def check_moments(probs: np.ndarray, start: int, mean: float, var: float) -> None:
    k = np.arange(start, start + len(probs), dtype=np.float64)
    got_mean = math.fsum(k * probs)
    got_var = math.fsum((k - mean) ** 2 * probs)
    for name, got, want in (("mean", got_mean, mean), ("variance", got_var, var)):
        if abs(got - want) > MOMENT_TOL * want:
            raise CheckFailed("moments", f"{name} {got!r}, expected {want!r}")


def check_entries(probs: np.ndarray, start: int, picks, reference, tol: float) -> None:
    """check_entry at each picked final count of a row starting at ``start``."""
    def held(j):
        return float(probs[j - start]) if 0 <= j - start < len(probs) else None

    for k in picks:
        check_entry(k, held(k), reference, tol, (held(k - 1), held(k + 1)))


def pick_entries(probs: np.ndarray, start: int, rng: random.Random) -> list[int]:
    """Two seeded final counts: one drawn from the row itself (bulk), one
    uniform over the entries a double holds without underflow (tails)."""
    u = rng.random()
    bulk = min(int(np.searchsorted(np.cumsum(probs), u)), len(probs) - 1)
    held = np.flatnonzero(probs >= 1e-280)
    tail = int(held[rng.randrange(len(held))])
    return [start + bulk, start + tail]


def check_exact_row(probs, n, m, p, bose, rng) -> None:
    if len(probs) != n + 1:
        raise CheckFailed("shape", f"{len(probs)} entries, expected {n + 1}")
    check_range(probs)
    check_normalization(probs)
    mean = m * (1.0 - 2.0 * p) + n * p
    var = p * (1.0 - p) * (n + 2.0 * m * (n - m)) if bose else n * p * (1.0 - p)
    check_moments(probs, 0, mean, var)
    check_entries(probs, 0, pick_entries(probs, 0, rng),
                         lambda k, a: pathway_entry(n, m, p, k, bose, a), entry_tol(n))


def check_limit_row(start, probs, w, m, bose, rng) -> None:
    check_range(probs)
    check_normalization(probs)
    if bose:
        if start != 0:
            raise CheckFailed("shape", f"bose limit starts at {start}")
        check_moments(probs, 0, m + w, w * (1.0 + 2.0 * m))
        check_recapture(float(probs[0]), w, m)
        check_entries(probs, 0, pick_entries(probs, 0, rng),
                      lambda k, a: limit_entry(w, m, k, a), LIMIT_SUM_TOL)
        return
    if start != m:
        raise CheckFailed("shape", f"classical limit starts at {start}, not m={m}")
    check_moments(probs, m, m + w, w)
    check_entries(probs, m, range(m, m + len(probs)), lambda k, a: poisson(w, k - m), LIMIT_TOL)


# ---- CLI output -------------------------------------------------------

def parse_rows_csv(text: str) -> tuple[int, np.ndarray]:
    lines = text.split("\n")
    if lines[0] != "m_prime,probability" or lines[-1] != "":
        raise CheckFailed("format", "bad CSV header or missing final LF")
    pairs = [line.split(",") for line in lines[1:-1]]
    return _consecutive([int(k) for k, _ in pairs], [float(v) for _, v in pairs])


def parse_rows_json(text: str) -> tuple[dict, int, np.ndarray]:
    doc = json.loads(text)
    start, probs = _consecutive([int(k) for k, _ in doc["rows"]], [v for _, v in doc["rows"]])
    return doc["meta"], start, probs


def _consecutive(counts, values) -> tuple[int, np.ndarray]:
    if not counts or counts != list(range(counts[0], counts[0] + len(counts))):
        raise CheckFailed("format", "final counts are not consecutive")
    return counts[0], np.array(values, dtype=np.float64)


def parse_table(text: str, header: list[str]) -> list[list[float]]:
    lines = text.split("\n")
    if lines[0] != ",".join(header) or lines[-1] != "":
        raise CheckFailed("format", f"expected header {','.join(header)}")
    return [[float(v) for v in line.split(",")] for line in lines[1:-1]]


def check_surface(rows, n: int, p: float, bose: bool) -> None:
    """Figures 3 and 4: P(m'|m) for m, m' = 0..12, every entry."""
    if [(int(a), int(b)) for a, b, _ in rows] != [(a, b) for a in range(13) for b in range(13)]:
        raise CheckFailed("format", "surface grid is not m, m' = 0..12")
    for i, (a, b, value) in enumerate(rows):
        around = (rows[i - 1][2] if b > 0 else None, rows[i + 1][2] if b < 12 else None)
        check_entry(int(b), value, lambda k, x, a=int(a): pathway_entry(n, a, p, k, bose, x),
                    entry_tol(n), around)


def check_sections(rows, n: int, p: float) -> None:
    """Figure 6: bosonic P(1|m) and P(m|m) for m = 0..15."""
    if [int(r[0]) for r in rows] != list(range(16)):
        raise CheckFailed("format", "figure 6 rows are not m = 0..15")
    for a, into_one, same in rows:
        for target, value in ((1, into_one), (int(a), same)):
            check_entry(target, value, lambda k, x, a=int(a): pathway_entry(n, a, p, k, True, x),
                        entry_tol(n))


def check_figure5(rows, n: int) -> None:
    if [int(r[0]) for r in rows] != list(range(16)):
        raise CheckFailed("format", "figure 5 rows are not m = 0..15")
    for row in rows:
        m = int(row[0])
        for col, w in enumerate((1, 3, 5)):
            exact, limit = row[1 + 2 * col], row[2 + 2 * col]
            if not _close(limit, poisson(float(w), m), LIMIT_TOL):
                raise CheckFailed("figure5", f"Poisson column m={m} w={w}: {limit!r}")
            if abs(exact - limit) > FIG5_GAP:
                raise CheckFailed("figure5", f"exact m={m} w={w} is {abs(exact - limit):.2e} off")
            check_entry(0, exact, lambda k, a: pathway_entry(n, m, w / n, k, True, a),
                        entry_tol(n))


def check_plan(doc: dict, n: int, m: int, w: float, xi: float, rng) -> None:
    target = w / n
    omega = abs(xi)
    reached = math.sin(omega * doc["tau"]) ** 2   # epsilon = eta = 0
    for name, got in (("achieved_p", doc["achieved_p"]), ("p(tau)", reached)):
        if abs(got - target) > PLAN_TOL * target:
            raise CheckFailed("plan", f"{name} = {got!r}, expected w/N = {target!r}")
    predicted = doc["predicted"]
    counts = sorted(int(k) for k in predicted)
    probs = np.array([predicted[str(k)] for k in counts])
    if counts != list(range(len(counts))) or doc["headline"] != probs[0]:
        raise CheckFailed("plan", "predicted rows or headline malformed")
    if abs(math.fsum(probs) + doc["meta"]["predicted_tail_bound"] - 1.0) > NORM_TOL:
        raise CheckFailed("normalization", "predicted mass plus tail bound is not 1")
    p = doc["achieved_p"]
    check_entries(probs, 0, [0] + pick_entries(probs, 0, rng),
                         lambda k, a: pathway_entry(n, m, p, k, True, a), entry_tol(n))


def check_verify_output(code: int, text: str, grid_points: int) -> int:
    lines = text.splitlines()
    if code != 0 or not lines or any(not line.startswith("PASS ") for line in lines):
        raise CheckFailed("verify", f"exit {code}, not every line PASS")
    tolerances, cases = [], []
    for line in lines:
        tail = line.rsplit("(tolerance ", 1)[1]
        tolerances.append(float(tail.split(",")[0]))
        cases.append(int(tail.split(", ")[1].split(" ")[0]))
    check_verify_coverage(tolerances, cases, grid_points)
    return len(lines)


def check_verify_coverage(tolerances, cases, grid_points: int) -> None:
    if max(tolerances) > 1e-10:
        raise CheckFailed("verify", f"a tolerance of {max(tolerances)} exceeds 1e-10")
    if max(cases) < grid_points:
        raise CheckFailed("verify", f"no check covers the {grid_points}-point grid")


def verify_grid_points(max_n: int, p_values: int = 5) -> int:
    """(n, m, m', p) points of the verification grid, n = 1..max_n."""
    return p_values * sum((n + 1) ** 2 for n in range(1, max_n + 1))


# ---- self-test --------------------------------------------------------

def _expect_failure(name: str, check, *args) -> None:
    try:
        check(*args)
    except CheckFailed:
        return
    raise AssertionError(f"self-test: checker {name} accepted a perturbed output")


def self_test() -> None:
    """Each checker passes a reference output and rejects a perturbed one."""
    rng = random.Random(0)
    n, m, p = 12, 4, 0.3
    for bose in (True, False):
        row = np.array([float(pathway_entry(n, m, p, k, bose)) for k in range(n + 1)])
        check_exact_row(row, n, m, p, bose, rng)
        _expect_failure("normalization", check_normalization, row * (1.0 + 1e-8))
        shifted = row.copy()
        shifted[5] -= 1e-7
        shifted[6] += 1e-7
        mean = m * (1 - 2 * p) + n * p
        var = p * (1 - p) * (n + 2 * m * (n - m)) if bose else n * p * (1 - p)
        _expect_failure("moments", check_moments, shifted, 0, mean, var)
        bent = row.copy()
        bent[7] *= 1.0 + 1e-7
        _expect_failure("entry", check_entries, bent, 0, [7],
                        lambda k, a: pathway_entry(n, m, p, k, bose, a), entry_tol(n))
        _expect_failure("shape", check_exact_row, row[:-1], n, m, p, bose, rng)
        _expect_failure("range", check_range, -row)
    w, m = 3.0, 3
    bose_lim = np.array([float(limit_entry(w, m, k)) for k in range(40)])
    check_limit_row(0, bose_lim, w, m, True, rng)
    _expect_failure("recapture", check_recapture, bose_lim[0] * (1.0 + 1e-9), w, m)
    pois = np.array([float(poisson(w, q)) for q in range(30)])
    check_limit_row(m, pois, w, m, False, rng)
    bent = pois.copy()
    bent[4] *= 1.0 + 1e-9
    _expect_failure("poisson", check_limit_row, m, bent, w, m, False, rng)
    _expect_failure("consecutive", parse_rows_csv, "m_prime,probability\n0,0.5\n2,0.5\n")
    rows = [[k] + [v for w_col in (1, 3, 5) for v in (float(poisson(w_col, k)),) * 2]
            for k in range(16)]
    bent = [row[:] for row in rows]
    bent[3][2] *= 1.0 + 1e-9
    _expect_failure("figure5 Poisson", check_figure5, bent, 10 ** 5)
    bent = [row[:] for row in rows]
    bent[3][1] += 2e-3
    _expect_failure("figure5 gap", check_figure5, bent, 10 ** 5)
    plan = {"tau": math.asin(math.sqrt(3e-5)), "achieved_p": 3e-5 * (1 + 1e-9),
            "headline": 1.0, "predicted": {"0": 1.0}, "meta": {"predicted_tail_bound": 0.0}}
    _expect_failure("plan", check_plan, plan, 10 ** 5, 3, 3.0, 1.0, rng)
    passing = "PASS a: max deviation 0.0 (tolerance 1.0e-10, 695 cases)\n"
    check_verify_output(0, passing, 695)
    _expect_failure("verify exit", check_verify_output, 1, passing, 695)
    _expect_failure("verify line", check_verify_output, 0, passing.replace("PASS", "FAIL"), 695)
    _expect_failure("verify tolerance", check_verify_output, 0,
                    passing.replace("1.0e-10", "1.0e-09"), 695)
    _expect_failure("verify grid", check_verify_output, 0, passing, 696)
