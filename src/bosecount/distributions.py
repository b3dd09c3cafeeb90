"""Occupation-transfer distributions for N two-level particles.

One mode (the "marked" mode) starts with m particles, the other with
N - m; each particle switches modes with probability p.  ``m_prime``
counts the particles found in the marked mode afterwards and
``q = m_prime - m`` is the net transfer.

Distinguishable particles add probabilities over the (mu, nu) pathways
that move mu particles out of and nu = q + mu particles into the marked
mode.  Identical bosons add amplitudes instead: each pathway enters
with sign (-1)**mu and square-root powers of p and 1 - p, and the
squared pathway sum carries the prefactor C(N,m)/C(N,m_prime).  The
phases of the one-particle matrix elements drop out of every pathway of
fixed q, so both models depend on p alone.

In the rare-event regime (N -> infinity at fixed w = N*p) the classical
model becomes the Poisson law in q >= 0 while the bosonic pathway sum
keeps every mu alive, producing a structured distribution with finite
probability for net transfer *out of* the sparse mode, down to full
recapture with probability w**m * exp(-w) / m!.  The tables behind the
reference figures are built here too, from the same kernels.

Routes of a finite-N row (``transfer_probabilities``): p in {0, 1} is a
point mass and m in {0, N} the binomial law.  Bosonic rows with
min(m, N - m) <= 20 evaluate each entry through the Jacobi closed form
on the symmetric image of (m, m'), which keeps the reversal symmetry
bitwise.  Every other row, classical or bosonic, is swept over its
support window by Miller's method for the minimal solution of a
three-term recurrence in m' (Gautschi, SIAM Review 9, 1967): O(window)
work instead of O(N min(m, N - m)), and no ln k! table.
"""

from __future__ import annotations

import math
import operator
from array import array
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .numerics import MAX_TABLE_N, log_factorial, log_factorial_array

__all__ = [
    "MODEL_TAGS",
    "TransferSpec",
    "RareEventSpec",
    "OccupancyDistribution",
    "transfer_probabilities",
    "classical_exact",
    "classical_rare_limit",
    "bose_exact",
    "bose_rare_limit",
    "recapture_probability",
    "figure_min_n",
    "figure_table",
]

MODEL_TAGS = frozenset({
    "classical-exact",
    "classical-limit",
    "bose-exact",
    "bose-limit",
    "oracle",
    "empirical",
})

# Terms processed per kernel block; bounds peak temporaries to tens of MB.
_BLOCK_TERMS = 1 << 21

# Auto-truncation of the limit distributions: stop once this many
# consecutive probabilities fall below _TAIL_PROB_EPS while the Poisson
# weight remaining in the prefactor is below _TAIL_MASS_EPS.
_TAIL_PROB_EPS = 1e-14
_TAIL_MASS_EPS = 1e-12
_TAIL_RUN = 3

# Bosonic rows with min(m, n - m) up to this count take the Jacobi-image
# route, whose reversal symmetry is bitwise; the others, and every
# classical row with 0 < m < n, take the support-window sweep.
_SWEEP_MIN_COUNT = 20

# The sweep window starts at mean +- (45 sd + 30) and its margin doubles
# until each edge sits at 0 or n or at least _EDGE_DROP below the peak
# in ln, beyond the double range, where the Miller start's error is lost.
_WINDOW_SDS = 45.0
_WINDOW_PAD = 30.0
_EDGE_DROP = 800.0
# Points past the bosonic split point swept from both sides, at most one
# sd so they stay inside the oscillating region (half-width ~1.4 sd); the
# sweeps are matched at the one of largest magnitude, never at a node.
_BOSE_OVERLAP = 8
# The sweep rescales by a power of two once a value leaves [2**-500,
# 2**500].  Below _TINY_P one step can grow a value by ~1/p, beyond that
# headroom, so the sweep runs on x(k) * p**(k - k0) (sqrt(p) for bosons).
_SWEEP_HUGE = 2.0 ** 500
_SWEEP_TINY = 2.0 ** -500
_TINY_P = 1e-100
_LN2 = math.log(2.0)

# Points of the ln z grid searched for the bosonic limit's Chernoff tail
# bound; any z > 1 gives a valid bound, so the grid only has to be dense
# enough to land near the minimum.
_CHERNOFF_GRID = 64


def _as_count(name: str, value) -> int:
    """value as a Python int; bools and non-integral numbers are rejected,
    numpy integers accepted."""
    if isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class TransferSpec:
    """Finite-size problem: n particles, m initially marked, switch
    probability p.

    n is capped at MAX_TABLE_N = 2**22, where the ln k! table read by the
    binomial (m in {0, n}) and Jacobi-image rows reaches 32 MiB.
    """

    n: int
    m: int
    p: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", _as_count("n", self.n))
        object.__setattr__(self, "m", _as_count("m", self.m))
        if self.n < 1:
            raise ValueError(f"n must be a positive integer, got {self.n!r}")
        if self.n > MAX_TABLE_N:
            raise ValueError(f"n must be at most {MAX_TABLE_N}, got {self.n!r}")
        if not 0 <= self.m <= self.n:
            raise ValueError(f"m must lie in 0..n, got {self.m!r}")
        if not (math.isfinite(self.p) and 0.0 <= self.p <= 1.0):
            raise ValueError(f"p must lie in [0, 1], got {self.p!r}")


@dataclass(frozen=True)
class RareEventSpec:
    """Limit problem: mean event number w = n*p at n -> infinity, with m
    particles initially in the marked mode.

    m is capped at MAX_TABLE_N, the cap on the ln k! table the bosonic
    tail bound reads, and so is w, which sets the length of the limit
    supports.
    """

    w: float
    m: int = 0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.w) and 0.0 <= self.w <= MAX_TABLE_N):
            raise ValueError(f"w must lie in [0, {MAX_TABLE_N}], got {self.w!r}")
        object.__setattr__(self, "m", _as_count("m", self.m))
        if not 0 <= self.m <= MAX_TABLE_N:
            raise ValueError(f"m must lie in 0..{MAX_TABLE_N}, got {self.m!r}")


@dataclass(frozen=True)
class OccupancyDistribution:
    """Probabilities over a contiguous range of final marked-mode counts.

    ``start`` is the first m_prime of the support; ``probs[i]`` is the
    probability of m_prime = start + i.  ``meta`` carries the generating
    parameters plus model-specific extras such as truncation tail bounds.
    """

    model: str
    start: int
    probs: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.model not in MODEL_TAGS:
            raise ValueError(f"unknown model tag {self.model!r}")
        probs = np.asarray(self.probs, dtype=np.float64)
        if probs.ndim != 1 or probs.size == 0:
            raise ValueError("probs must be a nonempty 1-d array")
        if not np.isfinite(probs).all():
            raise ValueError("probabilities must be finite")
        if probs.min() < 0.0 or probs.max() > 1.0 + 1e-9:
            raise ValueError("probabilities outside [0, 1]")
        probs = np.minimum(probs, 1.0)
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)

    @property
    def support(self) -> range:
        return range(self.start, self.start + len(self.probs))

    def probability(self, m_prime: int) -> float:
        """Probability of a final count, zero outside the stored support."""
        idx = m_prime - self.start
        if 0 <= idx < len(self.probs):
            return float(self.probs[idx])
        return 0.0

    def total(self) -> float:
        return float(self.probs.sum())


def _point_mass(target: int, lo: int, hi: int) -> np.ndarray:
    out = np.zeros(hi - lo + 1)
    if lo <= target <= hi:
        out[target - lo] = 1.0
    return out


def _binomial_log_pmf(n: int, counts: np.ndarray, lp: float, l1p: float,
                      lf: np.ndarray) -> np.ndarray:
    """ln of C(n, counts) * p**counts * (1-p)**(n-counts)."""
    c = counts.astype(np.float64)
    return lf[n] - lf[counts] - lf[n - counts] + c * lp + (n - c) * l1p


def _scaled_recurrence(deg: np.ndarray, first: np.ndarray,
                       coeffs) -> tuple[np.ndarray, np.ndarray]:
    """Per-column degree member of a three-term recurrence, as (value,
    offset) with the member equal to value * exp(offset).

    The recurrence starts from 1 at degree 0 and ``first`` at degree 1;
    ``coeffs(k)`` gives the (A, B, C) of degree k >= 2, scalars or
    per-column arrays, in nxt = (A*curr - B*prev)/C.  All columns step
    together and each is harvested when its degree is reached; the
    running pair is rescaled out of the 1e150 range into the offset.
    """
    prev = np.ones(deg.size)
    curr = first
    offset = np.zeros(deg.size)
    out_val = np.where(deg == 0, 1.0, 0.0)
    out_off = np.zeros(deg.size)
    take = deg == 1
    out_val[take] = curr[take]
    for k in range(2, int(deg.max(initial=0)) + 1):
        a, b, c = coeffs(k)
        nxt = (a * curr - b * prev) / c
        prev = curr
        curr = nxt
        mag = np.maximum(np.abs(prev), np.abs(curr))
        need = (mag > 1e150) | ((mag > 0.0) & (mag < 1e-150))
        if need.any():
            scale = np.where(need, mag, 1.0)
            prev = prev / scale
            curr = curr / scale
            offset = offset + np.where(need, np.log(scale), 0.0)
        take = deg == k
        if take.any():
            out_val[take] = curr[take]
            out_off[take] = offset[take]
    return out_val, out_off


def _bose_log_range(n: int, m: int, p: float,
                    mp_lo: int, mp_hi: int) -> np.ndarray:
    """ln of the bosonic P(m_prime) for m_prime in [mp_lo, mp_hi];
    requires 0 < m < n and 0 < p < 1.

    Every entry equals the squared alternating pathway sum, but that sum
    cancels catastrophically away from the rare-event corner (measured
    16 orders of magnitude lost at n=1e4, m=8, mid-support).  The stable
    route is the Jacobi closed form taken on the symmetric image of
    (m, m_prime) with the smallest initial count i = min(m, m_prime,
    n-m, n-m_prime): there both polynomial parameters are nonnegative,
    so the degree-i recurrence applies uniformly.  Because all four
    images of a configuration pick the same (i, f) pair, the reversal
    and mode-relabel symmetries hold exactly, not just to roundoff.
    """
    lf = log_factorial_array(n)
    lp = math.log(p)
    l1p = math.log1p(-p)
    mp = np.arange(mp_lo, mp_hi + 1)
    cand_i = np.empty((4, mp.size), dtype=np.int64)
    cand_f = np.empty((4, mp.size), dtype=np.int64)
    cand_i[0] = m
    cand_f[0] = mp
    cand_i[1] = mp
    cand_f[1] = m
    cand_i[2] = n - m
    cand_f[2] = n - mp
    cand_i[3] = n - mp
    cand_f[3] = n - m
    sel = np.argmin(cand_i, axis=0)
    cols = np.arange(mp.size)
    i = cand_i[sel, cols]
    f = cand_f[sel, cols]
    # Jacobi P_i^(a, b)(x) with a = n - f - i, b = f - i
    a = (n - f - i).astype(np.float64)
    b = (f - i).astype(np.float64)
    x = 2.0 * p - 1.0
    ab = a + b
    c3 = a * a - b * b

    def coeffs(k):
        t = 2.0 * k + ab
        return ((t - 1.0) * (t * (t - 2.0) * x + c3),
                2.0 * (k + a - 1.0) * (k + b - 1.0) * t,
                2.0 * k * (k + ab) * (t - 2.0))

    jac, jac_off = _scaled_recurrence(
        i, (a - b) / 2.0 + (ab + 2.0) * (x / 2.0), coeffs)
    with np.errstate(divide="ignore"):
        jac_log = np.log(np.abs(jac)) + jac_off
    logp = (lf[i] + lf[n - i] - lf[f] - lf[n - f]
            + b * lp + a * l1p + 2.0 * jac_log)
    return np.where(jac == 0.0, -np.inf, logp)


def _miller_sweep(n: int, m: int, p: float, bose: bool, sigma: float,
                  k0: int, k1: int) -> tuple[array, list]:
    """x(k0..k1) of the row (n, m, p) up to one common factor, from the
    Miller start x(k0 - 1) = 0, x(k0) = 1, as (values, marks).

    Bosons sweep the Krawtchouk (Wigner-d) recurrence of the amplitudes,
    b(k+1) A(k+1) + b(k) A(k-1) = c(k) A(k) with b(k) = sqrt(k (n-k+1))
    and c(k) = [(2k-n)(1-2p) - (2m-n)] / (2 sqrt(p(1-p))); P = A**2.
    Classical rows sweep the coefficients of G(z) = (p + (1-p) z)**m
    (1-p + p z)**(n-m), from (a + s z + a z**2) G' = (A + n a z) G with
    a = p(1-p), s = p**2 + (1-p)**2 and A = m (1-p)**2 + (n-m) p**2.
    The sweep runs on x(k) * sigma**(k - k0).  values[j] * 2**e is that
    product at k0 + j, for the last mark (i, e) with i <= j, e = 0 before
    the first mark: once the larger of the running pair leaves
    [2**-500, 2**500] both are rescaled by a power of two, exactly.
    """
    q = 1.0 - p
    k = np.arange(k0, k1, dtype=np.float64)
    if bose:
        kb = np.arange(k0, k1 + 1, dtype=np.float64)
        b = np.sqrt(kb * (n + 1.0 - kb))
        c = ((k - m) - p * (2.0 * k - n)) * (sigma / math.sqrt(p * q))
        alpha = c / b[1:]
        beta = -(sigma * sigma) * b[:-1] / b[1:]
    else:
        # A - s k summed from exact integer differences, which keeps the
        # coefficient accurate where A and s k are both large
        a_sk = q * q * (m - k) + p * p * ((n - m) - k)
        alpha = a_sk * (sigma / (p * q)) / (k + 1.0)
        beta = (n + 1.0 - k) * (sigma * sigma) / (k + 1.0)
    tiny, huge = _SWEEP_TINY, _SWEEP_HUGE
    values = array("d", [1.0])
    append = values.append
    marks = []
    shift = 0
    prev, cur = 0.0, 1.0
    for a, b in zip(alpha.tolist(), beta.tolist()):
        prev, cur = cur, a * cur + b * prev
        if not tiny < abs(cur) < huge:
            mag = max(abs(prev), abs(cur))
            if not tiny <= mag <= huge:
                e = math.frexp(mag)[1]
                prev = math.ldexp(prev, -e)
                cur = math.ldexp(cur, -e)
                shift += e
                marks.append((len(values), shift))
        append(cur)
    return values, marks


def _sweep_logs(values: array, marks: list, log_sigma: float) -> np.ndarray:
    """ln|x(k0 + j)| of a _miller_sweep result, up to its common factor."""
    vals = np.frombuffer(values)
    with np.errstate(divide="ignore"):
        out = np.log(np.abs(vals))
    if marks:
        shift = np.zeros(vals.size)
        for start, e in marks:
            shift[start:] = e
        out += shift * _LN2
    if log_sigma:
        out -= np.arange(vals.size) * log_sigma
    return out


def _sweep_row(n: int, m: int, p: float, bose: bool) -> tuple[int, np.ndarray]:
    """(lo, probs): the row of either model over its support window
    lo..lo+len(probs)-1, zero outside; requires 0 < m < n and 0 < p < 1.

    Miller's method for the minimal solution of a three-term recurrence
    (Gautschi, SIAM Review 9, 1967): a forward sweep from the window's
    low edge, and a backward one run as the forward sweep of the
    relabelled row (m -> n-m, m' -> n-m'), each stable where it heads
    into the bulk.  Classical sweeps meet at A/s, where the parasitic
    alternating solution stops decaying; bosonic ones overlap around the
    mean and are matched at the overlap point of largest magnitude.
    Rows with m > n/2 are the reversed rows of n - m, so the relabel
    symmetry holds bitwise.
    """
    if 2 * m > n:
        lo, probs = _sweep_row(n, n - m, p, bose)
        return n + 1 - lo - probs.size, probs[::-1]
    q = 1.0 - p
    mean = m * q + (n - m) * p
    if bose:
        sd = math.sqrt(p * q * (n + 2.0 * m * (n - m)))
        split = mean
        sigma = math.sqrt(p) if p < _TINY_P else 1.0
        overlap = min(_BOSE_OVERLAP, int(sd))
    else:
        sd = math.sqrt(n * p * q)
        split = (m * q * q + (n - m) * p * p) / (p * p + q * q)
        sigma = p if p < _TINY_P else 1.0
        overlap = 0
    log_sigma = math.log(sigma)
    margin = _WINDOW_SDS * sd + _WINDOW_PAD
    while True:
        lo = max(0, math.floor(mean - margin))
        hi = min(n, math.ceil(mean + margin))
        cut = min(max(math.floor(split), lo), hi)
        top, bottom = min(hi, cut + overlap), max(lo, cut - overlap)
        fwd, fwd_marks = _miller_sweep(n, m, p, bose, sigma, lo, top)
        # bwd[j] is x(hi - j)
        bwd, bwd_marks = _miller_sweep(n, n - m, p, bose, sigma,
                                       n - hi, n - bottom)
        if (lo == 0 and hi == n and sigma == 1.0
                and not fwd_marks and not bwd_marks):
            # one linear pass in plain floats, the common case at small n
            join = (max(range(bottom, top + 1), key=lambda k: abs(fwd[k]))
                    if bose else cut)
            ratio = fwd[join] / bwd[n - join]
            row = fwd[:join + 1].tolist()
            row += [v * ratio for v in reversed(bwd[:n - join])]
            probs = np.array([v * v for v in row] if bose else row)
            total = probs.sum()
            if total < _SWEEP_HUGE:
                probs /= total
                return 0, probs
        ln_fwd = _sweep_logs(fwd, fwd_marks, log_sigma)
        ln_bwd = _sweep_logs(bwd, bwd_marks, log_sigma)[::-1]
        join = bottom + int(np.argmax(ln_fwd[bottom - lo:])) if bose else cut
        at_f, at_b = join - lo, join - bottom
        ln = np.concatenate((ln_fwd[:at_f + 1],
                             ln_bwd[at_b + 1:] + (ln_fwd[at_f] - ln_bwd[at_b])))
        if bose:
            ln *= 2.0
        peak = float(ln.max())
        if ((lo == 0 or ln[0] < peak - _EDGE_DROP)
                and (hi == n or ln[-1] < peak - _EDGE_DROP)):
            scaled = np.exp(ln - peak)
            return lo, scaled / scaled.sum()
        margin *= 2.0


def transfer_probabilities(spec: TransferSpec, mp_lo: int, mp_hi: int,
                           *, bose: bool) -> np.ndarray:
    """Probabilities of final counts mp_lo..mp_hi for either model.

    The degenerate cases share one code path across models: p in {0, 1}
    gives a point mass, and m in {0, n} leaves a single pathway per
    m_prime, where the bosonic pathway sum reduces to the same binomial
    law as the classical one.  Bosonic rows with min(m, n-m) <= 20 take
    the Jacobi-image route; every other row is swept over its support
    window only.
    """
    if not 0 <= mp_lo <= mp_hi <= spec.n:
        raise ValueError(f"bad m_prime range {mp_lo}..{mp_hi} for n={spec.n}")
    n, m, p = spec.n, spec.m, spec.p
    if p == 0.0:
        return _point_mass(m, mp_lo, mp_hi)
    if p == 1.0:
        return _point_mass(n - m, mp_lo, mp_hi)
    if m in (0, n):
        counts = np.arange(mp_lo, mp_hi + 1)
        # m = n is the relabeled image of m = 0, evaluated through the
        # identical expression so the relabel symmetry holds bitwise
        return np.exp(_binomial_log_pmf(n, counts if m == 0 else n - counts,
                                        math.log(p), math.log1p(-p),
                                        log_factorial_array(n)))
    if bose and min(m, n - m) <= _SWEEP_MIN_COUNT:
        return np.exp(_bose_log_range(n, m, p, mp_lo, mp_hi))
    lo, row = _sweep_row(n, m, p, bose)
    out = np.zeros(mp_hi - mp_lo + 1)
    first, last = max(lo, mp_lo), min(lo + row.size - 1, mp_hi)
    if first <= last:
        out[first - mp_lo: last - mp_lo + 1] = row[first - lo: last - lo + 1]
    return out


def classical_exact(spec: TransferSpec) -> OccupancyDistribution:
    """Exact finite-size distribution for distinguishable particles.

    m in {0, n} gives the binomial law in closed form (ln k! table); every
    other row with 0 < p < 1 comes from the two Miller sweeps of the
    generating-function recurrence over the row's support window, in
    O(window) steps, normalized to sum 1.  The 2**n enumeration in
    bosecount.oracles is the cross-check.
    """
    probs = transfer_probabilities(spec, 0, spec.n, bose=False)
    meta = {"n": spec.n, "m": spec.m, "p": spec.p}
    return OccupancyDistribution("classical-exact", 0, probs, meta)


def bose_exact(spec: TransferSpec) -> OccupancyDistribution:
    """Exact finite-size distribution for identical bosons.

    Entries equal the alternating pathway sum, which cancels
    catastrophically away from the rare-event corner, so they come from
    one of two stable routes.  Rows with min(m, n-m) <= 20 take the
    symmetric-image Jacobi form entry by entry (m in {0, n}: the binomial
    law), which keeps the reversal symmetry P(m'|m) = P(m|m') bitwise.
    The others come from the Miller sweeps of the Krawtchouk recurrence
    over the row's support window, in O(window) steps, normalized to sum
    1.  bosecount.oracles carries the pathway sum and the untransformed
    Jacobi form as scalar cross-check channels.
    """
    probs = transfer_probabilities(spec, 0, spec.n, bose=True)
    meta = {"n": spec.n, "m": spec.m, "p": spec.p}
    return OccupancyDistribution("bose-exact", 0, probs, meta)


def _poisson_support_cap(w: float) -> int:
    """Generous upper bound on the q needed to hold all but 1e-14 mass."""
    return int(w + 60.0 * math.sqrt(w + 1.0)) + 1000


def _poisson_tail_bound(w: float, q: int, pmf_q: float) -> float:
    """Upper bound on the Poisson mass beyond q, valid for q + 1 > w.

    The term ratio is at most w/(q+1), so the tail is dominated by the
    geometric series pmf(q) * r / (1 - r).
    """
    r = w / (q + 1.0)
    return pmf_q * r / (1.0 - r)


def classical_rare_limit(spec: RareEventSpec) -> OccupancyDistribution:
    """Poisson law of mean w over the net transfer q = m_prime - m >= 0.

    Support starts at m_prime = m (no recapture survives the limit) and
    extends until the analytic bound on the remaining Poisson tail drops
    below 1e-14; that bound is recorded in meta["tail_bound"].
    """
    w, m = spec.w, spec.m
    meta = {"w": w, "m": m, "tail_bound": 0.0}
    if w == 0.0:
        return OccupancyDistribution("classical-limit", m, np.ones(1), meta)
    probs = []
    q = 0
    cap = _poisson_support_cap(w)
    while True:
        pmf = math.exp(q * math.log(w) - w - log_factorial(q))
        probs.append(pmf)
        if q + 1 > w:
            bound = _poisson_tail_bound(w, q, pmf)
            if bound < _TAIL_PROB_EPS:
                break
        q += 1
        if q > cap:
            raise RuntimeError("Poisson truncation failed to converge")
    meta["tail_bound"] = bound
    return OccupancyDistribution("classical-limit", m, np.array(probs), meta)


def _bose_limit_entries(w: float, m: int, last: int):
    """Entries m' = 0..last of the bosonic rare-event law, yielded in
    order; w > 0.

    Each equals w**q exp(-w) times the squared alternating sum over mu
    of sqrt(m'! m!) (-w)**mu / (mu! (m-mu)! (q+mu)!), q = m' - m, which
    collapses to w**(high-low) exp(-w) low!/high! L_low^(high-low)(w)**2
    with low, high the smaller and larger of (m, m').  All Laguerre
    factors come from one scaled recurrence over the columns, without
    the cancellation that caps the literal sum near 1e-11 relative
    accuracy; entries are exponentiated one at a time with ``math``, so
    a caller may stop early.
    """
    mp = np.arange(last + 1)
    gap = np.abs(mp - m).astype(np.float64)
    lag, lag_off = _scaled_recurrence(
        np.minimum(mp, m), 1.0 + gap - w,
        lambda k: (2.0 * k - 1.0 + gap - w, k - 1.0 + gap, float(k)))
    log_w = math.log(w)
    for m_prime, value, offset in zip(range(last + 1), lag.tolist(),
                                      lag_off.tolist()):
        if value == 0.0:
            yield 0.0
            continue
        low, high = min(m, m_prime), max(m, m_prime)
        yield math.exp((high - low) * log_w - w
                       + log_factorial(low) - log_factorial(high)
                       + 2.0 * (math.log(abs(value)) + offset))


def _rare_limit_tail_bound(w: float, m: int, m_prime_max: int) -> float:
    """Chernoff bound on the bosonic limit mass beyond m_prime_max; w > 0.

    The generating function sum over m' of P(m') z**m' equals
    G(z) = z**m exp(w (z-1)) L_m(-x) with x = w (z-1)**2 / z, and
    L_m(-x) = sum over k of C(m,k) x**k / k! has only positive terms.  So
    P(m' > M) <= G(z) z**-(M+1) for every z > 1; the smallest value on a
    geometric grid of ln z is returned, capped at 1.
    """
    hi = min(700.0, 1.0 + math.log1p((m_prime_max + 1) / w))
    log_z = np.geomspace(1e-3, hi, _CHERNOFF_GRID)
    z_minus_1 = np.expm1(log_z)
    log_x = math.log(w) + 2.0 * np.log(z_minus_1) - log_z
    lf = log_factorial_array(m)
    k = np.arange(m + 1)
    log_coef = (lf[m] - lf[m - k] - 2.0 * lf[k])[:, None]
    log_lag = np.empty(_CHERNOFF_GRID)
    step = max(1, _BLOCK_TERMS // (m + 1))
    for lo in range(0, _CHERNOFF_GRID, step):
        terms = log_coef + k[:, None] * log_x[lo: lo + step]
        top = terms.max(axis=0)
        log_lag[lo: lo + step] = top + np.log(np.exp(terms - top).sum(axis=0))
    log_bound = (m - m_prime_max - 1) * log_z + w * z_minus_1 + log_lag
    return min(1.0, math.exp(float(log_bound.min())))


def bose_rare_limit(spec: RareEventSpec,
                    m_prime_max: Optional[int] = None) -> OccupancyDistribution:
    """Bosonic rare-event distribution over m_prime = 0..m_prime_max.

    With m_prime_max omitted the support is extended until three
    consecutive probabilities drop below 1e-14 while the Poisson weight
    left in the w**q exp(-w)/q! prefactor is below 1e-12.
    meta["tail_bound"] is an upper bound on the mass beyond the support,
    from the Chernoff bound of the exact generating function.
    m_prime_max is capped at MAX_TABLE_N.
    """
    w, m = spec.w, spec.m
    meta = {"w": w, "m": m}
    if m_prime_max is not None and not 0 <= m_prime_max <= MAX_TABLE_N:
        raise ValueError(
            f"m_prime_max must lie in 0..{MAX_TABLE_N}, got {m_prime_max!r}")
    if w == 0.0:
        hi = m if m_prime_max is None else m_prime_max
        probs = _point_mass(m, 0, hi)
        meta["tail_bound"] = 0.0 if m <= hi else 1.0
        return OccupancyDistribution("bose-limit", 0, probs, meta)
    auto = m_prime_max is None
    last = m + _poisson_support_cap(w) if auto else m_prime_max
    probs = []
    small_run = 0
    for mp, value in enumerate(_bose_limit_entries(w, m, last)):
        probs.append(value)
        if not auto:
            continue
        q = mp - m
        small_run = small_run + 1 if value < _TAIL_PROB_EPS else 0
        if small_run >= _TAIL_RUN and q + 1 > w:
            pmf = math.exp(q * math.log(w) - w - log_factorial(q))
            if _poisson_tail_bound(w, q, pmf) < _TAIL_MASS_EPS:
                break
    else:
        if auto:
            raise RuntimeError("limit truncation failed to converge")
    meta["tail_bound"] = _rare_limit_tail_bound(w, m, len(probs) - 1)
    return OccupancyDistribution("bose-limit", 0, np.array(probs), meta)


def recapture_probability(spec: RareEventSpec) -> float:
    """Probability that the marked mode empties completely: w**m exp(-w)/m!.

    Shares the evaluation path of the m_prime = 0 entry of
    bose_rare_limit, so the two agree bit for bit.
    """
    if spec.w == 0.0:
        return 1.0 if spec.m == 0 else 0.0
    return next(_bose_limit_entries(spec.w, spec.m, 0))


_FIGURE_GRID_MAX = 12   # m, m' range of the surface tables
_FIGURE_SECTION_MAX = 15  # m range of the section tables
_FIGURE_RECAPTURE_W = (1, 3, 5)  # w values of the recapture table


def figure_min_n(figure_id: int, w: float) -> int:
    """Smallest n holding every count of the figure table with p = w/n <= 1."""
    if figure_id == 5:
        return max(_FIGURE_SECTION_MAX, *_FIGURE_RECAPTURE_W)
    counts = _FIGURE_GRID_MAX if figure_id in (3, 4) else _FIGURE_SECTION_MAX
    return max(counts, math.ceil(w))


def figure_table(figure_id: int, n: int, w: float) -> tuple[list[str], list[list]]:
    """(header, rows) of figure 3 or 4 (classical or bosonic m, m' surface),
    5 (recapture, exact against its limit law) or 6 (bosonic sections)."""
    p = w / n
    if figure_id in (3, 4):
        bose = figure_id == 4
        rows = []
        for m in range(_FIGURE_GRID_MAX + 1):
            values = transfer_probabilities(TransferSpec(n, m, p), 0,
                                            _FIGURE_GRID_MAX, bose=bose)
            for m_prime, value in enumerate(values):
                rows.append([m, m_prime, float(value)])
        return ["m", "m_prime", "probability"], rows
    if figure_id == 5:
        header = ["m"]
        for w_col in _FIGURE_RECAPTURE_W:
            header += [f"p0m_exact_w{w_col}", f"p0m_poisson_w{w_col}"]
        rows = []
        for m in range(_FIGURE_SECTION_MAX + 1):
            row: list = [m]
            for w_col in _FIGURE_RECAPTURE_W:
                spec = TransferSpec(n, m, w_col / n)
                exact = float(transfer_probabilities(spec, 0, 0, bose=True)[0])
                poisson = recapture_probability(RareEventSpec(float(w_col), m))
                row += [exact, poisson]
            rows.append(row)
        return header, rows
    rows = []
    for m in range(_FIGURE_SECTION_MAX + 1):
        spec = TransferSpec(n, m, p)
        into_one = float(transfer_probabilities(spec, 1, 1, bose=True)[0])
        unchanged = float(transfer_probabilities(spec, m, m, bose=True)[0])
        rows.append([m, into_one, unchanged])
    return ["m", "p_1_from_m", "p_m_from_m"], rows
