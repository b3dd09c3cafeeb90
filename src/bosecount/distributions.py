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
bitwise.  These two routes read the ln k! table and evaluate entries
one by one over the row's support window only; entries past it would
underflow, so they are exact zeros.  Every other row, classical or
bosonic, is swept over its support window by Miller's method for the
minimal solution of a three-term recurrence in m' (Gautschi, SIAM
Review 9, 1967), with no ln k! table.  Either way a row costs O(window)
work instead of O(N min(m, N - m)).  The windows of the finite bosonic
rows, on both routes, start at the edges their Krawtchouk recurrence
predicts (_bose_window), so they hold little more than the support;
every other window starts at mean +- (45 sd + 30), which is also the
bosonic fallback.  Rare-event
rows: the classical one and the bosonic one with m = 0 are the Poisson
law, w = 0 is a point mass, and every other bosonic row takes the same
window sweep with the Charlier recurrence, the N -> infinity limit of
the bosonic one.
"""

from __future__ import annotations

import math
import operator
from array import array
from dataclasses import dataclass, field
from functools import partial
from itertools import count
from typing import Iterator, Optional

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

# Automatic supports of the limit distributions end once the mass left
# beyond them is below this.
_TAIL_PROB_EPS = 1e-14

# Bosonic rows with min(m, n - m) up to this count take the Jacobi-image
# route, whose reversal symmetry is bitwise; the others, and every
# classical row with 0 < m < n, take the support-window sweep.
_SWEEP_MIN_COUNT = 20

# The support window starts at mean +- (45 sd + 30) and its margin
# doubles until each edge sits at 0 or n or at least _EDGE_DROP below
# the peak in ln, beyond the double range, where the Miller start's error
# is lost.  Rows evaluated entry by entry need an edge at least
# _EDGE_DROP below 0 in ln, past exp's underflow at -745.
_WINDOW_SDS = 45.0
_WINDOW_PAD = 30.0
_EDGE_DROP = 800.0
# The first window of a finite bosonic row is predicted instead
# (_bose_window): each edge lies _PREDICT_PAD points past where the row
# is predicted to lie _EDGE_DROP + _PREDICT_GUARD below its envelope at
# the mean in ln.
_PREDICT_GUARD = 40.0
_PREDICT_PAD = 8
# Points past the bosonic split point swept from both sides, at most one
# sd so they stay inside the oscillating region (half-width ~1.4 sd); the
# sweeps are matched at the one of largest magnitude, never at a node.
_BOSE_OVERLAP = 8
# The sweep rescales by a power of two once a value leaves [2**-500,
# 2**500].  Below _TINY_P one step can grow a value by ~1/p, beyond that
# headroom, so the sweep runs on x(k) * p**(k - k0) (sqrt(p) for bosons,
# sqrt(w) in the bosonic limit).
_SWEEP_HUGE = 2.0 ** 500
_SWEEP_TINY = 2.0 ** -500
_TINY_P = 1e-100
_LN2 = math.log(2.0)
# Largest sd of a bosonic limit row: its sweep window, 2 (45 sd + 30)
# points, then holds no more entries than a finite row at n = MAX_TABLE_N.
_LIMIT_MAX_SD = (MAX_TABLE_N / 2.0 - _WINDOW_PAD) / _WINDOW_SDS

# Most terms the Chernoff tail bound sums in one block over every k and
# z; its temporaries then stay at tens of MB.
_BLOCK_TERMS = 1 << 21
# Terms per chunk of a banded Chernoff sum; its 64 KiB temporaries stay
# below the allocator's default mmap threshold (128 KiB).
_BAND_CHUNK = 1 << 13

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


def _binomial_log_pmf(n: int, counts: np.ndarray, lp: float, l1p: float,
                      lf: np.ndarray) -> np.ndarray:
    """ln of C(n, counts) * p**counts * (1-p)**(n-counts)."""
    c = counts.astype(np.float64)
    return lf[n] - lf[counts] - lf[n - counts] + c * lp + (n - c) * l1p


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
    # (initial, final) counts of the four images (m, m'), (m', m),
    # (n-m, n-m') and (n-m', n-m)
    at_m = np.full(mp.size, m)
    cand_i = np.array([at_m, mp, n - at_m, n - mp])
    cand_f = np.array([mp, at_m, n - mp, n - at_m])
    sel = np.argmin(cand_i, axis=0)
    cols = np.arange(mp.size)
    i = cand_i[sel, cols]
    f = cand_f[sel, cols]
    # Jacobi P_i^(a, b)(x) with a = n - f - i, b = f - i, by the degree
    # recurrence over all columns at once.  Each column is harvested at
    # its own degree i, as jac * exp(jac_off): the running pair is
    # rescaled out of the 1e150 range into a per-column log offset.
    a = (n - f - i).astype(np.float64)
    b = (f - i).astype(np.float64)
    x = 2.0 * p - 1.0
    ab = a + b
    c3 = a * a - b * b
    prev = np.ones(mp.size)
    curr = (a - b) / 2.0 + (ab + 2.0) * (x / 2.0)
    offset = np.zeros(mp.size)
    jac = np.where(i == 0, 1.0, 0.0)
    jac_off = np.zeros(mp.size)
    take = i == 1
    jac[take] = curr[take]
    for k in range(2, int(i.max(initial=0)) + 1):
        t = 2.0 * k + ab
        nxt = ((t - 1.0) * (t * (t - 2.0) * x + c3) * curr
               - 2.0 * (k + a - 1.0) * (k + b - 1.0) * t * prev
               ) / (2.0 * k * (k + ab) * (t - 2.0))
        prev = curr
        curr = nxt
        mag = np.maximum(np.abs(prev), np.abs(curr))
        need = (mag > 1e150) | ((mag > 0.0) & (mag < 1e-150))
        if need.any():
            scale = np.where(need, mag, 1.0)
            prev = prev / scale
            curr = curr / scale
            offset = offset + np.where(need, np.log(scale), 0.0)
        take = i == k
        if take.any():
            jac[take] = curr[take]
            jac_off[take] = offset[take]
    with np.errstate(divide="ignore"):
        jac_log = np.log(np.abs(jac)) + jac_off
    logp = (lf[i] + lf[n - i] - lf[f] - lf[n - f]
            + b * lp + a * l1p + 2.0 * jac_log)
    return np.where(jac == 0.0, -np.inf, logp)


def _row_coeffs(n: int, m: int, p: float, bose: bool, sigma: float,
                k0: int, k1: int, down: bool) -> tuple[np.ndarray, np.ndarray]:
    """(alpha, beta) of the finite-n row (n, m, p) from k0 up to k1, or
    from k1 down to k0 as the upward sweep of the relabelled row
    (m -> n-m, m' -> n-m').

    Bosons sweep the Krawtchouk (Wigner-d) recurrence of the amplitudes,
    b(k+1) A(k+1) + b(k) A(k-1) = c(k) A(k) with b(k) = sqrt(k (n-k+1))
    and c(k) = [(2k-n)(1-2p) - (2m-n)] / (2 sqrt(p(1-p))); P = A**2.
    Classical rows sweep the coefficients of G(z) = (p + (1-p) z)**m
    (1-p + p z)**(n-m), from (a + s z + a z**2) G' = (A + n a z) G with
    a = p(1-p), s = p**2 + (1-p)**2 and A = m (1-p)**2 + (n-m) p**2.
    """
    if down:
        m, k0, k1 = n - m, n - k1, n - k0
    q = 1.0 - p
    k = np.arange(k0, k1, dtype=np.float64)
    if bose:
        kb = np.arange(k0, k1 + 1, dtype=np.float64)
        b = np.sqrt(kb * (n + 1.0 - kb))
        c = ((k - m) - p * (2.0 * k - n)) * (sigma / math.sqrt(p * q))
        return c / b[1:], -(sigma * sigma) * b[:-1] / b[1:]
    # A - s k summed from exact integer differences, which keeps the
    # coefficient accurate where A and s k are both large
    a_sk = q * q * (m - k) + p * p * ((n - m) - k)
    return (a_sk * (sigma / (p * q)) / (k + 1.0),
            (n + 1.0 - k) * (sigma * sigma) / (k + 1.0))


def _charlier_coeffs(w: float, m: int, sigma: float, k0: int, k1: int,
                     down: bool) -> tuple[np.ndarray, np.ndarray]:
    """(alpha, beta) of the bosonic rare-event row (w, m) from k0 up to
    k1, or from k1 down to k0.

    The n -> infinity limit of the Krawtchouk recurrence at n p = w is
    the Charlier form sqrt(k+1) A(k+1) + sqrt(k) A(k-1)
    = (k - m + w) / sqrt(w) A(k), with P = A**2 (Koekoek, Lesky &
    Swarttouw, Hypergeometric Orthogonal Polynomials, Sec. 9.14).
    """
    k = np.arange(k1, k0, -1.0) if down else np.arange(k0, k1, 1.0)
    below, above = np.sqrt(k), np.sqrt(k + 1.0)
    to, back = (below, above) if down else (above, below)
    c = ((k - m) + w) * (sigma / math.sqrt(w))
    return c / to, -(sigma * sigma) * back / to


def _miller_sweep(alpha: np.ndarray, beta: np.ndarray) -> tuple[array, list]:
    """x(0..len(alpha)) of x(j+1) = alpha[j] x(j) + beta[j] x(j-1) from
    the Miller start x(-1) = 0, x(0) = 1, as (values, marks).

    values[j] * 2**e is x(j), for the last mark (i, e) with i <= j, e = 0
    before the first mark: once the larger of the running pair leaves
    [2**-500, 2**500] both are rescaled by a power of two, exactly.
    """
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
        # each mark raises the exponent from its start on; integer-valued
        # steps, so the running sum is exact
        starts, shifts = zip(*marks)
        steps = np.zeros(vals.size)
        steps[list(starts)] = np.diff(shifts, prepend=0)
        out += np.cumsum(steps) * _LN2
    if log_sigma:
        out -= np.arange(vals.size) * log_sigma
    return out


def _sd_window(mean: float, margin: float, n) -> tuple[int, int]:
    """[lo, hi] = mean +- margin, rounded outward and clipped to 0..n."""
    return max(0, math.floor(mean - margin)), min(n, math.ceil(mean + margin))


def _windows(mean: float, sd: float, n,
             first: Optional[tuple[int, int]] = None) -> Iterator[tuple[int, int]]:
    """Support windows [lo, hi] within 0..n: ``first`` when given, then
    mean +- (45 sd + 30) with the margin doubled at each step, each
    widened to hold ``first``, skipping those that add no point."""
    if first is not None:
        yield first
    lo, hi = first or (math.inf, -math.inf)
    margin = _WINDOW_SDS * sd + _WINDOW_PAD
    while True:
        a, b = _sd_window(mean, margin, n)
        if a < lo or b > hi:
            lo, hi = min(lo, a), max(hi, b)
            yield lo, hi
        margin *= 2.0


def _oscillator_reach(m: int, drop: float) -> float:
    """Distance from the mean, in sd, at which the oscillator model of a
    bosonic row with m <= n/2 has lost ``drop`` in ln amplitude.

    The model is the Hermite function of degree m in y = (m' - mean)
    sqrt(m + 1/2) / sd, with its turning point at y_t = sqrt(2m + 1);
    past it the WKB exponent is (y s - y_t**2 arccosh(y / y_t)) / 2 with
    s = sqrt(y**2 - y_t**2), convex in y, so Newton's method from
    y_t + sqrt(2 drop), which lies beyond the root, falls onto it.
    """
    y_t = math.sqrt(2.0 * m + 1.0)
    y = y_t + math.sqrt(2.0 * drop)
    step = math.inf
    while step > 1e-3:
        s = math.sqrt(y * y - y_t * y_t)
        step = (0.5 * (y * s - y_t * y_t * math.acosh(y / y_t)) - drop) / s
        y -= step
    return y / math.sqrt(m + 0.5)


def _bose_window(n: int, m: int, p: float, mean: float, sd: float,
                 mp_lo: int, mp_hi: int) -> Optional[tuple[int, int]]:
    """First support window of the finite bosonic row (n, m, p) with
    0 < m < n, predicted from its Krawtchouk recurrence for a request of
    entries mp_lo..mp_hi.  None for n <= 2 _WINDOW_PAD, whose rows the
    first 45-sd window nearly covers whole, and for p < _TINY_P, whose
    sweeps run scaled by sqrt(p).

    Outward from the mean, the amplitude changes per step k -> k+1 of
    x(k+1) = alpha x(k) + beta x(k-1) by |beta| / R up and k+1 -> k by
    1 / R down, with R = (|alpha| + sqrt(alpha**2 + 4 beta)) / 2 past
    the turning points (the characteristic roots) and R = sqrt|beta|
    between them, where the amplitude oscillates under that envelope.
    Each edge lies _PREDICT_PAD points past where these steps add up to
    _EDGE_DROP + _PREDICT_GUARD in ln of the row.

    Both sides are first scanned 10 % + 16 points past the reach of the
    oscillator model of the row (_oscillator_reach), which falls 1-2 %
    short at p ~ 0.3 and far short where p n is small.  The decay only
    steepens outward, so a scan that falls short is extended by the
    steps its last rate still needs, at most fourfold.  None also where
    the model window holds 3/4 or more of the requested part of the
    first 45-sd window, which the prediction could then shrink little.
    """
    if n <= 2 * _WINDOW_PAD or p < _TINY_P:
        return None
    # rows with m > n/2 take the window of the relabelled row, reversed
    flip = 2 * m > n
    if flip:
        m, mean, mp_lo, mp_hi = n - m, n - mean, n - mp_hi, n - mp_lo
    start = math.floor(mean)
    drop = 0.5 * (_EDGE_DROP + _PREDICT_GUARD)
    model = sd * _oscillator_reach(m, drop)
    lo, hi = _sd_window(start, model, n)
    lo_sd, hi_sd = _sd_window(mean, _WINDOW_SDS * sd + _WINDOW_PAD, n)
    if 4 * (hi - lo) >= 3 * (min(hi_sd, mp_hi) - max(lo_sd, mp_lo)):
        return None
    reach = [1.1 * model + 16.0] * 2  # steps scanned down and up
    while True:
        lo = max(0, start - math.ceil(reach[0]))
        hi = min(n, start + math.ceil(reach[1]))
        alpha, beta = _row_coeffs(n, m, p, True, 1.0, lo, hi, False)
        size = -beta
        disc = np.sqrt(np.maximum(alpha * alpha - 4.0 * size, 0.0))
        root = 0.5 * (np.abs(alpha) + disc)
        with np.errstate(divide="ignore"):
            ln_root = np.log(np.maximum(root, np.sqrt(size)))
            sides = (-ln_root[start - lo::-1],
                     np.log(size[start - lo:]) - ln_root[start - lo:])
        edges = []
        for side, (steps, at_end) in enumerate(zip(sides, (lo == 0, hi == n))):
            total = np.cumsum(steps)
            past = total < -drop
            if past.any():
                edges.append(int(past.argmax()) + 1 + _PREDICT_PAD)
            elif at_end:
                edges.append(n)
            else:
                rate = -float(steps[-1])
                more = (drop + float(total[-1])) / rate if rate > 0.0 else math.inf
                reach[side] = min(4.0 * reach[side], reach[side] + max(more, 16.0))
        if len(edges) == 2:
            lo, hi = max(0, start - edges[0]), min(n, start + edges[1])
            return (n - hi, n - lo) if flip else (lo, hi)


def _sweep_window(coeffs, windows: Iterator[tuple[int, int]], split: float,
                  sigma: float, overlap: int, bose: bool,
                  n=math.inf) -> tuple[int, np.ndarray]:
    """(lo, probs): a row over its support window lo..lo+len(probs)-1,
    normalized to sum 1, zero outside; the support ends at n.  The
    windows are tried in turn until one passes the edge test.

    Miller's method (Gautschi, SIAM Review 9, 1967): ``coeffs(k0, k1,
    down)`` gives the (alpha, beta) of the sweep from k0 up to k1, or
    down from k1 to k0, run on x(k) * sigma**(steps from its start).  The
    sweeps start at the window's edges and head into the bulk, where
    they are stable.  Classical ones meet at ``split``, where the
    parasitic alternating solution stops decaying; bosonic amplitude
    sweeps overlap by up to ``overlap`` points around it and are matched
    at the overlap point of largest magnitude.
    """
    log_sigma = math.log(sigma)
    for lo, hi in windows:
        cut = min(max(math.floor(split), lo), hi)
        top, bottom = min(hi, cut + overlap), max(lo, cut - overlap)
        fwd, fwd_marks = _miller_sweep(*coeffs(lo, top, False))
        # bwd[j] is x(hi - j)
        bwd, bwd_marks = _miller_sweep(*coeffs(bottom, hi, True))
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


def _sweep_row(n: int, m: int, p: float, bose: bool) -> tuple[int, np.ndarray]:
    """(lo, probs) of a finite-n row with 0 < m < n and 0 < p < 1; rows
    with m > n/2 are the reversed rows of n - m, so the relabel symmetry
    holds bitwise."""
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
        first = _bose_window(n, m, p, mean, sd, 0, n)
    else:
        sd = math.sqrt(n * p * q)
        split = (m * q * q + (n - m) * p * p) / (p * p + q * q)
        sigma = p if p < _TINY_P else 1.0
        overlap = 0
        first = None
    coeffs = partial(_row_coeffs, n, m, p, bose, sigma)
    return _sweep_window(coeffs, _windows(mean, sd, n, first), split, sigma,
                         overlap, bose, n)


def _on_range(lo: int, row: np.ndarray, mp_lo: int, mp_hi: int) -> np.ndarray:
    """Entries mp_lo..mp_hi of a row stored from lo, zero outside it."""
    out = np.zeros(mp_hi - mp_lo + 1)
    first, last = max(lo, mp_lo), min(lo + row.size - 1, mp_hi)
    if first <= last:
        out[first - mp_lo: last - mp_lo + 1] = row[first - lo: last - lo + 1]
    return out


def _windowed_range(log_range, n: int, windows: Iterator[tuple[int, int]],
                    mp_lo: int, mp_hi: int) -> np.ndarray:
    """Entries mp_lo..mp_hi of a row whose ln entries log_range(lo, hi)
    evaluates column by column, over the row's support window only.

    While the requested range reaches past an edge of the window short of
    0 or n and the largest of the four outermost ln entries on that side
    is not below -_EDGE_DROP (Jacobi rows oscillate), the next, wider
    window is tried and the range evaluated anew.  Entries past the
    window would underflow exp, so they are exact zeros.
    """
    for lo, hi in windows:
        first, last = max(lo, mp_lo), min(hi, mp_hi)
        # stretched over the edges to test; an edge short of 0 or n lies
        # more than 3 points from the other one
        if mp_lo < lo:
            last = max(last, lo + 3)
        if mp_hi > hi:
            first = min(first, hi - 3)
        ln = log_range(first, last)
        if ((mp_lo >= lo or ln[:4].max() < -_EDGE_DROP)
                and (mp_hi <= hi or ln[-4:].max() < -_EDGE_DROP)):
            return _on_range(first, np.exp(ln), mp_lo, mp_hi)


def transfer_probabilities(spec: TransferSpec, mp_lo: int, mp_hi: int,
                           *, bose: bool) -> np.ndarray:
    """Probabilities of final counts mp_lo..mp_hi for either model, by
    the routes of the module docstring.

    m in {0, n} leaves a single pathway per m_prime, where the bosonic
    pathway sum reduces to the same binomial law as the classical one.
    """
    if not 0 <= mp_lo <= mp_hi <= spec.n:
        raise ValueError(f"bad m_prime range {mp_lo}..{mp_hi} for n={spec.n}")
    n, m, p = spec.n, spec.m, spec.p
    if p == 0.0:
        return _on_range(m, np.ones(1), mp_lo, mp_hi)
    if p == 1.0:
        return _on_range(n - m, np.ones(1), mp_lo, mp_hi)
    # the bosonic mean and sd, which are the binomial ones for m in {0, n}
    q = 1.0 - p
    mean = m * q + (n - m) * p
    sd = math.sqrt(p * q * (n + 2.0 * m * (n - m)))
    first = None
    if m in (0, n):
        lp, l1p, lf = math.log(p), math.log1p(-p), log_factorial_array(n)

        def log_range(lo: int, hi: int) -> np.ndarray:
            counts = np.arange(lo, hi + 1)
            # m = n is the relabeled image of m = 0, evaluated through the
            # identical expression so the relabel symmetry holds bitwise
            return _binomial_log_pmf(n, counts if m == 0 else n - counts,
                                     lp, l1p, lf)
    elif bose and min(m, n - m) <= _SWEEP_MIN_COUNT:
        log_range = partial(_bose_log_range, n, m, p)
        first = _bose_window(n, m, p, mean, sd, mp_lo, mp_hi)
    else:
        return _on_range(*_sweep_row(n, m, p, bose), mp_lo, mp_hi)
    return _windowed_range(log_range, n, _windows(mean, sd, n, first),
                           mp_lo, mp_hi)


def classical_exact(spec: TransferSpec) -> OccupancyDistribution:
    """Exact finite-size distribution for distinguishable particles: the
    binomial law for m in {0, n}, else the generating-function sweep.
    The 2**n enumeration in bosecount.oracles is the cross-check.
    """
    probs = transfer_probabilities(spec, 0, spec.n, bose=False)
    meta = {"n": spec.n, "m": spec.m, "p": spec.p}
    return OccupancyDistribution("classical-exact", 0, probs, meta)


def bose_exact(spec: TransferSpec) -> OccupancyDistribution:
    """Exact finite-size distribution for identical bosons.

    Entries equal the alternating pathway sum, which cancels
    catastrophically away from the rare-event corner, so they come from
    stable routes: the Jacobi image for min(m, n-m) <= 20, which keeps
    the reversal symmetry P(m'|m) = P(m|m') bitwise, else the Krawtchouk
    sweep.  bosecount.oracles carries the pathway sum and the
    untransformed Jacobi form as scalar cross-check channels.
    """
    probs = transfer_probabilities(spec, 0, spec.n, bose=True)
    meta = {"n": spec.n, "m": spec.m, "p": spec.p}
    return OccupancyDistribution("bose-exact", 0, probs, meta)


def _poisson_row(w: float, last: int = 0) -> tuple[list, float]:
    """Poisson pmf of mean w > 0 from q = 0 up to the first q >= last
    whose remaining tail is bounded below _TAIL_PROB_EPS, and that bound.

    For q + 1 > w the term ratio is at most r = w/(q+1), so the tail is
    below the geometric series pmf(q) r/(1 - r).
    """
    probs = []
    for q in count():
        pmf = math.exp(q * math.log(w) - w - log_factorial(q))
        probs.append(pmf)
        if q + 1 > w:
            r = w / (q + 1.0)
            bound = pmf * r / (1.0 - r)
            if bound < _TAIL_PROB_EPS and q >= last:
                return probs, bound


def classical_rare_limit(spec: RareEventSpec) -> OccupancyDistribution:
    """Poisson law of mean w over the net transfer q = m_prime - m >= 0.

    Support starts at m_prime = m (no recapture survives the limit) and
    extends until the analytic bound on the remaining Poisson tail drops
    below 1e-14; that bound is recorded in meta["tail_bound"].
    """
    w, m = spec.w, spec.m
    probs, bound = _poisson_row(w) if w > 0.0 else ([1.0], 0.0)
    meta = {"w": w, "m": m, "tail_bound": bound}
    return OccupancyDistribution("classical-limit", m, np.array(probs), meta)


def _laguerre_log_terms(m: int, k: np.ndarray, log_x: np.ndarray | float) -> np.ndarray:
    """ln[C(m,k) x**k / k!], the terms of L_m(-x), from ln k! at these k
    alone (log_factorial, bitwise equal to the table's entries)."""
    def lf(ks: np.ndarray) -> np.ndarray:
        return np.fromiter(map(log_factorial, ks.tolist()), np.float64, ks.size)

    return log_factorial(m) - lf(m - k) - 2.0 * lf(k) + k * log_x


def _chernoff_bands(m: int, log_x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per x, the first and last k whose term of L_m(-x) lies within
    _EDGE_DROP of the term at the peak, and that term.

    The terms are concave in k and peak where (m-k) x ~ (k+1)**2, so
    each edge is found by bisection on its side of the peak.
    """
    inv_x = np.exp(np.minimum(-log_x, 690.0))
    root = 2.0 * (m + 1) / (1.0 + np.sqrt(1.0 + 4.0 * (m + 1) * inv_x))
    peak = np.clip(np.ceil(root).astype(np.int64) - 1, 0, m)
    top = _laguerre_log_terms(m, peak, log_x)
    floor = top - _EDGE_DROP
    # each search keeps its found end at or above floor, so finished
    # searches stay put while the others go on
    lo, hi = np.zeros_like(peak), peak
    while (lo < hi).any():
        mid = (lo + hi) // 2
        below = _laguerre_log_terms(m, mid, log_x) < floor
        lo, hi = np.where(below, mid + 1, lo), np.where(below, hi, mid)
    first = lo
    lo, hi = peak, np.full_like(peak, m)
    while (lo < hi).any():
        mid = (lo + hi + 1) // 2
        below = _laguerre_log_terms(m, mid, log_x) < floor
        lo, hi = np.where(below, lo, mid), np.where(below, mid - 1, hi)
    return first, lo, top


def _rare_limit_tail_bound(w: float, m: int, m_prime_max: int) -> float:
    """Chernoff bound on the bosonic limit mass beyond m_prime_max; w > 0.

    The generating function sum over m' of P(m') z**m' equals
    G(z) = z**m exp(w (z-1)) L_m(-x) with x = w (z-1)**2 / z, and
    L_m(-x) = sum over k of C(m,k) x**k / k! has only positive terms.  So
    P(m' > M) <= G(z) z**-(M+1) for every z > 1; the smallest value on a
    geometric grid of ln z is returned, capped at 1.

    Up to _BLOCK_TERMS terms in all, every k of every z is summed in one
    block, over the ln k! table.  Beyond that each z sums only its band
    from _chernoff_bands, in chunks of _BAND_CHUNK terms; the terms
    outside the band underflow to 0 against its peak.
    """
    hi = min(700.0, 1.0 + math.log1p((m_prime_max + 1) / w))
    log_z = np.geomspace(1e-3, hi, _CHERNOFF_GRID)
    z_minus_1 = np.expm1(log_z)
    log_x = math.log(w) + 2.0 * np.log(z_minus_1) - log_z
    if (m + 1) * _CHERNOFF_GRID <= _BLOCK_TERMS:
        lf = log_factorial_array(m)
        k = np.arange(m + 1)
        terms = (lf[m] - lf[m - k] - 2.0 * lf[k])[:, None] + k[:, None] * log_x
        top = terms.max(axis=0)
        log_lag = top + np.log(np.exp(terms - top).sum(axis=0))
    else:
        first, last, top = _chernoff_bands(m, log_x)
        log_lag = np.empty(_CHERNOFF_GRID)
        for i in range(_CHERNOFF_GRID):
            total = 0.0
            for lo in range(first[i], last[i] + 1, _BAND_CHUNK):
                k = np.arange(lo, min(lo + _BAND_CHUNK, last[i] + 1))
                total += float(np.exp(_laguerre_log_terms(m, k, log_x[i]) - top[i]).sum())
            log_lag[i] = top[i] + math.log(total)
    log_bound = (m - m_prime_max - 1) * log_z + w * z_minus_1 + log_lag
    return math.exp(min(0.0, float(log_bound.min())))


def bose_rare_limit(spec: RareEventSpec,
                    m_prime_max: Optional[int] = None) -> OccupancyDistribution:
    """Bosonic rare-event distribution over m_prime = 0..m_prime_max.

    w = 0 is a point mass and m = 0 the Poisson law of
    classical_rare_limit.  Every other row is swept over its support
    window like the finite-n rows, with the Charlier amplitude recurrence
    (mean m + w, sd**2 = w (1 + 2m)), normalized to sum 1; its m' = 0
    entry is recapture_probability.  (w, m) whose window 2 (45 sd + 30)
    would exceed MAX_TABLE_N points are rejected.

    With m_prime_max omitted the support ends where the remaining mass
    drops below 1e-14; an explicit m_prime_max (at most MAX_TABLE_N)
    slices the row or pads it with zeros.  meta["tail_bound"] bounds the
    mass beyond the support (Chernoff, from the generating function).
    """
    w, m = spec.w, spec.m
    meta = {"w": w, "m": m}
    if m_prime_max is not None and not 0 <= m_prime_max <= MAX_TABLE_N:
        raise ValueError(
            f"m_prime_max must lie in 0..{MAX_TABLE_N}, got {m_prime_max!r}")
    sd = math.sqrt(w * (1.0 + 2.0 * m))
    if sd > _LIMIT_MAX_SD:
        raise ValueError(
            f"w={w!r}, m={m} needs a sweep window of more than {MAX_TABLE_N} "
            f"points: w (1 + 2m) must be at most {_LIMIT_MAX_SD ** 2:.6g}")
    if w == 0.0:
        lo, row = m, np.ones(1)
    elif m == 0:
        lo, row = 0, np.array(_poisson_row(w, m_prime_max or 0)[0])
    else:
        sigma = math.sqrt(w) if w < _TINY_P else 1.0
        lo, row = _sweep_window(partial(_charlier_coeffs, w, m, sigma),
                                _windows(m + w, sd, math.inf), m + w, sigma,
                                min(_BOSE_OVERLAP, int(sd)), True)
        if lo == 0:
            row[0] = recapture_probability(spec)
        if m_prime_max is None:
            # drop the trailing entries whose mass sums below the floor
            drop = int(np.searchsorted(np.cumsum(row[::-1]), _TAIL_PROB_EPS))
            row = row[:row.size - drop]
    last = lo + row.size - 1 if m_prime_max is None else m_prime_max
    probs = _on_range(lo, row, 0, last)
    meta["tail_bound"] = (_rare_limit_tail_bound(w, m, last) if w > 0.0
                          else float(last < m))
    return OccupancyDistribution("bose-limit", 0, probs, meta)


def recapture_probability(spec: RareEventSpec) -> float:
    """Probability that the marked mode empties completely: w**m exp(-w)/m!.

    Evaluated like the Poisson entries of classical_rare_limit; the
    m_prime = 0 entry of bose_rare_limit is this value bit for bit.
    """
    w, m = spec.w, spec.m
    if w == 0.0:
        return 1.0 if m == 0 else 0.0
    return math.exp(m * math.log(w) - w - log_factorial(m))


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
