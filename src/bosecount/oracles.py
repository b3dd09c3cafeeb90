"""Independent ground-truth generators for the transfer distributions.

Three routes that share no code with the closed-form module: exhaustive
enumeration of all 2**n per-particle outcomes (classical), evolution of
the explicitly symmetrized state in the full 2**n product space
(bosonic, first quantized), and eigen-decomposition of the (n+1)x(n+1)
two-mode number-basis Hamiltonian (bosonic, second quantized).  A
seeded Monte Carlo sampler covers the classical model statistically.

Three exact oracles evaluate whole rows by other formulas than the
production kernels: the alternating bosonic pathway sum, the classical
convolution of two binomials and the bosonic rare-event limit in
Laguerre form.  A float p or w is an exact dyadic rational, so each
entry is a ratio of Python integers, and the one int/int division that
turns it into a float is correctly rounded.
"""

from __future__ import annotations

import math

import numpy as np

from .distributions import OccupancyDistribution, RareEventSpec, TransferSpec
from .dynamics import SingleParticleUnitary, TwoLevelParams

__all__ = [
    "SizeLimit",
    "enumerate_distinguishable",
    "enumerate_bose_first_quantized",
    "fock_evolve",
    "mc_sample_classical",
    "exact_bose_row",
    "exact_classical_row",
    "exact_bose_limit_row",
]

_ENUM_CLASSICAL_MAX = 20
_ENUM_BOSE_MAX = 10
_FOCK_MAX = 500
_MC_CHUNK = 1 << 16

_RNG_TAG = f"numpy.random.Generator(PCG64), numpy {np.__version__}"

# Largest deviation of the evolved number-basis norm from 1 (measured
# at most 1.7e-15 for n <= 500).
_FOCK_NORM_TOL = 1e-12


class SizeLimit(ValueError):
    """Problem size exceeds what the oracle is allowed to brute-force."""


def enumerate_distinguishable(spec: TransferSpec) -> OccupancyDistribution:
    """Classical distribution by summing all 2**n flip/stay assignments.

    Bit j of the assignment mask marks particle j as flipped; the first
    m particles start in the marked mode.  Exact up to floating-point
    accumulation of the 2**n products.
    """
    n, m, p = spec.n, spec.m, spec.p
    if n > _ENUM_CLASSICAL_MAX:
        raise SizeLimit(f"n={n} exceeds the 2**n enumeration cap {_ENUM_CLASSICAL_MAX}")
    masks = np.arange(1 << n, dtype=np.uint64)
    flips_total = np.bitwise_count(masks).astype(np.int64)
    marked = np.uint64((1 << m) - 1)
    flips_out = np.bitwise_count(masks & marked).astype(np.int64)
    m_final = m - flips_out + (flips_total - flips_out)
    weight = p ** flips_total * (1.0 - p) ** (n - flips_total)
    probs = np.bincount(m_final, weights=weight, minlength=n + 1)
    meta = {"n": n, "m": m, "p": p, "source": "enumerate-distinguishable"}
    return OccupancyDistribution("oracle", 0, probs, meta)


def enumerate_bose_first_quantized(n: int, m: int,
                                   u: SingleParticleUnitary) -> OccupancyDistribution:
    """Bosonic distribution from the symmetrized 2**n product-space state.

    Builds the equal-amplitude superposition over all C(n, m) placements
    of the m marked particles, applies the one-particle matrix to each
    particle in turn (the n-fold tensor power, in O(n 2**n) work and
    without forming the 2**n x 2**n matrix), and projects on each
    normalized symmetric final-count state.  Basis digit 1 means "in the
    marked mode".
    """
    if n > _ENUM_BOSE_MAX:
        raise SizeLimit(f"n={n} exceeds the product-space cap {_ENUM_BOSE_MAX}")
    if not 0 <= m <= n:
        raise ValueError(f"m must lie in 0..n, got {m!r}")
    popc = np.bitwise_count(np.arange(1 << n, dtype=np.uint64)).astype(np.int64)
    psi = np.where(popc == m, 1.0 / math.sqrt(math.comb(n, m)), 0.0)
    single = np.array([[u.u22, u.u21],
                       [u.u12, u.u11]], dtype=np.complex128)
    for _ in range(n):
        # act on the leading particle; the transpose rotates it to the
        # back, so after n steps every particle is done and in place
        psi = (single @ psi.reshape(2, -1)).T
    # one pass over the basis states grouped by final count
    counts = [math.comb(n, k) for k in range(n + 1)]
    grouped = psi.reshape(-1)[np.argsort(popc, kind="stable")]
    sums = np.add.reduceat(grouped, np.cumsum([0] + counts[:-1]))
    probs = np.abs(sums) ** 2 / counts
    meta = {"n": n, "m": m, "p": u.p, "source": "enumerate-bose-first-quantized"}
    return OccupancyDistribution("oracle", 0, probs, meta)


def _number_basis_evolution(n: int, params: TwoLevelParams, t: float,
                            m: int) -> np.ndarray:
    """Amplitudes after evolving |m> in the two-mode number basis.

    The Hamiltonian lifted to fixed total number n is tridiagonal:
    diagonal epsilon*(2k - n), off-diagonal (xi - i*eta) *
    sqrt((k+1)(n-k)).  A diagonal phase gauge makes it real symmetric,
    which leaves all |amplitude|**2 unchanged, so the returned vector
    carries the gauged phases.
    """
    k = np.arange(n + 1, dtype=np.float64)
    diag = params.epsilon * (2.0 * k - n)
    tunnel = math.hypot(params.xi, params.eta)
    off = tunnel * np.sqrt((k[:-1] + 1.0) * (n - k[:-1]))
    h = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    eigvals, vecs = np.linalg.eigh(h)
    weights = vecs[m, :] * np.exp(-1j * eigvals * t)
    return vecs @ weights


def fock_evolve(n: int, params: TwoLevelParams, t: float,
                m: int) -> OccupancyDistribution:
    """Bosonic distribution from second-quantized number-basis evolution."""
    if n > _FOCK_MAX:
        raise SizeLimit(f"n={n} exceeds the eigen-solve cap {_FOCK_MAX}")
    if not 0 <= m <= n:
        raise ValueError(f"m must lie in 0..n, got {m!r}")
    amps = _number_basis_evolution(n, params, t, m)
    probs = np.abs(amps) ** 2
    norm = float(probs.sum())
    if abs(norm - 1.0) > _FOCK_NORM_TOL:
        raise ArithmeticError(f"evolved norm deviates from 1 by {abs(norm - 1.0):.3e}")
    meta = {"n": n, "m": m, "t": t,
            "epsilon": params.epsilon, "xi": params.xi, "eta": params.eta,
            "norm_deviation": abs(norm - 1.0), "source": "fock-evolve"}
    return OccupancyDistribution("oracle", 0, probs, meta)


def mc_sample_classical(spec: TransferSpec, trials: int,
                        seed: int) -> OccupancyDistribution:
    """Seeded per-particle Bernoulli sampling of the classical model.

    Returns the sampled frequencies as an "empirical" distribution whose
    meta holds trials, seed and generator.  Trials are drawn in
    fixed-size chunks from a PCG64 generator, so the frequencies are
    bit-identical across runs and platforms for the same seed.
    """
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials!r}")
    n, m, p = spec.n, spec.m, spec.p
    rng = np.random.Generator(np.random.PCG64(seed))
    counts = np.zeros(n + 1, dtype=np.int64)
    remaining = trials
    while remaining > 0:
        batch = min(_MC_CHUNK, remaining)
        flips = rng.random((batch, n)) < p
        flips_out = flips[:, :m].sum(axis=1)
        flips_in = flips[:, m:].sum(axis=1)
        m_final = m - flips_out + flips_in
        counts += np.bincount(m_final, minlength=n + 1)
        remaining -= batch
    meta = {"trials": trials, "seed": seed, "generator": _RNG_TAG}
    return OccupancyDistribution("empirical", 0, counts / trials, meta)


def _dyadic_powers(p: float, n: int) -> tuple[int, list[int], list[int]]:
    """den and the powers num**k, (den - num)**k for k = 0..n, where
    p = num/den exactly."""
    num, den = p.as_integer_ratio()
    num_pows, rest_pows = [1], [1]
    for _ in range(n):
        num_pows.append(num_pows[-1] * num)
        rest_pows.append(rest_pows[-1] * (den - num))
    return den, num_pows, rest_pows


def exact_bose_row(spec: TransferSpec) -> np.ndarray:
    """Bosonic row P(m'|m), m' = 0..n, from the pathway sum in integers.

    With p = num/den, rest = den - num, q = m' - m and the pathways
    mu = lo..hi, P = C(n,m) num**|q| rest**(n-|q|-2(hi-lo)) s**2 /
    (C(n,m') den**n), where s = sum of (-1)**mu C(m,mu) C(n-m,q+mu)
    num**(mu-lo) rest**(hi-mu).  Each entry is correctly rounded.
    """
    n, m = spec.n, spec.m
    den, num_pows, rest_pows = _dyadic_powers(spec.p, n)
    ways, scale = math.comb(n, m), den ** n
    row = np.empty(n + 1)
    for m_prime in range(n + 1):
        q = m_prime - m
        lo, hi = max(0, -q), min(m, n - m - q)
        s = sum((-1) ** mu * math.comb(m, mu) * math.comb(n - m, q + mu)
                * num_pows[mu - lo] * rest_pows[hi - mu] for mu in range(lo, hi + 1))
        top = ways * num_pows[abs(q)] * rest_pows[n - abs(q) - 2 * (hi - lo)] * s * s
        row[m_prime] = top / (math.comb(n, m_prime) * scale)
    return row


def exact_classical_row(spec: TransferSpec) -> np.ndarray:
    """Classical row P(m'|m), m' = 0..n, as an integer convolution.

    k of the m marked particles leave and j of the n - m others enter,
    so m' = m - k + j; with p = num/den each entry is the convolved
    integer over den**n, correctly rounded.
    """
    n, m = spec.n, spec.m
    den, num_pows, rest_pows = _dyadic_powers(spec.p, n)
    leave = [math.comb(m, k) * num_pows[k] * rest_pows[m - k] for k in range(m + 1)]
    enter = [math.comb(n - m, j) * num_pows[j] * rest_pows[n - m - j]
             for j in range(n - m + 1)]
    totals = [0] * (n + 1)
    for k, out in enumerate(leave):
        for j, into in enumerate(enter):
            totals[m - k + j] += out * into
    scale = den ** n
    return np.array([t / scale for t in totals])


def exact_bose_limit_row(spec: RareEventSpec, m_prime_max: int) -> np.ndarray:
    """Bosonic rare-event row P(m'|m), m' = 0..m_prime_max, in Laguerre form.

    With w = a/d, l = min(m, m'), h = max(m, m') and delta = h - l,
    e**w P = a**delta s**2 / (h! l! d**(delta+2l)), where
    s = l! d**l L_l^(delta)(w) = sum of (-1)**j C(h, l-j) (l!/j!) a**j
    d**(l-j).  That ratio is correctly rounded, then scaled by exp(-w).
    """
    if m_prime_max < 0:
        raise ValueError(f"m_prime_max must be nonnegative, got {m_prime_max!r}")
    m = spec.m
    a, d = spec.w.as_integer_ratio()
    decay = math.exp(-spec.w)
    row = np.empty(m_prime_max + 1)
    for m_prime in range(m_prime_max + 1):
        low, high = min(m, m_prime), max(m, m_prime)
        delta = high - low
        s = sum((-1) ** j * math.comb(high, low - j) * math.perm(low, low - j)
                * a ** j * d ** (low - j) for j in range(low + 1))
        row[m_prime] = (a ** delta * s * s / (math.factorial(high) * math.factorial(low)
                                             * d ** (delta + 2 * low)) * decay)
    return row
