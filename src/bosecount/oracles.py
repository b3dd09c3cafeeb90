"""Independent ground-truth generators for the transfer distributions.

Three routes that share no code with the closed-form module: exhaustive
enumeration of all 2**n per-particle outcomes (classical), evolution of
the explicitly symmetrized state in the full 2**n product space
(bosonic, first quantized), and eigen-decomposition of the (n+1)x(n+1)
two-mode number-basis Hamiltonian (bosonic, second quantized).  A
seeded Monte Carlo sampler covers the classical model statistically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .distributions import OccupancyDistribution, TransferSpec
from .dynamics import SingleParticleUnitary, TwoLevelParams

__all__ = [
    "SizeLimit",
    "FockStateVector",
    "EmpiricalDistribution",
    "enumerate_distinguishable",
    "enumerate_bose_first_quantized",
    "evolve_fock_state",
    "fock_evolve",
    "mc_sample_classical",
]

_ENUM_CLASSICAL_MAX = 20
_ENUM_BOSE_MAX = 10
_FOCK_MAX = 500
_MC_CHUNK = 1 << 16

_RNG_TAG = f"numpy.random.Generator(PCG64), numpy {np.__version__}"


class SizeLimit(ValueError):
    """Problem size exceeds what the oracle is allowed to brute-force."""


@dataclass(frozen=True)
class FockStateVector:
    """Two-mode number-basis state: amplitude per count k = 0..n of
    particles in the marked mode."""

    n: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        if amps.shape != (self.n + 1,):
            raise ValueError(f"expected {self.n + 1} amplitudes, got {amps.shape}")
        norm = float((np.abs(amps) ** 2).sum())
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"state is not normalized (sum {norm!r})")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    def occupancy_probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


@dataclass(frozen=True)
class EmpiricalDistribution:
    """Sampled final-count histogram, reproducible from the stored seed."""

    counts: np.ndarray
    trials: int
    seed: int
    generator: str = _RNG_TAG
    start: int = 0

    def __post_init__(self) -> None:
        counts = np.asarray(self.counts, dtype=np.int64)
        if counts.sum() != self.trials:
            raise ValueError("counts must sum to trials")
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)

    def to_distribution(self) -> OccupancyDistribution:
        probs = self.counts / self.trials
        meta = {"trials": self.trials, "seed": self.seed,
                "generator": self.generator}
        return OccupancyDistribution("empirical", self.start, probs, meta)


def _popcounts(size: int) -> np.ndarray:
    masks = np.arange(size, dtype=np.uint64)
    return np.bitwise_count(masks).astype(np.int64)


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
    of the m marked particles, applies the n-fold tensor power of the
    one-particle matrix, and projects on each normalized symmetric
    final-count state.  Basis digit 1 means "in the marked mode".
    """
    if n > _ENUM_BOSE_MAX:
        raise SizeLimit(f"n={n} exceeds the product-space cap {_ENUM_BOSE_MAX}")
    if not 0 <= m <= n:
        raise ValueError(f"m must lie in 0..n, got {m!r}")
    dim = 1 << n
    psi = np.zeros(dim, dtype=np.complex128)
    amp = 1.0 / math.sqrt(math.comb(n, m))
    for positions in combinations(range(n), m):
        index = sum(1 << j for j in positions)
        psi[index] = amp
    single = np.array([[u.u22, u.u21],
                       [u.u12, u.u11]], dtype=np.complex128)
    full = np.ones((1, 1), dtype=np.complex128)
    for _ in range(n):
        full = np.kron(full, single)
    psi = full @ psi
    popc = _popcounts(dim)
    probs = np.empty(n + 1)
    for m_prime in range(n + 1):
        projected = psi[popc == m_prime].sum() / math.sqrt(math.comb(n, m_prime))
        probs[m_prime] = abs(projected) ** 2
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


def evolve_fock_state(n: int, params: TwoLevelParams, t: float,
                      m: int) -> FockStateVector:
    """Evolved number-basis state as a validated FockStateVector."""
    if n > _FOCK_MAX:
        raise SizeLimit(f"n={n} exceeds the eigen-solve cap {_FOCK_MAX}")
    if not 0 <= m <= n:
        raise ValueError(f"m must lie in 0..n, got {m!r}")
    return FockStateVector(n, _number_basis_evolution(n, params, t, m))


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
    if abs(norm - 1.0) > 1e-9:
        raise ArithmeticError(f"evolved norm deviates from 1 by {abs(norm - 1.0):.3e}")
    meta = {"n": n, "m": m, "t": t,
            "epsilon": params.epsilon, "xi": params.xi, "eta": params.eta,
            "norm_deviation": abs(norm - 1.0), "source": "fock-evolve"}
    return OccupancyDistribution("oracle", 0, probs, meta)


def mc_sample_classical(spec: TransferSpec, trials: int,
                        seed: int) -> EmpiricalDistribution:
    """Seeded per-particle Bernoulli sampling of the classical model.

    Trials are drawn in fixed-size chunks from a PCG64 generator, so the
    resulting counts are bit-identical across runs and platforms for the
    same seed.
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
    return EmpiricalDistribution(counts, trials, seed)
