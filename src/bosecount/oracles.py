"""Independent ground-truth generators for the transfer distributions.

Three routes that share no code with the closed-form module: exhaustive
enumeration of all 2**n per-particle outcomes (classical), evolution of
the explicitly symmetrized state in the full 2**n product space
(bosonic, first quantized), and eigen-decomposition of the (n+1)x(n+1)
two-mode number-basis Hamiltonian (bosonic, second quantized).  A
seeded Monte Carlo sampler covers the classical model statistically.

Two scalar cross-check channels evaluate single bosonic entries by
other formulas than the production kernel: the alternating pathway sum
(bose_amplitude_probability) and the Jacobi closed form on the
untransformed (m, m') pair (bose_jacobi_probability).  Both run in the
SignedLog arithmetic defined here: every heavy intermediate carried as
(sign, ln|value|), alternating sums reduced by factoring out the largest
magnitude and accumulating with Neumaier compensation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .distributions import OccupancyDistribution, TransferSpec
from .dynamics import SingleParticleUnitary, TwoLevelParams
from .numerics import log_factorial

__all__ = [
    "CANCELLATION_EPS",
    "SignedLog",
    "log_binomial",
    "generalized_log_binomial",
    "signed_log_sum",
    "SizeLimit",
    "enumerate_distinguishable",
    "enumerate_bose_first_quantized",
    "fock_evolve",
    "mc_sample_classical",
    "bose_amplitude_probability",
    "bose_jacobi_probability",
    "jacobi_polynomial",
]

_ENUM_CLASSICAL_MAX = 20
_ENUM_BOSE_MAX = 10
_FOCK_MAX = 500
_MC_CHUNK = 1 << 16

_RNG_TAG = f"numpy.random.Generator(PCG64), numpy {np.__version__}"

# Largest deviation of the evolved number-basis norm from 1 (measured
# at most 1.7e-15 for n <= 500).
_FOCK_NORM_TOL = 1e-12

# Largest rounding bound bose_amplitude_probability may return under.
_AMPLITUDE_ABS_TOL = 1e-10

# Mixed-sign accumulations whose total lands below this fraction of the
# largest term collapse to the exact zero element: genuine interference
# nulls must not surface as stray values like -1e-18.
CANCELLATION_EPS = 1e-15

# A log magnitude L is known only to about an ulp of L (up to |L| 2**-52),
# and a product of SignedLogs rounds once more, so a term e**L carries a
# relative error near |L| 2**-51.  A mixed-sign total below that noise,
# summed over the terms, is a null as well: a null formed from logs near
# 30 otherwise surfaces as a stray 3.6e-15 of the largest term.
_LOG_NOISE = 2.0 ** -51

_EXACT_COMB_LIMIT = 512  # binomials with a side this small use exact integers


@dataclass(frozen=True)
class SignedLog:
    """A real number stored as an exact sign and ln(abs(value)).

    ``sign`` is -1, 0 or +1; ``log_magnitude`` is meaningless (and
    ignored) when ``sign`` is 0.
    """

    sign: int
    log_magnitude: float = 0.0

    def __post_init__(self) -> None:
        if self.sign not in (-1, 0, 1):
            raise ValueError(f"sign must be -1, 0 or +1, got {self.sign!r}")

    @staticmethod
    def zero() -> "SignedLog":
        return _ZERO

    @staticmethod
    def one() -> "SignedLog":
        return _ONE

    @staticmethod
    def from_linear(x: float) -> "SignedLog":
        if math.isnan(x) or math.isinf(x):
            raise ValueError(f"cannot represent {x!r}")
        if x == 0.0:
            return _ZERO
        return SignedLog(1 if x > 0.0 else -1, math.log(abs(x)))

    def to_linear(self) -> float:
        if self.sign == 0:
            return 0.0
        return self.sign * math.exp(self.log_magnitude)

    def is_zero(self) -> bool:
        return self.sign == 0

    def __neg__(self) -> "SignedLog":
        return SignedLog(-self.sign, self.log_magnitude)

    def __mul__(self, other: "SignedLog") -> "SignedLog":
        if not isinstance(other, SignedLog):
            return NotImplemented
        if self.sign == 0 or other.sign == 0:
            return _ZERO
        return SignedLog(self.sign * other.sign,
                         self.log_magnitude + other.log_magnitude)

    def pow(self, k: int) -> "SignedLog":
        """Integer power, with 0**0 taken as 1."""
        if k < 0:
            raise ValueError("negative exponents are not supported")
        if k == 0:
            return _ONE
        if self.sign == 0:
            return _ZERO
        sign = -1 if (self.sign < 0 and k % 2) else 1
        return SignedLog(sign, k * self.log_magnitude)


_ZERO = SignedLog(0, 0.0)
_ONE = SignedLog(1, 0.0)


def log_binomial(n: int, k: int) -> SignedLog:
    """ln C(n, k) as a SignedLog; the zero element outside 0 <= k <= n.

    When a side of the coefficient is small the exact integer value is
    taken first: ln C(1e5, 3) through log-gamma differences loses the
    cancelled leading digits (only ~7e-12 relative), while the log of
    the exact integer is correctly rounded.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if k < 0 or k > n:
        return _ZERO
    return SignedLog(1, _log_comb(n, k))


def _log_comb(n: int, k: int) -> float:
    """ln C(n, k) for 0 <= k <= n, the magnitude of log_binomial."""
    if min(k, n - k) <= _EXACT_COMB_LIMIT:
        return math.log(math.comb(n, k))
    return log_factorial(n) - log_factorial(k) - log_factorial(n - k)


def generalized_log_binomial(top: int, k: int) -> SignedLog:
    """C(top, k) for any integer top and integer k, as a SignedLog.

    Negative tops follow the reflection C(-t, k) = (-1)**k C(t+k-1, k),
    which is the value of the falling-factorial definition.
    """
    sign, mag = _signed_log_comb(top, k)
    return SignedLog(sign, mag) if sign else _ZERO


def _signed_log_comb(top: int, k: int) -> tuple[int, float]:
    """(sign, ln|C(top, k)|) of generalized_log_binomial; sign 0 at zero."""
    if k < 0 or k > top >= 0:
        return 0, 0.0
    if top >= 0:
        return 1, _log_comb(top, k)
    return (-1 if k % 2 else 1), _log_comb(-top + k - 1, k)


def signed_log_sum(terms: Iterable[SignedLog]) -> SignedLog:
    """Sum SignedLog terms without leaving the representable range.

    The largest magnitude is factored out, the rescaled signed terms are
    accumulated in descending-magnitude order with Neumaier compensation,
    and totals below CANCELLATION_EPS of the largest term, or below the
    rounding noise of the terms' log magnitudes, collapse to the exact
    zero element.
    """
    live = [t for t in terms if t.sign != 0]
    if not live:
        return _ZERO
    live.sort(key=lambda t: t.log_magnitude, reverse=True)
    lead = live[0].log_magnitude
    if lead == -math.inf:
        return _ZERO
    total = 0.0
    comp = 0.0
    noise = 0.0
    for t in live:
        v = t.sign * math.exp(t.log_magnitude - lead)
        noise += abs(v * t.log_magnitude)
        s = total + v
        if abs(total) >= abs(v):
            comp += (total - s) + v
        else:
            comp += (v - s) + total
        total = s
    total += comp
    if abs(total) < max(CANCELLATION_EPS, _LOG_NOISE * noise):
        return _ZERO
    return SignedLog(1 if total > 0.0 else -1, lead + math.log(abs(total)))


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


def bose_amplitude_probability(spec: TransferSpec, m_prime: int) -> float:
    """Single bosonic entry through the scalar compensated pathway sum.

    Evaluates C(n,m)/C(n,m_prime) times the square of the alternating
    pathway sum in SignedLog arithmetic; this is the reference scalar
    route the vectorized kernel is validated against.

    Raises ArithmeticError when the rounding bound of the result,
    C(n,m)/C(n,m_prime) * (sum of |terms|)**2 * 4k * 2**-53 over k terms,
    exceeds 1e-10.  The bound is absolute, not relative, because exact
    interference nulls (true value 0) are valid results of the sum.
    """
    if not 0 <= m_prime <= spec.n:
        raise ValueError(f"m_prime must lie in 0..n, got {m_prime!r}")
    return _pathway_sum_probability(spec, m_prime, _AMPLITUDE_ABS_TOL)


def _pathway_sum_probability(spec: TransferSpec, m_prime: int,
                             abs_tol: Optional[float] = None) -> float:
    """The pathway sum of bose_amplitude_probability; its rounding guard
    applies only when abs_tol is given."""
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
        mag = (_log_comb(m, mu) + _log_comb(n - m, q + mu)
               + 0.5 * ((q + 2 * mu) * lp + (n - q - 2 * mu) * l1p))
        terms.append(SignedLog(-1 if mu % 2 else 1, mag))
    pref = _log_comb(n, m) - _log_comb(n, m_prime)
    if abs_tol is not None:
        log_abs_sum = signed_log_sum(
            [SignedLog(1, t.log_magnitude) for t in terms]).log_magnitude
        log_bound = (pref + 2.0 * log_abs_sum + math.log(4.0 * len(terms))
                     - 53.0 * math.log(2.0))
        if log_bound > math.log(abs_tol):
            raise ArithmeticError(
                f"pathway sum at n={n}, m={m}, m'={m_prime}, p={p!r} cancels "
                f"beyond double precision (rounding bound {math.exp(log_bound):.3e})")
    s = signed_log_sum(terms)
    if s.sign == 0:
        return 0.0
    return math.exp(pref + 2.0 * s.log_magnitude)


def _jacobi_recurrence(degree: int, a: int, b: int, x: float) -> SignedLog:
    """Three-term degree recurrence with magnitude rescaling.

    Valid for a, b >= 0 where no recurrence coefficient vanishes; the
    running pair is renormalized whenever it grows past 1e150 so degrees
    and parameters up to ~1e5 stay inside the double range.
    """
    prev = 1.0
    curr = (a - b) / 2.0 + (a + b + 2.0) * x / 2.0
    offset = 0.0
    for k in range(2, degree + 1):
        ab = a + b
        c0 = 2.0 * k * (k + ab) * (2.0 * k + ab - 2.0)
        c1 = (2.0 * k + ab - 1.0)
        c2 = (2.0 * k + ab) * (2.0 * k + ab - 2.0)
        c3 = float(a * a - b * b)
        c4 = 2.0 * (k + a - 1.0) * (k + b - 1.0) * (2.0 * k + ab)
        nxt = (c1 * (c2 * x + c3) * curr - c4 * prev) / c0
        prev, curr = curr, nxt
        scale = max(abs(prev), abs(curr))
        if scale > 1e150:
            prev /= scale
            curr /= scale
            offset += math.log(scale)
    if curr == 0.0:
        return SignedLog.zero()
    return SignedLog(1 if curr > 0.0 else -1, math.log(abs(curr)) + offset)


def _jacobi_finite_sum(degree: int, a: int, b: int, x: float) -> SignedLog:
    """Terminating hypergeometric sum, valid for any integer parameters.

    Sum over s of C(degree+a, degree-s) C(degree+b, s)
    ((x-1)/2)**s ((x+1)/2)**(degree-s), with negative-top binomials via
    their falling-factorial values.
    """
    half_minus = SignedLog.from_linear((x - 1.0) / 2.0)
    half_plus = SignedLog.from_linear((x + 1.0) / 2.0)
    terms = []
    for s in range(degree + 1):
        r = degree - s
        sign_a, log_a = _signed_log_comb(degree + a, r)
        sign_b, log_b = _signed_log_comb(degree + b, s)
        # the factors multiply as SignedLogs do, with 0**0 = 1
        if (not sign_a or not sign_b or (s and not half_minus.sign)
                or (r and not half_plus.sign)):
            continue
        sign = (sign_a * sign_b * (half_minus.sign if s % 2 else 1)
                * (half_plus.sign if r % 2 else 1))
        mag = (log_a + log_b + (s * half_minus.log_magnitude if s else 0.0)
               + (r * half_plus.log_magnitude if r else 0.0))
        terms.append(SignedLog(sign, mag))
    return signed_log_sum(terms)


def jacobi_polynomial(degree: int, a: int, b: int, x: float) -> SignedLog:
    """Jacobi polynomial of integer parameters, as a SignedLog.

    Nonnegative parameters go through the stable degree recurrence;
    negative integer parameters (where the recurrence assumptions fail)
    fall back to the terminating finite sum.
    """
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    if degree == 0:
        return SignedLog.one()
    if a >= 0 and b >= 0:
        return _jacobi_recurrence(degree, a, b, x)
    return _jacobi_finite_sum(degree, a, b, x)


def bose_jacobi_probability(spec: TransferSpec, m_prime: int) -> float:
    """Bosonic entry through the Jacobi closed form (verification channel).

    m!(n-m)!/(m'!(n-m')!) * p**(m'-m) * (1-p)**(n-m'-m) times the squared
    Jacobi polynomial of degree m with parameters (n-m'-m, m'-m) at
    2p - 1.  The (1-p) exponent is n-m'-m: the sign variant n-m'+m
    breaks single-particle unitarity (n=1, m=m'=1 would give (1-p)**3
    instead of 1-p) and is pinned against by a regression test.
    """
    n, m, p = spec.n, spec.m, spec.p
    if not 0 <= m_prime <= n:
        raise ValueError(f"m_prime must lie in 0..n, got {m_prime!r}")
    if p == 0.0:
        return 1.0 if m_prime == m else 0.0
    if p == 1.0:
        return 1.0 if m_prime == n - m else 0.0
    q = m_prime - m
    jac = jacobi_polynomial(m, n - m_prime - m, q, 2.0 * p - 1.0)
    if jac.sign == 0:
        return 0.0
    pref = (log_factorial(m) + log_factorial(n - m)
            - log_factorial(m_prime) - log_factorial(n - m_prime)
            + q * math.log(p) + (n - m_prime - m) * math.log1p(-p))
    return math.exp(pref + 2.0 * jac.log_magnitude)
