"""Cross-validation suite wiring the closed forms to their oracles.

Runs the oracle-equivalence and invariant checks over a small-size grid
and reports the worst deviation per check.  The CLI ``verify``
subcommand formats the results; tests reuse the same machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .distributions import (
    RareEventSpec,
    TransferSpec,
    bose_exact,
    bose_rare_limit,
    classical_exact,
)
from .dynamics import TwoLevelParams, evolve, solve_pulse_duration
from .oracles import (
    enumerate_bose_first_quantized,
    enumerate_distinguishable,
    exact_bose_limit_row,
    exact_bose_row,
    exact_classical_row,
    fock_evolve,
)

__all__ = ["CheckResult", "DEFAULT_P_GRID", "run_verification"]

DEFAULT_P_GRID = (0.1, 0.3, 0.5, 0.7, 0.9)

# Largest max_n accepted: the exact oracles cost O(max_n**4) integer
# terms, and the whole grid about 2 s at 30 (2-CPU x86-64, Python 3.11).
_MAX_VERIFY_N = 30

# Mean event numbers of the rare-event limit rows checked.
_LIMIT_W_GRID = (0.5, 3.0, 20.0)

# Detuned, complex-tunnelling parameter set whose transfer ceiling still
# clears the top of DEFAULT_P_GRID (p_max ~ 0.969).
_FOCK_PARAMS = TwoLevelParams(epsilon=0.2, xi=1.0, eta=0.5)


@dataclass(frozen=True)
class CheckResult:
    name: str
    tolerance: float
    max_deviation: float
    worst_case: str
    cases: int

    @property
    def passed(self) -> bool:
        return self.max_deviation <= self.tolerance


class _Tracker:
    def __init__(self) -> None:
        self.dev = 0.0
        self.worst = "-"
        self.cases = 0

    def update(self, dev: float, label: str) -> None:
        self.cases += 1
        if dev > self.dev:
            self.dev = dev
            self.worst = label

    def result(self, name: str, tol: float) -> CheckResult:
        return CheckResult(name, tol, self.dev, self.worst, self.cases)


def _unitary_for(params: TwoLevelParams, p: float):
    tau = solve_pulse_duration(params, p)
    return evolve(params, tau), tau


def run_verification(max_n: int,
                     p_grid: Sequence[float] = DEFAULT_P_GRID) -> list["CheckResult"]:
    """Run every cross-check up to max_n particles; empty list if max_n < 1.

    Raises ValueError for max_n above 30.
    """
    if max_n > _MAX_VERIFY_N:
        raise ValueError(f"max_n must be at most {_MAX_VERIFY_N}, got {max_n!r}")
    if max_n < 1:
        return []
    results: list[CheckResult] = []

    # |diff| <= tol*ref + tol*0.04 blends a relative contract with an
    # absolute floor for small and interference-cancelled entries.
    classical = _Tracker()
    convolution = _Tracker()
    for n in range(1, max_n + 1):
        for m in range(n + 1):
            for p in p_grid:
                spec = TransferSpec(n, m, p)
                exact = classical_exact(spec).probs
                label = f"(n={n}, m={m}, p={p})"
                if n <= 16:
                    brute = enumerate_distinguishable(spec).probs
                    classical.update(float(np.abs(exact - brute).max()), label)
                ref = exact_classical_row(spec)
                convolution.update(float((np.abs(exact - ref) / (ref + 0.04)).max()), label)
    results.append(classical.result("classical vs 2**n enumeration", 1e-12))
    results.append(convolution.result("classical vs exact convolution", 1e-12))

    bose_fq = _Tracker()
    bose_fock = _Tracker()
    fq_fock = _Tracker()
    pulses = [(p, *_unitary_for(_FOCK_PARAMS, p)) for p in p_grid]
    for n in range(1, min(max_n, 10) + 1):
        for m in range(n + 1):
            for p, u, tau in pulses:
                spec = TransferSpec(n, m, u.p)
                exact = bose_exact(spec).probs
                fq = enumerate_bose_first_quantized(n, m, u).probs
                fock = fock_evolve(n, _FOCK_PARAMS, tau, m).probs
                label = f"(n={n}, m={m}, p={p})"
                bose_fq.update(float(np.abs(exact - fq).max()), label)
                bose_fock.update(float(np.abs(exact - fock).max()), label)
                fq_fock.update(float(np.abs(fq - fock).max()), label)
    results.append(bose_fq.result("bose vs first-quantized enumeration", 1e-10))
    results.append(bose_fock.result("bose vs number-basis evolution", 1e-10))
    results.append(fq_fock.result(
        "bose first-quantized vs number-basis evolution", 1e-10))

    # One table of bosonic rows per (n, p) feeds every check below; each
    # tracker still sees its cases in the order of its own nested loop.
    pathway = _Tracker()
    norm = _Tracker()
    coincide = _Tracker()
    symmetry = _Tracker()
    for n in range(1, max_n + 1):
        tables = {p: [bose_exact(TransferSpec(n, m, p)).probs for m in range(n + 1)]
                  for p in p_grid}
        for m in range(n + 1):
            for p in p_grid:
                ref = exact_bose_row(TransferSpec(n, m, p))
                devs = np.abs(tables[p][m] - ref) / (ref + 0.04)
                for m_prime, dev in enumerate(devs.tolist()):
                    pathway.update(dev, f"(n={n}, m={m}, m'={m_prime}, p={p})")
        for p in p_grid:
            table = tables[p]
            for m in range(n + 1):
                norm.update(abs(float(table[m].sum()) - 1.0), f"(n={n}, m={m}, p={p})")
                for m_prime in range(n + 1):
                    label = f"(n={n}, m={m}, m'={m_prime}, p={p})"
                    symmetry.update(
                        float(abs(table[m][m_prime] - table[m_prime][m])), label)
                    symmetry.update(
                        float(abs(table[m][m_prime] - table[n - m][n - m_prime])),
                        label)
            classical0 = classical_exact(TransferSpec(n, 0, p)).probs
            coincide.update(float(np.abs(table[0] - classical0).max()),
                            f"(n={n}, m=0, p={p})")
    results.append(pathway.result("bose vs exact pathway sum", 1e-12))

    laguerre = _Tracker()
    for w in _LIMIT_W_GRID:
        for m in range(max_n + 1):
            spec = RareEventSpec(w, m)
            ref = exact_bose_limit_row(spec, 2 * max_n)
            devs = np.abs(bose_rare_limit(spec, 2 * max_n).probs - ref) / (ref + 0.04)
            for m_prime, dev in enumerate(devs.tolist()):
                laguerre.update(dev, f"(w={w}, m={m}, m'={m_prime})")
    results.append(laguerre.result("bose limit vs exact Laguerre form", 1e-12))

    unit = _Tracker()
    for p in p_grid:
        dev = abs(bose_exact(TransferSpec(1, 1, p)).probs[1] - (1.0 - p))
        unit.update(float(dev), f"(n=1, m=1, m'=1, p={p})")
    results.append(unit.result("single-particle unitarity", 1e-12))

    results.append(norm.result("bose normalization", 1e-10))
    results.append(coincide.result("empty-mode coincidence with classical", 0.0))
    results.append(symmetry.result("transfer symmetries (reverse, relabel)", 1e-12))

    return results
