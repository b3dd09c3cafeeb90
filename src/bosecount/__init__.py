"""Occupation-transfer statistics for N non-interacting two-level
particles: exact finite-N and rare-event-limit distributions for
distinguishable particles (Poissonian) and identical bosons
(interference-modified), with independent oracles and a CLI.

The package namespace holds the production API; the oracles, the
cross-check channels and their (sign, log) arithmetic live in
``bosecount.oracles``, the ln k! helpers in ``bosecount.numerics`` and
the figure tables beside the kernels in ``bosecount.distributions``."""

from .distributions import (
    OccupancyDistribution,
    RareEventSpec,
    TransferSpec,
    bose_exact,
    bose_rare_limit,
    classical_exact,
    classical_rare_limit,
    recapture_probability,
    transfer_probabilities,
)
from .dynamics import (
    NoCoupling,
    SingleParticleUnitary,
    TargetUnreachable,
    TwoLevelParams,
    evolve,
    rabi_frequency,
    solve_pulse_duration,
    transfer_ceiling,
)
from .verification import CheckResult, run_verification

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "CheckResult",
    "NoCoupling",
    "OccupancyDistribution",
    "RareEventSpec",
    "SingleParticleUnitary",
    "TargetUnreachable",
    "TransferSpec",
    "TwoLevelParams",
    "bose_exact",
    "bose_rare_limit",
    "classical_exact",
    "classical_rare_limit",
    "evolve",
    "rabi_frequency",
    "recapture_probability",
    "run_verification",
    "solve_pulse_duration",
    "transfer_ceiling",
    "transfer_probabilities",
]
