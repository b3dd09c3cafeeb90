"""Occupation-transfer statistics for N non-interacting two-level
particles: exact finite-N and rare-event-limit distributions for
distinguishable particles (Poissonian) and identical bosons
(interference-modified), with independent oracles and a CLI.

The package namespace holds the production API; the oracles, the
exact-integer reference rows among them, live in
``bosecount.oracles``, the ln k! helpers in ``bosecount.numerics`` and
the figure tables beside the kernels in ``bosecount.distributions``.

The public names load on first access (PEP 562), so that ``import
bosecount.cli`` pulls in no layer and no numpy until a command needs it."""

import importlib

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

_HOMES = {
    "distributions": ("OccupancyDistribution", "RareEventSpec", "TransferSpec",
                      "bose_exact", "bose_rare_limit", "classical_exact",
                      "classical_rare_limit", "recapture_probability",
                      "transfer_probabilities"),
    "dynamics": ("NoCoupling", "SingleParticleUnitary", "TargetUnreachable",
                 "TwoLevelParams", "evolve", "rabi_frequency",
                 "solve_pulse_duration", "transfer_ceiling"),
    "verification": ("CheckResult", "run_verification"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value
