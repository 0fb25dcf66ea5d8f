"""Shared primitives used by every subsystem.

The core package holds the pieces that do not belong to any one protocol
layer: deterministic randomness, simulated time, structured event logging,
error types and small unit helpers.  Everything else in :mod:`repro` builds
on these.
"""

from repro import _lazy_exports

#: The public names, each imported on first use from the module named
#: here, so importing ``repro.core.rng`` does not load the scheduler.
_EXPORTS = {
    "Clock": "repro.core.clock",
    "ConfigurationError": "repro.core.errors",
    "DeterministicRNG": "repro.core.rng",
    "Event": "repro.core.eventlog",
    "EventLog": "repro.core.eventlog",
    "NullLog": "repro.core.eventlog",
    "ReproError": "repro.core.errors",
    "Scheduler": "repro.core.clock",
    "derive_rng": "repro.core.rng",
}

__all__ = sorted(_EXPORTS)

__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
