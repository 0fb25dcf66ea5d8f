"""Shared primitives used by every subsystem.

The core package holds the pieces that do not belong to any one protocol
layer: deterministic randomness, simulated time, structured event logging,
error types and small unit helpers.  Everything else in :mod:`repro` builds
on these.
"""

from repro.core.clock import Clock, Scheduler
from repro.core.errors import ConfigurationError, ReproError
from repro.core.eventlog import Event, EventLog, NullLog
from repro.core.rng import DeterministicRNG, derive_rng

__all__ = [
    "Clock",
    "ConfigurationError",
    "DeterministicRNG",
    "Event",
    "EventLog",
    "NullLog",
    "ReproError",
    "Scheduler",
    "derive_rng",
]
