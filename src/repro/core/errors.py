"""Exception hierarchy for the reproduction library.

Every error raised by :mod:`repro` derives from :class:`ReproError` so that
callers can catch library failures without masking programming errors such
as :class:`TypeError`.
"""


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """A component was configured with inconsistent or invalid parameters."""


class WireFormatError(ReproError):
    """A packet or DNS message could not be parsed from its byte encoding."""


class ResolutionError(ReproError):
    """A DNS resolution failed (SERVFAIL, timeout, loop, ...)."""

    def __init__(self, message: str, rcode: str = "SERVFAIL"):
        super().__init__(message)
        self.rcode = rcode


class AttackError(ReproError):
    """An attack could not be carried out against the given target."""


class TransientError(ReproError):
    """A failure that may succeed on retry (lock contention, injected
    chaos, a raced resource).

    The campaign run policy (:class:`repro.faults.RunPolicy`) retries
    cells that raise this with bounded backoff before recording them as
    failed; every other exception is terminal for the cell.
    """


class BudgetExceededError(ReproError):
    """A per-cell watchdog budget (scheduler events or wall clock) was
    exhausted before the cell finished.

    Raised by :class:`repro.core.clock.Scheduler` when a budget is
    armed; under a :class:`repro.faults.RunPolicy` the cell becomes a
    recorded failed run instead of killing the grid.
    """


class ScenarioError(ReproError):
    """An attack scenario is malformed or cannot be materialised.

    Raised by :mod:`repro.scenario` for unknown methodology names,
    mismatched attack configs, or unusable trigger specifications.
    """


class NotApplicableError(ScenarioError):
    """The planner found no applicable methodology for a target.

    Carries the full :class:`repro.attacks.planner.ApplicabilityVerdict`
    so callers can inspect *why* each methodology was rejected.
    """

    def __init__(self, message: str, verdict=None):
        super().__init__(message)
        self.verdict = verdict
