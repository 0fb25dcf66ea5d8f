"""Deterministic chaos: injected failures for the execution plane.

Impairments (:mod:`repro.faults.spec`) degrade the *simulated* network;
chaos degrades the *harness itself* — a campaign cell whose world build
crashes, a store whose writes raise ``sqlite3.OperationalError`` on
schedule.  Everything here is deterministic (schedules are data, not
clocks), so resilience tests and the CI chaos-smoke job reproduce
exactly.

Two mechanisms:

* ``FaultPlan.crash_seeds`` / ``flaky_seeds`` — checked by
  :func:`maybe_crash` at world-build time.  Crash seeds raise
  :class:`ChaosError` (terminal: the cell is recorded as failed and
  fails again on resume until the plan changes).  Flaky seeds raise
  :class:`FlakyError` (a :class:`~repro.core.errors.TransientError`)
  for the first ``flaky_failures`` attempts in each process, so a
  retrying :class:`~repro.faults.policy.RunPolicy` heals them.
* :class:`ChaosStore` — wraps a :class:`~repro.store.db.RunStore`,
  raising ``sqlite3.OperationalError("database is locked")`` for
  scheduled write attempts; exercises the store retry path without
  needing real lock contention.
"""

from __future__ import annotations

import sqlite3
from typing import Any

from repro.core.errors import ReproError, TransientError


class ChaosError(ReproError):
    """An injected, *terminal* harness failure (a "poisoned cell")."""


class FlakyError(TransientError):
    """An injected, *transient* harness failure; retries succeed."""


# Per-process attempt counts for flaky seeds, keyed (scenario label,
# seed).  Process-local on purpose: each executor worker sees its own
# counter, so "fails flaky_failures times then succeeds" holds whether
# the retry happens in-process (serial/thread) or in a re-dispatched
# worker that already failed it once.
_flaky_attempts: dict[tuple[str, Any], int] = {}


def reset_flaky_attempts() -> None:
    """Forget flaky-seed attempt history (test isolation)."""
    _flaky_attempts.clear()


def maybe_crash(plan, label: str, seed) -> None:
    """Apply ``plan``'s chaos schedule to a (label, seed) cell build.

    Raises :class:`ChaosError` for crash seeds, :class:`FlakyError` for
    flaky seeds that have not yet burned through ``plan.flaky_failures``
    attempts in this process, and returns silently otherwise.
    """
    if plan is None:
        return
    if seed in plan.crash_seeds:
        raise ChaosError(
            f"injected crash: seed {seed!r} of {label!r} is poisoned")
    if seed in plan.flaky_seeds:
        key = (label, seed)
        attempt = _flaky_attempts.get(key, 0) + 1
        _flaky_attempts[key] = attempt
        if attempt <= plan.flaky_failures:
            raise FlakyError(
                f"injected transient failure: seed {seed!r} of {label!r}"
                f" (attempt {attempt}/{plan.flaky_failures})")


class ChaosStore:
    """A :class:`~repro.store.db.RunStore` proxy with scheduled failures.

    ``fail_writes`` lists 1-based write-attempt ordinals (counting every
    call to :meth:`record`/:meth:`record_many`) that raise
    ``sqlite3.OperationalError("database is locked")`` before touching
    the real store.  Every injected failure is retryable: a retried
    attempt gets a fresh ordinal, so it lands unless that ordinal is
    listed too — exactly the shape of real WAL-lock contention the
    store retry loop must absorb.
    """

    def __init__(self, store, fail_writes: tuple[int, ...] = (2,)):
        self._store = store
        self._fail_writes = frozenset(fail_writes)
        self.write_attempts = 0
        self.injected_failures = 0

    def _maybe_fail(self) -> None:
        self.write_attempts += 1
        if self.write_attempts in self._fail_writes:
            self.injected_failures += 1
            raise sqlite3.OperationalError(
                "database is locked (injected by ChaosStore)")

    def record(self, *args, **kwargs):
        self._maybe_fail()
        return self._store.record(*args, **kwargs)

    def record_many(self, *args, **kwargs):
        self._maybe_fail()
        return self._store.record_many(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._store, name)
