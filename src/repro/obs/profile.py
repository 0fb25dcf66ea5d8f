"""Per-stage timing hooks and simulator instrumentation.

:class:`StageTimer` replaces the ad-hoc ``time.perf_counter()`` pairs
that used to be scattered through the campaign runner, atlas pipeline,
parallel CLI and workload engine.  It *always* measures
(callers keep reading ``timer.elapsed`` for wall-clock fields that are
part of verified outputs), but records into the obs registry only when
the plane is enabled — so the disabled path is exactly the two
``perf_counter`` calls it replaced.

:func:`observe_scheduler` snapshots a :class:`repro.core.clock.
Scheduler` after a run: lifetime events executed, events/s, residual
queue depth, and — when :meth:`arm_budget` armed a watchdog — the
remaining budget headroom.  Call sites gate it on ``OBS.enabled``.
"""

from __future__ import annotations

import time
from typing import Any

from repro.obs import OBS

#: Edges for stage wall-time histograms (milliseconds).  Wider than the
#: latency edges: stages span from sub-millisecond store writes to
#: multi-minute population scans.
STAGE_EDGES_MS = (1.0, 5.0, 20.0, 100.0, 500.0, 2000.0, 10000.0,
                  60000.0, 300000.0)


class StageTimer:
    """Measure one named stage; record it if the plane is on.

    Usage mirrors the ``perf_counter`` idiom it replaces::

        with stage("campaign.sweep", executor=kind) as timer:
            ...
        result.wall_clock = timer.elapsed
    """

    __slots__ = ("name", "labels", "started", "elapsed")

    def __init__(self, name: str, **labels: Any):
        self.name = name
        self.labels = labels
        self.started = 0.0
        self.elapsed = 0.0

    def __enter__(self) -> "StageTimer":
        self.started = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.elapsed = time.perf_counter() - self.started
        if OBS.enabled:
            OBS.counter("stage.runs_total", stage=self.name,
                        **self.labels).inc()
            OBS.histogram("stage.wall_ms", edges=STAGE_EDGES_MS,
                          stage=self.name,
                          **self.labels).observe(self.elapsed * 1000.0)
            if exc_type is not None:
                OBS.counter("stage.errors_total", stage=self.name,
                            **self.labels).inc()
        return False


def stage(name: str, **labels: Any) -> StageTimer:
    return StageTimer(name, **labels)


def observe_scheduler(scheduler, wall_time: float | None = None,
                      **labels: Any) -> None:
    """Record a scheduler's post-run vitals into the registry.

    Only call behind an ``OBS.enabled`` check — the simulator core
    itself stays untouched; this reads the counters the scheduler
    already keeps (``executed``, ``pending``, ``event_budget``).
    """
    executed = scheduler.executed
    OBS.counter("sim.events_total", **labels).inc(executed)
    OBS.gauge("sim.queue_depth", **labels).set(scheduler.pending)
    if wall_time and wall_time > 0:
        OBS.histogram("sim.events_per_second",
                      edges=(1e3, 1e4, 1e5, 2.5e5, 5e5, 1e6, 2e6,
                             5e6, 1e7),
                      **labels).observe(executed / wall_time)
    if scheduler.event_budget is not None:
        OBS.gauge("sim.budget_headroom", **labels).set(
            max(0, scheduler.event_budget - executed))
