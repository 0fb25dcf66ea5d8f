"""repro.obs — the zero-cost observability plane.

One process-wide switch (:data:`OBS`) gates a metrics registry
(:mod:`repro.obs.metrics`), a span log (:mod:`repro.obs.spans`) and
stage timers (:mod:`repro.obs.profile`).  It follows the PR-3
``NullLog`` discipline: **disabled by default**, and every
instrumented call site in the campaign runner, atlas pipeline,
parallel plane, workload engine, fault injector and store checks
``OBS.enabled`` before building a single argument — a
disabled plane costs one boolean test per *stage*, nothing per packet
or per simulated event, and every statistical output is bit-identical
with observability off and on (see ``tests/test_obs.py`` and the
``obs_overhead`` bench in ``benchmarks/run_all.py``).

Quickstart::

    from repro import AttackScenario, Campaign, obs

    obs.enable()                       # or REPRO_OBS=1 in the env
    sweep = Campaign(executor="process", workers=4).run(
        AttackScenario(method="hijack"), seeds=range(32))

    reg = obs.OBS.registry             # fleet-wide: worker deltas merge
    print(reg.value("campaign.cells_total", method="hijack"))  # 32
    print(reg.histogram("campaign.cell_wall_ms").percentile(0.99))
    obs.OBS.spans.export_jsonl("sweep.jsonl")   # sweep > batch > cell
    # Inspect: python -m repro.obs tail sweep.jsonl

:mod:`repro.obs.export` writes the registry as a JSON snapshot, and
``python -m repro.obs snapshot``/``diff`` read such files.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any

from repro.obs.metrics import (
    DEFAULT_EDGES_MS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    interpolated_percentile,
)
from repro.obs.spans import Span, SpanLog, load_trace, walk_tree

__all__ = [
    "DEFAULT_EDGES_MS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "OBS",
    "Obs",
    "ObsChunk",
    "Span",
    "SpanLog",
    "disable",
    "enable",
    "enabled",
    "interpolated_percentile",
    "load_trace",
    "reset",
    "walk_tree",
]


@dataclass
class ObsChunk:
    """A worker result carrying its observability delta alongside.

    When the plane is enabled, process-pool executors wrap each chunk
    of runs in one of these; the coordinator absorbs the payload into
    its own registry/span log and unwraps the runs.  When disabled the
    raw chunk travels unwrapped, so the off path pickles byte-identical
    payloads to pre-obs builds.
    """

    runs: list = field(default_factory=list)
    payload: dict = field(default_factory=dict)


class _NullSpan:
    """Reusable no-op context manager handed out while disabled."""

    __slots__ = ()
    span_id = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class Obs:
    """The process-wide observability switch and its two sinks."""

    def __init__(self):
        self.enabled = False
        self.registry = MetricsRegistry()
        self.spans = SpanLog()

    # -- lifecycle -------------------------------------------------------------

    def enable(self) -> "Obs":
        self.enabled = True
        return self

    def disable(self) -> "Obs":
        self.enabled = False
        return self

    def reset(self) -> "Obs":
        """Drop all recorded state (the switch position is kept)."""
        self.registry.clear()
        self.spans.clear()
        return self

    # -- metric shorthands (call only behind an ``enabled`` check) -------------

    def counter(self, name: str, **labels: Any) -> Counter:
        return self.registry.counter(name, **labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self.registry.gauge(name, **labels)

    def histogram(self, name: str, edges=DEFAULT_EDGES_MS,
                  **labels: Any) -> Histogram:
        return self.registry.histogram(name, edges=edges, **labels)

    # -- spans -----------------------------------------------------------------

    def span(self, name: str, parent: str | None = None,
             **attrs: Any):
        """Context manager timing a span; a shared no-op when off."""
        if not self.enabled:
            return _NULL_SPAN
        return self._live_span(name, parent, attrs)

    @contextmanager
    def _live_span(self, name: str, parent: str | None, attrs: dict):
        span = self.spans.start(name, parent=parent, **attrs)
        try:
            yield span
        finally:
            self.spans.finish(span)

    # -- cross-process handoff -------------------------------------------------

    def worker_context(self) -> dict | None:
        """What the pool initializer ships so workers join the trace
        (None while disabled — the off-path payload is unchanged)."""
        if not self.enabled:
            return None
        current = self.spans.current()
        return {"trace_id": self.spans.ensure_trace(),
                "parent_id": current.span_id if current else None}

    def adopt(self, context: dict | None) -> None:
        """Worker-side: enable and join the coordinator's trace."""
        if context is None:
            return
        self.enable()
        self.spans.adopt(context["trace_id"], context.get("parent_id"))

    def flush(self) -> dict:
        """Worker-side delta: metrics + spans, recorded state cleared
        so a reused pool worker never double-reports."""
        return {"metrics": self.registry.flush(),
                "spans": self.spans.flush()}

    def absorb(self, payload: dict) -> None:
        """Coordinator-side: fold a worker delta into this process."""
        self.registry.merge_json(payload.get("metrics", {}))
        self.spans.extend_json(payload.get("spans", ()))

    def absorb_chunk(self, chunk):
        """Unwrap a worker chunk, folding its delta in exactly once."""
        if isinstance(chunk, ObsChunk):
            self.absorb(chunk.payload)
            return chunk.runs
        return chunk


#: The process-wide instance every instrumented layer shares.
OBS = Obs()


def enable() -> Obs:
    return OBS.enable()


def disable() -> Obs:
    return OBS.disable()


def enabled() -> bool:
    return OBS.enabled


def reset() -> Obs:
    return OBS.reset()


if os.environ.get("REPRO_OBS", "") not in ("", "0"):
    OBS.enable()
