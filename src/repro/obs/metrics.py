"""Process-local metrics: counters, gauges and fixed-edge histograms.

The registry follows the repo's two standing disciplines:

* **zero-cost when off** — like :class:`repro.core.eventlog.NullLog`,
  every hot call site checks ``OBS.enabled`` before touching a metric,
  so a disabled observability plane costs one boolean test at stage
  granularity and *nothing* per packet or per event;
* **mergeable** — like :class:`repro.atlas.aggregate.ScanAggregate`
  and :class:`repro.store.aggregate.RunTotals`, a registry snapshot is
  plain data that merges associatively (counters and histogram bins
  sum, gauges keep the max), so process workers ship their deltas back
  to the coordinator and parallel sweeps report fleet-wide totals that
  are independent of worker count and completion order.

Histograms reuse the :class:`repro.workload.report.LoadReport`
machinery: the same fixed millisecond edges (that module now imports
them from here) and the same linear-interpolated percentile estimator,
so an obs latency histogram and a workload latency histogram read on
one scale.

This module deliberately imports nothing from the rest of ``repro`` —
every other layer may import it without cycles.
"""

from __future__ import annotations

import hashlib
import json
import threading
from bisect import bisect_left
from typing import Any, Iterable, Sequence

#: Default histogram bin upper edges in milliseconds (the last bin is
#: open).  Shared with ``repro.workload.report.LATENCY_EDGES_MS``.
DEFAULT_EDGES_MS = (1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0,
                    500.0, 1000.0, 2000.0, 5000.0, 10000.0)


def interpolated_percentile(bins: Sequence[int], edges: Sequence[float],
                            q: float) -> float:
    """Approximate the ``q`` percentile of a fixed-edge histogram.

    Linear interpolation inside the winning bin; the open last bin
    reports its lower edge; ``0.0`` when the histogram is empty.  This
    is the estimator :class:`repro.workload.report.LoadReport` has used
    since PR 6, factored out so obs histograms read identically.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"percentile must be in [0, 1]: {q}")
    total = sum(bins)
    if total == 0:
        return 0.0
    target = q * total
    seen = 0
    for index, count in enumerate(bins):
        if count == 0:
            continue
        if seen + count >= target:
            low = edges[index - 1] if index > 0 else 0.0
            if index >= len(edges):
                return low
            high = edges[index]
            inside = (target - seen) / count
            return low + (high - low) * inside
        seen += count
    return edges[-1]


def _label_key(labels: dict[str, Any]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing count (merge: sum)."""

    __slots__ = ("name", "labels", "value")
    kind = "counter"

    def __init__(self, name: str, labels: tuple[tuple[str, str], ...]):
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, amount: int | float = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease "
                             f"(inc by {amount})")
        self.value += amount

    def to_json(self) -> dict:
        return {"name": self.name, "labels": dict(self.labels),
                "value": self.value}


class Gauge:
    """A point-in-time level (merge: max — associative, commutative)."""

    __slots__ = ("name", "labels", "value")
    kind = "gauge"

    def __init__(self, name: str, labels: tuple[tuple[str, str], ...]):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def to_json(self) -> dict:
        return {"name": self.name, "labels": dict(self.labels),
                "value": self.value}


class Histogram:
    """Fixed-edge histogram with sum/count (merge: bins + sum + count).

    ``edges`` are bin upper bounds; values past the last edge land in
    an open final bin, so ``len(bins) == len(edges) + 1`` — the same
    layout as ``LoadReport.latency_bins``.
    """

    __slots__ = ("name", "labels", "edges", "bins", "count", "sum")
    kind = "histogram"

    def __init__(self, name: str, labels: tuple[tuple[str, str], ...],
                 edges: Sequence[float] = DEFAULT_EDGES_MS):
        self.name = name
        self.labels = labels
        self.edges = tuple(float(edge) for edge in edges)
        if list(self.edges) != sorted(set(self.edges)):
            raise ValueError(
                f"histogram {name} edges must be strictly increasing")
        self.bins = [0] * (len(self.edges) + 1)
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        self.bins[bisect_left(self.edges, value)] += 1
        self.count += 1
        self.sum += value

    def observe_bins(self, bins: Sequence[int],
                     total: float | None = None) -> None:
        """Fold a pre-binned histogram in (e.g. ``LoadReport`` latency
        bins at run end, so the engine's per-arrival path stays cold).

        ``total`` is the value sum when the caller knows it; otherwise
        each bin contributes its lower edge — a conservative estimate
        that keeps ``sum`` meaningful without per-sample cost.
        """
        if len(bins) != len(self.bins):
            raise ValueError(
                f"histogram {self.name} expects {len(self.bins)} bins, "
                f"got {len(bins)}")
        added = 0
        estimate = 0.0
        for index, count in enumerate(bins):
            self.bins[index] += count
            added += count
            if total is None and count:
                low = self.edges[index - 1] if index > 0 else 0.0
                estimate += low * count
        self.count += added
        self.sum += estimate if total is None else total

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        return interpolated_percentile(self.bins, self.edges, q)

    def to_json(self) -> dict:
        return {"name": self.name, "labels": dict(self.labels),
                "edges": list(self.edges), "bins": list(self.bins),
                "count": self.count, "sum": self.sum}


class MetricsRegistry:
    """Every metric one process (or one merged fleet) recorded.

    Metric identity is ``(kind, name, sorted labels)``; asking for the
    same identity twice returns the same object.  Creation is guarded
    by a lock (thread-pool workers share one registry); per-sample
    updates are plain attribute arithmetic — the GIL makes lost updates
    rare and the counters here are operational telemetry, never part of
    any verified statistic.
    """

    def __init__(self):
        self._metrics: dict[tuple, Any] = {}
        self._lock = threading.Lock()

    # -- access ----------------------------------------------------------------

    def _get(self, cls, name: str, labels: dict[str, Any],
             **kwargs) -> Any:
        key = (cls.kind, name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            with self._lock:
                metric = self._metrics.get(key)
                if metric is None:
                    metric = cls(name, key[2], **kwargs)
                    self._metrics[key] = metric
        return metric

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str,
                  edges: Sequence[float] = DEFAULT_EDGES_MS,
                  **labels: Any) -> Histogram:
        return self._get(Histogram, name, labels, edges=edges)

    def __len__(self) -> int:
        return len(self._metrics)

    def __iter__(self):
        return iter(sorted(self._metrics.items()))

    def metrics(self) -> list[Any]:
        """Every metric, sorted by (kind, name, labels)."""
        return [metric for _key, metric in self]

    def value(self, name: str, **labels: Any) -> Any:
        """Point lookup across kinds (None when never recorded)."""
        wanted = _label_key(labels)
        for (kind, metric_name, label_key), metric in \
                self._metrics.items():
            if metric_name == name and label_key == wanted:
                if kind == "histogram":
                    return metric.count
                return metric.value
        return None

    # -- snapshots / merging ---------------------------------------------------

    def to_json(self) -> dict:
        """Canonical plain-data snapshot (sorted, JSON-stable)."""
        counters, gauges, histograms = [], [], []
        for (kind, _name, _labels), metric in self:
            if kind == "counter":
                counters.append(metric.to_json())
            elif kind == "gauge":
                gauges.append(metric.to_json())
            else:
                histograms.append(metric.to_json())
        return {"counters": counters, "gauges": gauges,
                "histograms": histograms}

    def merge_json(self, snapshot: dict) -> None:
        """Fold a snapshot in: counters/histograms sum, gauges max.

        Merging is associative and commutative across disjoint *and*
        overlapping snapshots, so worker deltas fold in any completion
        order and fleet totals never depend on scheduling.
        """
        for payload in snapshot.get("counters", ()):
            self.counter(payload["name"],
                         **payload.get("labels", {})).value \
                += payload["value"]
        for payload in snapshot.get("gauges", ()):
            gauge = self.gauge(payload["name"],
                               **payload.get("labels", {}))
            gauge.value = max(gauge.value, payload["value"])
        for payload in snapshot.get("histograms", ()):
            histogram = self.histogram(
                payload["name"], edges=payload["edges"],
                **payload.get("labels", {}))
            histogram.observe_bins(payload["bins"],
                                   total=payload.get("sum", 0.0))
            # observe_bins already added the bin count; fix count to the
            # snapshot's own tally in case bins and count ever diverge.
            histogram.count += payload.get("count", 0) \
                - sum(payload["bins"])

    def merge(self, other: "MetricsRegistry") -> None:
        self.merge_json(other.to_json())

    @classmethod
    def merged(cls, snapshots: Iterable[dict]) -> "MetricsRegistry":
        registry = cls()
        for snapshot in snapshots:
            registry.merge_json(snapshot)
        return registry

    def flush(self) -> dict:
        """Snapshot and clear — the worker-side delta handoff."""
        with self._lock:
            snapshot = self.to_json()
            self._metrics.clear()
        return snapshot

    def clear(self) -> None:
        with self._lock:
            self._metrics.clear()

    def checksum(self) -> str:
        """SHA-256 over the canonical JSON rendering."""
        rendered = json.dumps(self.to_json(), sort_keys=True,
                              separators=(",", ":"))
        return hashlib.sha256(rendered.encode("utf-8")).hexdigest()
