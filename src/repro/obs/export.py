"""JSON snapshots of the metrics registry.

:func:`snapshot` wraps the registry's canonical JSON with enough
metadata (pid, wall time, span count) to diff two captures;
:func:`diff_snapshots` computes those deltas, one series per
``name{label="value",...}`` key with label values escaped (backslash,
double quote, newline).
"""

from __future__ import annotations

import json
import os
import time
from typing import Any

from repro.obs.metrics import MetricsRegistry


def _render_labels(labels: dict[str, Any]) -> str:
    pairs = [(str(k), str(v)) for k, v in labels.items()]
    if not pairs:
        return ""
    rendered = ",".join(
        '{}="{}"'.format(
            key,
            value.replace("\\", r"\\").replace('"', r"\"")
                 .replace("\n", r"\n"))
        for key, value in sorted(pairs))
    return "{" + rendered + "}"


def snapshot(registry: MetricsRegistry, spans=None,
             meta: dict | None = None) -> dict:
    """A self-describing JSON capture of the registry (and optionally
    the span log) suitable for ``obs diff`` later."""
    payload = {
        "schema": "obs-snapshot/1",
        "pid": os.getpid(),
        "unix_time": time.time(),
        "metrics": registry.to_json(),
        "checksum": registry.checksum(),
    }
    if spans is not None:
        payload["span_count"] = len(spans.spans())
    if meta:
        payload["meta"] = dict(meta)
    return payload


def write_snapshot(path, registry: MetricsRegistry, spans=None,
                   meta: dict | None = None) -> dict:
    payload = snapshot(registry, spans=spans, meta=meta)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return payload


def load_snapshot(path) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _flatten(snapshot_payload: dict) -> dict[str, float]:
    """``name{labels} -> scalar`` view of a snapshot (histograms
    flatten to their count and sum)."""
    metrics = snapshot_payload.get("metrics", snapshot_payload)
    flat: dict[str, float] = {}
    for payload in metrics.get("counters", ()):
        key = payload["name"] + _render_labels(payload.get("labels",
                                                          {}))
        flat[key] = payload["value"]
    for payload in metrics.get("gauges", ()):
        key = payload["name"] + _render_labels(payload.get("labels",
                                                          {}))
        flat[key] = payload["value"]
    for payload in metrics.get("histograms", ()):
        base = payload["name"] + _render_labels(payload.get("labels",
                                                           {}))
        flat[base + ".count"] = payload["count"]
        flat[base + ".sum"] = payload["sum"]
    return flat


def diff_snapshots(before: dict, after: dict) -> dict[str, float]:
    """Per-series deltas ``after - before`` (new series count from
    zero; series only in ``before`` show their negated value)."""
    old = _flatten(before)
    new = _flatten(after)
    deltas: dict[str, float] = {}
    for key in sorted(set(old) | set(new)):
        delta = new.get(key, 0) - old.get(key, 0)
        if delta:
            deltas[key] = delta
    return deltas
