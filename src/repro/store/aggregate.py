"""Incremental aggregates over the run store.

Two consumers, two shapes:

* :func:`campaign_from_store` / :func:`summaries_from_store` rebuild
  the *exact* live aggregation objects — a
  :class:`repro.scenario.campaign.CampaignResult` whose runs are
  genuine :class:`ScenarioRun` reconstructions, and the
  ``MethodSummary`` groupings every report path consumes.  Because the
  stored stats JSON round-trips every aggregated field exactly, the
  reconstructed aggregates are bit-identical to the live sweep's
  without re-running a single cell.
* :class:`RunTotals` is the cheap mergeable counter set the service's
  ``/aggregate`` endpoint and the store CLI serve from: totals of two
  disjoint record streams merge associatively, so partial sweeps,
  concurrent workers and sharded stores sum without reconstruction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.store.db import RunStore, StoreError

#: Grouping axes :func:`totals_from_store` and the CLI accept.
GROUP_AXES = ("method", "defense", "label", "app", "workload_hash",
              "spec_hash")


@dataclass
class RunTotals:
    """Mergeable counters over a stream of stored runs."""

    key: str = ""
    runs: int = 0
    successes: int = 0
    packets: int = 0
    queries: int = 0
    duration: float = 0.0
    wall_time: float = 0.0
    app_runs: int = 0
    impacts_realized: int = 0
    loaded_runs: int = 0

    def note(self, record: Any) -> None:
        """Fold one :class:`repro.store.schema.RunRecord` in."""
        self.runs += 1
        self.successes += 1 if record.success else 0
        self.packets += record.packets_sent
        self.queries += record.queries_triggered
        self.duration += record.duration
        self.wall_time += record.wall_time
        if record.impact_realized is not None:
            self.app_runs += 1
            self.impacts_realized += 1 if record.impact_realized else 0
        if record.load_checksum is not None:
            self.loaded_runs += 1

    def merge(self, other: "RunTotals") -> "RunTotals":
        """Associative combine of two disjoint streams' totals."""
        return RunTotals(
            key=self.key or other.key,
            runs=self.runs + other.runs,
            successes=self.successes + other.successes,
            packets=self.packets + other.packets,
            queries=self.queries + other.queries,
            duration=self.duration + other.duration,
            wall_time=self.wall_time + other.wall_time,
            app_runs=self.app_runs + other.app_runs,
            impacts_realized=self.impacts_realized + other.impacts_realized,
            loaded_runs=self.loaded_runs + other.loaded_runs,
        )

    @property
    def success_rate(self) -> float:
        return self.successes / self.runs if self.runs else 0.0

    @property
    def impact_rate(self) -> float:
        return self.impacts_realized / self.app_runs if self.app_runs \
            else 0.0

    def to_json(self) -> dict:
        return {
            "key": self.key,
            "runs": self.runs,
            "successes": self.successes,
            "success_rate": self.success_rate,
            "packets": self.packets,
            "queries": self.queries,
            "duration": self.duration,
            "wall_time": self.wall_time,
            "app_runs": self.app_runs,
            "impacts_realized": self.impacts_realized,
            "impact_rate": self.impact_rate,
            "loaded_runs": self.loaded_runs,
        }


def totals_from_store(store: RunStore, by: str | None = None,
                      **filters: Any) -> dict[str, RunTotals]:
    """Grouped mergeable totals; ``by=None`` folds everything into "all"."""
    if by is not None and by not in GROUP_AXES:
        raise StoreError(
            f"unknown aggregation axis {by!r}; pick one of "
            f"{', '.join(GROUP_AXES)}")
    groups: dict[str, RunTotals] = {}
    for record in store.iter_records(**filters):
        key = "all" if by is None else str(getattr(record, by))
        groups.setdefault(key, RunTotals(key=key)).note(record)
    return groups


def campaign_from_store(store: RunStore,
                        **filters: Any) -> "CampaignResult":
    """Rebuild a :class:`CampaignResult` from stored cells, no re-run.

    ``wall_time`` sums the stored per-cell wall times (the compute the
    store saved you), and the result is flagged with a provenance note.
    Runs come back in deterministic key order — stable across calls,
    though not necessarily the original sweep's submission order.
    """
    # Imported here so `import repro.store` works without dragging the
    # whole scenario stack in for key-only usage.
    from repro.scenario.campaign import CampaignResult

    runs = []
    wall_time = 0.0
    for record in store.iter_records(**filters):
        runs.append(record.to_run())
        wall_time += record.wall_time
    return CampaignResult(
        runs=runs, wall_clock=wall_time, workers=0, executor="store",
        notes=[f"reconstructed from {store.path} ({len(runs)} stored "
               "cells, 0 re-run)"])


def summaries_from_store(store: RunStore, by: str = "method",
                         **filters: Any) -> dict[str, "MethodSummary"]:
    """The live ``MethodSummary`` groupings, computed from the store."""
    result = campaign_from_store(store, **filters)
    if by == "method":
        return result.by_method()
    if by == "label":
        return result.by_label()
    if by == "app":
        return result.by_app()
    if by == "defense":
        return result.by_defense()
    raise StoreError(
        f"unknown summary axis {by!r}; pick one of method, label, app, "
        "defense")


def merge_totals(streams: Iterable[dict[str, RunTotals]]
                 ) -> dict[str, RunTotals]:
    """Combine grouped totals from several stores / partial sweeps."""
    merged: dict[str, RunTotals] = {}
    for groups in streams:
        for key, totals in groups.items():
            merged[key] = merged[key].merge(totals) if key in merged \
                else totals
    return merged
