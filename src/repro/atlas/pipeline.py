"""Parallel scan pipeline: shard producers × Section 5 scanners.

A scan is one :func:`repro.parallel.taskmap.run_map` over the
population's shards.  Each batch — a contiguous run of shards on the
serial path, one shard per batch on a pool — *streams* its entities
through the scanners and returns only mergeable
:class:`repro.atlas.aggregate.ScanAggregate` records, never the
entities themselves.  Because every entity is seeded by its own index
(:mod:`repro.atlas.synth`), the merged result is bit-identical across
the executors and across any shard count.

With a :class:`repro.atlas.store.AtlasStore` attached, completed shards
are appended as they finish and a rerun of an interrupted scan
recomputes only the shards the store is missing.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from typing import Any

from repro.atlas.aggregate import ScanAggregate
from repro.obs import OBS
from repro.obs.profile import STAGE_EDGES_MS
from repro.parallel.kernel import (
    VectorScanner,
    scan_range,
    vector_available,
)
from repro.parallel.taskmap import run_map
from repro.atlas.shards import (
    DatasetSpec,
    ShardRange,
    dataset_kind,
    population_spec_hash,
    shard_ranges,
)
from repro.atlas.store import AtlasStore, ShardRecord, records_in_layout
from repro.measurements.population import DOMAIN_DATASETS, RESOLVER_DATASETS
from repro.measurements.scanner import SurveySummary


def scan_shards(world: tuple[DatasetSpec, Any, str, str],
                batch: list[ShardRange]) -> list[ShardRecord]:
    """Task-map ``run_batch``: scan a contiguous run of shards.

    ``world`` is ``(spec, seed, spec_hash, kernel)``.  The run is one
    columnar span (per-shard aggregates are sliced out of shared
    batches), so many small shards cost the same as one big one; the
    scalar reference kernel scans shard by shard.  Wall time is
    apportioned to shards by entity count.
    """
    spec, seed, spec_hash, kernel = world
    kind = dataset_kind(spec)
    sinks = [(shard.lo, shard.hi, ScanAggregate(kind=kind))
             for shard in batch]
    started = time.perf_counter()
    if kernel in ("auto", "vector") and vector_available():
        VectorScanner(spec, seed).scan_spans(sinks)
    else:
        for lo, hi, aggregate in sinks:
            scan_range(spec, seed, lo, hi, aggregate, kernel=kernel)
    elapsed = time.perf_counter() - started
    total = sum(shard.size for shard in batch) or 1
    records = [
        ShardRecord(spec_hash=spec_hash, shard_id=shard.shard_id,
                    dataset=spec.key, kind=kind, lo=shard.lo, hi=shard.hi,
                    wall_time=elapsed * shard.size / total,
                    aggregate=aggregate)
        for shard, (_, _, aggregate) in zip(batch, sinks)]
    if OBS.enabled:
        # Counters, wall histogram, and a span synthesized from the
        # measured wall time; a process worker ships them back with
        # its results.
        for record in records:
            size = record.hi - record.lo
            OBS.counter("atlas.shards_computed_total",
                        dataset=spec.key).inc()
            OBS.counter("atlas.entities_scanned_total",
                        dataset=spec.key).inc(size)
            OBS.histogram("atlas.shard_wall_ms", edges=STAGE_EDGES_MS,
                          dataset=spec.key).observe(
                record.wall_time * 1000.0)
            OBS.spans.record("atlas.shard", record.wall_time,
                             shard=record.shard_id, entities=size)
    return records


def _plan_shards(world, missing: list[ShardRange], workers: int):
    """Task-map ``plan``: one shard per batch on a pool; contiguous runs
    of missing shards when serial."""
    if workers > 1:
        return world, [[shard] for shard in missing]
    runs: list[list[ShardRange]] = []
    for shard in missing:
        if runs and runs[-1][-1].hi == shard.lo:
            runs[-1].append(shard)
        else:
            runs.append([shard])
    return world, runs


class _ShardStore:
    """The task map's view of an :class:`AtlasStore` for one population.

    Keys are shard ranges: a stored record counts only under the shard
    layout it was scanned with.
    """

    def __init__(self, store: AtlasStore, spec_hash: str):
        self.store = store
        self.spec_hash = spec_hash
        self.notes: list[str] = []

    def load(self, ranges: list[ShardRange]
             ) -> dict[ShardRange, ShardRecord]:
        stored = self.store.load(self.spec_hash)
        cached = records_in_layout(stored, ranges)
        self.notes.extend(f"stored shard {shard_id} has a different "
                          "range; recomputing"
                          for shard_id in stored if shard_id not in cached)
        return {shard: cached[shard.shard_id] for shard in ranges
                if shard.shard_id in cached}

    def record_many(self, results: list[tuple[ShardRange, ShardRecord]]
                    ) -> None:
        for _shard, record in results:
            self.store.append(record)


@dataclass
class AtlasScanReport:
    """Everything one dataset's sharded scan produced."""

    dataset: str
    label: str
    kind: str
    spec_hash: str
    entities: int
    full_size: int
    shard_count: int
    computed_shards: list[int]
    cached_shards: list[int]
    computed_entities: int
    wall_clock: float
    executor: str
    workers: int
    aggregate: ScanAggregate
    summary: SurveySummary
    notes: list[str] = field(default_factory=list)

    @property
    def entities_per_second(self) -> float:
        """Scan throughput over freshly computed entities only."""
        if self.wall_clock <= 0:
            return 0.0
        return self.computed_entities / self.wall_clock


def scan_dataset(spec: DatasetSpec, seed: int | str = 0,
                 entities: int | None = None, shards: int = 16,
                 workers: int | str | None = None,
                 executor: str = "process",
                 store: AtlasStore | None = None,
                 kernel: str = "auto") -> AtlasScanReport:
    """Scan one dataset's synthetic population, sharded and resumable.

    ``entities`` defaults to the dataset's **full** paper size (1.58M
    for open resolvers) — the atlas exists so that is computable, not
    extrapolated.  Pass a smaller count for sampled runs.

    ``workers`` accepts a count, ``None`` (capped default) or
    ``"auto"`` (every schedulable CPU); ``kernel`` picks the per-shard
    scan implementation (one of
    :data:`repro.parallel.kernel.KERNELS`, all bit-identical).

    The report carries aggregates only; callers that need the entities
    themselves stream them with :func:`repro.atlas.synth.iter_entities`.
    With a ``store``, shards it already holds for this shard layout are
    loaded instead of scanned.
    """
    kind = dataset_kind(spec)
    if entities is not None and entities < 0:
        raise ValueError(f"entities must be >= 0, got {entities}")
    total = min(entities, spec.full_size) if entities is not None \
        else spec.full_size
    spec_hash = population_spec_hash(spec, seed, total)
    ranges = shard_ranges(total, shards)
    world = (spec, seed, spec_hash, kernel)
    shard_store = _ShardStore(store, spec_hash) if store is not None \
        else None
    mapped = run_map(ranges, functools.partial(_plan_shards, world),
                     scan_shards, keys=ranges, store=shard_store,
                     workers=workers, executor=executor, name="atlas.scan",
                     dataset=spec.key)

    computed = [mapped.results[index] for index in mapped.computed]
    computed_ids = [record.shard_id for record in computed]
    notes = shard_store.notes if shard_store is not None else []
    cached = len(ranges) - len(computed)
    if cached:
        notes.append(
            f"resumed: {cached}/{len(ranges)} shards loaded from "
            "the store, only the rest recomputed")
    aggregate = ScanAggregate.merged(
        kind, [record.aggregate for record in mapped.results])
    return AtlasScanReport(
        dataset=spec.key,
        label=spec.label,
        kind=kind,
        spec_hash=spec_hash,
        entities=total,
        full_size=spec.full_size,
        shard_count=len(ranges),
        computed_shards=computed_ids,
        cached_shards=sorted({record.shard_id for record in mapped.results}
                             - set(computed_ids)),
        computed_entities=sum(record.hi - record.lo for record in computed),
        wall_clock=mapped.wall_clock,
        executor=mapped.executor,
        workers=mapped.workers,
        aggregate=aggregate,
        summary=aggregate.to_summary(spec.label, spec.full_size),
        notes=notes + mapped.notes,
    )


def all_dataset_specs() -> list[DatasetSpec]:
    """Every Table 3 and Table 4 calibration row."""
    return list(RESOLVER_DATASETS) + list(DOMAIN_DATASETS)
