"""Parallel scan pipeline: shard producers × Section 5 scanners.

Each shard is one task — ``(spec, seed, lo, hi)`` — shipped to a
``concurrent.futures`` process worker that *streams* its entities
through the scanners and returns only a mergeable
:class:`repro.atlas.aggregate.ScanAggregate`, never the entities
themselves.  Because every entity is seeded by its own index
(:mod:`repro.atlas.synth`), the merged result is bit-identical across
the serial and process executors and across any shard count.

With a :class:`repro.atlas.store.AtlasStore` attached, completed shards
are appended as they finish and a rerun of an interrupted scan
recomputes only the shards the store is missing.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from repro.atlas.aggregate import ScanAggregate
from repro.obs import OBS
from repro.obs.profile import STAGE_EDGES_MS, stage
from repro.parallel.kernel import (
    VectorScanner,
    scan_range,
    vector_available,
)
from repro.parallel.scheduler import run_stealing
from repro.parallel.workers import resolve_workers
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

EXECUTORS = ("process", "serial")


def run_tasks(fn: Callable[[Any], Any], tasks: list[Any],
              workers: int | str | None = None,
              executor: str = "process",
              on_result: Callable[[int, Any], None] | None = None
              ) -> tuple[list[Any], str, int]:
    """Map picklable tasks over a process pool (or the serial reference).

    Returns ``(results, executor_used, workers_used)``; the pool
    downgrades to the serial loop when it could not help (one worker or
    one task), mirroring the campaign runner's behaviour so 1-vCPU
    hosts document serial parity instead of paying pool overhead.

    Results stream: ``on_result(index, result)`` fires as each task
    finishes (completion order on the pool, task order on the serial
    loop), so callers can merge aggregates or append to stores while
    later tasks are still computing instead of waiting on an eager
    end-of-run list.  The returned list is always in task order.
    """
    if executor not in EXECUTORS:
        raise ValueError(
            f"unknown executor {executor!r}; pick one of {EXECUTORS}")
    count = resolve_workers(workers)
    count = min(count, len(tasks)) or 1
    if executor == "process" and count == 1:
        executor = "serial"
    if executor == "serial":
        results = []
        for index, task in enumerate(tasks):
            result = fn(task)
            results.append(result)
            if on_result is not None:
                on_result(index, result)
        return results, "serial", 1
    with ProcessPoolExecutor(max_workers=count) as pool:
        # Work-stealing dispatch: a bounded window of in-flight futures
        # keeps every worker busy regardless of per-shard skew, and the
        # first result merges before the last shard is computed.
        results = run_stealing(pool, fn, tasks, window=2 * count,
                               on_result=on_result)
    return results, "process", count


def _scan_shard(task: tuple[DatasetSpec, Any, ShardRange, str, str]
                ) -> ShardRecord:
    """Worker entry point: scan one shard into an aggregate.

    Dispatches to the batch-vectorised columnar kernel — bit-identical
    to streaming the shard's entities through the serial observers,
    which ``kernel="scalar"`` still does.
    """
    spec, seed, shard, spec_hash, kernel = task
    kind = dataset_kind(spec)
    started = time.perf_counter()
    aggregate = scan_range(spec, seed, shard.lo, shard.hi, kernel=kernel)
    return ShardRecord(
        spec_hash=spec_hash,
        shard_id=shard.shard_id,
        dataset=spec.key,
        kind=kind,
        lo=shard.lo,
        hi=shard.hi,
        wall_time=time.perf_counter() - started,
        aggregate=aggregate,
    )


def _observe_shard(record: ShardRecord) -> None:
    """Coordinator-side obs for one finished shard (call only behind
    an ``OBS.enabled`` check): counters, wall histogram, and a span
    synthesized from the wall time the worker already measured — no
    worker-side instrumentation, so the scan payloads never change."""
    entities = record.hi - record.lo
    OBS.counter("atlas.shards_computed_total",
                dataset=record.dataset).inc()
    OBS.counter("atlas.entities_scanned_total",
                dataset=record.dataset).inc(entities)
    OBS.histogram("atlas.shard_wall_ms", edges=STAGE_EDGES_MS,
                  dataset=record.dataset).observe(
        record.wall_time * 1000.0)
    OBS.spans.record("atlas.shard", record.wall_time,
                     shard=record.shard_id, entities=entities)


def _scan_missing_serial(spec, seed, missing: list[ShardRange],
                         spec_hash: str, kernel: str,
                         on_result: Callable[[int, ShardRecord], None]
                         ) -> list[ShardRecord]:
    """Serial scan of the missing shards, batched *across* shards.

    Contiguous runs of missing shards are scanned as one columnar span
    (per-shard aggregates are sliced out of shared batches), so many
    small shards cost the same as one big one.  Wall time is
    apportioned to shards by entity count.
    """
    kind = dataset_kind(spec)
    records: list[ShardRecord] = []
    runs: list[list[ShardRange]] = []
    for shard in missing:
        if runs and runs[-1][-1].hi == shard.lo:
            runs[-1].append(shard)
        else:
            runs.append([shard])
    scanner = VectorScanner(spec, seed) if kernel in ("auto", "vector") \
        and vector_available() else None
    for run in runs:
        sinks = [(shard.lo, shard.hi, ScanAggregate(kind=kind))
                 for shard in run]
        started = time.perf_counter()
        if scanner is not None:
            scanner.scan_spans(sinks)
        else:
            for cut_lo, cut_hi, aggregate in sinks:
                scan_range(spec, seed, cut_lo, cut_hi, aggregate,
                           kernel=kernel)
        elapsed = time.perf_counter() - started
        total = sum(shard.hi - shard.lo for shard in run) or 1
        for shard, (_, _, aggregate) in zip(run, sinks):
            record = ShardRecord(
                spec_hash=spec_hash, shard_id=shard.shard_id,
                dataset=spec.key, kind=kind, lo=shard.lo, hi=shard.hi,
                wall_time=elapsed * (shard.hi - shard.lo) / total,
                aggregate=aggregate,
            )
            records.append(record)
            on_result(len(records) - 1, record)
    return records


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
    if executor not in EXECUTORS:
        raise ValueError(
            f"unknown executor {executor!r}; pick one of {EXECUTORS}")
    if entities is not None and entities < 0:
        raise ValueError(f"entities must be >= 0, got {entities}")
    total = min(entities, spec.full_size) if entities is not None \
        else spec.full_size
    spec_hash = population_spec_hash(spec, seed, total)
    ranges = shard_ranges(total, shards)
    notes: list[str] = []

    cached: dict[int, ShardRecord] = {}
    if store is not None:
        stored = store.load(spec_hash)
        cached = records_in_layout(stored, ranges)
        notes.extend(f"stored shard {shard_id} has a different range; "
                     "recomputing"
                     for shard_id in stored if shard_id not in cached)
    missing = [r for r in ranges if r.shard_id not in cached]

    scan_span = None
    if OBS.enabled:
        scan_span = OBS.spans.start(
            "atlas.scan", dataset=spec.key, entities=total,
            shards=len(ranges), missing=len(missing))
        if cached:
            OBS.counter("atlas.shards_cached_total",
                        dataset=spec.key).inc(len(cached))
    try:
        with stage("atlas.scan", dataset=spec.key) as timer:
            # Stream every completed shard straight into the store: an
            # interrupted scan keeps everything finished so far, and
            # memory never holds more than the (small) aggregate records.
            def on_result(_index: int, record: ShardRecord) -> None:
                if OBS.enabled:
                    _observe_shard(record)
                if store is not None:
                    store.append(record)

            count = min(resolve_workers(workers), len(missing)) or 1
            if executor == "serial" or count == 1:
                fresh = _scan_missing_serial(
                    spec, seed, missing, spec_hash, kernel, on_result)
                executor_used, workers_used = "serial", 1
            else:
                tasks = [(spec, seed, shard, spec_hash, kernel)
                         for shard in missing]
                fresh, executor_used, workers_used = run_tasks(
                    _scan_shard, tasks, workers=count,
                    executor=executor, on_result=on_result)
    finally:
        if scan_span is not None:
            OBS.spans.finish(scan_span)
    wall_clock = timer.elapsed

    ordered = sorted(list(cached.values()) + fresh,
                     key=lambda record: record.shard_id)
    aggregate = ScanAggregate.merged(kind, [r.aggregate for r in ordered])
    if cached:
        notes.append(
            f"resumed: {len(cached)}/{len(ranges)} shards loaded from "
            "the store, only the rest recomputed")
    if executor == "process" and executor_used == "serial" and missing:
        notes.append("process executor downgraded to serial "
                     "(one worker or one shard)")
    report = AtlasScanReport(
        dataset=spec.key,
        label=spec.label,
        kind=kind,
        spec_hash=spec_hash,
        entities=total,
        full_size=spec.full_size,
        shard_count=len(ranges),
        computed_shards=[r.shard_id for r in fresh],
        cached_shards=sorted(cached),
        computed_entities=sum(r.hi - r.lo for r in fresh),
        wall_clock=wall_clock,
        executor=executor_used,
        workers=workers_used,
        aggregate=aggregate,
        summary=aggregate.to_summary(spec.label, spec.full_size),
        notes=notes,
    )
    return report


def scan_many(specs: Iterable[DatasetSpec], seed: int | str = 0,
              entities: int | None = None, shards: int = 16,
              workers: int | str | None = None, executor: str = "process",
              store: AtlasStore | None = None,
              kernel: str = "auto") -> list[AtlasScanReport]:
    """Scan several datasets, reusing one configuration."""
    return [
        scan_dataset(spec, seed=seed, entities=entities, shards=shards,
                     workers=workers, executor=executor, store=store,
                     kernel=kernel)
        for spec in specs
    ]


def all_dataset_specs() -> list[DatasetSpec]:
    """Every Table 3 and Table 4 calibration row."""
    return list(RESOLVER_DATASETS) + list(DOMAIN_DATASETS)
