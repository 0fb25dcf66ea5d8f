"""One durable task map: store lookup, dispatch, persistence, splice.

Both halves of the paper's method are long, resumable fan-outs: the
atlas's sharded population scans (Tables 3-4) and the campaigns'
repeated attack trials (Table 6, Section 6).  :func:`run_map` is their
one pipeline.  It looks the tasks up in a store by content key, picks
the executor (serial when a pool cannot help, threads when the work
cannot be pickled), opens one obs span and one ``stage`` timer, runs
the missing tasks through :func:`repro.parallel.scheduler.run_stealing`
while persisting each finished batch in completion order, and splices
cached and fresh results back into task order.

The caller says how tasks group and run, so the map never looks inside
a batch or asks who called it:

* ``plan(missing, workers) -> (world, batches)`` groups the missing
  tasks: each batch is a list with one entry per task, and the batches
  cover the missing tasks in order.  ``world`` is what every batch
  shares (a scenario table, a dataset spec); a process pool receives
  it once per worker, pickled once.
* ``run_batch(world, batch) -> results`` returns one result per entry;
  on a process pool it must be a module-level function.

A store is anything with ``load(keys) -> {key: result}`` and
``record_many([(key, result), ...])``.
"""

from __future__ import annotations

import functools
import itertools
import multiprocessing
import os
import pickle
import threading
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Mapping, Protocol, Sequence

from repro.obs import OBS, ObsChunk
from repro.obs.profile import stage
from repro.parallel.scheduler import run_stealing
from repro.parallel.workers import resolve_workers

EXECUTORS = ("process", "thread", "serial")


class TaskStore(Protocol):
    """Where a map finds finished tasks and persists fresh ones."""

    def load(self, keys: Sequence[Hashable]) -> Mapping[Hashable, Any]:
        ...

    def record_many(self, results: Sequence[tuple[Hashable, Any]]) -> Any:
        ...


@dataclass
class MapResult:
    """What one :func:`run_map` call produced."""

    results: list[Any]          # one per task, in task order
    computed: list[int]         # indices of the tasks run (not loaded)
    executor: str
    workers: int
    wall_clock: float           # the dispatch stage, persistence included
    notes: list[str] = field(default_factory=list)


def run_map(tasks: Sequence[Any],
            plan: Callable[[list[Any], int], tuple[Any, list[list[Any]]]],
            run_batch: Callable[[Any, list[Any]], list[Any]], *,
            keys: Sequence[Hashable] | None = None,
            store: TaskStore | None = None,
            workers: int | str | None = None,
            executor: str = "process",
            name: str = "taskmap", **labels: Any) -> MapResult:
    """Map ``run_batch`` over every task the ``store`` is missing.

    ``keys`` (one per task) are the store's content keys; without a
    store every task runs.  ``workers`` accepts a count, ``"auto"`` or
    ``None`` (see :func:`repro.parallel.workers.resolve_workers`).
    ``name`` names the span and the stage (its sweeps are counted as
    ``f"{name}s_total"``); ``labels`` go on the span, the counters and
    the stage.
    """
    if executor not in EXECUTORS:
        raise ValueError(
            f"unknown executor {executor!r}; pick one of {EXECUTORS}")
    requested = resolve_workers(workers)
    cached: dict[int, Any] = {}
    if store is not None:
        found = store.load(keys)
        cached = {index: found[key] for index, key in enumerate(keys)
                  if key in found}
    missing = [index for index in range(len(tasks)) if index not in cached]
    notes: list[str] = []
    count = min(requested, len(missing)) or 1
    if executor == "serial" or count == 1:
        if executor != "serial" and missing:
            notes.append(f"{executor} executor downgraded to serial ("
                         f"{'one worker' if requested == 1 else 'one task'})")
        executor, count = "serial", 1
    world, batches = plan([tasks[index] for index in missing], count) \
        if missing else (None, [])
    shipped = None
    if executor == "process":
        try:
            shipped = pickle.dumps(world)
            pickle.dumps(batches)
        except Exception:
            notes.append("tasks not picklable; fell back to the thread "
                         "executor")
            executor = "thread"

    offsets = list(itertools.accumulate(map(len, batches), initial=0))
    done: list[list[Any]] = [[] for _ in batches]

    def persist(index: int, chunk: Any) -> None:
        # Fires in completion order: every finished batch is durable
        # before later ones land, and a worker's obs delta is folded in
        # here, exactly once.
        results = done[index] = OBS.absorb_chunk(chunk)
        if store is not None:
            start = offsets[index]
            store.record_many([(keys[missing[start + offset]], result)
                               for offset, result in enumerate(results)])

    span = None
    if OBS.enabled:
        span = OBS.spans.start(name, tasks=len(tasks), missing=len(missing),
                               executor=executor, workers=count, **labels)
        OBS.counter(f"{name}s_total", **labels).inc()
        if cached:
            OBS.counter(f"{name}.cached_total", **labels).inc(len(cached))
    ambient = OBS.spans.ambient_parent
    try:
        with stage(name, executor=executor, **labels) as timer:
            if executor == "serial":
                for index, batch in enumerate(batches):
                    persist(index, run_batch(world, batch))
            else:
                if span is not None:
                    # Pool threads have empty span stacks; the ambient
                    # parent nests their batch spans under this one.
                    OBS.spans.ambient_parent = span.span_id
                # The one place a worker pool is built.  Threads share
                # the world by reference; process workers read the one
                # their initializer installed.
                if executor == "thread":
                    pool = ThreadPoolExecutor(max_workers=count)
                    runner = functools.partial(run_batch, world)
                else:
                    pool = ProcessPoolExecutor(
                        max_workers=count, initializer=_install_world,
                        initargs=(shipped, OBS.worker_context()))
                    runner = functools.partial(_run_installed, run_batch)
                with pool:
                    run_stealing(pool, runner, batches, window=2 * count,
                                 on_result=persist)
    finally:
        OBS.spans.ambient_parent = ambient
        if span is not None:
            OBS.spans.finish(span)

    fresh = iter(result for results in done for result in results)
    return MapResult(
        results=[cached[index] if index in cached else next(fresh)
                 for index in range(len(tasks))],
        computed=missing, executor=executor, workers=count,
        wall_clock=timer.elapsed, notes=notes)


# -- process workers -----------------------------------------------------------

_WORLD: Any = None
#: How often a pool worker checks that its coordinator is alive.
_ORPHAN_POLL_S = 0.25


def _install_world(shipped: bytes, context: dict | None) -> None:
    """Pool initializer: unpickle the world once per worker process.

    The worker also starts a watcher that ends it once its coordinator
    is gone (see :func:`_exit_when_orphaned`).  With the obs plane on,
    the worker joins the coordinator's trace.  A forked worker starts
    with a copy of the coordinator's records; they are dropped first,
    so its deltas report only its own work.
    """
    global _WORLD
    if multiprocessing.parent_process() is not None:   # a pool worker
        threading.Thread(target=_exit_when_orphaned, args=(os.getppid(),),
                         name="orphan-watch", daemon=True).start()
    _WORLD = pickle.loads(shipped)
    if context is not None:
        OBS.reset()
        OBS.adopt(context)


def _exit_when_orphaned(coordinator: int) -> None:
    """End this worker once its parent is no longer ``coordinator``.

    A coordinator killed with SIGKILL cannot shut its pool down, and
    its workers, blocked on the call queue, would otherwise run on as
    orphans.  An orphan is re-parented, so ``getppid`` changes; the
    watcher polls it and exits at once, without cleanup (there is no
    one left to report to).
    """
    while os.getppid() == coordinator:
        time.sleep(_ORPHAN_POLL_S)
    os._exit(1)


def _run_installed(run_batch: Callable, batch: list[Any]):
    """Worker entry point: one batch against the installed world.

    With the obs plane on, the results travel in an
    :class:`repro.obs.ObsChunk` with this worker's metric/span delta;
    off, the raw result list travels unchanged.
    """
    results = run_batch(_WORLD, batch)
    if not OBS.enabled:
        return results
    return ObsChunk(runs=results, payload=OBS.flush())
