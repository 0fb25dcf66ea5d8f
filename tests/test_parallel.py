"""The parallel execution plane: vector kernel, scheduler, workers.

Everything here guards one invariant: every parallel path — the
vectorised kernel and work-stealing dispatch under adversarial
completion order — produces aggregates bit-identical to the serial
reference loop.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import select
import signal
import subprocess
import sys
import time
import tracemalloc
from concurrent.futures import Future
from pathlib import Path

import pytest

from repro.atlas import (
    AtlasStore,
    ScanAggregate,
    dataset_kind,
    find_dataset,
    iter_entities,
    population_spec_hash,
    scan_dataset,
    shard_ranges,
)
from repro.atlas import cli as atlas_cli
from repro.parallel import kernel as kernel_module
from repro.parallel.kernel import VectorScanner, scan_range, vector_available
from repro.parallel.mt import (
    HAVE_NUMPY,
    LockstepMT,
    WordBudgetExceeded,
    seed_states,
)
from repro.parallel.scheduler import run_stealing
from repro.parallel.workers import (
    DEFAULT_CAP,
    cpu_count,
    parse_workers,
    resolve_workers,
)

if HAVE_NUMPY:
    import numpy as np


def checksum(aggregate: ScanAggregate) -> str:
    payload = json.dumps(aggregate.to_json(), sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def serial_aggregate(spec, seed, lo, hi) -> ScanAggregate:
    """The reference: the per-entity observe loop the kernel must match."""
    aggregate = ScanAggregate(kind=dataset_kind(spec))
    for entity in iter_entities(spec, seed=seed, lo=lo, hi=hi):
        aggregate.observe(entity)
    return aggregate


# -- lockstep MT19937 ---------------------------------------------------------

@pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed")
class TestLockstepMT:
    def test_words_match_cpython_random(self):
        materials = [hashlib.sha256(bytes([i])).digest() for i in range(20)]
        mt = LockstepMT(b"".join(materials))
        # 600 words forces the full twist (the partial twist covers
        # only the first 227 rows of the state) while staying inside
        # the kernel's one-block word budget.
        words = mt.words(600)
        for column, material in enumerate(materials):
            reference = random.Random(
                int.from_bytes(material, "big"))
            expected = [reference.getrandbits(32) for _ in range(600)]
            got = [int(words[row, column]) for row in range(600)]
            assert got == expected, f"column {column} diverged"

    def test_irregular_short_key_flagged(self):
        # A material whose top 32-bit word is zero seeds CPython's MT
        # from a *shorter* key array, so the lockstep kernel must not
        # claim that column.  (P ~ 2^-32 per stream in the wild.)
        crafted = bytes(4) + hashlib.sha256(b"tail").digest()[4:]
        mt = LockstepMT(hashlib.sha256(b"x").digest() + crafted)
        # ``irregular`` lists the column indices the kernel must route
        # through the scalar fallback — only the crafted one.
        assert list(mt.irregular) == [1]

    @pytest.mark.parametrize("key_len",
                             [1, 2, 7, 8, 623, 624, 625, 700, 1300])
    def test_seed_states_match_cpython_for_any_key_length(self, key_len):
        # Keys shorter than the state skip nothing; keys longer than
        # 624 words run past the first wrap, where the walk starts
        # reading stored rows instead of init constants.
        rng = random.Random(key_len)
        seeds = [rng.getrandbits(32 * key_len) | 1 << (32 * key_len - 1)
                 for _ in range(3)]
        key = np.array([[(seed >> (32 * word)) & 0xFFFFFFFF
                         for seed in seeds] for word in range(key_len)],
                       dtype=np.uint32)
        state = seed_states(key)
        for column, seed in enumerate(seeds):
            reference = random.Random(seed).getstate()[1]
            assert reference[-1] == 624      # position: twist first
            assert state[:, column].tolist() == list(reference[:624]), \
                f"column {column} diverged"


# -- worker resolution --------------------------------------------------------

class TestResolveWorkers:
    def test_explicit_count_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "5")
        assert resolve_workers(3) == 3
        assert resolve_workers("3") == 3

    def test_auto_uses_cpu_count(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert resolve_workers("auto") == cpu_count()

    def test_env_overrides_defaults_only(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert resolve_workers("auto") == 3
        assert resolve_workers(None) == 3
        assert resolve_workers(2) == 2

    def test_none_is_capped_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert resolve_workers(None) == min(DEFAULT_CAP, cpu_count())

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            resolve_workers(0)
        with pytest.raises(ValueError):
            resolve_workers(-2)

    def test_parse_workers(self):
        assert parse_workers("auto") == "auto"
        assert parse_workers(" AUTO ") == "auto"
        assert parse_workers("4") == 4
        with pytest.raises(ValueError):
            parse_workers("many")


# -- kernel bit-identity ------------------------------------------------------

KERNELS = ["vector"] if vector_available() else []


class TestKernelBitIdentity:
    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("dataset", ["open", "alexa", "cas",
                                         "rpki-domains"])
    def test_matches_serial(self, kernel, dataset):
        spec = find_dataset(dataset)
        reference = serial_aggregate(spec, 0, 0, 400)
        got = scan_range(spec, 0, 0, 400, kernel=kernel)
        assert checksum(got) == checksum(reference)

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_offset_range_and_string_seed(self, kernel):
        spec = find_dataset("open")
        reference = serial_aggregate(spec, "pilot", 37, 391)
        got = scan_range(spec, "pilot", 37, 391, kernel=kernel)
        assert checksum(got) == checksum(reference)

    def test_kernels_agree_with_each_other(self):
        spec = find_dataset("eduroam-domains")
        results = {kernel: checksum(scan_range(spec, 3, 10, 700,
                                               kernel=kernel))
                   for kernel in KERNELS + ["scalar"]}
        assert len(set(results.values())) == 1, results

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError):
            scan_range(find_dataset("open"), 0, 0, 10, kernel="cuda")

    @pytest.mark.parametrize("cli", [atlas_cli])
    def test_clis_reject_removed_python_kernel(self, cli):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(
                ["scan", "--dataset", "open", "--kernel", "python"])

    @pytest.mark.parametrize("command", [["scan", "--no-table5"],
                                         ["calibrate"]])
    def test_vector_kernel_without_numpy_is_usage_error(self, command,
                                                        monkeypatch,
                                                        tmp_path):
        monkeypatch.setattr(kernel_module, "HAVE_NUMPY", False)
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            atlas_cli.main(command + ["--store", "S", "--dataset", "open",
                                      "--entities", "1000", "--shards",
                                      "2", "--kernel", "vector"])
        assert exit_info.value.code == 2
        assert not (tmp_path / "S").exists()

    @pytest.mark.parametrize("kernel,numpy", [("vector", False),
                                              ("cuda", True)])
    def test_scan_dataset_checks_kernel_before_dispatch(self, kernel,
                                                        numpy,
                                                        monkeypatch):
        import repro.atlas.pipeline as pipeline

        def no_dispatch(*_args, **_kwargs):
            raise AssertionError("run_map reached with a bad kernel")

        monkeypatch.setattr(kernel_module, "HAVE_NUMPY", numpy)
        monkeypatch.setattr(pipeline, "run_map", no_dispatch)
        with pytest.raises(ValueError, match=kernel):
            scan_dataset(find_dataset("open"), entities=1000, shards=2,
                         kernel=kernel, executor="process", workers=2)


def _flag_column_3(monkeypatch) -> None:
    """Make every lockstep batch wider than 3 treat column 3 as a
    short-key stream, which only occurs naturally with P ~ 2^-32."""
    class Flagged(LockstepMT):
        def __init__(self, materials):
            super().__init__(materials)
            if self.batch > 3:
                self.irregular = np.array([3], dtype=np.intp)

    monkeypatch.setattr(kernel_module, "LockstepMT", Flagged)


@pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed")
class TestVectorFallbacks:
    @pytest.mark.parametrize("dataset", ["open", "alexa"])
    def test_irregular_stream_folds_through_scalar_path(self, dataset,
                                                        monkeypatch):
        _flag_column_3(monkeypatch)
        spec = find_dataset(dataset)
        got = VectorScanner(spec, 0).scan(0, 400)
        assert got.count == 400
        assert checksum(got) == checksum(serial_aggregate(spec, 0, 0, 400))

    @pytest.mark.parametrize("dataset", ["open", "alexa"])
    def test_forced_fallback_counts_irregular_stream_once(self, dataset,
                                                          monkeypatch):
        _flag_column_3(monkeypatch)

        def runaway(self):
            raise WordBudgetExceeded(625)

        monkeypatch.setattr(kernel_module._Draws, "_rows", runaway)
        spec = find_dataset(dataset)
        got = VectorScanner(spec, 0).scan(0, 400)
        assert got.count == 400
        assert checksum(got) == checksum(serial_aggregate(spec, 0, 0, 400))

    @pytest.mark.parametrize("dataset", ["open", "alexa"])
    def test_multi_batch_uneven_cuts_match_serial(self, dataset,
                                                  monkeypatch):
        monkeypatch.setattr(kernel_module, "VEC_BATCH", 97)
        batches = []
        materials = VectorScanner._materials

        def spy(self, lo, hi):
            batches.append((lo, hi))
            return materials(self, lo, hi)

        monkeypatch.setattr(VectorScanner, "_materials", spy)
        spec = find_dataset(dataset)
        sinks = [(lo, hi, ScanAggregate(kind=dataset_kind(spec)))
                 for lo, hi in [(0, 50), (50, 233), (233, 400)]]
        VectorScanner(spec, 0).scan_spans(sinks)
        # 400 entities over ceil(400 / 97) = 5 even batches of 80, so
        # every cut boundary falls inside a batch.
        assert batches == [(lo, lo + 80) for lo in range(0, 400, 80)]
        for lo, hi, aggregate in sinks:
            assert checksum(aggregate) == \
                checksum(serial_aggregate(spec, 0, lo, hi)), (lo, hi)


@pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed")
class TestKernelMemory:
    @pytest.mark.parametrize("dataset", ["open", "alexa"])
    def test_one_lockstep_state_live_at_a_time(self, dataset):
        """A resolver batch frees its main state before the ICMP replay
        seeds another, so no scan holds two (624, B) matrices."""
        entities = 4000
        scanner = VectorScanner(find_dataset(dataset), 0)
        scanner.scan(0, entities)                   # warm-up
        tracemalloc.start()
        try:
            scanner.scan(0, entities)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 624 * entities * 4


# -- work stealing under adversarial completion order ------------------------

class AdversarialPool:
    """An executor shim that completes futures in a scrambled order.

    Futures are buffered and resolved batch-wise in an adversarial
    order (reversed, or shuffled by a seeded RNG), so ``on_result``
    fires out of task order — exactly the interleaving a loaded
    process pool produces, minus the nondeterminism.  ``resolved``
    records the tasks in the order their futures were resolved.
    """

    def __init__(self, total: int, batch: int = 3, order: str = "reverse",
                 rng_seed: int = 0):
        self.total = total
        self.batch = batch
        self.order = order
        self.rng = random.Random(rng_seed)
        self.submitted = 0
        self.buffer: list[tuple[Future, object, object]] = []
        self.resolved: list[object] = []

    def submit(self, fn, task) -> Future:
        future: Future = Future()
        self.buffer.append((future, fn, task))
        self.submitted += 1
        if len(self.buffer) >= self.batch or self.submitted == self.total:
            pending = list(self.buffer)
            self.buffer.clear()
            if self.order == "reverse":
                pending.reverse()
            else:
                self.rng.shuffle(pending)
            for queued, queued_fn, queued_task in pending:
                self.resolved.append(queued_task)
                queued.set_result(queued_fn(queued_task))
        return future


class TestWorkStealing:
    def test_results_in_task_order_completion_scrambled(self):
        for order in ("reverse", "shuffle"):
            completions: list[int] = []
            pool = AdversarialPool(total=10, batch=4, order=order)
            results = run_stealing(
                pool, lambda task: task * task, list(range(10)),
                window=5,
                on_result=lambda index, _result: completions.append(index))
            assert results == [task * task for task in range(10)]
            assert sorted(completions) == list(range(10))
            # The order ``on_result`` fires in also depends on how
            # ``wait()`` iterates its done set; the shim's own order
            # does not.
            assert sorted(pool.resolved) == list(range(10))
            assert pool.resolved != list(range(10)), \
                "shim failed to scramble completion order"

    def test_window_validated(self):
        with pytest.raises(ValueError):
            run_stealing(AdversarialPool(total=1), lambda task: task,
                         [1], window=0)

    def test_scan_aggregates_and_store_survive_scrambling(self, tmp_path,
                                                          monkeypatch):
        # A full scan_dataset through a pool that finishes shards in
        # reverse order: the report aggregate AND the persisted store
        # records must match the serial run bit for bit.
        import repro.parallel.taskmap as taskmap

        spec = find_dataset("open")
        serial = scan_dataset(spec, seed=0, entities=900, shards=6,
                              executor="serial")

        class AdversarialProcessPool(AdversarialPool):
            def __init__(self, max_workers=None, initializer=None,
                         initargs=(), **_kwargs):
                super().__init__(total=6, batch=3, order="reverse")
                if initializer is not None:
                    initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

        monkeypatch.setattr(taskmap, "ProcessPoolExecutor",
                            AdversarialProcessPool)
        store = AtlasStore(tmp_path / "scrambled")
        scrambled = scan_dataset(spec, seed=0, entities=900, shards=6,
                                 workers=4, executor="process", store=store)
        assert checksum(scrambled.aggregate) == checksum(serial.aggregate)

        spec_hash = population_spec_hash(spec, 0, 900)
        records = store.load(spec_hash)
        assert sorted(records) == list(range(6))
        for shard in shard_ranges(900, 6):
            stored = records[shard.shard_id].aggregate
            reference = serial_aggregate(spec, 0, shard.lo, shard.hi)
            assert checksum(stored) == checksum(reference)

    def test_campaign_stats_survive_scrambling(self, monkeypatch):
        # The campaign's shared-world process path through the same
        # shim: the initializer materialises the scenario table
        # in-process and batches complete in reverse, yet the runs
        # match the serial reference.
        import repro.parallel.taskmap as taskmap
        from repro.scenario import Campaign, sweep_scenarios

        scenarios = sweep_scenarios()
        serial = Campaign(executor="serial").run(scenarios, seeds=range(4))

        class AdversarialCampaignPool(AdversarialPool):
            def __init__(self, max_workers=None, initializer=None,
                         initargs=(), **_kwargs):
                super().__init__(total=10 ** 9, batch=3, order="reverse")
                if initializer is not None:
                    initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

        monkeypatch.setattr(taskmap, "ProcessPoolExecutor",
                            AdversarialCampaignPool)
        scrambled = Campaign(executor="process", workers=4).run(
            scenarios, seeds=range(4))
        flatten = lambda result: [
            (run.label, run.seed, run.success, run.packets_sent,
             run.queries_triggered, run.duration) for run in result.runs]
        assert flatten(scrambled) == flatten(serial)


# A coordinator whose two pool workers print their pids and then block.
_BLOCKED_POOL = """
import os, time
from repro.parallel.taskmap import run_map

def plan(missing, workers):
    return None, [[task] for task in missing]

def run_batch(world, batch):
    print(os.getpid(), flush=True)
    time.sleep(60)
    return batch

run_map([0, 1], plan, run_batch, workers=2, executor="process")
"""


def _running(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not os.path.isdir("/proc/self"),
                    reason="reads process states from /proc")
def test_pool_workers_exit_when_the_coordinator_is_killed():
    import repro

    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    coordinator = subprocess.Popen([sys.executable, "-c", _BLOCKED_POOL],
                                   stdout=subprocess.PIPE, env=env)
    workers: set[int] = set()
    try:
        deadline = time.monotonic() + 30
        while len(workers) < 2 and time.monotonic() < deadline:
            ready, _, _ = select.select([coordinator.stdout], [], [],
                                        deadline - time.monotonic())
            if ready:
                workers.add(int(coordinator.stdout.readline()))
        assert len(workers) == 2, "the pool never started both workers"
        coordinator.kill()      # SIGKILL: no pool shutdown runs
        coordinator.wait(timeout=10)
        deadline = time.monotonic() + 5
        while any(map(_running, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(_running, workers)), \
            "pool workers outlived their killed coordinator"
    finally:
        coordinator.kill()
        coordinator.stdout.close()
        for pid in workers:
            if _running(pid):
                os.kill(pid, signal.SIGKILL)


# -- pipeline integration -----------------------------------------------------

class TestPipelineKernels:
    def test_process_and_serial_checksums_match(self):
        spec = find_dataset("alexa")
        serial = scan_dataset(spec, seed=0, entities=600, shards=4,
                              executor="serial")
        pooled = scan_dataset(spec, seed=0, entities=600, shards=4,
                              workers=2, executor="process")
        assert checksum(pooled.aggregate) == checksum(serial.aggregate)

    def test_explicit_kernels_match_scalar(self):
        spec = find_dataset("open")
        scalar = scan_dataset(spec, seed=0, entities=500, shards=4,
                              executor="serial", kernel="scalar")
        for kernel in KERNELS:
            report = scan_dataset(spec, seed=0, entities=500, shards=4,
                                  executor="serial", kernel=kernel)
            assert checksum(report.aggregate) == \
                checksum(scalar.aggregate), kernel

    def test_workers_auto_accepted(self):
        spec = find_dataset("open")
        report = scan_dataset(spec, seed=0, entities=300, shards=2,
                              workers="auto", executor="process")
        serial = scan_dataset(spec, seed=0, entities=300, shards=2,
                              executor="serial")
        assert checksum(report.aggregate) == checksum(serial.aggregate)
