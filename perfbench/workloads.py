"""The benchmark's workloads: one closed-loop client in one process.

Each workload is a fixed set of simulator inputs, so its outputs and
its counts are exact and can be checked against ``expected.json``.  The
run seed permutes the order in which the cells execute (and nothing
else): two seeds do the same work in a different order.

Every pass runs serially with the observability plane off.  On a
2-vCPU host a process pool would mostly measure the OS scheduler; the
slowest cell (``cell_max_s``) stands in for the wall time of a pooled
grid, because it is that grid's critical path.

Nothing from :mod:`repro` is imported at module level, so the set-up
probe in ``run.py`` times the imports along with each workload's
``setup``: the first cell run through the campaign runner (which
builds the first world and pulls in every lazily imported module), or
the first vector scanner built.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import tempfile
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

#: Scratch space for the fresh run and atlas stores of every pass.  It
#: lives inside the checkout because the benchmark writes nowhere else.
WORK_DIR = Path(__file__).resolve().parent / ".work"


def digest(value) -> str:
    """SHA-256 of a value's ``repr`` (tuples of plain data only)."""
    return hashlib.sha256(repr(value).encode()).hexdigest()


@dataclass
class PassResult:
    """What one pass of a workload did and how long it took.

    ``cell_s`` holds the wall seconds of every cell of the cold pass
    (campaign cells, or atlas shards); ``entities`` is the work behind
    ``entities_per_s``.  ``problems`` lists every output check that
    failed: any entry fails every cell of the pass.  ``cell_started``
    holds each campaign cell's ``perf_counter`` start, in ``cell_s``
    order, so a cell's time can be scaled by the host's speed while it
    ran (empty when cells are not timed one by one).
    """

    wall_s: float
    cell_s: list[float]
    entities: int
    checksum: str
    counts: dict[str, int] = field(default_factory=dict)
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    timings: dict[str, float] = field(default_factory=dict)
    cell_started: list[float] = field(default_factory=list)


@contextmanager
def world_tally():
    """Sum the simulated worlds' own counters over the cells run inside.

    Captures every world the public ``AttackScenario.make_world``
    returns and folds its counters when the next world is built (or
    when the block ends), so at most one finished world stays alive.
    The cost is one extra call per cell, so untraced passes use it too.
    Yields the counts and the list of the cells' start times (one
    world is built as each cell starts).
    """
    from repro.scenario.spec import AttackScenario

    original = AttackScenario.make_world
    counts: Counter = Counter()
    started: list[float] = []
    held: list[dict] = []

    def fold() -> None:
        while held:
            world = held.pop()
            network = world["testbed"].network
            resolver = world["resolver"]
            counts["core.events"] += network.scheduler.executed
            counts["netsim.packets"] += network.stats.transmitted
            counts["dns.rejected"] += resolver.stats.rejected_responses
            counts["dns.cache_hits"] += resolver.cache.stats.hits
            counts["dns.cache_misses"] += resolver.cache.stats.misses

    def make_world(scenario, seed=0):
        started.append(time.perf_counter())
        world = original(scenario, seed=seed)
        fold()
        held.append(world)
        return world

    AttackScenario.make_world = make_world
    try:
        yield counts, started
    finally:
        AttackScenario.make_world = original
        fold()


@contextmanager
def scratch_dir():
    """A fresh directory under :data:`WORK_DIR`, removed afterwards."""
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=WORK_DIR))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def _one_per_cell(started: list[float], runs: list) -> list[float]:
    """The cells' start times, if each cell built exactly one world."""
    return list(started) if len(started) == len(runs) else []


def _in_order(order: list[int], runs: list) -> list:
    """Undo the seed's permutation: ``runs[k]`` ran cell ``order[k]``."""
    ordered = [None] * len(order)
    for position, index in enumerate(order):
        ordered[index] = runs[position]
    return ordered


class AblationSingles:
    """Section 6 single-defense grid: 3 attacks x 8 stacks = 24 cells.

    Built the way ``repro.experiments.ablation.run(pairs=0)`` builds
    it.  This is the forged-packet flood path: the blocked SadDNS cells
    (vs 0x20 and vs dnssec) run their whole 260-iteration budget and
    push about 1.4M packets through ``netsim``, most of them rejected
    by ``dns``.  A burst fast path must move this workload.
    """

    name = "ablation_singles"

    def __init__(self, cells: int | None = None):
        """``cells`` keeps only the grid's first cells (for smoke tests)."""
        from repro.defenses.ablation import ATTACK_NAMES, defended_scenario
        from repro.defenses.catalog import single_stacks

        self.cells = [
            (attack, stack,
             defended_scenario(attack, stack, saddns_iterations=260,
                               frag_attempts=120),
             f"ablation-0-{attack}-{stack.key}")
            for attack in ATTACK_NAMES
            for stack in single_stacks()
        ][:cells]

    def setup(self) -> None:
        from repro.scenario import Campaign

        _, _, scenario, seed = self.cells[0]
        Campaign(executor="serial").run_pairs([(scenario, seed)])

    def run_pass(self, rng: random.Random) -> PassResult:
        from repro.scenario import Campaign

        order = list(range(len(self.cells)))
        rng.shuffle(order)
        pairs = [(self.cells[i][2], self.cells[i][3]) for i in order]
        with world_tally() as (counts, cell_started):
            started = time.perf_counter()
            result = Campaign(executor="serial").run_pairs(pairs)
            wall = time.perf_counter() - started
        runs = _in_order(order, result.runs)
        verdicts = [(attack, stack.key, run.success, attack in stack.defeats)
                    for (attack, stack, _, _), run in zip(self.cells, runs)]
        problems = []
        agreement = sum(1 for _, _, succeeded, defeated in verdicts
                        if succeeded != defeated)
        if agreement != len(verdicts):
            problems.append(f"Section 6 agreement {agreement}/"
                            f"{len(verdicts)}")
        counts["attacks.forged_packets"] = sum(r.packets_sent for r in runs)
        return PassResult(
            wall_s=wall, cell_s=[run.wall_time for run in result.runs],
            entities=counts["netsim.packets"], checksum=digest(verdicts),
            counts=dict(counts), failed=sum(r.failed for r in runs),
            problems=problems,
            cell_started=_one_per_cell(cell_started, result.runs))


class LoadedDefended:
    """HijackDNS/SadDNS/FragDNS x {none, dnssec, rpki-rov} x 16 seeds.

    144 cells of the Table 6 sweep scenarios, each under the
    ``workload`` bench's 40 qps Zipf client population, recorded into a
    fresh run store and then resumed from it.  Same layers as
    :class:`AblationSingles`, used differently:
    ``dns`` takes the accept path (encodes, cache inserts), ``netsim``
    carries per-query client sockets instead of bursts, per-cell world
    builds and store writes show, and the store is written and read.  A
    flood-path optimisation should leave this workload unchanged.
    """

    name = "loaded_defended"
    stacks = ("none", "dnssec", "rpki-rov")

    def __init__(self, seeds: int = 16):
        """``seeds`` per (scenario, stack) pair; fewer for smoke tests."""
        from dataclasses import replace

        from repro.scenario import sweep_scenarios
        from repro.workload import WorkloadSpec

        load = WorkloadSpec(clients=8, qps=40.0, duration=10.0, warmup=2.0,
                            domains=20, victim_ttl=6, label="bench")
        # The budget-capped Table 6 sweep scenarios, as the ``workload``
        # and ``store_resume`` benches of benchmarks/run_all.py run them.
        self.scenarios = [replace(scenario, workload=load)
                          for scenario in sweep_scenarios()]
        self.seeds = tuple(range(seeds))

    def setup(self) -> None:
        from repro.scenario import Campaign

        Campaign(executor="serial").run_pairs(
            [(self.scenarios[0], self.seeds[0])])

    @staticmethod
    def _sweep(store, scenarios, stacks, seeds):
        from repro.scenario import Campaign

        return Campaign(executor="serial").run_defended(
            scenarios, stacks=stacks, seeds=seeds, store=store)

    def run_pass(self, rng: random.Random) -> PassResult:
        from repro.store import RunStore

        scenarios = list(self.scenarios)
        stacks = list(self.stacks)
        seeds = list(self.seeds)
        for axis in (scenarios, stacks, seeds):
            rng.shuffle(axis)
        with scratch_dir() as work:
            store = RunStore(work / "runs.db")
            try:
                with world_tally() as (counts, cell_started):
                    started = time.perf_counter()
                    cold = self._sweep(store, scenarios, stacks, seeds)
                    wall = time.perf_counter() - started
                rows = store.count()
                started = time.perf_counter()
                warm = self._sweep(store, scenarios, stacks, seeds)
                resume = time.perf_counter() - started
            finally:
                store.close()
        flat = {
            name: sorted(
                (run.label, run.seed, run.success, run.packets_sent,
                 run.queries_triggered, run.duration,
                 run.load_report.checksum() if run.load_report else None)
                for run in result.runs)
            for name, result in (("cold", cold), ("warm", warm))
        }
        problems = []
        if flat["warm"] != flat["cold"]:
            problems.append("resumed sweep differs from the cold sweep")
        if not any("cells loaded" in note for note in warm.notes):
            problems.append("resumed sweep did not load from the store")
        if rows != len(cold.runs):
            problems.append(f"store holds {rows} rows for "
                            f"{len(cold.runs)} cells")
        reports = [run.load_report for run in cold.runs if run.load_report]
        if len(reports) != len(cold.runs):
            problems.append("a loaded cell carried no LoadReport")
        counts["attacks.forged_packets"] = sum(r.packets_sent
                                               for r in cold.runs)
        counts["workload.queries"] = sum(r.offered + r.warmup_queries
                                         for r in reports)
        counts["store.rows"] = rows
        return PassResult(
            wall_s=wall, cell_s=[run.wall_time for run in cold.runs],
            entities=counts["netsim.packets"], checksum=digest(flat["cold"]),
            counts=dict(counts), failed=sum(r.failed for r in cold.runs),
            problems=problems, timings={"resume_s": resume},
            cell_started=_one_per_cell(cell_started, cold.runs))


class AtlasFull:
    """All 19 atlas datasets (3,106,664 entities), 16 shards each.

    Scanned with the vector kernel into a fresh ``AtlasStore``, then
    resumed from it.  It never touches ``core``/``netsim``/``dns``, so
    it is the control for every simulator change and the workload for
    kernel work; it covers the resolver and domain dataset kinds.
    """

    name = "atlas_full"
    shards = 16

    def __init__(self, entities: int | None = None):
        """``entities`` caps every dataset (for smoke tests); the Table 3
        check needs the full populations and is skipped under a cap."""
        from repro.atlas.pipeline import all_dataset_specs

        self.specs = all_dataset_specs()
        self.entities = entities

    def setup(self) -> None:
        from repro.parallel.kernel import VectorScanner

        VectorScanner(self.specs[0], 0)

    def _scan(self, specs, store):
        """Scan each dataset; returns ``(report, compute seconds)`` pairs,
        the compute time being the scan's wall time minus its store
        appends (in a pooled scan the coordinator appends while the
        workers compute, so a shard's cell time leaves them out)."""
        from repro.atlas.pipeline import scan_dataset

        scans = []
        for spec in specs:
            appended = store.append_s
            report = scan_dataset(spec, seed=0, entities=self.entities,
                                  shards=self.shards, executor="serial",
                                  store=store, kernel="vector")
            scans.append((report, report.wall_clock
                          - (store.append_s - appended)))
        return scans

    def run_pass(self, rng: random.Random) -> PassResult:
        from repro.atlas.shards import shard_ranges
        from repro.parallel.kernel import vector_available

        problems = []
        if not vector_available():
            problems.append("numpy is missing: no vector kernel")
        specs = list(self.specs)
        rng.shuffle(specs)
        with scratch_dir() as work:
            store = _timed_atlas_store(work)
            started = time.perf_counter()
            cold = self._scan(specs, store)
            wall = time.perf_counter() - started
            started = time.perf_counter()
            warm = [report for report, _ in self._scan(specs, store)]
            resume = time.perf_counter() - started
        by_kind: dict[str, list[float]] = {}
        sums = {}
        for report, compute in cold:
            tally = by_kind.setdefault(report.kind, [0.0, 0.0])
            tally[0] += report.entities
            tally[1] += compute
            sums[report.dataset] = aggregate_checksum(report)
        rates = {kind: count / seconds
                 for kind, (count, seconds) in by_kind.items()}
        # The serial scan batches a dataset's shards together and only
        # apportions its time to them.  A shard's cell time here is its
        # entity count at its dataset kind's rate over the whole pass,
        # which small datasets' millisecond scans cannot make jumpy.
        cold = [report for report, _ in cold]
        cell_s = [shard.size / rates[report.kind]
                  for report in cold
                  for shard in shard_ranges(report.entities, self.shards)
                  if shard.shard_id in report.computed_shards]
        for report in warm:
            if report.computed_shards:
                problems.append(f"{report.dataset}: resume recomputed "
                                f"{len(report.computed_shards)} shards")
            if aggregate_checksum(report) != sums[report.dataset]:
                problems.append(f"{report.dataset}: resumed aggregate "
                                "differs from the cold scan")
        if self.entities is None:
            problems.extend(_table3_open_row(cold))
        entities = sum(report.entities for report in cold)
        timings = {"resume_s": resume}
        for kind, rate in rates.items():
            timings[f"entities_per_s.{kind}"] = rate
        return PassResult(
            wall_s=wall, cell_s=cell_s, entities=entities,
            checksum=digest(sorted(sums.items())),
            counts={"atlas.entities": entities, "atlas.shards": len(cell_s)},
            problems=problems, timings=timings)


def _timed_atlas_store(root):
    """An ``AtlasStore`` that sums the wall time of its appends."""
    from repro.atlas.store import AtlasStore

    class TimedAtlasStore(AtlasStore):
        append_s = 0.0

        def append(self, record) -> None:
            started = time.perf_counter()
            super().append(record)
            self.append_s += time.perf_counter() - started

    return TimedAtlasStore(root)


def aggregate_checksum(report) -> str:
    """The ``benchmarks/run_all.py`` checksum of one scan's aggregate."""
    payload = json.dumps(report.aggregate.to_json(), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def _table3_open_row(reports) -> list[str]:
    """The open-resolver row must reproduce EXPERIMENTS.md Table 3."""
    for report in reports:
        if report.dataset != "open":
            continue
        summary = report.summary
        row = tuple(round(summary.pct(flag))
                    for flag in ("hijack", "saddns", "frag"))
        if (summary.size, row) != (1_583_045, (74, 12, 31)):
            return [f"open resolvers: {summary.size} entities at "
                    f"{row[0]}%/{row[1]}%/{row[2]}%, want 1583045 at "
                    "74%/12%/31%"]
        return []
    return ["open resolvers were not scanned"]


WORKLOADS = {cls.name: cls
             for cls in (AblationSingles, LoadedDefended, AtlasFull)}
