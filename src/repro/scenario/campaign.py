"""Campaign runner: sweep scenarios across seeds on worker processes.

Each seed builds an independent deterministic testbed, so a campaign is
embarrassingly parallel: the scenario (pure data) is shipped to a
``concurrent.futures`` worker which builds the world, runs the attack,
and returns the :class:`repro.scenario.spec.ScenarioRun`.  Results are
bit-identical across the serial, thread and process executors — the RNG
streams depend only on the seed, never on scheduling — which is what
lets the Table 6 statistics scale out without changing a single number.

The aggregated :class:`CampaignResult` carries success rates, packet
and duration percentiles, and per-method/per-label breakdowns: the raw
material of the paper's Table 6 rows.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field, replace
from typing import Any, Iterable, Sequence

from repro.core.errors import ScenarioError
from repro.defenses.base import DefenseStack
from repro.faults.policy import RunPolicy, execute_cell
from repro.obs import OBS
from repro.parallel.taskmap import EXECUTORS, run_map
from repro.parallel.workers import resolve_workers
from repro.scenario.spec import AttackScenario, ScenarioRun
from repro.workload.report import LoadReport


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in [0, 1]) of ``values``."""
    if not values:
        return 0.0
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"percentile out of range: {q}")
    ordered = sorted(values)
    position = (len(ordered) - 1) * q
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    fraction = position - low
    return ordered[low] + (ordered[high] - ordered[low]) * fraction


def _execute_batch(world: tuple[Sequence[AttackScenario], RunPolicy | None],
                   batch: list[tuple[int, Any]]) -> list[ScenarioRun]:
    """Task-map ``run_batch``: one batch of (scenario-table index, seed)
    cells.

    The world — the sweep's distinct-scenario table and its policy — is
    the only expensive pickle in a campaign; the task map ships it once
    per pool worker, and batches name their scenario by table index.
    With the plane on, the batch runs under a ``campaign.batch`` span.
    """
    table, policy = world
    if not OBS.enabled:
        return [execute_cell(table[index], seed, policy)
                for index, seed in batch]
    with OBS.span("campaign.batch", table_index=str(batch[0][0]),
                  cells=len(batch)):
        return [execute_cell(table[index], seed, policy)
                for index, seed in batch]


def _batch_tasks(tasks: list[tuple[AttackScenario, Any]],
                 workers: int) -> tuple[list[AttackScenario],
                                        list[tuple[int, tuple[Any, ...]]]]:
    """Group tasks into (table-index, seed-batch) units, order-preserving.

    Consecutive tasks sharing one scenario object form a group; each
    group is split into batches sized like the old per-task chunking
    (``len / (workers * 4)``) so the pool still load-balances.
    Returns the distinct scenario table plus the batches: a batch names
    its scenario by table index, so shipping the table once (via the
    worker initializer) is enough to execute every batch.  Flattening
    the batched results in order reproduces the serial run order
    exactly, which keeps every executor bit-identical.
    """
    batch_size = max(1, len(tasks) // (max(workers, 1) * 4))
    table: list[AttackScenario] = []
    batches: list[tuple[int, tuple[Any, ...]]] = []
    index = 0
    while index < len(tasks):
        scenario = tasks[index][0]
        group_end = index
        while group_end < len(tasks) and tasks[group_end][0] is scenario:
            group_end += 1
        table_index = len(table)
        table.append(scenario)
        for start in range(index, group_end, batch_size):
            seeds = tuple(seed for _scenario, seed in
                          tasks[start:min(start + batch_size, group_end)])
            batches.append((table_index, seeds))
        index = group_end
    return table, batches


@dataclass
class MethodSummary:
    """Aggregates for one methodology (or one scenario label / app).

    Folded from :class:`ScenarioRun` cells by :meth:`note`.  The
    attack-phase statistics are Table 6's columns: one summary per
    scenario label (:meth:`CampaignResult.by_label`) gives its hitrate,
    mean queries, mean packets and mean duration.  Beyond those,
    kill-chain runs contribute application-impact aggregates: how often
    the Table 1 impact was actually realized, split by impact class
    (the §4.5 story — fraudulent certificates, downgrades, account
    takeovers).
    """

    key: str
    runs: int = 0
    successes: int = 0
    failures: int = 0           # cells that could not execute at all
    packets: list[int] = field(default_factory=list)
    queries: list[int] = field(default_factory=list)
    durations: list[float] = field(default_factory=list)
    # -- application impact ----------------------------------------------------
    app_runs: int = 0
    impact: str = ""            # the group's Table 1 impact cell
    impacts_realized: int = 0
    hijacks: int = 0
    downgrades: int = 0
    denials: int = 0
    fraud_certs: int = 0
    takeovers: int = 0
    # -- benign load -----------------------------------------------------------
    loads: list[LoadReport] = field(default_factory=list)

    def note(self, run: ScenarioRun) -> None:
        self.runs += 1
        self.successes += 1 if run.success else 0
        if run.failed:
            self.failures += 1
        self.packets.append(run.packets_sent)
        self.queries.append(run.queries_triggered)
        self.durations.append(run.duration)
        if run.load_report is not None:
            self.loads.append(run.load_report)
        stage = run.app_result
        if stage is None:
            return
        self.app_runs += 1
        self.impact = stage.impact
        if not stage.realized:
            return
        self.impacts_realized += 1
        if stage.impact_class == "Hijack":
            self.hijacks += 1
        elif stage.impact_class == "Downgrade":
            self.downgrades += 1
        elif stage.impact_class == "DoS":
            self.denials += 1
        if stage.fraud_certificate:
            self.fraud_certs += 1
        if stage.takeover:
            self.takeovers += 1

    @property
    def success_rate(self) -> float:
        return self.successes / self.runs if self.runs else 0.0

    @property
    def impact_rate(self) -> float:
        """Realized-impact fraction across this group's app stages."""
        return self.impacts_realized / self.app_runs if self.app_runs \
            else 0.0

    @property
    def load(self) -> LoadReport | None:
        """This group's merged benign-load report (None when unloaded)."""
        if not self.loads:
            return None
        return LoadReport.merge(self.loads, label=self.key)

    @property
    def hitrate(self) -> float:
        """Per-triggered-query success probability (Table 6's metric)."""
        total = sum(self.queries)
        return self.successes / total if total else 0.0

    @property
    def mean_packets(self) -> float:
        return sum(self.packets) / len(self.packets) if self.packets else 0.0

    @property
    def mean_queries(self) -> float:
        return sum(self.queries) / len(self.queries) if self.queries else 0.0

    @property
    def mean_duration(self) -> float:
        """Average virtual attack seconds per run (Table 6's duration)."""
        return statistics.mean(self.durations) if self.durations else 0.0

    def packets_percentile(self, q: float) -> float:
        return percentile(self.packets, q)

    def duration_percentile(self, q: float) -> float:
        return percentile(self.durations, q)


@dataclass
class CampaignResult:
    """Everything a campaign measured, with Table 6-style aggregates."""

    runs: list[ScenarioRun]
    wall_clock: float
    workers: int
    executor: str
    notes: list[str] = field(default_factory=list)

    @property
    def successes(self) -> int:
        return sum(1 for run in self.runs if run.success)

    @property
    def success_rate(self) -> float:
        return self.successes / len(self.runs) if self.runs else 0.0

    @property
    def failures(self) -> int:
        """Cells recorded as failed (RunPolicy degradation) rather
        than executed."""
        return sum(1 for run in self.runs if run.failed)

    def failed_runs(self) -> list[ScenarioRun]:
        """The recorded failures, in run order."""
        return [run for run in self.runs if run.failed]

    def _group(self, key_fn) -> dict[str, MethodSummary]:
        groups: dict[str, MethodSummary] = {}
        for run in self.runs:
            key = key_fn(run)
            groups.setdefault(key, MethodSummary(key=key)).note(run)
        return groups

    def by_method(self) -> dict[str, MethodSummary]:
        """Per-methodology breakdown across all scenarios and seeds."""
        return self._group(lambda run: run.method)

    def by_label(self) -> dict[str, MethodSummary]:
        """Per-scenario breakdown (distinguishes grid points)."""
        return self._group(lambda run: run.label)

    def by_app(self) -> dict[str, MethodSummary]:
        """Per-application impact breakdown (kill-chain runs only)."""
        groups: dict[str, MethodSummary] = {}
        for run in self.runs:
            if run.app_result is None:
                continue
            key = run.app_result.app
            groups.setdefault(key, MethodSummary(key=key)).note(run)
        return groups

    def by_defense(self) -> dict[str, MethodSummary]:
        """Per-defense-stack breakdown across all methods and seeds."""
        return self._group(lambda run: run.defense)

    def defense_matrix(self) -> dict[tuple[str, str], MethodSummary]:
        """The (defense stack, method) grid of residual statistics.

        Keys are ``(stack_key, method)``; each summary's
        ``success_rate`` is the *residual* success the stack leaves that
        methodology, and ``impact_rate`` the residual kill-chain impact
        (when the runs carried an application stage).  The ``"none"``
        row is the undefended baseline to read the residuals against.
        """
        groups: dict[tuple[str, str], MethodSummary] = {}
        for run in self.runs:
            key = (run.defense, run.method)
            groups.setdefault(
                key, MethodSummary(key=f"{run.method} vs {run.defense}")
            ).note(run)
        return groups

    @property
    def defended(self) -> bool:
        """Whether any run in the campaign deployed a defense stack."""
        return any(run.defense != "none" for run in self.runs)

    @property
    def loaded(self) -> bool:
        """Whether any run carried a benign-traffic workload."""
        return any(run.load_report is not None for run in self.runs)

    def load_report(self) -> LoadReport | None:
        """All runs' benign-load experience merged (None when unloaded)."""
        reports = [run.load_report for run in self.runs
                   if run.load_report is not None]
        if not reports:
            return None
        return LoadReport.merge(reports, label="campaign")

    @property
    def app_runs(self) -> int:
        """How many runs carried an application stage."""
        return sum(1 for run in self.runs if run.app_result is not None)

    @property
    def impacts_realized(self) -> int:
        return sum(1 for run in self.runs if run.impact_realized)

    @property
    def impact_rate(self) -> float:
        """Realized-impact fraction across all app stages in the sweep."""
        app_runs = self.app_runs
        return self.impacts_realized / app_runs if app_runs else 0.0

    def describe(self) -> str:
        """Rendered per-label summary table plus the campaign footer."""
        # Imported here: the measurements package itself declares its
        # trials through this module, so a top-level import would cycle.
        from repro.measurements.report import render_table

        headers = ["Scenario", "Runs", "Success", "Hitrate",
                   "Packets p50/p99", "Duration p50/p99 (s)"]
        rows = []
        by_label = self.by_label()
        for key in sorted(by_label):
            summary = by_label[key]
            rows.append([
                key, summary.runs,
                f"{summary.success_rate * 100:.0f}%",
                f"{summary.hitrate * 100:.2f}%",
                f"{summary.packets_percentile(0.5):,.0f} / "
                f"{summary.packets_percentile(0.99):,.0f}",
                f"{summary.duration_percentile(0.5):.1f} / "
                f"{summary.duration_percentile(0.99):.1f}",
            ])
        table = render_table(headers, rows, title="Campaign summary")
        sections = [table]
        if self.defended:
            matrix = self.defense_matrix()
            defense_rows = []
            ordered = sorted(matrix,
                             key=lambda key: (key[0] != "none", key))
            for stack_key, method in ordered:
                summary = matrix[(stack_key, method)]
                row = [stack_key, method, summary.runs,
                       f"{summary.success_rate * 100:.0f}%"]
                row.append(f"{summary.impact_rate * 100:.0f}%"
                           if summary.app_runs else "-")
                defense_rows.append(row)
            sections.append(render_table(
                ["Defense stack", "Method", "Runs", "Residual success",
                 "Residual impact"],
                defense_rows, title="Defense residuals"))
        by_app = self.by_app()
        if by_app:
            impact_headers = ["Application", "Impact", "Stages",
                              "Realized", "Fraud certs", "Downgrades",
                              "Takeovers"]
            impact_rows = []
            for key in sorted(by_app):
                summary = by_app[key]
                impact_rows.append([
                    key, summary.impact, summary.app_runs,
                    f"{summary.impact_rate * 100:.0f}%",
                    summary.fraud_certs, summary.downgrades,
                    summary.takeovers,
                ])
            sections.append(render_table(impact_headers, impact_rows,
                                         title="Application impact"))
        if self.loaded:
            load_rows = []
            for key in sorted(by_label):
                merged = by_label[key].load
                if merged is None:
                    continue
                load_rows.append([key] + merged.summary_row())
            sections.append(render_table(
                ["Scenario"] + LoadReport.summary_headers(), load_rows,
                title="Benign load during the attack"))
        failed = self.failed_runs()
        if failed:
            sections.append(render_table(
                ["Scenario", "Seed", "Error"],
                [[run.label, run.seed, run.error] for run in failed],
                title="Failed cells (recorded, not executed)"))
        footer = (f"{len(self.runs)} runs in {self.wall_clock:.1f}s wall"
                  f" ({self.executor}, workers={self.workers})")
        if failed:
            footer += f"\n{len(failed)} cells failed and were recorded"
        if self.notes:
            footer += "\n" + "\n".join(f"note: {note}" for note in self.notes)
        sections.append(footer)
        return "\n".join(sections)


class Campaign:
    """Run scenarios across seeds (and config grids) in parallel.

    The constructor is the one place a sweep is configured: every run
    method uses its ``workers``, ``executor`` and ``policy``.  A config
    grid is ``run(base.variants(**axes))``.

    ``executor`` selects the ``concurrent.futures`` backend:
    ``"process"`` (default; true parallelism, scenarios must pickle),
    ``"thread"`` (shared process; useful for callable triggers), or
    ``"serial"`` (the reference loop the parallel paths must match).

    ``workers`` accepts a count, ``"auto"`` (every schedulable CPU) or
    ``None`` (the historical capped default); the ``REPRO_WORKERS``
    environment variable overrides the defaults — see
    :func:`repro.parallel.workers.resolve_workers`.  Sweeps run through
    :func:`repro.parallel.taskmap.run_map`: the process executor ships
    the sweep's distinct-scenario table to each worker exactly once and
    steals work batch by batch, so a slow cell never idles the rest of
    the pool.

    ``policy`` (a :class:`repro.faults.RunPolicy`) makes the sweep
    degrade gracefully: each cell gets a scheduler watchdog, transient
    failures retry with backoff, and a raising cell becomes a recorded
    failed run instead of killing the grid.  Without one, exceptions
    propagate exactly as before.
    """

    def __init__(self, workers: int | str | None = None,
                 executor: str = "process",
                 policy: RunPolicy | None = None):
        if executor not in EXECUTORS:
            raise ScenarioError(
                f"unknown executor {executor!r}; pick one of {EXECUTORS}")
        self.workers = workers
        self.executor = executor
        self.policy = policy

    def run(self,
            scenarios: AttackScenario | Iterable[AttackScenario],
            seeds: Iterable[Any] = range(8),
            store: Any = None) -> CampaignResult:
        """Execute every (scenario, seed) cell and aggregate.

        ``seeds`` may hold ints or strings; each is passed verbatim to
        the scenario's deterministic testbed, so a campaign over
        ``range(32)`` is 32 statistically independent trials that any
        executor reproduces bit-identically.

        ``store`` (a :class:`repro.store.RunStore` or a path) makes the
        sweep durable and resumable: every executed cell is appended to
        the store, and cells whose ``(spec_hash, seed, defense)`` key
        is already stored are loaded instead of re-run — so a killed
        sweep re-invoked with the same store recomputes only what is
        missing and still aggregates bit-identically.
        """
        if isinstance(scenarios, AttackScenario):
            scenarios = [scenarios]
        scenarios = list(scenarios)
        if not scenarios:
            raise ScenarioError("no scenarios to run")
        seeds = list(seeds)
        if not seeds:
            raise ScenarioError("no seeds to run")
        return self.run_pairs(
            [(scenario, seed) for scenario in scenarios for seed in seeds],
            store=store,
        )

    def run_pairs(self,
                  pairs: Iterable[tuple[AttackScenario, Any]],
                  store: Any = None) -> CampaignResult:
        """Execute explicit (scenario, seed) cells on one worker pool.

        The general form of :meth:`run` for ragged sweeps — e.g. four
        trial groups with different seed lists scheduled across one
        process pool instead of one pool per group.  ``store`` behaves
        as in :meth:`run`: stored cells are loaded, fresh cells are
        executed and appended as their results arrive (in the
        submitting process — the store never crosses a pool boundary).
        """
        tasks = list(pairs)
        if not tasks:
            raise ScenarioError("no scenario/seed pairs to run")
        try:
            # None keeps the old min(8, cpus) default; "auto" and the
            # REPRO_WORKERS override resolve through the shared
            # parallel-plane resolver like every other entry point.
            count = resolve_workers(self.workers)
        except ValueError as error:
            raise ScenarioError(str(error)) from None
        cells = _CellStore(store, tasks) if store is not None else None

        def plan(missing, pool_size):
            # A serial sweep runs one-cell batches, so every cell is
            # durable as soon as it finishes.
            table, batches = _batch_tasks(
                missing, pool_size if pool_size > 1 else len(missing))
            return (table, self.policy), [
                [(index, seed) for seed in seeds] for index, seeds in batches]

        mapped = run_map(tasks, plan, _execute_batch,
                         keys=cells.keys if cells else None, store=cells,
                         workers=count, executor=self.executor,
                         name="campaign.sweep")
        return CampaignResult(
            runs=mapped.results, wall_clock=mapped.wall_clock,
            workers=mapped.workers, executor=mapped.executor,
            notes=(cells.notes if cells else []) + mapped.notes)

    def run_defended(self,
                     scenarios: AttackScenario | Iterable[AttackScenario],
                     stacks: Iterable[Any],
                     seeds: Iterable[Any] = range(8),
                     include_undefended: bool = True,
                     store: Any = None) -> CampaignResult:
        """Sweep a (scenario x defense-stack x seed) grid on one pool.

        ``stacks`` may hold :class:`repro.defenses.DefenseStack`
        objects, single defenses, or names (``"dnssec"``); each becomes
        one column of the grid.  ``include_undefended`` prepends the
        empty stack so every residual reads against its baseline.  The
        result's :meth:`CampaignResult.defense_matrix` then reports
        residual success and residual kill-chain impact per stack —
        bit-identically across the serial/thread/process executors,
        like every other campaign.
        """
        if isinstance(scenarios, AttackScenario):
            scenarios = [scenarios]
        scenarios = list(scenarios)
        if isinstance(stacks, (str, DefenseStack)):
            # A lone "dnssec" must not be iterated character by
            # character (mirrors run()'s single-scenario guard).
            stacks = [stacks]
        resolved = []
        for stack in stacks:
            if isinstance(stack, DefenseStack):
                resolved.append(stack)
            elif isinstance(stack, str):
                # parse() accepts the canonical composite spelling
                # ("dnssec+rpki-rov", "none"), so stack keys read off a
                # defense_matrix() or a ScenarioRun round-trip.
                resolved.append(DefenseStack.parse(stack))
            else:
                resolved.append(DefenseStack.of(stack))
        if not resolved:
            raise ScenarioError("no defense stacks to sweep")
        if include_undefended and not any(not stack for stack in resolved):
            resolved.insert(0, DefenseStack())
        cells = [
            replace(scenario,
                    defenses=stack if stack else None,
                    label=f"{scenario.display_label} vs {stack.key}")
            for scenario in scenarios
            for stack in resolved
        ]
        return self.run(cells, seeds=seeds, store=store)


class _CellStore:
    """The task map's view of a :class:`repro.store.RunStore`.

    Keys are ``(spec_hash, seed, defense)`` cells, one per task.  Failed
    records don't satisfy a cell: the resume re-executes them, and an
    ok result heals the stored failure in place (see
    ``RunStore.record``).
    """

    def __init__(self, store: Any, tasks: list[tuple[AttackScenario, Any]]):
        # Imported here: the store schema imports the scenario spec, so
        # a top-level import would cycle through the package.
        from repro.store.db import RunStore
        from repro.store.schema import (scenario_spec_hash, seed_key,
                                        workload_spec_hash)

        self.store = RunStore.open(store)
        self.notes: list[str] = []
        self.workload_hashes: dict[str, str] = {}
        spec_hashes: dict[int, str] = {}
        self.keys = []
        for scenario, seed in tasks:
            spec_hash = spec_hashes.get(id(scenario))
            if spec_hash is None:
                spec_hash = spec_hashes[id(scenario)] = \
                    scenario_spec_hash(scenario)
                self.workload_hashes[spec_hash] = \
                    workload_spec_hash(scenario.workload)
            self.keys.append((spec_hash, seed_key(seed),
                              scenario.defense_key))

    def load(self, keys: list[tuple[str, str, str]]
             ) -> dict[tuple[str, str, str], ScenarioRun]:
        stored = self.store.load_cells(self.workload_hashes)
        records = [(key, stored[key]) for key in keys if key in stored]
        found = {key: record.to_run() for key, record in records
                 if not record.failed}
        requeued = sum(1 for _key, record in records if record.failed)
        if len(records) > requeued:
            self.notes.append(f"store: {len(records) - requeued}/"
                              f"{len(keys)} cells loaded from "
                              f"{self.store.path}")
        if requeued:
            self.notes.append(f"store: {requeued} failed cells re-queued")
        return found

    def record_many(self, results: list[tuple[tuple[str, str, str],
                                              ScenarioRun]]) -> None:
        from repro.store.schema import RunRecord

        self.store.record_many([
            RunRecord.from_run(run, spec_hash=key[0],
                               workload_hash=self.workload_hashes[key[0]])
            for key, run in results])
