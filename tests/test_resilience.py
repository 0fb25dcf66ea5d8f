"""Execution-plane resilience: watchdog, run policy, degrading sweeps.

The contract under test: with a :class:`RunPolicy`, a raising or
runaway cell becomes a *recorded failed run* — the sweep finishes, the
store keeps the failure, and a resume re-executes only failed/missing
cells.  Without one, the old fail-fast behaviour survives, but
parallel executors still persist every chunk completed before the
error surfaced.
"""

import dataclasses
import pickle
import sqlite3
import threading

import pytest

from repro.core.clock import Scheduler
from repro.core.errors import BudgetExceededError
from repro.faults import (
    ChaosError,
    ChaosStore,
    FaultPlan,
    FlakyError,
    RunPolicy,
    execute_cell,
    parse_chaos_schedule,
    reset_flaky_attempts,
    should_fail,
)
from repro.scenario.campaign import Campaign
from repro.scenario.spec import AttackScenario
from repro.store.db import RunStore, retry_locked
from repro.store.schema import RunRecord


@pytest.fixture(autouse=True)
def _fresh_flaky_state():
    reset_flaky_attempts()
    yield
    reset_flaky_attempts()


def noop():
    pass


class TestSchedulerWatchdog:
    def fill(self, scheduler, events=10):
        for index in range(events):
            scheduler.schedule(index * 0.001, noop)

    def test_event_budget_trips(self):
        scheduler = Scheduler()
        self.fill(scheduler)
        scheduler.arm_budget(max_events=3)
        with pytest.raises(BudgetExceededError, match="event budget"):
            scheduler.run_until_idle()
        # The lifetime counter still folds in the partial loop: the
        # budget tripped on the fourth event.
        assert scheduler.executed == 4

    def test_run_until_is_guarded_too(self):
        scheduler = Scheduler()
        self.fill(scheduler)
        scheduler.arm_budget(max_events=3)
        with pytest.raises(BudgetExceededError):
            scheduler.run_until(1.0)

    def test_wall_budget_trips(self):
        scheduler = Scheduler()
        self.fill(scheduler, events=1)
        scheduler.arm_budget(max_wall=0.0)
        with pytest.raises(BudgetExceededError, match="wall budget"):
            scheduler.run_next()

    def test_budget_counts_from_now(self):
        scheduler = Scheduler()
        self.fill(scheduler, events=3)
        scheduler.run_until_idle()
        assert scheduler.executed == 3
        # Re-arming after work budgets *further* events, not lifetime.
        scheduler.arm_budget(max_events=5)
        self.fill(scheduler, events=5)
        assert scheduler.run_until_idle() == 5

    def test_rearm_without_arguments_disarms(self):
        scheduler = Scheduler()
        scheduler.arm_budget(max_events=1, max_wall=0.0)
        scheduler.arm_budget()
        self.fill(scheduler)
        assert scheduler.run_until_idle() == 10


class TestRunPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RunPolicy(retries=-1)
        with pytest.raises(ValueError):
            RunPolicy(backoff=-0.1)

    def test_pickles(self):
        policy = RunPolicy(max_events=100, max_wall=2.0, retries=3)
        assert pickle.loads(pickle.dumps(policy)) == policy

    def crashing(self, seed=0):
        return AttackScenario(method="HijackDNS", label="cell",
                              faults=FaultPlan(crash_seeds=(seed,)))

    def test_no_policy_propagates(self):
        with pytest.raises(ChaosError):
            execute_cell(self.crashing(), 0, None)

    def test_crash_becomes_recorded_failure(self):
        run = execute_cell(self.crashing(), 0, RunPolicy())
        assert run.failed
        assert run.status == "failed"
        assert run.error.startswith("ChaosError")
        assert not run.success
        assert run.packets_sent == 0

    def test_retries_heal_transient_failures(self):
        scenario = AttackScenario(method="HijackDNS", label="cell",
                                  faults=FaultPlan(flaky_seeds=(0,)))
        run = execute_cell(scenario, 0,
                           RunPolicy(retries=2, backoff=0.0))
        assert not run.failed
        # The healed run is the clean run: transient chaos fires before
        # the world builds, so the retry replays the same bits.
        clean = AttackScenario(method="HijackDNS", label="cell").run(seed=0)
        assert run.result == clean.result

    def test_transients_without_retries_are_recorded(self):
        scenario = AttackScenario(method="HijackDNS", label="cell",
                                  faults=FaultPlan(flaky_seeds=(0,)))
        run = execute_cell(scenario, 0, RunPolicy(retries=0))
        assert run.failed
        assert run.error.startswith("FlakyError")

    def test_transients_beyond_the_retry_budget_fail(self):
        scenario = AttackScenario(
            method="HijackDNS", label="cell",
            faults=FaultPlan(flaky_seeds=(0,), flaky_failures=5))
        run = execute_cell(scenario, 0,
                           RunPolicy(retries=2, backoff=0.0))
        assert run.failed

    def test_event_budget_failure_is_recorded(self):
        scenario = AttackScenario(method="HijackDNS", label="cell")
        run = execute_cell(scenario, 0, RunPolicy(max_events=3))
        assert run.failed
        assert "BudgetExceededError" in run.error

    def test_generous_budget_leaves_the_run_untouched(self):
        scenario = AttackScenario(method="HijackDNS", label="cell")
        clean = scenario.run(seed=0)
        run = execute_cell(scenario, 0,
                           RunPolicy(max_events=50_000_000,
                                     max_wall=600.0))
        assert run.result == clean.result


def grid_scenario():
    return AttackScenario(method="HijackDNS", label="grid",
                          faults=FaultPlan(crash_seeds=(4,)))


class TestCampaignDegradation:
    @pytest.mark.parametrize("executor", ["serial", "thread", "process"])
    def test_poisoned_cell_degrades_gracefully(self, executor, tmp_path):
        db = tmp_path / "grid.db"
        result = Campaign(executor=executor, workers=2,
                          policy=RunPolicy(backoff=0.0)).run(
            grid_scenario(), seeds=range(9), store=db)
        assert len(result.runs) == 9
        assert result.failures == 1
        (failed,) = result.failed_runs()
        assert failed.seed == 4
        assert failed.error.startswith("ChaosError")
        store = RunStore(db)
        assert store.count() == 9
        assert store.count(status="failed") == 1

    def test_resume_requeues_only_the_failed_cell(self, tmp_path):
        db = tmp_path / "grid.db"
        campaign = Campaign(executor="serial",
                            policy=RunPolicy(backoff=0.0))
        first = campaign.run(grid_scenario(), seeds=range(9), store=db)
        assert first.failures == 1
        resumed = campaign.run(grid_scenario(), seeds=range(9), store=db)
        assert any("8/9 cells loaded" in note for note in resumed.notes)
        assert any("1 failed cells re-queued" in note
                   for note in resumed.notes)
        # The crash seed is terminal chaos: the re-run fails again, and
        # the healthy cells aggregate bit-identically from the store.
        assert resumed.failures == 1
        ok_first = [run.result for run in first.runs if not run.failed]
        ok_resumed = [run.result for run in resumed.runs if not run.failed]
        assert ok_resumed == ok_first

    def test_healed_record_satisfies_the_resume(self, tmp_path):
        db = tmp_path / "grid.db"
        campaign = Campaign(executor="serial",
                            policy=RunPolicy(backoff=0.0))
        campaign.run(grid_scenario(), seeds=range(9), store=db)
        store = RunStore(db)
        (failed,) = list(store.iter_records(status="failed"))
        healed = dataclasses.replace(
            failed, status="ok", error="",
            stats={**failed.stats, "error": ""})
        # An ok record heals a failed one in place — the single
        # exception to the store's first-wins append-only rule.
        assert store.record(healed)
        assert store.count(status="failed") == 0
        resumed = campaign.run(grid_scenario(), seeds=range(9), store=db)
        assert any("9/9 cells loaded" in note for note in resumed.notes)
        assert resumed.failures == 0

    def test_ok_record_is_never_overwritten(self, tmp_path):
        db = tmp_path / "grid.db"
        campaign = Campaign(executor="serial")
        campaign.run(AttackScenario(method="HijackDNS", label="grid"),
                     seeds=[0], store=db)
        store = RunStore(db)
        (record,) = list(store.iter_records())
        clobber = dataclasses.replace(record, status="failed",
                                      error="late failure")
        assert not store.record(clobber)
        assert store.count(status="failed") == 0

    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_without_policy_completed_chunks_still_persist(
            self, executor, tmp_path):
        db = tmp_path / "grid.db"
        with pytest.raises(ChaosError):
            Campaign(executor=executor, workers=2).run(
                grid_scenario(), seeds=range(9), store=db)
        store = RunStore(db)
        # Completed cells stream into the store the moment their chunk
        # finishes.  The serial loop stops exactly at the poisoned
        # seed; the work-stealing pool may drain a few chunks past it
        # before the error surfaces — strictly *more* durable work,
        # never a failed record — and a resume recomputes only the
        # genuinely missing cells.
        count = store.count()
        if executor == "serial":
            assert count == 4
        else:
            assert 0 < count < 9
        assert store.count(status="failed") == 0
        resumed = Campaign(executor=executor, workers=2,
                           policy=RunPolicy(backoff=0.0)).run(
            grid_scenario(), seeds=range(9), store=db)
        assert any(f"{count}/9 cells loaded" in note
                   for note in resumed.notes)
        assert resumed.failures == 1

    def test_executors_agree_on_degraded_grids(self, tmp_path):
        policy = RunPolicy(backoff=0.0)
        serial = Campaign(executor="serial", policy=policy).run(
            grid_scenario(), seeds=range(6))
        threaded = Campaign(executor="thread", workers=2,
                            policy=policy).run(
            grid_scenario(), seeds=range(6))
        assert [run.result for run in serial.runs] == \
            [run.result for run in threaded.runs]
        assert [run.error for run in serial.runs] == \
            [run.error for run in threaded.runs]


def make_record(index):
    return RunRecord(
        spec_hash=f"hash-{index % 4}", seed=str(index), defense="",
        method="HijackDNS", label="retry", workload_hash="", app=None,
        success=False, packets_sent=0, queries_triggered=0,
        duration=0.0, impact_realized=None, load_checksum=None,
        wall_time=0.0, stats={}, created=1.0)


class TestStoreRetry:
    def test_retry_locked_heals_contention(self):
        failures = iter([True, True])
        retried = []

        def flaky():
            if next(failures, False):
                raise sqlite3.OperationalError("database is locked")
            return 42

        assert retry_locked(flaky, backoff=0.0,
                            on_retry=lambda: retried.append(1)) == 42
        assert len(retried) == 2

    def test_non_busy_errors_propagate_immediately(self):
        calls = []

        def broken():
            calls.append(1)
            raise sqlite3.OperationalError("no such table: runs")

        with pytest.raises(sqlite3.OperationalError):
            retry_locked(broken, backoff=0.0)
        assert len(calls) == 1

    def test_exhausted_retries_surface_the_lock(self):
        def locked():
            raise sqlite3.OperationalError("database is locked")

        with pytest.raises(sqlite3.OperationalError):
            retry_locked(locked, attempts=3, backoff=0.0)

    def test_chaos_store_injects_on_schedule(self, tmp_path):
        store = RunStore(tmp_path / "chaos.db")
        chaos = ChaosStore(store, fail_writes=(2,))
        assert chaos.record(make_record(0))
        with pytest.raises(sqlite3.OperationalError, match="injected"):
            chaos.record(make_record(1))
        assert chaos.injected_failures == 1
        # A retried attempt gets a fresh ordinal and lands — the shape
        # of real WAL contention the store retry loop absorbs.
        assert retry_locked(lambda: chaos.record(make_record(1)),
                            backoff=0.0)
        assert chaos.write_attempts == 3
        assert store.count() == 2

    def test_chaos_store_delegates_reads(self, tmp_path):
        store = RunStore(tmp_path / "chaos.db")
        chaos = ChaosStore(store, fail_writes=())
        chaos.record(make_record(0))
        assert chaos.count() == 1
        assert chaos.path == store.path

    def test_concurrent_writers_all_land(self, tmp_path):
        store = RunStore(tmp_path / "many.db")
        per_thread, threads = 20, 8
        errors = []

        def write(base):
            try:
                for offset in range(per_thread):
                    store.record(make_record(base * per_thread + offset))
            except Exception as exc:  # pragma: no cover - fail loudly
                errors.append(exc)

        pool = [threading.Thread(target=write, args=(index,))
                for index in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        assert not errors
        assert store.count() == per_thread * threads

    def test_busy_retries_survive_in_store_meta(self, tmp_path):
        path = tmp_path / "meta.db"
        store = RunStore(path)
        store.record(make_record(0))
        assert store.total_busy_retries() == 0
        store._note_busy_retry()
        store._flush_busy_retries(store._connect())
        assert store.total_busy_retries() == 1
        # The counter is durable: a second handle on the same file sees
        # it, so `repro.store inspect` reports contention after the fact.
        assert RunStore(path).total_busy_retries() == 1


class TestChaosHelpers:
    def test_parse_schedule(self):
        assert parse_chaos_schedule("job:2") == ("job", 2)
        assert parse_chaos_schedule(" write : 1 ".replace(" ", "")) == \
            ("write", 1)
        assert parse_chaos_schedule(None) is None
        assert parse_chaos_schedule("") is None

    @pytest.mark.parametrize("text", ["job", "job:", ":2", "job:zero",
                                      "job:0", "job:-1"])
    def test_bad_schedules_rejected(self, text):
        with pytest.raises(ValueError):
            parse_chaos_schedule(text)

    def test_should_fail(self):
        schedule = parse_chaos_schedule("job:2")
        assert should_fail(schedule, "job", 2)
        assert not should_fail(schedule, "job", 1)
        assert not should_fail(schedule, "write", 2)
        assert not should_fail(None, "job", 2)
