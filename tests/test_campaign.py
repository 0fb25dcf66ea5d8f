"""Tests for the parallel multi-seed campaign runner.

The load-bearing property: every executor (serial reference loop,
thread pool, process pool) produces bit-identical runs, because each
seed builds an independent deterministic testbed.
"""

import pytest

from repro.core.errors import ScenarioError
from repro.scenario import (
    AttackScenario,
    Campaign,
    TriggerSpec,
    percentile,
    sweep_scenarios,
)
from repro.scenario.campaign import _batch_tasks


def flatten(result):
    return [(run.label, run.seed, run.success, run.packets_sent,
             run.queries_triggered, run.duration)
            for run in result.runs]


class TestPercentile:
    def test_interpolates(self):
        values = [10, 20, 30, 40]
        assert percentile(values, 0.0) == 10
        assert percentile(values, 1.0) == 40
        assert percentile(values, 0.5) == 25.0

    def test_empty_is_zero(self):
        assert percentile([], 0.9) == 0.0

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            percentile([1], 1.5)


class TestCampaignRun:
    def test_serial_sweep_aggregates(self):
        result = Campaign(executor="serial").run(
            AttackScenario(method="hijack"), seeds=range(4))
        assert len(result.runs) == 4
        assert result.successes == 4
        assert result.success_rate == 1.0
        assert result.executor == "serial"
        summary = result.by_method()["HijackDNS"]
        assert summary.runs == 4
        assert summary.mean_packets == 2
        assert summary.packets_percentile(0.99) == 2
        assert result.packet_percentiles()["p50"] == 2
        assert result.duration_percentiles()["p50"] > 0
        assert "HijackDNS" in result.describe()

    def test_seeds_may_be_strings(self):
        result = Campaign(executor="serial").run(
            AttackScenario(method="hijack"), seeds=["a", "b"])
        assert [run.seed for run in result.runs] == ["a", "b"]
        assert result.success_rate == 1.0

    def test_thread_matches_serial(self):
        scenario = AttackScenario(method="hijack")
        serial = Campaign(executor="serial").run(scenario, seeds=range(4))
        threaded = Campaign(executor="thread", workers=4).run(
            scenario, seeds=range(4))
        assert flatten(threaded) == flatten(serial)

    def test_process_matches_serial(self):
        scenario = AttackScenario(method="frag")
        serial = Campaign(executor="serial").run(scenario, seeds=range(4))
        pooled = Campaign(executor="process", workers=2).run(
            scenario, seeds=range(4))
        assert pooled.executor == "process"
        assert flatten(pooled) == flatten(serial)

    def test_single_worker_degrades_to_serial(self):
        result = Campaign(executor="process", workers=1).run(
            AttackScenario(method="hijack"), seeds=range(2))
        assert result.executor == "serial"

    def test_callable_trigger_falls_back_to_thread(self):
        fired = []
        scenario = AttackScenario(
            method="hijack",
            trigger=TriggerSpec(kind="callable",
                                fn=lambda qname, qtype: fired.append(qname)),
        )
        result = Campaign(executor="process", workers=2).run(
            scenario, seeds=range(2))
        assert result.executor == "thread"
        assert any("not picklable" in note for note in result.notes)
        # The no-op trigger never causes a query, so the hijack idles out.
        assert result.successes == 0
        assert fired  # the callable genuinely fired in-process

    def test_multi_scenario_sweep_groups_by_label(self):
        scenarios = [
            AttackScenario(method="hijack", label="baseline"),
            AttackScenario(method="hijack", label="filtered",
                           capture_possible=False),
        ]
        result = Campaign(executor="serial").run(scenarios, seeds=range(3))
        by_label = result.by_label()
        assert by_label["baseline"].success_rate == 1.0
        assert by_label["filtered"].success_rate == 0.0

    def test_variant_grid_expands_axes(self):
        result = Campaign(executor="serial").run(
            AttackScenario(method="hijack").variants(
                capture_possible=[True, False]),
            seeds=range(2),
        )
        assert len(result.runs) == 4
        assert result.successes == 2

    def test_empty_inputs_raise(self):
        campaign = Campaign(executor="serial")
        with pytest.raises(ScenarioError, match="no seeds"):
            campaign.run(AttackScenario(method="hijack"), seeds=[])
        with pytest.raises(ScenarioError, match="no scenarios"):
            campaign.run([], seeds=range(2))
        with pytest.raises(ScenarioError, match="unknown executor"):
            Campaign(executor="carrier-pigeon")
        with pytest.raises(ScenarioError, match="workers"):
            Campaign(executor="serial", workers=0).run(
                AttackScenario(method="hijack"), seeds=range(2))


class TestBatchedSubmission:
    """The chunked-submission path: one scenario + a seed batch per task."""

    def test_batches_preserve_task_order(self):
        a = AttackScenario(method="hijack", label="a")
        b = AttackScenario(method="hijack", label="b")
        tasks = [(a, seed) for seed in range(8)] \
            + [(b, seed) for seed in range(5)]
        table, batches = _batch_tasks(tasks, workers=2)
        flattened = [(table[index], seed) for index, seeds in batches
                     for seed in seeds]
        assert flattened == tasks

    def test_scenario_shipped_once_per_worker(self):
        scenario = AttackScenario(method="hijack")
        tasks = [(scenario, seed) for seed in range(32)]
        table, batches = _batch_tasks(tasks, workers=2)
        # Old behaviour: one pickled scenario copy per batch.  Now the
        # table holds the single distinct scenario (shipped once, via
        # the worker initializer) and batches reference it by index,
        # while batching still leaves enough tasks to balance.
        assert len(table) == 1 and table[0] is scenario
        assert 1 < len(batches) < len(tasks)
        assert all(index == 0 for index, _seeds in batches)
        assert sum(len(seeds) for _index, seeds in batches) == 32

    def test_interleaved_scenarios_degrade_to_singletons(self):
        a = AttackScenario(method="hijack", label="a")
        b = AttackScenario(method="hijack", label="b")
        tasks = [(a, 0), (b, 0), (a, 1), (b, 1)]
        table, batches = _batch_tasks(tasks, workers=1)
        assert [(table[index], list(seeds))
                for index, seeds in batches] == \
            [(a, [0]), (b, [0]), (a, [1]), (b, [1])]

    def test_ragged_pairs_bit_identical_across_executors(self):
        a = AttackScenario(method="hijack", label="a")
        b = AttackScenario(method="frag", label="b")
        pairs = [(a, seed) for seed in range(3)] \
            + [(b, seed) for seed in range(5)] \
            + [(a, "extra")]
        serial = Campaign(executor="serial").run_pairs(pairs)
        threaded = Campaign(executor="thread", workers=3).run_pairs(pairs)
        pooled = Campaign(executor="process", workers=2).run_pairs(pairs)
        assert flatten(threaded) == flatten(serial)
        assert flatten(pooled) == flatten(serial)


class TestSweepOrdering:
    def test_table6_success_rate_ordering(self):
        # The acceptance sweep in miniature: the budget-capped presets
        # keep the strict hijack > frag > saddns ordering on any seed
        # window wide enough for the probabilistic methods to separate.
        result = Campaign(executor="serial").run(sweep_scenarios(),
                                                 seeds=range(8))
        methods = result.by_method()
        assert methods["HijackDNS"].success_rate == 1.0
        assert methods["HijackDNS"].success_rate \
            > methods["FragDNS"].success_rate \
            > methods["SadDNS"].success_rate
