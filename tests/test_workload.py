"""Tests for repro.workload: determinism, replay, scenario integration.

The load-bearing properties:

* synthesis is bit-identical per seed (and differs across seeds);
* JSONL traces round-trip exactly;
* a qps=0 workload reproduces the idle-world attack bit-for-bit;
* loaded campaigns are bit-identical across all three executors.
"""

import io
import json

import pytest

from repro.core.errors import ScenarioError
from repro.core.rng import DeterministicRNG
from repro.scenario.campaign import Campaign
from repro.scenario.spec import AttackScenario
from repro.workload import (
    LoadReport,
    MixSampler,
    QueryTrace,
    TraceQuery,
    WorkloadEngine,
    WorkloadSpec,
    synthesize_trace,
    zipf_weights,
)

VICTIM = "vict.im"


def small_spec(**overrides) -> WorkloadSpec:
    defaults = dict(clients=4, qps=20.0, duration=8.0, warmup=2.0,
                    domains=10, victim_ttl=6)
    defaults.update(overrides)
    return WorkloadSpec(**defaults)


class TestPopulation:
    def test_zipf_weights_decrease(self):
        weights = zipf_weights(10, 1.1)
        assert weights == sorted(weights, reverse=True)
        assert weights[0] == 1.0

    def test_mix_sampler_covers_all_indices(self):
        sampler = MixSampler([0.5, 0.3, 0.2])
        rng = DeterministicRNG("mix")
        drawn = {sampler.sample(rng) for _ in range(200)}
        assert drawn == {0, 1, 2}

    def test_mix_sampler_rejects_empty_weights(self):
        with pytest.raises(ScenarioError):
            MixSampler([0.0, 0.0])

    def test_catalog_splices_victim_at_rank(self):
        spec = small_spec(victim_rank=3)
        catalog = spec.catalog(VICTIM)
        assert len(catalog) == spec.domains + 1
        assert catalog[3].qname == VICTIM
        assert catalog[3].victim
        assert catalog[3].ttl == 6
        assert sum(1 for e in catalog if e.victim) == 1

    def test_victim_ttl_defaults_to_testbed_ttl(self):
        catalog = small_spec(victim_ttl=None).catalog(VICTIM)
        victim = next(e for e in catalog if e.victim)
        assert victim.ttl == 300

    def test_spec_validation(self):
        with pytest.raises(ScenarioError):
            WorkloadSpec(clients=0)
        with pytest.raises(ScenarioError):
            WorkloadSpec(qps=-1.0)
        with pytest.raises(ScenarioError):
            WorkloadSpec(duration=0.0)
        with pytest.raises(ScenarioError):
            WorkloadSpec(qtype_mix=())

    def test_with_qps_relabels(self):
        spec = small_spec().with_qps(40.0)
        assert spec.qps == 40.0
        assert "40" in spec.label


class TestSynthesis:
    def test_bit_identical_per_seed(self):
        spec = small_spec()
        first = synthesize_trace(
            spec, DeterministicRNG(7).derive("workload"), VICTIM)
        second = synthesize_trace(
            spec, DeterministicRNG(7).derive("workload"), VICTIM)
        assert first.checksum() == second.checksum()
        assert first == second

    def test_seeds_differ(self):
        spec = small_spec()
        a = synthesize_trace(spec, DeterministicRNG(1).derive("w"), VICTIM)
        b = synthesize_trace(spec, DeterministicRNG(2).derive("w"), VICTIM)
        assert a.checksum() != b.checksum()

    def test_arrivals_sorted_and_bounded(self):
        spec = small_spec()
        trace = synthesize_trace(
            spec, DeterministicRNG(0).derive("w"), VICTIM)
        times = [q.at for q in trace]
        assert times == sorted(times)
        assert all(0 <= t < spec.horizon for t in times)

    def test_adding_a_client_preserves_other_streams(self):
        """Client streams derive independently: client 0's queries are
        identical whether the population has 4 clients or 5."""
        rng = DeterministicRNG(5).derive("workload")
        small = synthesize_trace(small_spec(clients=4, qps=16.0),
                                 rng, VICTIM)
        # qps scales with clients so the per-client rate stays equal.
        large = synthesize_trace(small_spec(clients=5, qps=20.0),
                                 rng, VICTIM)
        zero_small = [q for q in small if q.client == 0]
        zero_large = [q for q in large if q.client == 0]
        assert zero_small == zero_large

    def test_qps_zero_is_empty(self):
        trace = synthesize_trace(small_spec(qps=0.0),
                                 DeterministicRNG(0).derive("w"), VICTIM)
        assert len(trace) == 0
        assert not trace

    def test_victim_queries_present(self):
        trace = synthesize_trace(small_spec(qps=60.0, duration=20.0),
                                 DeterministicRNG(0).derive("w"), VICTIM)
        assert VICTIM in trace.qnames()


class TestTraceJsonl:
    def test_round_trip_exact(self, tmp_path):
        spec = small_spec()
        trace = synthesize_trace(
            spec, DeterministicRNG(3).derive("w"), VICTIM)
        path = tmp_path / "trace.jsonl"
        trace.write(path)
        back = QueryTrace.read(path)
        assert back == trace
        assert back.checksum() == trace.checksum()
        # write -> read -> write is byte-stable.
        second = tmp_path / "again.jsonl"
        back.write(second)
        assert path.read_bytes() == second.read_bytes()

    def test_stream_round_trip(self):
        trace = QueryTrace([
            TraceQuery(at=0.5, client=1, qname="a.bg", qtype="A"),
            TraceQuery(at=0.25, client=0, qname="b.bg", qtype="AAAA"),
        ])
        buffer = io.StringIO()
        trace.write(buffer)
        buffer.seek(0)
        back = QueryTrace.read(buffer)
        assert back == trace

    def test_queries_sorted_on_ingest(self):
        trace = QueryTrace([
            TraceQuery(at=2.0, client=0, qname="a.bg"),
            TraceQuery(at=1.0, client=1, qname="b.bg"),
        ])
        assert [q.at for q in trace] == [1.0, 2.0]

    def test_malformed_line_rejected(self):
        with pytest.raises(ScenarioError):
            QueryTrace.read(io.StringIO('{"at": "not-a-mapping-key"}\n'))
        with pytest.raises(ScenarioError):
            QueryTrace.read(io.StringIO("not json at all\n"))

    def test_comments_and_blanks_skipped(self):
        text = ('# a comment\n\n'
                '{"at": 1.0, "client": 0, "qname": "x.bg", "qtype": "A"}\n')
        trace = QueryTrace.read(io.StringIO(text))
        assert len(trace) == 1


class TestLoadReport:
    def test_merge_sums_counters(self):
        a = LoadReport(offered=10, answered=9, timeouts=1,
                       window_samples=10, window_absent=4, duration=5.0)
        b = LoadReport(offered=20, answered=20, window_samples=20,
                       window_absent=2, duration=5.0)
        merged = LoadReport.merge([a, b], label="both")
        assert merged.offered == 30
        assert merged.answered == 29
        assert merged.timeouts == 1
        assert merged.window_fraction == pytest.approx(6 / 30)
        assert merged.duration == 10.0
        assert merged.runs == 2

    def test_percentiles_from_histogram(self):
        report = LoadReport()
        for _ in range(90):
            report.record_latency(15.0)
        for _ in range(10):
            report.record_latency(80.0)
        assert 10.0 <= report.latency_percentile_ms(0.5) <= 20.0
        assert 50.0 <= report.latency_percentile_ms(0.99) <= 100.0
        assert report.latency_percentile_ms(0.0) >= 0.0

    def test_empty_report_defaults(self):
        report = LoadReport()
        assert report.window_fraction == 1.0
        assert report.latency_percentile_ms(0.5) == 0.0
        assert report.answer_rate == 0.0

    def test_json_round_trip_and_checksum(self):
        report = LoadReport(label="x", offered=5, answered=5,
                            window_samples=5, window_absent=1,
                            duration=2.0)
        report.record_latency(12.0)
        back = LoadReport.from_json(report.to_json())
        assert back.to_json() == report.to_json()
        assert back.checksum() == report.checksum()

    def test_describe_renders(self):
        report = LoadReport(label="demo", offered=3, answered=3,
                            window_samples=3, duration=1.0)
        report.record_latency(15.0)
        text = report.describe()
        assert "Load report: demo" in text
        assert "window" in text


class TestEngine:
    def test_empty_trace_is_a_noop(self):
        scenario = AttackScenario("hijack",
                                  workload=small_spec(qps=0.0))
        built = scenario.build(seed=0)
        engine = built.load_engine
        assert isinstance(engine, WorkloadEngine)
        assert not engine.active
        hosts_before = len(built.network.hosts) \
            if hasattr(built.network, "hosts") else None
        now_before = built.network.now
        engine.install()
        engine.begin()
        engine.finish()
        assert built.network.now == now_before
        if hosts_before is not None:
            assert len(built.network.hosts) == hosts_before

    def test_qps_zero_reproduces_idle_world(self):
        for method in ("hijack", "frag"):
            idle = AttackScenario(method).run(seed=3)
            loaded = AttackScenario(
                method, workload=small_spec(qps=0.0)).run(seed=3)
            assert loaded.load_report is None
            assert (loaded.success, loaded.packets_sent,
                    loaded.queries_triggered, loaded.duration,
                    loaded.iterations) == \
                   (idle.success, idle.packets_sent,
                    idle.queries_triggered, idle.duration,
                    idle.iterations)

    def test_loaded_run_measures_the_population(self):
        run = AttackScenario("hijack", workload=small_spec()).run(seed=1)
        report = run.load_report
        assert report is not None
        assert report.offered > 0
        assert report.answered > 0
        assert report.answered + report.timeouts <= report.offered
        assert 0.0 <= report.window_fraction <= 1.0
        assert 0.0 < report.hit_rate <= 1.0
        assert len(report.curve) == 8
        assert sum(p.queries for p in report.curve) == report.offered
        assert report.duration == pytest.approx(8.0)

    def test_loaded_run_is_deterministic(self):
        scenario = AttackScenario("hijack", workload=small_spec())
        first = scenario.run(seed=4)
        second = scenario.run(seed=4)
        assert first.load_report.checksum() == \
            second.load_report.checksum()
        assert first.packets_sent == second.packets_sent

    def test_victim_ttl_override_applied(self):
        scenario = AttackScenario("hijack",
                                  workload=small_spec(victim_ttl=6))
        built = scenario.build(seed=0)
        zone = built.world["target"].zone
        from repro.dns.records import TYPE_A

        ttls = [r.ttl for r in zone.records
                if r.rtype == TYPE_A and r.name == VICTIM]
        assert ttls == [6]

    def test_replayed_trace_drives_the_run(self, tmp_path):
        trace = QueryTrace([
            TraceQuery(at=0.5 + 0.5 * i, client=i % 2, qname="replay.bg")
            for i in range(8)
        ])
        path = tmp_path / "replay.jsonl"
        trace.write(path)
        spec = WorkloadSpec(qps=0.0, warmup=1.0, duration=5.0,
                            trace_path=str(path))
        run = AttackScenario("hijack", workload=spec).run(seed=0)
        report = run.load_report
        assert report is not None
        assert report.offered + report.warmup_queries == 8


class TestLoadedCampaigns:
    def _signature(self, result):
        return [(run.seed, run.success, run.packets_sent,
                 run.queries_triggered, run.duration,
                 run.load_report.checksum() if run.load_report else None)
                for run in result.runs]

    def test_executor_bit_identity(self):
        scenario = AttackScenario("hijack", workload=small_spec())
        seeds = range(3)
        serial = self._signature(
            Campaign(executor="serial").run(scenario, seeds=seeds))
        thread = self._signature(
            Campaign(executor="thread", workers=2).run(scenario,
                                                       seeds=seeds))
        process = self._signature(
            Campaign(executor="process", workers=2).run(scenario,
                                                        seeds=seeds))
        assert serial == thread == process

    def test_campaign_aggregates_load(self):
        scenario = AttackScenario("hijack", workload=small_spec())
        result = Campaign(executor="serial").run(scenario, seeds=range(3))
        assert result.loaded
        merged = result.load_report()
        assert merged is not None
        assert merged.runs == 3
        per_label = result.by_label()["HijackDNS:vict.im"].load
        assert per_label is not None
        assert per_label.offered == merged.offered
        text = result.describe()
        assert "Benign load during the attack" in text

    def test_unloaded_campaign_has_no_load_section(self):
        result = Campaign(executor="serial").run(
            AttackScenario("hijack"), seeds=range(2))
        assert not result.loaded
        assert result.load_report() is None
        assert "Benign load" not in result.describe()


class TestCli:
    def test_synth_inspect_round_trip(self, tmp_path, capsys):
        from repro.workload.cli import main

        out = tmp_path / "t.jsonl"
        assert main(["synth", "--clients", "3", "--qps", "15",
                     "--duration", "4", "--warmup", "1",
                     "--seed", "2", "--out", str(out)]) == 0
        assert out.exists()
        assert main(["inspect", str(out)]) == 0
        captured = capsys.readouterr().out
        assert "checksum" in captured

    def test_replay_and_report(self, tmp_path, capsys):
        from repro.workload.cli import main

        record = tmp_path / "run.json"
        assert main(["replay", "--method", "hijack", "--clients", "3",
                     "--qps", "12", "--duration", "4", "--warmup", "1",
                     "--victim-ttl", "6", "--seed", "1",
                     "--json", str(record)]) == 0
        payload = json.loads(record.read_text())
        assert payload["method"] == "HijackDNS"
        assert payload["load_report"]["offered"] > 0
        capsys.readouterr()
        assert main(["report", str(record)]) == 0
        assert "Load report" in capsys.readouterr().out

    @pytest.mark.parametrize("command, bad", [
        ("synth", ["--clients", "0"]),
        ("synth", ["--clients", "101"]),
        ("synth", ["--domains", "0"]),
        ("synth", ["--victim-ttl", "-5"]),
        ("replay", ["--clients", "-1"]),
        ("synth", ["--victim-rank", "-3"]),
        ("synth", ["--victim-rank", "500"]),
    ])
    def test_bad_counts_are_usage_errors(self, tmp_path, capsys,
                                         command, bad):
        from repro.workload.cli import main

        out = ["--out", str(tmp_path / "t.jsonl")] \
            if command == "synth" else []
        with pytest.raises(SystemExit) as exit_info:
            main([command, *bad, *out])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        error = err.strip().splitlines()[-1]
        assert "usage:" in err and "error:" in error
        assert bad[0][2:].replace("-", "_") in error
        assert not (tmp_path / "t.jsonl").exists()
