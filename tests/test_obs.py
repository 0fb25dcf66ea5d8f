"""Tests for the repro.obs observability plane.

The plane's whole contract is *zero cost when off, mergeable when on*:
disabled runs must stay bit-identical to the uninstrumented code, and
enabled runs must fold per-worker metric/span deltas into one coherent
registry regardless of executor.  These tests pin both halves, plus
the Prometheus exposition, the /metrics endpoint and the obs CLI.
"""

import hashlib
import json
import re
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro import obs
from repro.obs import OBS
from repro.obs.export import (
    diff_snapshots,
    load_snapshot,
    render_prometheus,
    snapshot,
    write_snapshot,
)
from repro.obs.metrics import (
    DEFAULT_EDGES_MS,
    MetricsRegistry,
    interpolated_percentile,
)
from repro.obs.profile import observe_scheduler, stage
from repro.obs.spans import SpanLog, load_trace, walk_tree
from repro.scenario import AttackScenario, Campaign, sweep_scenarios


@pytest.fixture()
def obs_on():
    """The plane enabled with a clean registry, always reset after."""
    obs.disable()
    obs.reset()
    obs.enable()
    yield OBS
    obs.disable()
    obs.reset()


@pytest.fixture()
def obs_off():
    """The plane explicitly disabled (the default), reset after."""
    obs.disable()
    obs.reset()
    yield OBS
    obs.disable()
    obs.reset()


def sweep_checksum(result) -> str:
    flat = [(run.label, run.seed, run.success, run.packets_sent,
             run.queries_triggered, run.duration) for run in result.runs]
    return hashlib.sha256(repr(flat).encode()).hexdigest()


# -- registry -----------------------------------------------------------------

class TestRegistry:
    def test_counter_identity_and_monotonicity(self):
        registry = MetricsRegistry()
        a = registry.counter("cells", method="hijack")
        b = registry.counter("cells", method="hijack")
        assert a is b
        a.inc()
        a.inc(3)
        assert registry.value("cells", method="hijack") == 4
        with pytest.raises(ValueError):
            a.inc(-1)

    def test_label_order_is_not_identity(self):
        registry = MetricsRegistry()
        a = registry.counter("x", alpha="1", beta="2")
        b = registry.counter("x", beta="2", alpha="1")
        assert a is b

    def test_gauge_and_histogram(self):
        registry = MetricsRegistry()
        registry.gauge("depth").set(7)
        assert registry.value("depth") == 7
        histogram = registry.histogram("lat")
        for value in (0.5, 3.0, 3.0, 40.0):
            histogram.observe(value)
        assert histogram.count == 4
        assert histogram.sum == pytest.approx(46.5)
        assert 2.0 <= histogram.percentile(0.5) <= 5.0
        # value() reports a histogram's observation count.
        assert registry.value("lat") == 4

    def test_histogram_rejects_unsorted_edges(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.histogram("bad", edges=(5.0, 1.0))

    def test_value_unknown_is_none(self):
        assert MetricsRegistry().value("never") is None

    def test_checksum_is_content_addressed(self):
        first, second = MetricsRegistry(), MetricsRegistry()
        empty = first.checksum()
        first.counter("a").inc()
        second.counter("a").inc()
        assert first.checksum() == second.checksum() != empty


class TestPercentiles:
    def test_matches_workload_edges(self):
        from repro.workload.report import LATENCY_EDGES_MS

        assert tuple(LATENCY_EDGES_MS) == tuple(DEFAULT_EDGES_MS)

    def test_interpolation_contract(self):
        edges = (10.0, 20.0, 50.0)
        assert interpolated_percentile((0, 0, 0, 0), edges, 0.5) == 0.0
        # All mass in the 10-20ms bin: the median interpolates inside it.
        assert 10.0 <= interpolated_percentile((0, 4, 0, 0), edges,
                                               0.5) <= 20.0
        # The open last bin reports its lower edge, never infinity.
        assert interpolated_percentile((0, 0, 0, 3), edges,
                                       0.99) == pytest.approx(50.0)


class TestMergeSemantics:
    def _registry(self, counter: int, gauge: float,
                  values=()) -> MetricsRegistry:
        registry = MetricsRegistry()
        registry.counter("runs", kind="x").inc(counter)
        registry.gauge("depth").set(gauge)
        histogram = registry.histogram("lat")
        for value in values:
            histogram.observe(value)
        return registry

    def test_counters_sum_gauges_max_histograms_fold(self):
        left = self._registry(2, 5.0, (1.0, 100.0))
        right = self._registry(3, 9.0, (7.0,))
        left.merge_json(right.to_json())
        assert left.value("runs", kind="x") == 5
        assert left.value("depth") == 9.0
        histogram = left.histogram("lat")
        assert histogram.count == 3
        assert histogram.sum == pytest.approx(108.0)

    def test_merge_is_associative(self):
        parts = [self._registry(n, float(n), (float(n),))
                 for n in (1, 2, 3)]
        snapshots = [part.to_json() for part in parts]
        left = MetricsRegistry.merged(snapshots[:2])
        left.merge_json(snapshots[2])
        right = MetricsRegistry.merged(snapshots[1:])
        lone = MetricsRegistry.merged(snapshots[:1])
        lone.merge_json(right.to_json())
        assert left.checksum() == lone.checksum()

    def test_merge_is_commutative(self):
        a = self._registry(1, 3.0, (2.0,)).to_json()
        b = self._registry(4, 1.0, (90.0,)).to_json()
        assert MetricsRegistry.merged([a, b]).checksum() == \
            MetricsRegistry.merged([b, a]).checksum()

    def test_flush_snapshots_and_clears(self):
        registry = self._registry(2, 1.0)
        payload = registry.flush()
        assert payload["counters"]
        assert len(registry) == 0
        # A second flush reports nothing: reused pool workers cannot
        # double-count what they already shipped.
        assert registry.flush() == MetricsRegistry().to_json()


# -- spans --------------------------------------------------------------------

class TestSpans:
    def test_nesting_follows_the_thread_stack(self):
        log = SpanLog()
        outer = log.start("outer")
        inner = log.start("inner")
        assert inner.parent_id == outer.span_id
        assert inner.trace_id == outer.trace_id
        log.finish(inner)
        log.finish(outer)
        spans = log.spans()
        # Spans land in finish order: innermost completes first.
        assert [span.name for span in spans] == ["inner", "outer"]
        assert all(span.end >= span.start for span in spans)

    def test_ambient_parent_backstops_fresh_threads(self):
        log = SpanLog()
        root = log.start("root")
        log.ambient_parent = root.span_id
        seen = []

        def worker():
            span = log.start("child")
            log.finish(span)
            seen.append(span)

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        assert seen[0].parent_id == root.span_id

    def test_adopted_context_parents_remote_spans(self):
        parent_log = SpanLog()
        root = parent_log.start("sweep")
        worker_log = SpanLog()
        worker_log.adopt(root.trace_id, root.span_id)
        remote = worker_log.start("cell")
        worker_log.finish(remote)
        assert remote.trace_id == root.trace_id
        assert remote.parent_id == root.span_id

    def test_flush_round_trips_through_json(self):
        log = SpanLog()
        span = log.start("stage", shard=3)
        log.finish(span, entities=10)
        payloads = log.flush()
        assert not log.spans()
        sink = SpanLog()
        sink.extend_json(payloads)
        (copy,) = sink.spans()
        assert copy.name == "stage"
        assert copy.attrs == {"shard": 3, "entities": 10}

    def test_export_and_walk(self, tmp_path):
        log = SpanLog()
        outer = log.start("outer")
        log.finish(log.start("inner"))
        log.finish(outer)
        path = tmp_path / "trace.jsonl"
        assert log.export_jsonl(path) == 2
        spans = load_trace(path)
        walked = list(walk_tree(spans))
        assert [(depth, span.name) for depth, span in walked] == \
            [(0, "outer"), (1, "inner")]


# -- gating -------------------------------------------------------------------

class TestGating:
    def test_disabled_by_default_and_null_span(self, obs_off):
        assert not obs.enabled()
        with OBS.span("anything", attr=1) as span:
            pass
        assert span is not None
        assert not OBS.spans.spans()
        assert OBS.worker_context() is None

    def test_enable_disable_round_trip(self, obs_off):
        obs.enable()
        assert obs.enabled()
        with OBS.span("real"):
            pass
        assert len(OBS.spans.spans()) == 1
        obs.disable()
        assert not obs.enabled()

    def test_stage_timer_measures_even_when_disabled(self, obs_off):
        with stage("quiet") as timer:
            pass
        assert timer.elapsed >= 0.0
        assert len(OBS.registry) == 0

    def test_stage_timer_records_when_enabled(self, obs_on):
        with stage("loud", unit="test"):
            pass
        assert OBS.registry.value("stage.runs_total", stage="loud",
                                  unit="test") == 1
        assert OBS.registry.value("stage.wall_ms", stage="loud",
                                  unit="test") == 1

    def test_stage_timer_counts_errors(self, obs_on):
        with pytest.raises(RuntimeError):
            with stage("boom"):
                raise RuntimeError("bang")
        assert OBS.registry.value("stage.errors_total",
                                  stage="boom") == 1

    def test_observe_scheduler(self, obs_on):
        from repro.core.clock import Scheduler

        scheduler = Scheduler()
        fired = []
        for i in range(5):
            scheduler.schedule(float(i), lambda: fired.append(1))
        scheduler.run_until_idle(max_events=10)
        observe_scheduler(scheduler, wall_time=0.01)
        assert OBS.registry.value("sim.events_total") == 5
        assert OBS.registry.value("sim.queue_depth") == 0


# -- bit-identity across executors --------------------------------------------

class TestBitIdentity:
    def _sweep(self, executor: str, workers=None) -> str:
        campaign = Campaign(executor=executor, workers=workers)
        result = campaign.run(sweep_scenarios(), seeds=range(2))
        return sweep_checksum(result)

    def test_enabling_obs_never_changes_statistics(self, obs_off):
        reference = self._sweep("serial")
        obs.enable()
        try:
            assert self._sweep("serial") == reference
            assert self._sweep("thread", workers=2) == reference
            assert self._sweep("process", workers=2) == reference
        finally:
            obs.disable()

    def test_instrumented_sweep_counts_every_cell(self, obs_on):
        result = Campaign(executor="serial").run(sweep_scenarios(),
                                                 seeds=range(2))
        registry = OBS.registry
        total = sum(metric.value for metric in registry.metrics()
                    if metric.name == "campaign.cells_total")
        assert total == len(result.runs) == 6
        assert registry.value("campaign.sweeps_total") == 1

    def test_process_pool_merges_fleet_wide_counters(self, obs_on):
        result = Campaign(executor="process", workers=2).run(
            sweep_scenarios(), seeds=range(2))
        total = sum(metric.value for metric in OBS.registry.metrics()
                    if metric.name == "campaign.cells_total")
        assert total == len(result.runs) == 6

    def test_forked_workers_report_only_their_own_work(self, obs_on):
        # A forked worker starts with a copy of the coordinator's
        # registry; its deltas must not send those counts back.
        Campaign(executor="process", workers=2).run(
            sweep_scenarios(), seeds=range(2))
        assert OBS.registry.value("campaign.sweeps_total") == 1


class TestSpanCorrelation:
    def test_process_workers_parent_into_the_sweep(self, obs_on):
        Campaign(executor="process", workers=2).run(
            sweep_scenarios(), seeds=range(2))
        spans = OBS.spans.spans()
        sweeps = [span for span in spans if span.name == "campaign.sweep"]
        batches = [span for span in spans
                   if span.name == "campaign.batch"]
        cells = [span for span in spans if span.name == "campaign.cell"]
        assert len(sweeps) == 1 and batches and len(cells) == 6
        sweep = sweeps[0]
        assert all(batch.parent_id == sweep.span_id for batch in batches)
        batch_ids = {batch.span_id for batch in batches}
        assert all(cell.parent_id in batch_ids for cell in cells)
        assert {span.trace_id for span in spans} == {sweep.trace_id}
        # Worker spans carry the worker pid in their ids; at least one
        # cell ran outside the coordinator process.
        coordinator = sweep.span_id.split(".")[0]
        assert any(cell.span_id.split(".")[0] != coordinator
                   for cell in cells)


# -- exposition ---------------------------------------------------------------

EXPOSITION_LINE = re.compile(
    r"^(# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]*.*"
    r"|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? [0-9.eE+-]+(inf)?)$")


class TestExport:
    def _registry(self) -> MetricsRegistry:
        registry = MetricsRegistry()
        registry.counter("campaign.cells_total", method="HijackDNS").inc(4)
        registry.gauge("serve.queue_depth").set(2)
        registry.histogram("stage.wall_ms",
                           edges=(1.0, 10.0)).observe(3.0)
        return registry

    def test_every_line_is_valid_exposition(self):
        text = render_prometheus(self._registry())
        for line in text.splitlines():
            assert EXPOSITION_LINE.match(line), line
        assert 'repro_campaign_cells_total{method="HijackDNS"} 4' in text
        assert "repro_stage_wall_ms_bucket" in text
        assert 'le="+Inf"' in text
        assert "repro_stage_wall_ms_count 1" in text

    def test_histogram_buckets_are_cumulative(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h", edges=(1.0, 10.0))
        for value in (0.5, 5.0, 50.0):
            histogram.observe(value)
        text = render_prometheus(registry)
        assert 'repro_h_bucket{le="1"} 1' in text
        assert 'repro_h_bucket{le="10"} 2' in text
        assert 'repro_h_bucket{le="+Inf"} 3' in text

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry()
        registry.counter("odd", path='a"b\\c\nd').inc()
        text = render_prometheus(registry)
        assert 'path="a\\"b\\\\c\\nd"' in text

    def test_snapshot_round_trip_and_diff(self, tmp_path):
        registry = self._registry()
        path = tmp_path / "snap.json"
        write_snapshot(path, registry)
        loaded = load_snapshot(path)
        assert loaded["schema"] == "obs-snapshot/1"
        assert loaded["checksum"] == registry.checksum()
        registry.counter("campaign.cells_total",
                         method="HijackDNS").inc(2)
        after = snapshot(registry)
        delta = diff_snapshots(loaded, after)
        key = 'campaign.cells_total{method="HijackDNS"}'
        assert delta[key] == 2


# -- the /metrics endpoint ----------------------------------------------------

def http_get(url: str):
    try:
        with urllib.request.urlopen(url, timeout=30) as response:
            return (response.status, response.read(),
                    response.headers.get("Content-Type", ""))
    except urllib.error.HTTPError as error:
        return error.code, error.read(), ""


@pytest.fixture()
def served(tmp_path):
    from repro.serve import JobService, make_server

    service = JobService(tmp_path / "serve.db", workers=1)
    server = make_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    yield service, f"http://{host}:{port}"
    server.shutdown()
    service.shutdown()


class TestServeMetrics:
    def test_metrics_is_503_while_disabled(self, obs_off, served):
        _service, base = served
        status, body, _ = http_get(base + "/metrics")
        assert status == 503
        assert b"disabled" in body

    def test_prometheus_scrape(self, obs_on, served):
        service, base = served
        job = service.submit({"methods": ["hijack"], "seeds": 2})
        service.wait(job.id, timeout=60)
        status, body, content_type = http_get(base + "/metrics")
        assert status == 200
        assert content_type.startswith("text/plain")
        text = body.decode("utf-8")
        for line in text.splitlines():
            assert EXPOSITION_LINE.match(line), line
        assert "repro_campaign_cells_total" in text
        assert "repro_serve_jobs_total" in text
        assert "repro_serve_queue_depth" in text
        assert "repro_serve_workers_alive 1" in text
        # The scrape itself is counted on a later scrape.  The counter
        # increments in the handler's finally block, microseconds
        # *after* the response body is on the wire — so poll briefly
        # instead of racing that window.
        for _ in range(50):
            status, body, _ = http_get(base + "/metrics")
            if 'route="/metrics"' in body.decode("utf-8"):
                break
            time.sleep(0.02)
        assert 'route="/metrics"' in body.decode("utf-8")

    def test_json_snapshot_scrape(self, obs_on, served):
        _service, base = served
        status, body, content_type = http_get(
            base + "/metrics?format=json")
        assert status == 200
        assert content_type.startswith("application/json")
        payload = json.loads(body)
        assert payload["schema"] == "obs-snapshot/1"
        assert payload["checksum"]

    def test_health_reports_service_vitals(self, obs_off, served):
        _service, base = served
        status, body, _ = http_get(base + "/health")
        assert status == 200
        health = json.loads(body)
        assert health["ok"]
        assert health["queue_depth"] == 0
        assert health["busy_retries"] == 0
        (worker,) = health["worker_status"]
        assert worker["alive"]
        assert worker["state"] in ("starting", "idle", "running")
        assert worker["heartbeat_age"] < 30.0


# -- the obs CLI --------------------------------------------------------------

class TestObsCli:
    def test_snapshot_diff_and_tail(self, tmp_path, capsys, obs_on):
        from repro.obs.cli import main as obs_main

        with OBS.span("outer"):
            with OBS.span("inner", shard=1):
                OBS.counter("demo.events_total").inc(3)

        before = tmp_path / "before.json"
        write_snapshot(before, MetricsRegistry())
        after = tmp_path / "after.json"
        write_snapshot(after, OBS.registry, spans=OBS.spans)
        trace = tmp_path / "trace.jsonl"
        OBS.spans.export_jsonl(trace)

        assert obs_main(["snapshot", "--file", str(after)]) == 0
        out = capsys.readouterr().out
        assert "demo.events_total" in out

        assert obs_main(["diff", str(before), str(after)]) == 0
        out = capsys.readouterr().out
        assert "demo.events_total" in out and "+3" in out

        assert obs_main(["tail", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "outer" in out and "inner" in out
        assert out.index("outer") < out.index("inner")
