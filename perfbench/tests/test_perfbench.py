"""Tests for the benchmark's own code.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import hostspeed
import run
import tracing
import workloads
from workloads import PassResult

PERFBENCH = Path(run.__file__).resolve().parent


class FakeClock:
    """Hands out scripted readings to ``tracing._clock``."""

    def __init__(self, monkeypatch, *readings):
        self.readings = list(readings)
        monkeypatch.setattr(tracing, "_clock", self)

    def __call__(self):
        return self.readings.pop(0)


# -- self-time arithmetic -----------------------------------------------------

# Clock reads: two per enter (before and after its bookkeeping), one per
# exit of an outermost span, two per exit of a nested one.

def test_nested_spans_subtract_from_their_parent(monkeypatch):
    FakeClock(monkeypatch, 0.0, 0.0, 1.0, 1.0, 4.0, 4.0, 10.0)
    tracer = tracing.Tracer()
    tracer.enter("netsim")
    tracer.enter("dns", "dns.decode")
    assert tracer.exit() == 3.0
    assert tracer.exit() == 10.0
    assert dict(tracer.layer_self) == {"netsim": 7.0, "dns": 3.0}
    assert tracer.inclusive["dns.decode"] == 3.0
    assert tracer.lost == 0.0


def test_shim_bookkeeping_is_billed_to_no_layer(monkeypatch):
    # The inner span's enter spends 1s and its exit 1s on bookkeeping:
    # its parent is charged 4s for it, the span itself measures 2s.
    FakeClock(monkeypatch, 0.0, 0.0, 1.0, 2.0, 4.0, 5.0, 10.0)
    tracer = tracing.Tracer()
    tracer.enter("attacks", "attacks.flood")
    tracer.enter("netsim")
    tracer.exit()
    tracer.exit()
    assert dict(tracer.layer_self) == {"attacks": 6.0, "netsim": 2.0}
    assert tracer.lost == 2.0
    assert tracer.inclusive["attacks.flood"] == 8.0
    layer, _, inclusive = tracer.discounted(traced_wall=10.0,
                                            untraced_wall=8.0)
    assert layer == {"attacks": 6.0, "netsim": 2.0}
    assert inclusive == {"attacks.flood": 8.0}


def test_reentrant_spans_are_not_double_counted(monkeypatch):
    FakeClock(monkeypatch, 0.0, 0.0, 1.0, 1.0, 3.0, 3.0, 5.0)
    tracer = tracing.Tracer()
    tracer.enter("attacks", "attacks.flood")
    tracer.enter("attacks", "attacks.flood")
    tracer.exit()
    tracer.exit()
    assert tracer.calls["attacks.flood"] == 2
    assert tracer.inclusive["attacks.flood"] == 5.0
    assert tracer.layer_self["attacks"] == 5.0
    assert tracer.key_self["attacks.flood"] == 5.0


def test_discount_takes_the_shim_cost_out_of_the_layers(monkeypatch):
    FakeClock(monkeypatch, 0.0, 0.0, 1.0, 1.0, 4.0, 4.0, 10.0)
    tracer = tracing.Tracer(inside=0.5, outside=1.0)
    tracer.enter("core", "core.run")
    tracer.enter("netsim")
    tracer.exit()
    tracer.exit()
    # Each span costs 0.5s inside itself and 1s in its caller: netsim
    # nets 3 - 0.5, core 7 - 0.5 - 1.  The 8s left are scaled to the
    # 4s untraced wall, so every time halves.
    layer, key, inclusive = tracer.discounted(traced_wall=10.0,
                                              untraced_wall=4.0)
    assert layer == {"netsim": 2.5 / 2, "core": 5.5 / 2}
    assert key == {"core.run": 5.5 / 2}
    assert inclusive == {"core.run": (10.0 - 0.5 - 1.5) / 2}


def test_pass_through_calls_are_discounted_from_their_layer(monkeypatch):
    FakeClock(monkeypatch, 0.0, 0.0, 10.0)
    tracer = tracing.Tracer(inside=1.0, outside=1.0, through=2.0)
    wrapped = tracer.wrap(lambda: None, "netsim")
    tracer.enter("netsim")
    wrapped()
    wrapped()
    tracer.exit()
    assert tracer.passed["netsim"] == 2 and tracer.spans == 1
    # Harness time (outside any span) is scaled along with the layers.
    layer, _, _ = tracer.discounted(traced_wall=15.0, untraced_wall=5.0)
    assert layer == {"netsim": (10.0 - 1.0 - 2 * 2.0) / 2}


def test_sampler_bills_the_pass_to_layers():
    import crosscheck

    class Busy:
        def run_pass(self, rng):
            deadline = time.process_time() + 0.05
            while time.process_time() < deadline:
                pass
            return "done"

    result, billed = crosscheck.sampled(Busy(), seed=0, interval=0.001)
    assert result == "done"
    # This file lies in the benchmark's own directory: harness time.
    assert billed["harness"] > 0.02


def test_wrap_times_the_call(monkeypatch):
    FakeClock(monkeypatch, 0.0, 0.0, 2.0)
    tracer = tracing.Tracer()
    wrapped = tracer.wrap(lambda x: x * 2, "dns", "dns.double")
    assert wrapped(21) == 42
    assert tracer.calls["dns.double"] == 1
    assert tracer.layer_self["dns"] == 2.0


def test_package_of():
    assert tracing.package_of("repro.dns.wire") == "dns"
    assert tracing.package_of("repro.testbed") == "testbed"
    assert tracing.package_of("json.decoder") == "harness"


# -- the percentile rule ------------------------------------------------------

@pytest.mark.parametrize("cells", [24, 99, 100, 144, 251])
def test_tail_leaves_ten_cells_beyond_it(cells):
    q = run.tail_quantile(cells)
    samples = [float(i) for i in range(cells)]
    beyond = sum(1 for value in samples
                 if value > run.quantile(samples, q))
    assert beyond >= 10
    assert q <= 0.9


def test_p90_only_with_a_hundred_cells():
    assert run.tail_quantile(100) == pytest.approx(0.9)
    assert run.tail_quantile(99) < 0.9
    assert run.tail_quantile(144) == pytest.approx(0.9)
    assert run.tail_quantile(24) == pytest.approx(14 / 24)


def test_quantile_interpolates():
    assert run.quantile([4.0, 1.0, 3.0, 2.0], 0.5) == 2.5
    assert run.quantile([1.0], 0.9) == 1.0


# -- failures count against attempted -----------------------------------------

class FakeWorkload:
    name = "fake"

    def setup(self):
        pass

    def run_pass(self, rng):
        return PassResult(wall_s=1.0, cell_s=[0.1] * 8, entities=80,
                          checksum="not-the-expected-checksum",
                          counts={"netsim.packets": 80})


def test_checksum_mismatch_fails_every_cell(monkeypatch, tmp_path, capsys):
    monkeypatch.setitem(workloads.WORKLOADS, "fake", FakeWorkload)
    monkeypatch.setattr(workloads, "WORK_DIR", tmp_path)
    monkeypatch.setattr(run, "measure_setup", lambda name: 0.5)
    assert run.main(["--workload", "fake", "--seconds", "0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is False
    assert result["attempted"] == 8
    assert result["failed"] == 8
    assert result["metrics"]["ok_ratio"] == {"value": 0.0, "unit": "ratio"}
    record = json.loads(lines[-2])
    assert any("checksum" in problem for problem in record["problems"])


def test_drifting_count_fails_the_run(tmp_path):
    ledger = tmp_path / "counts.json"
    assert run.check_counts("w", "src1", {"core.events": 5}, {}, ledger) == []
    assert run.check_counts("w", "src1", {"core.events": 5}, {}, ledger) == []
    problems = run.check_counts("w", "src1", {"core.events": 6}, {}, ledger)
    assert problems and "drifted" in problems[0]
    expected = {"counts": {"netsim.packets": 3}}
    assert run.check_counts("v", "src1", {"netsim.packets": 4}, expected,
                            ledger)


def test_other_sources_may_change_uninvariant_counts(tmp_path):
    # A parent and a change that cuts core.events (a burst fast path)
    # share a checkout: both pass, each against its own earlier runs,
    # while the invariant counts of expected.json still bind both.
    ledger = tmp_path / "counts.json"
    expected = {"counts": {"netsim.packets": 3}}
    parent = {"core.events": 9, "netsim.packets": 3}
    change = {"core.events": 4, "netsim.packets": 3}
    for _ in range(2):
        assert run.check_counts("w", "parent", parent, expected,
                                ledger) == []
        assert run.check_counts("w", "change", change, expected,
                                ledger) == []
    assert run.check_counts("w", "change", {**change, "core.events": 5},
                            expected, ledger)
    assert run.check_counts("w", "other", {**change, "netsim.packets": 2},
                            expected, ledger)


def test_end_to_end_reports_every_metric():
    passes = [PassResult(wall_s=2.0, cell_s=[0.01 * i for i in range(1, 25)],
                         entities=1000, checksum="x", failed=1)]
    metrics = run.end_to_end(passes, setup_s=0.3, peak_rss_mb=40.0,
                             problems=[])
    bench = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())
    assert set(metrics) == {m["name"] for m in bench["end_to_end"]}
    assert metrics["cells_per_s"] == (12.0, "cells/s")
    assert metrics["ok_ratio"][0] == pytest.approx(23 / 24)
    assert all(value > 0 for value, _ in metrics.values())


# -- host-speed normalisation -------------------------------------------------

def test_scale_nets_out_the_probes_and_the_host_slowness():
    speed = hostspeed.HostSpeed()
    # Ten in-block probes of 1% of a 1s block, and a host running every
    # probe at twice the reference time.
    probe = 2 * hostspeed.REFERENCE_PROBE_S
    speed.samples = [probe] * 12
    speed.inside_s, speed.elapsed = 0.01, 1.0
    assert speed.scale() == pytest.approx(0.99 / 2)


def test_host_speed_samples_a_busy_block():
    with hostspeed.HostSpeed(interval=0.01) as speed:
        deadline = time.perf_counter() + 0.2
        while time.perf_counter() < deadline:
            pass
    assert len(speed.ticks) >= 5
    assert len(speed.samples) == len(speed.ticks) + 2
    assert 0 < speed.scale() < 100


class FixedSpeed:
    """A ``HostSpeed`` stand-in: the pass ran at half the reference
    speed, except from t=100s on, where it ran at the reference."""

    def scale(self):
        return 0.5

    def scale_between(self, start, end):
        return 1.0 if start >= 100.0 else 0.5


def test_normalised_scales_times_and_rates():
    result = PassResult(wall_s=10.0, cell_s=[1.0, 4.0], entities=5,
                        checksum="x", timings={"resume_s": 2.0,
                                               "entities_per_s.domain": 8.0})
    half = run.normalised(result, FixedSpeed())
    assert (half.wall_s, half.cell_s) == (5.0, [0.5, 2.0])
    assert half.timings == {"resume_s": 1.0, "entities_per_s.domain": 16.0}
    assert result.wall_s == 10.0


def test_a_timed_cell_takes_the_speed_while_it_ran():
    result = PassResult(wall_s=10.0, cell_s=[1.0, 4.0], entities=5,
                        checksum="x", cell_started=[98.0, 101.0])
    assert run.normalised(result, FixedSpeed()).cell_s == [0.5, 4.0]


def test_scale_between_uses_the_probes_nearby():
    speed = hostspeed.HostSpeed()
    slow, fast = 2 * hostspeed.REFERENCE_PROBE_S, hostspeed.REFERENCE_PROBE_S
    speed.ticks = [(0.1 * i, slow if i < 50 else fast) for i in range(100)]
    speed.samples = [spent for _, spent in speed.ticks]
    speed.elapsed = 10.0
    assert speed.scale() == pytest.approx(1 / 1.5)
    assert speed.scale_between(6.0, 9.0) == pytest.approx(1.0)
    # A 0.2s cell is widened to a second; a stretch with no probes near
    # it takes the whole block's scale.
    assert speed.scale_between(1.0, 1.2) == pytest.approx(0.5)
    assert speed.scale_between(50.0, 50.1) == pytest.approx(1 / 1.5)


def test_refuses_to_run_without_the_simulator(tmp_path):
    shutil.copytree(PERFBENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(PERFBENCH.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "atlas_full",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""


# -- smoke runs at tiny sizes -------------------------------------------------

SMALL = [
    lambda: workloads.AblationSingles(cells=3),
    lambda: workloads.LoadedDefended(seeds=1),
    lambda: workloads.AtlasFull(entities=3000),
]


@pytest.fixture(autouse=True)
def private_work_dir(monkeypatch, tmp_path):
    monkeypatch.setattr(workloads, "WORK_DIR", tmp_path / "work")


@pytest.mark.parametrize("make", SMALL, ids=["ablation", "loaded", "atlas"])
def test_smoke_pass_is_correct_and_order_free(make):
    workload = make()
    workload.setup()
    first = workload.run_pass(random.Random(1))
    second = workload.run_pass(random.Random(2))
    assert first.problems == [] and first.failed == 0
    assert first.cell_s and first.wall_s > 0 and first.entities > 0
    # The seed permutes the cells only: outputs and counts are exact.
    assert (first.checksum, first.counts) == (second.checksum,
                                              second.counts)


def test_traced_smoke_pass_attributes_layers():
    from repro.dns import resolver, wire
    from repro.netsim.host import UdpSocket

    workload = workloads.LoadedDefended(seeds=1)
    workload.setup()
    reference = workload.run_pass(random.Random(0))
    original = wire.decode_message
    tracer = tracing.calibrated(calls=5_000)
    remove = tracing.install(tracer)
    # Every module that bound the codec by name is rebound, and put back.
    assert resolver.decode_message is not original
    assert resolver.decode_message is wire.decode_message
    try:
        traced = workload.run_pass(random.Random(0))
    finally:
        remove()
    assert resolver.decode_message is original is wire.decode_message
    assert "__setattr__" not in vars(UdpSocket)
    assert traced.counts == reference.counts
    metrics = run.per_layer(tracer, traced, 1.0, reference)
    bench = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())
    assert set(metrics) == {m["name"] for m in bench["per_layer"]}
    assert metrics["dns.decodes"][0] > 0
    assert metrics["dns.encodes"][0] > 0
    assert metrics["store.rows"][0] == len(traced.cell_s)
    layers = ("core", "netsim", "dns", "workload", "scenario", "store")
    assert all(metrics[f"{name}.self_s"][0] >= 0 for name in layers
               if f"{name}.self_s" in metrics)
    layer, _, _ = tracer.discounted(traced.wall_s, reference.wall_s)
    assert sum(layer.values()) <= reference.wall_s * (1 + 1e-9)
