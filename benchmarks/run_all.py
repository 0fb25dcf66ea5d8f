"""Kernel perf harness: measure, record, and gate the simulator's speed.

Runs the hot-loop benchmarks the whole reproduction drains through —
scheduler event dispatch, network packet delivery, DNS wire codec,
the serial campaign sweep, the atlas shard scan and the parallel
execution plane (serial vs N-worker, checksummed) — and writes the
machine-readable record ``BENCH_core.json`` (per-bench wall time,
peak RSS and rates: events/sec, packets/sec, messages/sec, runs/sec,
entities/sec), plus an observability-overhead record: the campaign and
atlas workloads run obs-off and obs-on, asserted bit-identical, with
the enabled plane's cost recorded as ``overhead_pct``.

The committed ``BENCH_core.json`` is the repo's perf baseline; CI reruns
the harness with ``--quick --json BENCH_core_ci.json --check
BENCH_core.json`` and fails on a >25% rate regression.  Alongside the rates, the campaign and atlas
benches record SHA-256 checksums of their statistical outputs, so a
perf regression can never hide a semantics regression: same seeds must
keep producing bit-identical stats.

Usage::

    PYTHONPATH=src python benchmarks/run_all.py            # full sizes
    PYTHONPATH=src python benchmarks/run_all.py --quick    # CI sizes
    PYTHONPATH=src python benchmarks/run_all.py --quick \
        --json BENCH_core_ci.json --check BENCH_core.json  # gate
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import sys
import time

try:
    import resource
except ImportError:  # non-POSIX: record no RSS rather than failing
    resource = None


# -- sizes -------------------------------------------------------------------

FULL_SIZES = {
    "scheduler_events": 300_000,
    "transmit_packets": 60_000,
    "dns_wire_ops": 30_000,
    "campaign_seeds": 32,
    "killchain_seeds": 8,
    "workload_seeds": 8,
    "atlas_entities": 20_000,
    "parallel_entities": 40_000,
    "defense_pairs": 28,     # the full pairwise Section 6 grid
    "store_seeds": 8,
    "faults_seeds": 8,
}

QUICK_SIZES = {
    "scheduler_events": 60_000,
    "transmit_packets": 15_000,
    "dns_wire_ops": 20_000,
    "campaign_seeds": 8,
    "killchain_seeds": 3,
    "workload_seeds": 3,
    "atlas_entities": 5_000,
    "parallel_entities": 10_000,
    "defense_pairs": 4,      # singles + the showcase pairs
    "store_seeds": 3,
    "faults_seeds": 3,
}

REGRESSION_THRESHOLD = 0.25


def _result(name: str, wall: float, n: int, unit: str,
            checksum: str | None = None, **extra) -> dict:
    record = {
        "name": name,
        "wall_s": round(wall, 4),
        "n": n,
        "rate": round(n / wall, 1) if wall > 0 else 0.0,
        "unit": unit,
    }
    if checksum is not None:
        record["checksum"] = checksum
    if resource is not None:
        # ru_maxrss is the process-lifetime high-water mark (KB on
        # Linux), read as each bench finishes — the per-bench value is
        # "peak RSS so far", monotone across the run, so the first
        # bench to blow the memory budget is visible by name.
        record["peak_rss_kb"] = int(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    record.update(extra)
    return record


# -- kernel micro-benches ----------------------------------------------------

def bench_scheduler(events: int) -> dict:
    """Schedule and drain ``events`` callbacks (10% cancelled)."""
    from repro.core.clock import Scheduler

    scheduler = Scheduler()
    fired = [0]

    def callback() -> None:
        fired[0] += 1

    started = time.perf_counter()
    handles = []
    for i in range(events):
        if i % 10 == 3:
            handles.append(scheduler.call_later(float(i % 97) / 10,
                                                callback))
        else:
            scheduler.schedule(float(i % 97) / 10, callback)
    for handle in handles:
        handle.cancel()
    executed = scheduler.run_until_idle(max_events=events + 1)
    wall = time.perf_counter() - started
    assert executed == events - len(handles), (executed, events)
    assert fired[0] == executed
    return _result("scheduler", wall, events, "events/s")


def bench_transmit(packets: int) -> dict:
    """Push ``packets`` UDP datagrams through the untraced fabric."""
    from repro.core.eventlog import NullLog
    from repro.netsim.host import Host
    from repro.netsim.network import Network

    network = Network(log=NullLog())
    sender = network.attach(Host("sender", "10.0.0.1"))
    receiver = network.attach(Host("receiver", "10.0.0.2"))
    seen = [0]

    def handler(datagram, src, dst) -> None:
        seen[0] += 1

    receiver.open_udp(4242, handler)
    payload = b"x" * 64
    started = time.perf_counter()
    batch = 2_000
    sent = 0
    while sent < packets:
        for _ in range(min(batch, packets - sent)):
            sender.send_udp("10.0.0.1", 5353, "10.0.0.2", 4242, payload)
            sent += 1
        network.run()
    wall = time.perf_counter() - started
    assert seen[0] == packets, (seen[0], packets)
    return _result("transmit", wall, packets, "packets/s")


def bench_dns_wire(ops: int) -> dict:
    """Encode+decode a realistic response across a TXID storm."""
    from repro.dns.message import DnsMessage, Question
    from repro.dns.records import TYPE_A, rr_a, rr_ns
    from repro.dns.wire import decode_message, encode_message

    template = DnsMessage(
        txid=0, is_response=True, authoritative=True,
        questions=[Question(name="secure-login.vict.im", qtype=TYPE_A)],
        answers=[rr_a("secure-login.vict.im", "123.0.0.80", ttl=300)],
        authority=[rr_ns("vict.im", "ns1.vict.im", ttl=3600)],
        additional=[rr_a("ns1.vict.im", "123.0.0.53", ttl=3600)],
        edns_udp_size=4096,
    )
    digest = hashlib.sha256()
    started = time.perf_counter()
    for i in range(ops):
        template.txid = i & 0xFFFF
        data = encode_message(template)
        message = decode_message(data)
        digest.update(data)
        assert message.txid == template.txid
    wall = time.perf_counter() - started
    return _result("dns_wire", wall, ops, "messages/s",
                   checksum=digest.hexdigest())


# -- macro benches (the paper's workloads) ------------------------------------

def campaign_checksum(result) -> str:
    flat = [(run.label, run.seed, run.success, run.packets_sent,
             run.queries_triggered, run.duration) for run in result.runs]
    return hashlib.sha256(repr(flat).encode()).hexdigest()


def bench_campaign(seeds: int) -> dict:
    """The Table 6 sweep: three methodology scenarios x ``seeds`` seeds,
    on the serial reference executor (the campaign hot loop)."""
    from repro.scenario import Campaign, sweep_scenarios

    started = time.perf_counter()
    result = Campaign(executor="serial").run(sweep_scenarios(),
                                             seeds=range(seeds))
    wall = time.perf_counter() - started
    return _result("campaign_serial", wall, len(result.runs), "runs/s",
                   checksum=campaign_checksum(result), seeds=seeds)


def killchain_checksum(result) -> str:
    flat = [(run.label, run.seed, run.success, run.packets_sent,
             run.queries_triggered, run.duration,
             run.app_result.realized, run.app_result.impact,
             tuple(outcome.describe()
                   for outcome in run.app_result.outcomes))
            for run in result.runs]
    return hashlib.sha256(repr(flat).encode()).hexdigest()


def bench_killchain(seeds: int) -> dict:
    """The end-to-end kill chain: attack + application stage per run,
    on the serial reference executor.  The checksum covers application
    outcomes, so impact semantics are gated alongside the rates."""
    from repro.scenario import Campaign, killchain_scenarios

    scenarios = killchain_scenarios(
        apps=("dv", "recovery", "ocsp", "rpki", "smtp", "http"),
        methods=("hijack", "frag"),
    )
    started = time.perf_counter()
    result = Campaign(executor="serial").run(scenarios, seeds=range(seeds))
    wall = time.perf_counter() - started
    assert result.impact_rate > 0.0
    return _result("killchain_serial", wall, len(result.runs), "runs/s",
                   checksum=killchain_checksum(result), seeds=seeds,
                   impact_rate=round(result.impact_rate, 4))


def workload_checksum(result) -> str:
    flat = [(run.label, run.seed, run.success, run.packets_sent,
             run.queries_triggered, run.duration,
             run.load_report.checksum() if run.load_report else None)
            for run in result.runs]
    return hashlib.sha256(repr(flat).encode()).hexdigest()


def bench_workload(seeds: int) -> dict:
    """A loaded campaign: HijackDNS with the synthetic client population
    at 40 qps riding behind it — the workload engine's hot loop
    (per-arrival sockets, PASTA window sampling, latency accounting).
    The checksum covers every run's LoadReport, so the benign-traffic
    statistics are gated bit-for-bit alongside the rates."""
    from repro.scenario import AttackScenario, Campaign
    from repro.workload import WorkloadSpec

    spec = WorkloadSpec(clients=8, qps=40.0, duration=10.0, warmup=2.0,
                        domains=20, victim_ttl=6, label="bench")
    scenario = AttackScenario(method="HijackDNS", label="HijackDNS@40qps",
                              workload=spec)
    started = time.perf_counter()
    result = Campaign(executor="serial").run(scenario, seeds=range(seeds))
    wall = time.perf_counter() - started
    merged = result.load_report()
    assert merged is not None and merged.answer_rate > 0.9
    queries = merged.offered + merged.warmup_queries
    return _result("workload", wall, queries, "queries/s",
                   checksum=workload_checksum(result), seeds=seeds)


def defense_grid_checksum(result) -> str:
    flat = [(cell.attack, cell.defense, cell.attack_succeeded,
             cell.expected_defeated)
            for cell in result.data["cells"] + result.data["pair_cells"]]
    return hashlib.sha256(repr(flat).encode()).hexdigest()


def bench_defense_grid(pairs: int) -> dict:
    """The Section 6 ablation on the defense-stack API: the 8x3
    single-defense grid plus ``pairs`` pairwise stacks, serial.  The
    checksum covers every cell verdict, so a perf win can never hide a
    flipped Section 6 expectation."""
    from repro.experiments import ablation

    started = time.perf_counter()
    result = ablation.run(seed=0, pairs=pairs)
    wall = time.perf_counter() - started
    assert result.data["agreement"] == result.data["total"], \
        "defense grid disagrees with Section 6 expectations"
    cells = result.data["total"]
    return _result("defense_grid", wall, cells, "cells/s",
                   checksum=defense_grid_checksum(result), pairs=pairs)


def store_grid_checksum(result) -> str:
    flat = [(run.label, run.defense, run.seed, run.success,
             run.packets_sent, run.queries_triggered, run.duration)
            for run in result.runs]
    return hashlib.sha256(repr(flat).encode()).hexdigest()


def bench_store_resume(seeds: int) -> dict:
    """Cold vs store-resumed defended grid: the cold pass computes and
    records every (scenario x stack x seed) cell into a fresh run
    store; the resumed pass reconstructs the same grid purely from
    stored cells.  The checksum covers both passes (asserted equal),
    so resume can never return different statistics than computing;
    the headline rate is the resumed pass — how fast a killed sweep
    comes back."""
    import os
    import tempfile

    from repro.scenario import Campaign, sweep_scenarios

    scenarios = sweep_scenarios()
    stacks = ("dnssec", "rpki-rov")
    with tempfile.TemporaryDirectory() as tmp:
        db = os.path.join(tmp, "bench_store.db")
        started = time.perf_counter()
        cold = Campaign(executor="serial").run_defended(
            scenarios, stacks=stacks, seeds=range(seeds), store=db)
        cold_wall = time.perf_counter() - started
        started = time.perf_counter()
        warm = Campaign(executor="serial").run_defended(
            scenarios, stacks=stacks, seeds=range(seeds), store=db)
        wall = time.perf_counter() - started
    checksum = store_grid_checksum(warm)
    assert checksum == store_grid_checksum(cold), \
        "store-resumed grid diverged from the computed grid"
    assert any("cells loaded" in note for note in warm.notes), \
        "resumed pass did not load from the store"
    return _result("store_resume", wall, len(warm.runs), "cells/s",
                   checksum=checksum, seeds=seeds,
                   cold_wall_s=round(cold_wall, 4),
                   speedup=round(cold_wall / wall, 1) if wall > 0
                   else 0.0)


def bench_faults(seeds: int) -> dict:
    """The degraded-path sweep: three methodology scenarios on a lossy
    high-latency resolver-NS link, serial.  Before timing, asserts the
    fault plane's core contract — a scenario carrying an *empty*
    FaultPlan produces a bit-identical run to the plain scenario — and
    the checksum gates the degraded statistics themselves."""
    from dataclasses import replace

    from repro.faults import FaultPlan
    from repro.scenario import AttackScenario, Campaign, sweep_scenarios
    from repro.testbed import RESOLVER_IP, TARGET_NS_IP

    base = AttackScenario(method="HijackDNS")
    clean = base.run(seed=0)
    noop = replace(base, faults=FaultPlan(label="noop")).run(seed=0)
    assert clean.result == noop.result, \
        "a no-op FaultPlan changed a clean run's statistics"

    plan = FaultPlan.link(RESOLVER_IP, TARGET_NS_IP,
                          loss=0.02, extra_latency=0.04)
    scenarios = [replace(scenario, faults=plan,
                         label=f"{scenario.method}@degraded")
                 for scenario in sweep_scenarios()]
    started = time.perf_counter()
    result = Campaign(executor="serial").run(scenarios,
                                             seeds=range(seeds))
    wall = time.perf_counter() - started
    assert all(not run.failed for run in result.runs)
    return _result("faults_degraded", wall, len(result.runs), "runs/s",
                   checksum=campaign_checksum(result), seeds=seeds)


def bench_obs_overhead(seeds: int, entities: int) -> dict:
    """The observability plane's zero-cost contract, measured.

    Runs the campaign sweep and the open-resolver atlas scan twice —
    obs disabled, then obs enabled — and asserts both checksums are
    bit-identical across the modes (instrumentation may never change
    statistics).  The gated ``rate`` is the disabled pass, so the CI
    baseline check catches a disabled-path slowdown like any other
    perf regression; ``overhead_pct`` records what enabling the full
    plane costs on top, and ``metrics_series``/``spans`` summarise
    what one instrumented pass actually emits.
    """
    from repro import obs
    from repro.atlas import find_dataset, scan_dataset
    from repro.atlas.cli import aggregate_checksum
    from repro.scenario import Campaign, sweep_scenarios

    spec = find_dataset("open")

    def one_pass() -> tuple[float, str, str]:
        started = time.perf_counter()
        result = Campaign(executor="serial").run(sweep_scenarios(),
                                                 seeds=range(seeds))
        report = scan_dataset(spec, seed=0, entities=entities, shards=8,
                              executor="serial")
        wall = time.perf_counter() - started
        return wall, campaign_checksum(result), aggregate_checksum(report)

    obs.disable()
    obs.reset()
    off_wall, off_campaign, off_atlas = one_pass()
    obs.enable()
    try:
        on_wall, on_campaign, on_atlas = one_pass()
        registry = obs.OBS.registry
        series = len(registry.metrics())
        cells = sum(metric.value for metric in registry.metrics()
                    if metric.name == "campaign.cells_total")
        spans = len(obs.OBS.spans.spans())
    finally:
        obs.disable()
        obs.reset()
    assert (off_campaign, off_atlas) == (on_campaign, on_atlas), \
        "enabling the obs plane changed campaign/atlas statistics"
    overhead = (on_wall - off_wall) / off_wall if off_wall > 0 else 0.0
    n = seeds * 3 + entities
    return _result("obs_overhead", off_wall, n, "ops/s",
                   checksum=hashlib.sha256(
                       f"{off_campaign}:{off_atlas}".encode())
                   .hexdigest(),
                   seeds=seeds, entities=entities,
                   enabled_wall_s=round(on_wall, 4),
                   overhead_pct=round(100.0 * overhead, 2),
                   metrics_series=series, cells_observed=int(cells),
                   spans=spans)


def bench_atlas(entities: int, dataset: str) -> dict:
    """The sharded population scan (serial, vectorised kernel when
    numpy is present), aggregate checksummed."""
    from repro.atlas import find_dataset, scan_dataset
    from repro.atlas.cli import aggregate_checksum

    spec = find_dataset(dataset)
    started = time.perf_counter()
    report = scan_dataset(spec, seed=0, entities=entities, shards=8,
                          executor="serial")
    wall = time.perf_counter() - started
    return _result(f"atlas_{dataset}", wall, report.entities, "entities/s",
                   checksum=aggregate_checksum(report),
                   shards=report.shard_count)


def bench_parallel(entities: int) -> dict:
    """The parallel execution plane: serial vs N-worker scans of the
    open-resolver atlas, asserted bit-identical.  The gated ``rate`` is
    the serial vectorised rate — comparable across hosts with any core
    count — while the worker-pool numbers (``pooled_rate``,
    ``speedup``, ``efficiency``) are recorded alongside so the scaling
    behaviour is visible per machine.  A checksum mismatch between the
    serial and pooled scans fails the bench outright, which is the
    bit-identity gate CI runs."""
    from repro.atlas import find_dataset, scan_dataset
    from repro.atlas.cli import aggregate_checksum
    from repro.parallel.kernel import vector_available
    from repro.parallel.workers import resolve_workers

    spec = find_dataset("open")
    workers = resolve_workers("auto")
    started = time.perf_counter()
    serial = scan_dataset(spec, seed=0, entities=entities, shards=8,
                          executor="serial")
    serial_wall = time.perf_counter() - started
    started = time.perf_counter()
    pooled = scan_dataset(spec, seed=0, entities=entities, shards=8,
                          workers=workers, executor="process")
    pooled_wall = time.perf_counter() - started
    checksum = aggregate_checksum(serial)
    assert aggregate_checksum(pooled) == checksum, \
        "N-worker scan diverged from the serial reference"
    speedup = serial_wall / pooled_wall if pooled_wall > 0 else 0.0
    return _result("parallel", serial_wall, entities, "entities/s",
                   checksum=checksum, workers=workers,
                   vector=vector_available(),
                   pooled_wall_s=round(pooled_wall, 4),
                   pooled_rate=round(entities / pooled_wall, 1)
                   if pooled_wall > 0 else 0.0,
                   speedup=round(speedup, 2),
                   efficiency=round(speedup / workers, 2)
                   if workers else 0.0)


# -- harness ------------------------------------------------------------------

def run_all(sizes: dict, mode: str, repeats: int) -> dict:
    """Run every bench ``repeats`` times; keep each bench's best run.

    Best-of-N is the standard way to measure a deterministic workload
    on a noisy machine: the minimum wall time is the closest observation
    of the code's actual cost, and the outputs (checksums) are identical
    across repetitions by construction.
    """
    thunks = [
        lambda: bench_scheduler(sizes["scheduler_events"]),
        lambda: bench_transmit(sizes["transmit_packets"]),
        lambda: bench_dns_wire(sizes["dns_wire_ops"]),
        lambda: bench_campaign(sizes["campaign_seeds"]),
        lambda: bench_killchain(sizes["killchain_seeds"]),
        lambda: bench_workload(sizes["workload_seeds"]),
        lambda: bench_atlas(sizes["atlas_entities"], "open"),
        lambda: bench_atlas(sizes["atlas_entities"], "alexa"),
        lambda: bench_parallel(sizes["parallel_entities"]),
        lambda: bench_defense_grid(sizes["defense_pairs"]),
        lambda: bench_store_resume(sizes["store_seeds"]),
        lambda: bench_faults(sizes["faults_seeds"]),
        lambda: bench_obs_overhead(sizes["campaign_seeds"],
                                   sizes["atlas_entities"]),
    ]
    benches = {}
    for thunk in thunks:
        best = None
        for _ in range(max(1, repeats)):
            record = thunk()
            if best is not None and best.get("checksum") is not None \
                    and best["checksum"] != record.get("checksum"):
                raise AssertionError(
                    f"{record['name']}: nondeterministic output across"
                    " repetitions")
            if best is None or record["wall_s"] < best["wall_s"]:
                record["repeats"] = repeats
                best = record
        name = best.pop("name")
        benches[name] = best
        sys.stderr.write(
            f"  {name:>16}: {best['rate']:>12,.0f} {best['unit']:<11} "
            f"({best['wall_s']:.3f}s best of {repeats})\n")
    return {
        "schema": "bench-core/1",
        "generated_by": "benchmarks/run_all.py",
        "mode": mode,
        "python": platform.python_version(),
        "benches": benches,
    }


def baseline_benches(baseline: dict, mode: str) -> dict:
    """The baseline's bench map for ``mode``.

    ``BENCH_core.json`` carries one record per mode (``runs``), because
    rates at quick sizes amortise fixed costs differently from full
    sizes — only same-mode comparisons are meaningful.  Single-record
    files compare only when their mode matches.
    """
    runs = baseline.get("runs")
    if runs is not None:
        return runs.get(mode, {}).get("benches", {})
    if baseline.get("mode") == mode:
        return baseline.get("benches", {})
    return {}


def check_against(current: dict, baseline: dict,
                  threshold: float) -> list[str]:
    """Rate-regression and bit-identity failures vs a baseline record."""
    failures = []
    reference = baseline_benches(baseline, current["mode"])
    if not reference:
        return [f"baseline has no {current['mode']!r}-mode record to"
                " compare against"]
    for name, base in reference.items():
        record = current["benches"].get(name)
        if record is None:
            failures.append(f"{name}: missing from current run")
            continue
        base_rate = base.get("rate", 0.0)
        rate = record.get("rate", 0.0)
        if base_rate > 0 and rate < base_rate * (1.0 - threshold):
            failures.append(
                f"{name}: rate regressed {base_rate:,.0f} -> {rate:,.0f} "
                f"{record.get('unit', '')} "
                f"({100 * (1 - rate / base_rate):.1f}% > "
                f"{100 * threshold:.0f}% allowed)")
        # Checksums gate bit-identity, but only at matching sizes.
        if base.get("checksum") and record.get("checksum") \
                and base.get("n") == record.get("n") \
                and base["checksum"] != record["checksum"]:
            failures.append(
                f"{name}: output checksum changed at n={base['n']} — "
                "statistics are no longer bit-identical")
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI-sized benches (smaller n, same rates)")
    parser.add_argument("--json", default="BENCH_core.json",
                        help="output path (default: BENCH_core.json)")
    parser.add_argument("--check", metavar="BASELINE",
                        help="compare against a committed BENCH_core.json;"
                             " exit 1 on regression")
    parser.add_argument("--threshold", type=float,
                        default=REGRESSION_THRESHOLD,
                        help="allowed fractional rate regression"
                             " (default 0.25)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="repetitions per bench; best run is kept"
                             " (default 3)")
    args = parser.parse_args(argv)

    mode = "quick" if args.quick else "full"
    sizes = QUICK_SIZES if args.quick else FULL_SIZES
    sys.stderr.write(f"running kernel benches ({mode})...\n")
    # Read the baseline before writing: ``--json`` and ``--check`` may
    # name the same file, and the gate must compare against what was
    # committed, not against the record it is about to write.
    baseline = None
    if args.check:
        with open(args.check, encoding="utf-8") as handle:
            baseline = json.load(handle)
    record = run_all(sizes, mode, args.repeats)

    # The on-disk record keeps one entry per mode, merged in place, so
    # the committed baseline can gate both full and quick reruns.
    merged: dict = {
        "schema": "bench-core/1",
        "generated_by": record["generated_by"],
        "python": record["python"],
        "runs": {},
    }
    try:
        with open(args.json, encoding="utf-8") as handle:
            existing = json.load(handle)
        if "runs" in existing:
            merged["runs"].update(existing["runs"])
    except (OSError, ValueError):
        pass
    merged["runs"][mode] = {"mode": mode, "benches": record["benches"]}
    with open(args.json, "w", encoding="utf-8") as handle:
        json.dump(merged, handle, indent=2, sort_keys=True)
        handle.write("\n")
    sys.stderr.write(f"wrote {args.json} ({mode} record)\n")

    if baseline is not None:
        failures = check_against(record, baseline, args.threshold)
        if failures:
            sys.stderr.write("PERF CHECK FAILED\n")
            for failure in failures:
                sys.stderr.write(f"  {failure}\n")
            return 1
        sys.stderr.write(
            f"perf check ok vs {args.check} "
            f"(threshold {100 * args.threshold:.0f}%)\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
