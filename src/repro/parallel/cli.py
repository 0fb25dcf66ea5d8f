"""``python -m repro.parallel`` — the parallel execution plane CLI.

* ``scan`` — vectorised, work-stealing sharded scan of one dataset;
  prints rate and the aggregate checksum (compare against a serial run
  to prove bit-identity).
* ``claim`` — run ONE claim-mode worker: lease shards from a shared
  store, scan, append, release.  Start as many of these as you like,
  on as many hosts as share the store directory; kill any of them.
* ``merge`` — coordinator: merge a claimed store into the final report
  (scanning whatever shards every worker left behind).
* ``bench`` — serial vs N-worker rates with checksum equality, the
  same numbers the ``parallel`` section of ``BENCH_core.json`` gates.
"""

from __future__ import annotations

import argparse
import hashlib
import json

from repro.obs.profile import stage
from repro.atlas.pipeline import scan_dataset
from repro.atlas.shards import find_dataset
from repro.atlas.store import AtlasStore
from repro.parallel.claim import DEFAULT_TTL, claim_worker, merge_claimed
from repro.parallel.kernel import KERNELS, vector_available
from repro.parallel.workers import (cpu_count, parse_seed, parse_workers,
                                    resolve_workers)


def aggregate_checksum(report) -> str:
    """Order-insensitive checksum of a scan's merged aggregate."""
    payload = json.dumps(report.aggregate.to_json(), sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _print_report(report, label: str) -> None:
    rate = report.entities_per_second
    print(f"{label}: {report.dataset} {report.entities:,} entities, "
          f"{len(report.computed_shards)} shards computed + "
          f"{len(report.cached_shards)} cached in "
          f"{report.wall_clock:.2f}s ({rate:,.0f}/s, "
          f"{report.executor}, workers={report.workers})")
    print(f"  aggregate checksum: {aggregate_checksum(report)}")
    for note in report.notes:
        print(f"  note: {note}")


def _cmd_scan(args: argparse.Namespace) -> int:
    spec = find_dataset(args.dataset)
    store = AtlasStore(args.store) if args.store else None
    report = scan_dataset(
        spec, seed=args.seed, entities=args.entities, shards=args.shards,
        workers=args.workers, executor=args.executor, store=store,
        kernel=args.kernel,
    )
    _print_report(report, "scan")
    return 0


def _cmd_claim(args: argparse.Namespace) -> int:
    spec = find_dataset(args.dataset)
    store = AtlasStore(args.store)
    outcome = claim_worker(
        spec, seed=args.seed, entities=args.entities, shards=args.shards,
        store=store, worker=args.worker, ttl=args.ttl,
        kernel=args.kernel, max_shards=args.max_shards,
    )
    print(f"claim worker {outcome.worker}: scanned "
          f"{len(outcome.scanned)} shards, skipped (leased elsewhere) "
          f"{len(outcome.skipped)}, expired leases broken "
          f"{len(outcome.broken)}")
    print(json.dumps(outcome.to_json(), sort_keys=True))
    return 0


def _cmd_merge(args: argparse.Namespace) -> int:
    spec = find_dataset(args.dataset)
    store = AtlasStore(args.store)
    report = merge_claimed(spec, seed=args.seed, entities=args.entities,
                           shards=args.shards, store=store,
                           kernel=args.kernel)
    _print_report(report, "merge")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    spec = find_dataset(args.dataset)
    workers = resolve_workers(args.workers if args.workers else "auto")
    with stage("parallel.bench", executor="serial") as serial_timer:
        serial = scan_dataset(spec, seed=args.seed,
                              entities=args.entities,
                              shards=args.shards, executor="serial",
                              kernel=args.kernel)
    serial_wall = serial_timer.elapsed
    with stage("parallel.bench", executor="process") as parallel_timer:
        parallel = scan_dataset(spec, seed=args.seed,
                                entities=args.entities,
                                shards=args.shards, workers=workers,
                                executor="process",
                                kernel=args.kernel)
    parallel_wall = parallel_timer.elapsed
    serial_sum = aggregate_checksum(serial)
    parallel_sum = aggregate_checksum(parallel)
    speedup = serial_wall / parallel_wall if parallel_wall > 0 else 0.0
    print(f"bench {spec.key}: {serial.entities:,} entities, "
          f"{args.shards} shards, {workers} workers "
          f"(cpus: {cpu_count()}, vector: {vector_available()})")
    print(f"  serial:   {serial_wall:.2f}s "
          f"({serial.entities / serial_wall:,.0f}/s)")
    print(f"  parallel: {parallel_wall:.2f}s "
          f"({parallel.entities / parallel_wall:,.0f}/s, "
          f"speedup {speedup:.2f}x, "
          f"efficiency {speedup / workers:.2f})")
    if serial_sum != parallel_sum:
        print(f"  CHECKSUM MISMATCH: serial {serial_sum[:16]} != "
              f"parallel {parallel_sum[:16]}")
        return 1
    print(f"  checksums identical: {serial_sum}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.parallel",
        description=__doc__.split("\n\n")[0],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, require_store: bool = False) -> None:
        p.add_argument("--dataset", default="open")
        p.add_argument("--entities", type=int, default=None)
        p.add_argument("--shards", type=int, default=16)
        p.add_argument("--seed", type=parse_seed, default=0)
        p.add_argument("--kernel", default="auto", choices=KERNELS)
        p.add_argument("--store", required=require_store, default=None,
                       help="atlas shard store directory")

    scan = sub.add_parser("scan", help="vectorised work-stealing scan")
    common(scan)
    scan.add_argument("--workers", type=parse_workers, default=None)
    scan.add_argument("--executor", choices=("process", "serial"),
                      default="process")
    scan.set_defaults(fn=_cmd_scan)

    claim = sub.add_parser(
        "claim", help="run one lease-based claim worker against a store")
    common(claim, require_store=True)
    claim.add_argument("--worker", default="",
                       help="worker id recorded in leases "
                            "(default: host-pid)")
    claim.add_argument("--ttl", type=float, default=DEFAULT_TTL,
                       help="seconds before a silent lease is "
                            "considered dead and re-claimed")
    claim.add_argument("--max-shards", type=int, default=None,
                       help="stop after scanning this many shards")
    claim.set_defaults(fn=_cmd_claim)

    merge = sub.add_parser(
        "merge", help="coordinator merge of a claimed store")
    common(merge, require_store=True)
    merge.set_defaults(fn=_cmd_merge)

    bench = sub.add_parser(
        "bench", help="serial vs N-worker rates + checksum equality")
    common(bench)
    bench.add_argument("--workers", type=parse_workers, default=None)
    bench.set_defaults(fn=_cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)
