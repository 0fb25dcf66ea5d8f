"""``python -m repro.atlas`` — the attack-surface atlas command line.

Six subcommands tie the subsystem together:

* ``synth`` — stream a population shard-by-shard, report throughput and
  a rolling checksum; ``--verify`` additionally streams the whole range
  as one stream and proves the shard-merge is bit-identical.
* ``scan`` — run the sharded Section 5 scan over one or all datasets at
  full paper scale (resumable with ``--store``), print each dataset's
  aggregate checksum and the atlas-backed Tables 3/4 (and the Table 5
  implementation matrix) with deviations from the paper's numbers.
* ``claim`` — run ONE claim-mode worker: lease shards from a shared
  store, scan, append, release.  Start as many of these as you like,
  on as many hosts as share the store directory; kill any of them.
* ``merge`` — coordinator: merge a claimed store into the final report
  (scanning whatever shards every worker left behind); its aggregate
  checksum equals a ``scan`` of the same population.
* ``calibrate`` — stratify a scanned population by vulnerability
  profile and validate planner verdicts with a stratified campaign
  sub-sample.
* ``report`` — re-render the tables from a store without rescanning.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time

from repro.atlas.aggregate import DOMAIN_FLAGS, RESOLVER_FLAGS, ScanAggregate
from repro.atlas.pipeline import AtlasScanReport, scan_dataset
from repro.atlas.shards import find_dataset, shard_ranges
from repro.atlas.store import AtlasStore
from repro.atlas.synth import iter_entities, stream_checksum
from repro.measurements.population import (
    DOMAIN_DATASETS,
    RESOLVER_DATASETS,
    DomainDatasetSpec,
    ResolverDatasetSpec,
)
from repro.measurements.report import render_table
from repro.parallel.claim import DEFAULT_TTL, claim_worker, merge_claimed
from repro.parallel.kernel import KERNELS, vector_available
from repro.parallel.workers import at_least, parse_seed, parse_workers

#: Calibration drift allowed between a full-scale scan and the paper's
#: measured percentages (points).  The generator draws joint
#: distributions from conditional rates, so a few points of model error
#: are expected on top of (negligible at 1.58M) sampling noise.
DEFAULT_TOLERANCE = 8.0

#: Datasets too small for percentage comparisons to mean anything.
MIN_TOLERANCE_SIZE = 2_000


def _selected_specs(dataset: str) -> list[ResolverDatasetSpec
                                          | DomainDatasetSpec]:
    if dataset == "all":
        return list(RESOLVER_DATASETS) + list(DOMAIN_DATASETS)
    if dataset == "resolvers":
        return list(RESOLVER_DATASETS)
    if dataset == "domains":
        return list(DOMAIN_DATASETS)
    return [find_dataset(dataset)]


def _expected(spec) -> dict[str, float]:
    if isinstance(spec, ResolverDatasetSpec):
        return {"hijack": spec.expected_hijack,
                "saddns": spec.expected_saddns,
                "frag": spec.expected_frag}
    return {"hijack": spec.expected_hijack,
            "saddns": spec.expected_saddns,
            "frag_any": spec.expected_frag_any,
            "frag_global": spec.expected_frag_global,
            "dnssec": spec.expected_dnssec}


def _deviations(report: AtlasScanReport) -> dict[str, float]:
    spec = find_dataset(report.dataset)
    return {
        flag: abs(report.summary.pct(flag) - expected)
        for flag, expected in _expected(spec).items()
    }


def _render_reports(reports: list[AtlasScanReport], kind: str,
                    tolerance: float) -> tuple[str, list[str]]:
    """One atlas-backed table per entity kind, plus deviation notes."""
    flags = RESOLVER_FLAGS if kind == "resolver" else DOMAIN_FLAGS
    headers = (["Dataset", "Entities scanned"]
               + [f"{flag} %" for flag in flags]
               + ["Paper", "Max dev", "Shards (new+cached)", "Wall (s)"])
    rows = []
    failures = []
    for report in reports:
        if report.kind != kind:
            continue
        deviations = _deviations(report)
        worst = max(deviations.values()) if deviations else 0.0
        spec = find_dataset(report.dataset)
        paper = "/".join(f"{value:.0f}" for value in
                         _expected(spec).values())
        rows.append([
            report.label, f"{report.entities:,}",
            *[f"{report.summary.pct(flag):.1f}" for flag in flags],
            paper, f"{worst:.1f}",
            f"{len(report.computed_shards)}+{len(report.cached_shards)}",
            f"{report.wall_clock:.1f}",
        ])
        if report.entities >= MIN_TOLERANCE_SIZE and worst > tolerance:
            failures.append(
                f"{report.dataset}: max deviation {worst:.1f} points "
                f"exceeds tolerance {tolerance:.1f}")
    title = ("Table 3 (atlas): vulnerable resolvers, full populations"
             if kind == "resolver" else
             "Table 4 (atlas): vulnerable domains, full populations")
    return render_table(headers, rows, title=title), failures


def aggregate_checksum(report: AtlasScanReport) -> str:
    """Order-insensitive checksum of a scan's merged aggregate."""
    payload = json.dumps(report.aggregate.to_json(), sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _print_scanned(report: AtlasScanReport, verb: str) -> None:
    print(f"{verb} {report.dataset}: {report.entities:,} entities, "
          f"{len(report.computed_shards)} shards computed + "
          f"{len(report.cached_shards)} cached, "
          f"{report.wall_clock:.1f}s ({report.entities_per_second:,.0f}/s, "
          f"{report.executor}, workers={report.workers})")
    print(f"  aggregate checksum: {aggregate_checksum(report)}")
    for note in report.notes:
        print(f"  note: {note}")


def bench_payload(reports: list[AtlasScanReport],
                  wall_clock: float) -> dict:
    """The machine-readable scan record (``BENCH_atlas.json`` shape)."""
    computed = sum(r.computed_entities for r in reports)
    return {
        "benchmark": "atlas-scan",
        "wall_time_seconds": round(wall_clock, 3),
        "entities_total": sum(r.entities for r in reports),
        "entities_computed": computed,
        "entities_per_second": round(computed / wall_clock, 1)
        if wall_clock > 0 else 0.0,
        "shard_count": sum(r.shard_count for r in reports),
        "shards_computed": sum(len(r.computed_shards) for r in reports),
        "shards_cached": sum(len(r.cached_shards) for r in reports),
        "datasets": [
            {
                "dataset": r.dataset,
                "kind": r.kind,
                "spec_hash": r.spec_hash,
                "entities": r.entities,
                "entities_per_second": round(r.entities_per_second, 1),
                "shards": r.shard_count,
                "cached_shards": len(r.cached_shards),
                "executor": r.executor,
                "workers": r.workers,
                "wall_time_seconds": round(r.wall_clock, 3),
                "percentages": {flag: round(r.summary.pct(flag), 2)
                                for flag in r.aggregate.flag_names()},
                "max_deviation_points": round(
                    max(_deviations(r).values()), 2),
            }
            for r in reports
        ],
    }


def _cmd_synth(args: argparse.Namespace) -> int:
    spec = find_dataset(args.dataset)
    entities = spec.full_size if args.entities is None \
        else min(args.entities, spec.full_size)
    ranges = shard_ranges(entities, args.shards)
    started = time.perf_counter()

    def sharded_stream():
        for shard in ranges:
            yield from iter_entities(spec, seed=args.seed,
                                     lo=shard.lo, hi=shard.hi)

    checksum = stream_checksum(sharded_stream())
    wall = time.perf_counter() - started
    rate = entities / wall if wall > 0 else 0.0
    print(f"synth {spec.key}: {entities:,} entities in {len(ranges)} "
          f"shards, {wall:.1f}s ({rate:,.0f} entities/s)")
    print(f"shard-merged stream checksum: {checksum}")
    if args.verify:
        monolithic = stream_checksum(
            iter_entities(spec, seed=args.seed, lo=0, hi=entities))
        if monolithic != checksum:
            print("VERIFY FAILED: shard-merged stream differs from the "
                  "monolithic stream", file=sys.stderr)
            return 1
        print("verify: shard-merge == monolithic generation (bit-for-bit)")
    return 0


def _run_scan(args: argparse.Namespace
              ) -> tuple[list[AtlasScanReport], float]:
    store = AtlasStore(args.store) if args.store else None
    reports = []
    started = time.perf_counter()
    for spec in _selected_specs(args.dataset):
        report = scan_dataset(
            spec, seed=args.seed, entities=args.entities,
            shards=args.shards, workers=args.workers,
            executor=args.executor, store=store, kernel=args.kernel,
        )
        reports.append(report)
        _print_scanned(report, "scanned")
    return reports, time.perf_counter() - started


def _cmd_scan(args: argparse.Namespace) -> int:
    reports, wall = _run_scan(args)
    failures: list[str] = []
    for kind in ("resolver", "domain"):
        if any(r.kind == kind for r in reports):
            table, kind_failures = _render_reports(reports, kind,
                                                   args.tolerance)
            print()
            print(table)
            failures.extend(kind_failures)
    if not args.no_table5:
        from repro.experiments import table5

        result = table5.run(workers=args.workers)
        print()
        print(result.rendered)
        matches = result.data["matches"]
        total = result.data["total"]
        if matches != total:
            failures.append(
                f"table5: only {matches}/{total} implementation verdicts "
                "match the paper")
        else:
            print(f"table5: {matches}/{total} implementation verdicts "
                  "match the paper")
    print(f"\natlas scan: {sum(r.entities for r in reports):,} entities "
          f"in {wall:.1f}s")
    if args.json:
        payload = bench_payload(reports, wall)
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
        print(f"wrote {args.json}")
    for failure in failures:
        print(f"DEVIATION: {failure}", file=sys.stderr)
    return 1 if failures else 0


def _cmd_claim(args: argparse.Namespace) -> int:
    outcome = claim_worker(
        find_dataset(args.dataset), seed=args.seed, entities=args.entities,
        shards=args.shards, store=AtlasStore(args.store),
        worker=args.worker, ttl=args.ttl, kernel=args.kernel,
        max_shards=args.max_shards,
    )
    print(f"claim worker {outcome.worker}: scanned "
          f"{len(outcome.scanned)} shards, skipped (leased elsewhere) "
          f"{len(outcome.skipped)}, expired leases broken "
          f"{len(outcome.broken)}")
    print(json.dumps(outcome.to_json(), sort_keys=True))
    return 0


def _cmd_merge(args: argparse.Namespace) -> int:
    report = merge_claimed(
        find_dataset(args.dataset), seed=args.seed, entities=args.entities,
        shards=args.shards, store=AtlasStore(args.store),
        kernel=args.kernel,
    )
    _print_scanned(report, "merged")
    return 0


def _cmd_calibrate(args: argparse.Namespace) -> int:
    from repro.atlas.calibrate import calibrate_population, project_deployment
    from repro.defenses import DefenseStack

    stacks = [DefenseStack.parse(text) for text in (args.defend or [])]
    reports, _wall = _run_scan(args)
    run_store = None
    if args.run_store:
        from repro.store import RunStore

        run_store = RunStore(args.run_store)
    status = 0
    for report in reports:
        for stack in (stacks or [None]):
            calibration = calibrate_population(
                report.aggregate, dataset=report.dataset, seed=args.seed,
                sample_budget=args.sample_budget, workers=args.workers,
                app=args.app, defenses=stack, store=run_store,
            )
            print()
            print(calibration.describe())
            if calibration.validated_fraction < 1.0:
                status = 1
        if stacks:
            # The quantitative Section 6 table: per-stratum residual
            # methodology and neutralized population weight per stack,
            # projected over the full scanned population.
            print()
            print(project_deployment(report.aggregate, report.dataset,
                                     stacks).describe())
    return status


def _cmd_report(args: argparse.Namespace) -> int:
    store = AtlasStore(args.store)
    hashes = store.spec_hashes()
    if not hashes:
        print(f"store {args.store} holds no scans", file=sys.stderr)
        return 1
    status = 0
    by_kind: dict[str, list[list[str]]] = {"resolver": [], "domain": []}
    for spec_hash in hashes:
        records = store.load(spec_hash)
        if not records:
            continue
        ordered = [records[shard_id] for shard_id in sorted(records)]
        # Last-wins records from different --shards layouts would
        # overlap or leave gaps; only a contiguous tiling of the index
        # space merges into honest population statistics.
        tiles = all(left.hi == right.lo
                    for left, right in zip(ordered, ordered[1:])) \
            and ordered[0].lo == 0
        if not tiles:
            print(f"skipping {spec_hash} ({ordered[0].dataset}): stored "
                  "shards mix incompatible layouts; rescan with one "
                  "--shards value", file=sys.stderr)
            status = 1
            continue
        kind = ordered[0].kind
        aggregate = ScanAggregate.merged(
            kind, [record.aggregate for record in ordered])
        dataset = ordered[0].dataset
        try:
            label = find_dataset(dataset).label
        except KeyError:
            label = dataset
        flags = RESOLVER_FLAGS if kind == "resolver" else DOMAIN_FLAGS
        by_kind[kind].append([
            label, spec_hash, f"{aggregate.count:,}", f"{len(ordered)}",
            *[f"{aggregate.pct(flag):.1f}" for flag in flags],
        ])
    for kind, rows in by_kind.items():
        if not rows:
            continue
        flags = RESOLVER_FLAGS if kind == "resolver" else DOMAIN_FLAGS
        headers = (["Dataset", "Spec hash", "Entities", "Shards"]
                   + [f"{flag} %" for flag in flags])
        print(render_table(
            headers, rows,
            title=f"Stored atlas scans ({kind} populations)"))
        print()
    return status


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.atlas",
        description=__doc__.split("\n\n")[0],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def population(p, dataset_default: str = "open") -> None:
        p.add_argument("--dataset", default=dataset_default,
                       help="dataset key (scan and calibrate also take "
                            "resolvers/domains/all)")
        p.add_argument("--entities", type=at_least(0), default=None,
                       help="cap entities per dataset "
                            "(default: the paper's full size)")
        p.add_argument("--shards", type=at_least(1), default=16)
        p.add_argument("--seed", type=parse_seed, default=0)

    def scanned(p, dataset_default: str = "open",
                require_store: bool = False) -> None:
        population(p, dataset_default)
        p.add_argument("--kernel", default="auto", choices=KERNELS,
                       help="per-shard scan implementation (both "
                            "bit-identical; default picks the "
                            "vectorised kernel when numpy is present)")
        p.add_argument("--store", required=require_store, default=None,
                       help="shard-result store directory (enables resume)")

    def pooled(p) -> None:
        p.add_argument("--workers", type=parse_workers, default=None,
                       help="worker processes, or 'auto' for all "
                            "schedulable CPUs (env: REPRO_WORKERS)")
        p.add_argument("--executor", choices=("process", "serial"),
                       default="process")

    synth = sub.add_parser(
        "synth", help="stream-synthesise a population, no scanning")
    population(synth)
    synth.add_argument("--verify", action="store_true",
                       help="also stream monolithically and compare "
                            "checksums")
    synth.set_defaults(fn=_cmd_synth)

    scan = sub.add_parser(
        "scan", help="sharded Section 5 scan at population scale")
    scanned(scan, "all")
    pooled(scan)
    scan.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                      help="allowed deviation (points) from the paper")
    scan.add_argument("--json", default=None,
                      help="write a BENCH_atlas.json-style record here")
    scan.add_argument("--no-table5", action="store_true",
                      help="skip the Table 5 implementation matrix")
    scan.set_defaults(fn=_cmd_scan)

    claim = sub.add_parser(
        "claim", help="run one lease-based claim worker against a store")
    scanned(claim, require_store=True)
    claim.add_argument("--worker", default="",
                       help="worker id recorded in leases "
                            "(default: host-pid)")
    claim.add_argument("--ttl", type=float, default=DEFAULT_TTL,
                       help="seconds before a silent lease is "
                            "considered dead and re-claimed")
    claim.add_argument("--max-shards", type=at_least(1), default=None,
                       help="stop after scanning this many shards")
    claim.set_defaults(fn=_cmd_claim)

    merge = sub.add_parser(
        "merge", help="coordinator merge of a claimed store")
    scanned(merge, require_store=True)
    merge.set_defaults(fn=_cmd_merge)

    calibrate = sub.add_parser(
        "calibrate", help="stratified campaign validation of a scan")
    scanned(calibrate)
    pooled(calibrate)
    calibrate.add_argument("--sample-budget", type=at_least(1), default=24,
                           help="total end-to-end attack runs to allocate")
    calibrate.add_argument("--app", default=None,
                           help="Table 1 application driver: weight its "
                                "kill-chain impact across the population")
    calibrate.add_argument("--defend", action="append", default=None,
                           metavar="STACK",
                           help="defense stack to deploy, e.g. 'dnssec' or"
                                " '0x20-encoding+rpki-rov' (repeatable; "
                                "also emits the deployment-projection "
                                "table across all given stacks)")
    calibrate.add_argument("--run-store", default=None, metavar="DB",
                           help="SQLite run store: record every campaign "
                                "cell and resume killed calibrations "
                                "(--store is the shard store; this one "
                                "holds executed attack runs)")
    calibrate.set_defaults(fn=_cmd_calibrate)

    report = sub.add_parser(
        "report", help="re-render tables from a store, no rescanning")
    report.add_argument("--store", required=True)
    report.set_defaults(fn=_cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "kernel", None) == "vector" and not vector_available():
        parser.error("--kernel vector needs numpy, which is not "
                     "installed (use --kernel auto or scalar)")
    return args.fn(args)
