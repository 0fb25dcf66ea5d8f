"""``python -m repro.store`` — inspect and maintain a run store.

Subcommands::

    inspect  runs.db [--json]            # totals, axes, format
    query    runs.db --method saddns     # matching records as a table
    agg      runs.db --by defense        # grouped mergeable totals
    export   runs.db out.jsonl           # records as JSON lines
    vacuum   runs.db                     # checkpoint WAL + compact

Everything reads the same append-only SQLite file campaigns write via
``Campaign.run(store=...)``.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.store.aggregate import GROUP_AXES, totals_from_store
from repro.store.db import RunStore, StoreError


def _filter_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--method", help="filter: attack method key")
    parser.add_argument("--defense", help="filter: defense-stack key")
    parser.add_argument("--label", help="filter: scenario label")
    parser.add_argument("--app", help="filter: application name")
    parser.add_argument("--spec-hash", dest="spec_hash",
                        help="filter: scenario spec hash")
    parser.add_argument("--success", choices=("yes", "no"),
                        help="filter: attack outcome")
    parser.add_argument("--status", choices=("ok", "failed"),
                        help="filter: executed cells vs recorded "
                             "failures")


def _filters(args: argparse.Namespace) -> dict:
    return {
        "method": args.method,
        "defense": args.defense,
        "label": args.label,
        "app": args.app,
        "spec_hash": args.spec_hash,
        "success": None if args.success is None
        else args.success == "yes",
        "status": args.status,
    }


def _cmd_inspect(args: argparse.Namespace) -> int:
    store = RunStore(args.store)
    totals = totals_from_store(store).get("all")
    if args.json:
        # Machine-readable twin of the prose below: stable keys, full
        # totals payload, so scripts (and the obs CLI) can consume it.
        payload = {
            "schema": "store-inspect/1",
            "store": str(store.path),
            "records": store.count(),
            "failed": store.count(status="failed"),
            "busy_retries": store.total_busy_retries(),
            "spec_hashes": len(store.distinct("spec_hash")),
            "axes": {axis: store.distinct(axis)
                     for axis in ("method", "defense", "app")},
            "totals": totals.to_json()
            if totals is not None else None,
        }
        json.dump(payload, sys.stdout, indent=2, sort_keys=True)
        print()
        return 0
    print(f"store:    {store.path}")
    print(f"records:  {store.count()}")
    failed = store.count(status="failed")
    if failed:
        print(f"failed:   {failed} cells recorded as failures "
              "(re-run with the same store to re-execute them)")
    if totals is not None and totals.runs:
        print(f"success:  {totals.successes}/{totals.runs} "
              f"({totals.success_rate * 100:.0f}%)")
        print(f"saved:    {totals.wall_time:.1f}s of stored compute")
    for axis in ("method", "defense", "app"):
        values = store.distinct(axis)
        if values:
            print(f"{axis + 's:':<10}{', '.join(values)}")
    print(f"hashes:   {len(store.distinct('spec_hash'))} distinct "
          "scenarios")
    retries = store.total_busy_retries()
    if retries:
        print(f"retries:  {retries} writes retried past the busy "
              "timeout (lock contention)")
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    from repro.measurements.report import render_table

    store = RunStore(args.store)
    # Failed records have no attack statistics worth a column; show
    # the recorded error instead so `--status failed` is actionable.
    show_errors = args.status == "failed"
    rows = []
    for record in store.iter_records(limit=args.limit,
                                     **_filters(args)):
        row = [
            record.spec_hash, record.seed, record.defense,
            record.method, "yes" if record.success else "no",
            f"{record.packets_sent:,}", f"{record.duration:.1f}",
        ]
        if show_errors:
            row.append(record.error)
        rows.append(row)
    headers = ["Spec", "Seed", "Defense", "Method", "Success",
               "Packets", "Duration (s)"]
    if show_errors:
        headers.append("Error")
    print(render_table(headers, rows,
                       title=f"{len(rows)} stored runs"))
    return 0


def _cmd_agg(args: argparse.Namespace) -> int:
    from repro.measurements.report import render_table

    store = RunStore(args.store)
    groups = totals_from_store(store, by=args.by, **_filters(args))
    rows = []
    for key in sorted(groups):
        totals = groups[key]
        rows.append([
            key, totals.runs,
            f"{totals.success_rate * 100:.0f}%",
            f"{totals.impact_rate * 100:.0f}%" if totals.app_runs
            else "-",
            f"{totals.packets:,}", f"{totals.wall_time:.1f}",
        ])
    print(render_table(
        [args.by or "group", "Runs", "Success", "Impact", "Packets",
         "Wall (s)"],
        rows, title=f"Totals by {args.by or 'everything'}"))
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    store = RunStore(args.store)
    written = store.export_jsonl(args.out, **_filters(args))
    print(f"exported {written} records to {args.out}")
    return 0


def _cmd_vacuum(args: argparse.Namespace) -> int:
    store = RunStore(args.store)
    before = store.path.stat().st_size
    store.vacuum()
    after = store.path.stat().st_size
    print(f"vacuumed {store.path}: {before:,} -> {after:,} bytes")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.store",
        description="inspect and maintain an append-only run store")
    commands = parser.add_subparsers(dest="command", required=True)

    inspect = commands.add_parser(
        "inspect", help="store-level totals and axes")
    inspect.add_argument("store", help="path to the SQLite run store")
    inspect.add_argument("--json", action="store_true",
                        help="machine-readable output")
    inspect.set_defaults(fn=_cmd_inspect)

    query = commands.add_parser(
        "query", help="matching records as a table")
    query.add_argument("store", help="path to the SQLite run store")
    query.add_argument("--limit", type=int, default=50,
                       help="max rows to print (default 50)")
    _filter_args(query)
    query.set_defaults(fn=_cmd_query)

    agg = commands.add_parser(
        "agg", help="grouped mergeable totals")
    agg.add_argument("store", help="path to the SQLite run store")
    agg.add_argument("--by", choices=GROUP_AXES,
                     help="grouping axis (default: one overall row)")
    _filter_args(agg)
    agg.set_defaults(fn=_cmd_agg)

    export = commands.add_parser(
        "export", help="records as JSON lines")
    export.add_argument("store", help="path to the SQLite run store")
    export.add_argument("out", help="output .jsonl path")
    _filter_args(export)
    export.set_defaults(fn=_cmd_export)

    vacuum = commands.add_parser(
        "vacuum", help="checkpoint the WAL and compact the file")
    vacuum.add_argument("store", help="path to the SQLite run store")
    vacuum.set_defaults(fn=_cmd_vacuum)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (StoreError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
