"""``python -m repro.obs`` — inspect metrics and traces.

Three subcommands:

* ``snapshot`` — pretty-print a snapshot file (written by
  :func:`repro.obs.export.write_snapshot`), optionally copying it with
  ``-o``;
* ``tail`` — render a JSONL span trace as an indented tree with
  durations (``--limit`` caps the rows, ``--name`` filters);
* ``diff`` — per-series deltas between two snapshot files, e.g. the
  before/after of one campaign.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.obs import load_trace, walk_tree
from repro.obs.export import (
    diff_snapshots,
    load_snapshot,
    _flatten,
)
from repro.parallel.workers import at_least


def _print_snapshot(payload: dict, limit: int) -> None:
    flat = _flatten(payload)
    if not flat:
        print("(empty registry)")
        return
    width = max(len(key) for key in flat)
    shown = 0
    for key, value in sorted(flat.items()):
        if limit and shown >= limit:
            print(f"... {len(flat) - shown} more series")
            break
        rendered = f"{value:.3f}".rstrip("0").rstrip(".") \
            if isinstance(value, float) else str(value)
        print(f"{key:<{width}}  {rendered}")
        shown += 1


def _cmd_snapshot(args: argparse.Namespace) -> int:
    payload = load_snapshot(args.file)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote snapshot to {args.output}")
    if args.raw:
        json.dump(payload, sys.stdout, indent=2, sort_keys=True)
        print()
    else:
        _print_snapshot(payload, args.limit)
    return 0


def _cmd_tail(args: argparse.Namespace) -> int:
    spans = load_trace(args.trace)
    if args.name:
        spans = [span for span in spans if args.name in span.name]
    rows = list(walk_tree(spans))
    if not rows:
        print("(no spans)")
        return 0
    shown = 0
    for depth, span in rows:
        if args.limit and shown >= args.limit:
            print(f"... {len(rows) - shown} more spans")
            break
        attrs = " ".join(f"{key}={value}"
                         for key, value in sorted(span.attrs.items()))
        print(f"{'  ' * depth}{span.name}  "
              f"{span.duration * 1000.0:.2f}ms"
              f"{'  ' + attrs if attrs else ''}"
              f"  [{span.span_id}]")
        shown += 1
    print(f"{len(rows)} spans, trace "
          f"{spans[0].trace_id if spans else '-'}")
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    before = load_snapshot(args.before)
    after = load_snapshot(args.after)
    deltas = diff_snapshots(before, after)
    if not deltas:
        print("no series changed")
        return 0
    width = max(len(key) for key in deltas)
    for key, delta in sorted(deltas.items()):
        sign = "+" if delta > 0 else ""
        rendered = f"{delta:.3f}".rstrip("0").rstrip(".") \
            if isinstance(delta, float) else str(delta)
        print(f"{key:<{width}}  {sign}{rendered}")
    print(f"{len(deltas)} series changed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="inspect repro.obs metrics and span traces")
    commands = parser.add_subparsers(dest="command", required=True)

    snap = commands.add_parser(
        "snapshot", help="pretty-print a metrics snapshot file")
    snap.add_argument("--file", required=True,
                      help="read a snapshot JSON file")
    snap.add_argument("-o", "--output",
                      help="also write the snapshot to this path")
    snap.add_argument("--raw", action="store_true",
                      help="print the raw JSON payload")
    snap.add_argument("--limit", type=at_least(0), default=0,
                      help="max series to print (0 = all)")
    snap.set_defaults(fn=_cmd_snapshot)

    tail = commands.add_parser(
        "tail", help="render a JSONL span trace as a tree")
    tail.add_argument("trace", help="path to a trace .jsonl")
    tail.add_argument("--limit", type=at_least(0), default=0,
                      help="max spans to print (0 = all)")
    tail.add_argument("--name",
                      help="only spans whose name contains this")
    tail.set_defaults(fn=_cmd_tail)

    diff = commands.add_parser(
        "diff", help="per-series delta between two snapshots")
    diff.add_argument("before")
    diff.add_argument("after")
    diff.set_defaults(fn=_cmd_diff)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)
