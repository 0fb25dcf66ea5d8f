"""``python -m repro.workload`` — traffic workloads from the shell.

Three subcommands mirror the atlas and scenario CLIs:

* ``synth`` — compile a client population into a JSONL query trace
  (writes to a file or stdout) and print its summary.
* ``replay`` — run one attack scenario under load — a synthesized
  population or a replayed JSONL trace — and print the attack outcome
  plus the load report; optionally dump both as JSON.
* ``report`` — re-render a load report from a ``replay --json`` record
  without re-running anything.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.core.errors import ScenarioError
from repro.core.rng import DeterministicRNG
from repro.parallel.workers import parse_seed
from repro.scenario.registry import available_methods, resolve_method
from repro.scenario.spec import AttackScenario
from repro.workload.population import WorkloadSpec
from repro.workload.report import LoadReport
from repro.workload.trace import QueryTrace, synthesize_trace


def _spec_from_args(args: argparse.Namespace,
                    trace_path: str | None = None) -> WorkloadSpec:
    """The population flags as a spec; an invalid one is a usage error."""
    try:
        return WorkloadSpec(
            clients=args.clients,
            qps=args.qps,
            duration=args.duration,
            warmup=args.warmup,
            domains=args.domains,
            zipf_s=args.zipf_s,
            victim_rank=args.victim_rank,
            victim_ttl=args.victim_ttl,
            trace_path=trace_path,
        )
    except ScenarioError as error:
        args.parser.error(str(error))


def _add_population_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--clients", type=int, default=8,
                        help="stub clients in the population (default 8)")
    parser.add_argument("--qps", type=float, default=50.0,
                        help="aggregate offered rate (default 50)")
    parser.add_argument("--duration", type=float, default=20.0,
                        help="measured seconds of load (default 20)")
    parser.add_argument("--warmup", type=float, default=5.0,
                        help="cache-priming seconds before measuring"
                             " (default 5)")
    parser.add_argument("--domains", type=int, default=20,
                        help="background-name catalog size (default 20)")
    parser.add_argument("--zipf-s", type=float, default=1.1,
                        help="Zipf popularity exponent (default 1.1)")
    parser.add_argument("--victim-rank", type=int, default=3,
                        help="victim name's popularity rank (default 3)")
    parser.add_argument("--victim-ttl", type=int, default=None,
                        help="override the victim name's zone TTL so the"
                             " cache entry churns on the run's timescale")
    parser.add_argument("--seed", type=parse_seed, default=0)
    parser.set_defaults(parser=parser)


def _cmd_synth(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    rng = DeterministicRNG(args.seed).derive("workload")
    trace = synthesize_trace(spec, rng, args.victim)
    if args.out == "-":
        trace.write(sys.stdout)
    else:
        trace.write(args.out)
        print(f"wrote {len(trace)} queries to {args.out}")
    print(f"clients={len(trace.clients())} names={len(trace.qnames())}"
          f" horizon={trace.horizon:.2f}s checksum={trace.checksum()[:16]}",
          file=sys.stderr if args.out == "-" else sys.stdout)
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    method = resolve_method(args.method).name
    if args.trace is not None:
        spec = _spec_from_args(args, trace_path=args.trace)
    else:
        spec = _spec_from_args(args)
    scenario = AttackScenario(method=method, workload=spec)
    run = scenario.run(seed=args.seed)
    print(run.describe())
    if run.load_report is not None:
        print()
        print(run.load_report.describe())
    else:
        print("(empty workload: the run was the idle-world baseline)")
    if args.json:
        record = {
            "method": run.method,
            "seed": run.seed,
            "success": run.success,
            "packets_sent": run.packets_sent,
            "load_report": run.load_report.to_json()
            if run.load_report is not None else None,
        }
        with open(args.json, "w", encoding="utf-8") as stream:
            json.dump(record, stream, indent=2)
            stream.write("\n")
        print(f"wrote {args.json}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    with open(args.json, "r", encoding="utf-8") as stream:
        record = json.load(stream)
    payload = record.get("load_report") if "load_report" in record \
        else record
    if payload is None:
        print("record carries no load report", file=sys.stderr)
        return 2
    report = LoadReport.from_json(payload)
    print(report.describe())
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    trace = QueryTrace.read(args.trace)
    print(f"{len(trace)} queries, {len(trace.clients())} clients,"
          f" {len(trace.qnames())} names, horizon {trace.horizon:.2f}s")
    print(f"checksum {trace.checksum()}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.workload",
        description="Synthesize, replay and report traffic workloads.")
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser(
        "synth", help="compile a client population to a JSONL trace")
    _add_population_flags(synth)
    synth.add_argument("--victim", default="vict.im",
                       help="victim qname spliced into the catalog"
                            " (default vict.im)")
    synth.add_argument("--out", default="-",
                       help="output path ('-' for stdout)")
    synth.set_defaults(fn=_cmd_synth)

    replay = sub.add_parser(
        "replay", help="run an attack scenario under load")
    _add_population_flags(replay)
    replay.add_argument("--method", default="hijack",
                        help="attack methodology"
                             f" ({', '.join(available_methods())})")
    replay.add_argument("--trace", default=None,
                        help="JSONL trace to replay instead of"
                             " synthesizing from the population flags")
    replay.add_argument("--json", default=None,
                        help="write the run + load report as JSON")
    replay.set_defaults(fn=_cmd_replay)

    report = sub.add_parser(
        "report", help="re-render a load report from a replay JSON")
    report.add_argument("json", help="path written by replay --json")
    report.set_defaults(fn=_cmd_report)

    inspect = sub.add_parser(
        "inspect", help="summarize a JSONL trace")
    inspect.add_argument("trace", help="JSONL trace path")
    inspect.set_defaults(fn=_cmd_inspect)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
