"""``python -m repro.faults`` — degraded-network sweeps from the shell.

Runs a budget-capped campaign with declarative impairments and chaos
injection, printing the campaign summary.  Recorded cell failures do
NOT fail the process — graceful degradation is the whole point — so a
sweep with a poisoned seed still exits 0 with the failure visible in
the output (and durable in ``--store``, where a later run re-executes
it).  Exit status 1 is reserved for the harness itself misbehaving
(bad flags, a raising sweep without a policy).

Examples::

    python -m repro.faults --method saddns --seeds 4 \\
        --impair "dst=123.0.0.53,loss=0.02,latency=0.04"

    python -m repro.faults --method hijack --seeds 6 --crash-seed 2 \\
        --store runs.db        # exits 0; seed 2 recorded as failed
"""

from __future__ import annotations

import argparse
import sys

from repro.faults.policy import RunPolicy
from repro.faults.spec import FaultError, FaultPlan, parse_impairment
from repro.parallel.workers import at_least, parse_workers
from repro.scenario.campaign import Campaign
from repro.scenario.presets import budget_capped_overrides
from repro.scenario.spec import AttackScenario


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.faults",
        description="campaign sweeps over a deterministically degraded "
                    "fabric, with graceful cell failure")
    parser.add_argument("--method", action="append", dest="methods",
                        metavar="NAME", default=None,
                        help="attack method to sweep (repeatable; "
                             "default: hijack)")
    parser.add_argument("--seeds", type=at_least(1), default=4,
                        help="number of seeds per scenario (default 4)")
    parser.add_argument("--impair", action="append", default=[],
                        metavar="SPEC",
                        help="one impairment as key=value pairs, e.g. "
                             "'src=30.0.0.1,dst=123.0.0.53,loss=0.02,"
                             "latency=0.04' (repeatable)")
    parser.add_argument("--crash-seed", action="append", type=int,
                        default=[], metavar="SEED",
                        help="poison this seed: its world build raises "
                             "and the cell is recorded as failed "
                             "(repeatable)")
    parser.add_argument("--flaky-seed", action="append", type=int,
                        default=[], metavar="SEED",
                        help="seed that fails transiently once, then "
                             "heals under the retry policy (repeatable)")
    parser.add_argument("--executor", default="serial",
                        choices=("serial", "thread", "process"))
    parser.add_argument("--workers", type=parse_workers, default=None,
                        help="worker count, or 'auto' for every CPU")
    parser.add_argument("--store", default=None,
                        help="append results to this SQLite run store")
    parser.add_argument("--max-events", type=at_least(1), default=50_000_000,
                        help="per-cell scheduler event budget")
    parser.add_argument("--retries", type=at_least(0), default=2,
                        help="retry budget for transient failures")
    parser.add_argument("--fail-fast", action="store_true",
                        help="disable graceful degradation: any "
                             "failing cell kills the sweep")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        impairments = tuple(parse_impairment(text)
                            for text in args.impair)
    except (FaultError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    plan = FaultPlan(impairments=impairments,
                     crash_seeds=tuple(args.crash_seed),
                     flaky_seeds=tuple(args.flaky_seed))
    if plan:
        print(f"fault plan: {plan.describe()}")
    methods = args.methods or ["hijack"]
    scenarios = [
        AttackScenario(method=method, label=method, faults=plan or None,
                       **budget_capped_overrides(method))
        for method in methods
    ]
    policy = None if args.fail_fast else RunPolicy(
        max_events=args.max_events, retries=args.retries)
    campaign = Campaign(executor=args.executor, workers=args.workers,
                        policy=policy)
    result = campaign.run(scenarios, seeds=range(args.seeds),
                          store=args.store)
    print(result.describe())
    if result.failures:
        print(f"{result.failures} cells degraded gracefully "
              "(recorded, sweep completed)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
