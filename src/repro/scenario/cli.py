"""``python -m repro.scenario`` — kill-chain campaigns from the shell.

Mirrors the atlas CLI: three subcommands make attack and kill-chain
campaigns scriptable without writing python.

* ``run`` — execute one scenario (optionally with an application
  stage) on one seed and narrate the outcome.
* ``sweep`` — run a kill-chain campaign over applications x methods x
  seeds on a worker pool; print the campaign and application-impact
  tables; optionally write a machine-readable JSON record.
* ``report`` — re-render the tables from a ``sweep --json`` record
  without re-running anything.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.apps.driver import AppSpec, available_apps, resolve_driver
from repro.defenses import DefenseStack
from repro.measurements.report import render_table
from repro.parallel.workers import at_least, parse_seed, parse_workers
from repro.scenario.campaign import Campaign, CampaignResult
from repro.scenario.presets import budget_capped_overrides, killchain_scenarios
from repro.scenario.registry import available_methods, resolve_method
from repro.scenario.spec import AttackScenario, TriggerSpec


def _split_csv(values: list[str] | None) -> list[str] | None:
    if not values:
        return None
    out: list[str] = []
    for value in values:
        out.extend(part for part in value.split(",") if part)
    return out


def _cmd_run(args: argparse.Namespace) -> int:
    method = resolve_method(args.method).name
    app_spec = None
    trigger = TriggerSpec()
    if args.app:
        driver = resolve_driver(args.app)
        if method not in driver.methods:
            print(f"app {args.app!r} cannot run under {method}; "
                  f"supported: {', '.join(driver.methods)}",
                  file=sys.stderr)
            return 2
        app_spec = AppSpec(app=args.app)
        trigger = TriggerSpec(kind="app")
    defenses = DefenseStack.parse(args.defend) if args.defend else None
    overrides = {} if args.full_budget else budget_capped_overrides(method)
    scenario = AttackScenario(method=method, app_spec=app_spec,
                              trigger=trigger, defenses=defenses,
                              **overrides)
    if defenses:
        print(defenses.describe())
    chain = scenario.run(seed=args.seed)
    print(chain.describe())
    if chain.app_result is not None:
        for outcome in chain.app_result.outcomes:
            print(f"    {outcome.describe()}")
    return 0


def _sweep_payload(result: CampaignResult, seeds: int) -> dict:
    return {
        "schema": "killchain-sweep/1",
        "seeds": seeds,
        "executor": result.executor,
        "workers": result.workers,
        "wall_clock_seconds": round(result.wall_clock, 3),
        "notes": list(result.notes),
        "runs": [
            {
                "label": run.label,
                "method": run.method,
                "seed": run.seed,
                "defense": run.defense,
                "success": run.success,
                "packets_sent": run.packets_sent,
                "queries_triggered": run.queries_triggered,
                "duration": run.duration,
                "app": run.app_result.app if run.app_result else None,
                "impact": run.app_result.impact if run.app_result else None,
                "impact_class": run.app_result.impact_class
                if run.app_result else None,
                "realized": run.impact_realized,
            }
            for run in result.runs
        ],
    }


def _render_payload(payload: dict) -> str:
    """The sweep/impact tables, rebuilt from a JSON record."""
    runs = payload["runs"]
    by_label: dict[str, list[dict]] = {}
    for run in runs:
        by_label.setdefault(run["label"], []).append(run)
    rows = []
    for label in sorted(by_label):
        group = by_label[label]
        successes = sum(1 for r in group if r["success"])
        rows.append([
            label, len(group), f"{100 * successes / len(group):.0f}%",
            f"{sum(r['packets_sent'] for r in group) / len(group):,.0f}",
            f"{sum(r['duration'] for r in group) / len(group):.1f}",
        ])
    sections = [render_table(
        ["Scenario", "Runs", "Success", "Mean packets", "Mean duration (s)"],
        rows, title="Campaign summary (from record)")]
    app_runs = [r for r in runs if r["app"]]
    if app_runs:
        by_app: dict[str, list[dict]] = {}
        for run in app_runs:
            by_app.setdefault(run["app"], []).append(run)
        impact_rows = []
        for app in sorted(by_app):
            group = by_app[app]
            realized = sum(1 for r in group if r["realized"])
            impact_rows.append([
                app, group[0]["impact"], len(group),
                f"{100 * realized / len(group):.0f}%",
            ])
        sections.append(render_table(
            ["Application", "Impact", "Stages", "Realized"],
            impact_rows, title="Application impact (from record)"))
    footer = (f"{len(runs)} runs recorded "
              f"({payload.get('executor')}, "
              f"workers={payload.get('workers')}, "
              f"{payload.get('wall_clock_seconds')}s wall)")
    sections.append(footer)
    return "\n".join(sections)


def _cmd_sweep(args: argparse.Namespace) -> int:
    apps = _split_csv(args.apps)
    if apps == ["all"]:
        apps = None
    methods = _split_csv(args.methods) or ["hijack"]
    if methods == ["all"]:
        methods = available_methods()
    scenarios = killchain_scenarios(apps=apps, methods=methods)
    campaign = Campaign(workers=args.workers, executor=args.executor)
    if args.defend:
        stacks = [DefenseStack.parse(text) for text in args.defend]
        result = campaign.run_defended(scenarios, stacks=stacks,
                                       seeds=range(args.seeds),
                                       store=args.store)
    else:
        result = campaign.run(scenarios, seeds=range(args.seeds),
                              store=args.store)
    print(result.describe())
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(_sweep_payload(result, args.seeds), handle,
                      indent=2, sort_keys=True)
        print(f"wrote {args.json}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    try:
        with open(args.json, encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, ValueError) as exc:
        print(f"cannot read {args.json}: {exc}", file=sys.stderr)
        return 1
    if payload.get("schema") != "killchain-sweep/1":
        print(f"{args.json} is not a killchain-sweep record",
              file=sys.stderr)
        return 1
    print(_render_payload(payload))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.scenario",
        description=__doc__.split("\n\n")[0],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="one scenario, one seed, narrated")
    run.add_argument("--method", default="hijack",
                     help="methodology name or alias (default: hijack)")
    run.add_argument("--app", default=None,
                     help="application stage to attach "
                          f"(one of: {', '.join(available_apps())})")
    run.add_argument("--seed", type=parse_seed, default=0)
    run.add_argument("--full-budget", action="store_true",
                     help="full attack budgets for probabilistic methods "
                          "(default: sweep-style caps)")
    run.add_argument("--defend", default=None, metavar="STACK",
                     help="deploy a defense stack, e.g. 'dnssec' or "
                          "'0x20-encoding+rpki-rov'")
    run.set_defaults(fn=_cmd_run)

    sweep = sub.add_parser(
        "sweep", help="kill-chain campaign over apps x methods x seeds")
    sweep.add_argument("--apps", action="append", default=None,
                       help="comma-separated app names, or 'all' "
                            "(default: all)")
    sweep.add_argument("--methods", action="append", default=None,
                       help="comma-separated methodology names, or 'all' "
                            "(default: hijack)")
    sweep.add_argument("--seeds", type=at_least(1), default=8)
    sweep.add_argument("--workers", type=parse_workers, default=None,
                       help="worker count or 'auto' (all schedulable "
                            "CPUs; REPRO_WORKERS overrides defaults)")
    sweep.add_argument("--executor", default="process",
                       choices=("process", "thread", "serial"))
    sweep.add_argument("--defend", action="append", default=None,
                       metavar="STACK",
                       help="defense stack to add to the grid (repeatable;"
                            " the undefended baseline is always included)")
    sweep.add_argument("--json", default=None,
                       help="write the machine-readable sweep record here")
    sweep.add_argument("--store", default=None, metavar="DB",
                       help="SQLite run store: record every cell and skip "
                            "cells already stored (killed sweeps resume)")
    sweep.set_defaults(fn=_cmd_sweep)

    report = sub.add_parser(
        "report", help="re-render tables from a sweep --json record")
    report.add_argument("--json", required=True)
    report.set_defaults(fn=_cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)
