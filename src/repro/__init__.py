"""crosslayer-repro: a reproduction of "From IP to Transport and Beyond:
Cross-Layer Attacks Against Applications" (SIGCOMM 2021).

The package implements, on a byte-accurate simulated Internet:

* the three off-path DNS cache poisoning methodologies the paper
  evaluates — HijackDNS (BGP prefix hijack), SadDNS (ICMP rate-limit
  side channel) and FragDNS (IPv4 fragment injection) — in
  :mod:`repro.attacks`;
* a unified scenario/campaign API (:mod:`repro.scenario`): declarative
  :class:`AttackScenario` specs, a methodology registry, the
  planner-to-execution bridge (:func:`plan_and_run`), and a parallel
  multi-seed :class:`Campaign` runner;
* every substrate they need: an IPv4/UDP/ICMP network stack with
  fragmentation and rate limiting (:mod:`repro.netsim`), a full DNS
  ecosystem (:mod:`repro.dns`), and interdomain routing with RPKI
  (:mod:`repro.bgp`);
* the application victims of Table 1 (:mod:`repro.apps`), each with a
  kill-chain driver so any scenario can carry an :class:`AppSpec` stage
  and measure *application impact* (fraudulent certificates, security
  downgrades, account takeovers), not just cache state;
* the Internet-scale measurement study of Section 5
  (:mod:`repro.measurements`) and the Section 6 mitigations as a
  composable defense-stack API (:mod:`repro.defenses`): picklable
  :class:`Defense` specs with pure world-config transforms, stackable
  across layers (``ip``/``transport``/``dns``/``bgp``/``app``) into a
  :class:`DefenseStack` that any scenario, campaign, planner verdict or
  atlas calibration consumes;
* an experiment registry regenerating every table and figure
  (:mod:`repro.experiments`);
* the attack-surface atlas (:mod:`repro.atlas`): sharded synthesis and
  parallel scanning of the *full* paper populations (1.58M open
  resolvers, 1M domains) with a resumable on-disk result store and a
  campaign bridge validating planner verdicts at population scale;
* a traffic-workload engine (:mod:`repro.workload`): a deterministic
  benign client population (Zipf-ranked domains, Poisson arrivals,
  trace replay) querying the victim resolver *during* the attack, so
  every scenario can measure cache churn, the window of opportunity,
  benign-client latency, and poisoned answers actually served;
* an append-only run store (:mod:`repro.store`): every campaign cell
  keyed by ``(scenario spec hash, seed, defense stack)`` in WAL-mode
  SQLite, so killed sweeps resume idempotently (only missing cells
  recompute, bit-identically) and summaries reconstruct from the store
  without re-running — plus a service mode (:mod:`repro.serve`)
  queueing submitted campaigns into the store over HTTP;
* deterministic fault injection and graceful degradation
  (:mod:`repro.faults`): declarative :class:`FaultPlan` network
  impairments (loss, latency, jitter, reordering, duplication) drawn
  from their own seed-derived RNG stream — a no-op plan is
  bit-identical to a clean run — plus a :class:`RunPolicy` execution
  contract (scheduler event/wall budgets, retry-with-backoff for
  transients) under which a raising cell becomes a *recorded failure*
  in the campaign and store instead of killing the sweep, and a chaos
  harness (crash/flaky seeds, scheduled store-write failures, serve
  worker crashes) that makes the resilience paths testable;
* a zero-cost observability plane (:mod:`repro.obs`): mergeable
  counters/gauges/histograms, run-correlated span tracing across
  process workers, per-stage profiling hooks and a Prometheus
  ``GET /metrics`` endpoint in service mode — disabled by default
  under the ``NullLog`` discipline, so instrumentation never changes
  a statistic: every output is bit-identical with the plane off or
  on.

Quickstart::

    from repro import AttackScenario, Campaign

    # One attack, declaratively: methodology + target + trigger.
    run = AttackScenario(method="hijack").run(seed=1)
    print(run.result.describe())

    # Statistics: sweep any scenario across seeds on worker processes.
    sweep = Campaign(workers=8).run(AttackScenario(method="frag"),
                                    seeds=range(32))
    print(sweep.describe())

    # Planner-driven: Table 1 reasoning picks the methodology, then
    # executes it.
    from repro import TargetProfile, plan_and_run
    profile = TargetProfile(app_name="HTTP", query_name_known=True,
                            query_name_choosable=True,
                            trigger_style="direct")
    print(plan_and_run(profile, seed=2).result.describe())

    # The full kill chain: attack -> poisoned cache -> application.
    from repro import AppSpec
    chain = AttackScenario(method="hijack", app_spec=AppSpec(app="dv"),
                           trigger=TriggerSpec(kind="app")).run(seed=3)
    print(chain.app_result.describe())   # fraud. certificate issued
    # Sweep all Table 1 applications: Campaign().run(
    #     killchain_scenarios(), seeds=range(16)) — or from the shell:
    # ``python -m repro.scenario sweep --apps all``.

    # Defenses are first-class, stackable scenario citizens: the same
    # scenario, defended, measures the *residual* attack surface.
    from repro import DefenseStack
    stack = DefenseStack.of("0x20-encoding", "rpki-rov")
    defended = AttackScenario(method="hijack", defenses=stack).run(seed=3)
    print(defended.success)              # False: ROV filtered the hijack
    grid = Campaign().run_defended(killchain_scenarios(apps=("dv",)),
                                   stacks=[stack, "dnssec"],
                                   seeds=range(8))
    print(grid.describe())               # residual success/impact per stack
    # Shell: ``python -m repro.scenario run --defend rpki-rov`` and
    # ``python -m repro.atlas calibrate --defend dnssec`` (deployment
    # projection at population scale).

    # Under load: a benign client population shares the resolver with
    # the attack, and the run reports what those clients experienced.
    from repro.workload import WorkloadSpec
    loaded = AttackScenario(
        method="frag",
        workload=WorkloadSpec(qps=40, victim_ttl=6)).run(seed=4)
    print(loaded.load_report.describe())  # latency, hit rate, window,
    #                                       poisoned answers served
    # Shell: ``python -m repro.workload replay --method frag --qps 40``
    # (plus ``synth`` / ``inspect`` / ``report`` for query traces).

    # Durable sweeps: attach a run store and every cell is recorded as
    # it completes; re-running the same call (after a crash, on another
    # executor, from another process) loads stored cells instead of
    # recomputing them — bit-identical aggregates either way.
    sweep = Campaign().run_defended(killchain_scenarios(apps=("dv",)),
                                    stacks=["dnssec"], seeds=range(8),
                                    store="runs.db")
    sweep = Campaign().run_defended(killchain_scenarios(apps=("dv",)),
                                    stacks=["dnssec"], seeds=range(8),
                                    store="runs.db")   # instant resume
    from repro.store import RunStore, campaign_from_store
    print(campaign_from_store(RunStore("runs.db")).describe())
    # Shell: ``python -m repro.scenario sweep --store runs.db``,
    # ``python -m repro.atlas calibrate --run-store runs.db`` and
    # ``python -m repro.store inspect runs.db``.

    # Service mode: an HTTP job queue draining campaigns into the same
    # store (stdlib-only; see ``python -m repro.serve -h``)::
    #
    #   python -m repro.serve --store runs.db --port 8737 &
    #   curl -d '{"methods": ["hijack"], "seeds": 8}' :8737/jobs
    #   curl ':8737/aggregate?by=method'

    # Degraded paths: impair the resolver<->NS link deterministically
    # (fault draws never shift attack randomness — an empty plan is
    # bit-identical to no plan), and run under a policy that records
    # failing cells instead of killing the sweep.
    from repro import FaultPlan, RunPolicy
    lossy = FaultPlan.link("30.0.0.1", "123.0.0.53",
                           loss=0.02, extra_latency=0.04)
    run = AttackScenario(method="saddns", faults=lossy).run(seed=5)
    print(run.result.detail["faults"])   # dropped/delayed/duplicated
    sweep = Campaign(policy=RunPolicy(max_events=10_000_000,
                                      retries=2)).run(
        AttackScenario(method="hijack", faults=lossy),
        seeds=range(16), store="runs.db")
    print(sweep.failures)                # recorded, not raised; a
    #                                      re-run re-executes only them
    # Shell: ``python -m repro.faults --method hijack --seeds 8
    # --impair 'dst=123.0.0.53,loss=0.02,latency=0.04'``.

    # Watch it run: enable the obs plane (free when off — statistics
    # are bit-identical either way) and the same sweep emits mergeable
    # metrics and a sweep -> batch -> cell span tree, fleet-wide even
    # on the process executor.
    from repro import obs
    obs.enable()                              # or REPRO_OBS=1
    sweep = Campaign(executor="process").run(
        AttackScenario(method="hijack"), seeds=range(16))
    print(obs.OBS.registry.value("campaign.sweeps_total"))    # 1
    obs.OBS.spans.export_jsonl("trace.jsonl")
    # Shell: ``python -m repro.obs tail trace.jsonl`` renders the
    # tree; ``python -m repro.serve`` (obs on by default) exposes the
    # live registry at ``GET /metrics``, and ``python -m repro.obs
    # snapshot --url http://127.0.0.1:8737`` / ``diff`` scrape it.

Atlas quickstart — Section 5 at the paper's full dataset sizes::

    from repro.atlas import AtlasStore, find_dataset, scan_dataset

    spec = find_dataset("open")                  # 1.58M open resolvers
    report = scan_dataset(spec, shards=16, workers="auto",
                          store=AtlasStore(".atlas-store"))
    print(report.summary.percentages)            # Table 3 'open' row
    # Interrupted?  Re-run the same call: only missing shards compute.
    # ``workers="auto"`` (or ``--workers auto`` on any CLI) resolves to
    # the schedulable CPU count; ``REPRO_WORKERS`` overrides it.  The
    # scan runs the batch-vectorised numpy kernel (the per-entity
    # scalar scan is the reference); results never depend on kernel,
    # worker count or completion order.

    # Multi-host: point claim-mode workers at one shared store — each
    # leases shards atomically, killed workers' leases expire, and the
    # coordinator merge equals an uninterrupted serial scan::
    #
    #   python -m repro.atlas claim --dataset open --store S &  # xN
    #   python -m repro.atlas merge --dataset open --store S

    # Validate the planner against the scanned strata end-to-end:
    from repro.atlas.calibrate import calibrate_population
    print(calibrate_population(report.aggregate, "open",
                               sample_budget=24).describe())

Shell equivalent: ``python -m repro.atlas scan --entities 1580000
--shards 16 --store .atlas-store`` (see ``python -m repro.atlas -h``
for ``synth`` / ``calibrate`` / ``report``).
"""

import importlib

__version__ = "1.0.0"

#: The public names, each imported on first use from the module named
#: here, so ``import repro`` itself loads no layer.
_EXPORTS = {
    "AppSpec": "repro.scenario",
    "AttackScenario": "repro.scenario",
    "Campaign": "repro.scenario",
    "CampaignResult": "repro.scenario",
    "Defense": "repro.defenses",
    "DefenseStack": "repro.defenses",
    "FaultPlan": "repro.faults",
    "ImpairmentSpec": "repro.faults",
    "RunPolicy": "repro.faults",
    "RunStore": "repro.store",
    "ScenarioRun": "repro.scenario",
    "TargetProfile": "repro.attacks.planner",
    "Testbed": "repro.testbed",
    "TriggerSpec": "repro.scenario",
    "killchain_scenarios": "repro.scenario",
    "plan_and_run": "repro.scenario",
    "scenario_from_profile": "repro.scenario",
    "standard_testbed": "repro.testbed",
}

__all__ = sorted([*_EXPORTS, "__version__"])


def _lazy_exports(namespace: dict, exports: dict[str, str]):
    """PEP 562 ``(__getattr__, __dir__)`` for a package ``namespace``
    that serves each name of ``exports`` from the module it maps to,
    importing that module on first use."""
    package = namespace["__name__"]

    def __getattr__(name: str):
        # An unknown name raises AttributeError, so ``from repro import
        # obs`` falls back to importing the submodule.
        if name not in exports:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(exports[name]), name)
        namespace[name] = value
        return value

    def __dir__():
        return sorted({*namespace, *exports})

    return __getattr__, __dir__


__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
