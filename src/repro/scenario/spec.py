"""Declarative attack scenarios: one value object describes one attack.

An :class:`AttackScenario` captures everything needed to run one of the
paper's poisoning methodologies against the standard testbed — the
methodology name, the queried name, the trigger, the malicious records,
and any resolver/nameserver configuration overrides — as plain,
picklable data.  ``scenario.build()`` materialises a world and wires the
right attack class through the method registry; ``scenario.run(seed)``
does the whole thing in one call.  Because the object is pure data, a
:class:`repro.scenario.campaign.Campaign` can ship it to worker
processes and sweep it across seeds and config grids.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields, replace
from typing import Any, Callable, Iterable

from repro.apps.driver import AppDriver, AppSpec, AppStageResult
from repro.attacks.base import AttackResult, OffPathAttacker
from repro.attacks.trigger import (
    CallableTrigger,
    OpenResolverTrigger,
    QueryTrigger,
    SpoofedClientTrigger,
)
from repro.core.errors import ScenarioError
from repro.defenses.base import DefenseStack, WorldConfig
from repro.dns.nameserver import NameserverConfig
from repro.faults.spec import FaultPlan
from repro.dns.records import TYPE_A, ResourceRecord
from repro.dns.resolver import ResolverConfig
from repro.netsim.host import HostConfig
from repro.obs import OBS
from repro.obs.profile import observe_scheduler
from repro.testbed import SERVICE_IP, TARGET_DOMAIN, standard_testbed
from repro.workload.population import WorkloadSpec
from repro.workload.report import LoadReport


@dataclass
class TriggerSpec:
    """How the attacker makes the victim resolver issue its query.

    Declarative counterpart of :mod:`repro.attacks.trigger`: the spec is
    data (picklable, sweepable); :meth:`build` turns it into the live
    trigger object once a world exists.

    Kinds:

    * ``"spoofed-client"`` — spoof a query from ``client_ip`` inside the
      resolver's ACL (the Figure 1 trigger; the default).
    * ``"open-resolver"`` — query the resolver directly from the
      attacker's own address (Section 4.3.3 open forwarders).
    * ``"app"`` — the scenario's application stage fires the query in
      its own style (bounce, discovery, fetch); needs an ``app_spec``
      on the scenario.  Fully declarative, so app scenarios pickle to
      process workers like any other.
    * ``"callable"`` — an application-provided function whose side
      effect is the query.  Callables are generally not picklable;
      campaigns fall back to in-process execution for them.  App
      scenarios use ``"app"`` instead — no fallback on that path.
    """

    kind: str = "spoofed-client"
    client_ip: str = SERVICE_IP
    fn: Callable[[str, int | str], None] | None = None
    style: str = "application"
    cadence_seconds: float | None = None

    def build(self, world: dict, attacker: OffPathAttacker,
              app_stage: tuple[AppDriver, dict] | None = None
              ) -> QueryTrigger:
        """Instantiate the live trigger against a built world."""
        resolver_ip = world["resolver"].address
        if self.kind == "spoofed-client":
            return SpoofedClientTrigger(
                world["attacker"], resolver_ip, self.client_ip,
                rng=attacker.rng.derive("trigger"),
            )
        if self.kind == "open-resolver":
            return OpenResolverTrigger(
                world["attacker"], resolver_ip,
                rng=attacker.rng.derive("trigger"),
            )
        if self.kind == "app":
            if app_stage is None:
                raise ScenarioError(
                    "trigger kind 'app' needs an app_spec on the scenario")
            driver, ctx = app_stage
            return driver.query_trigger(ctx)
        if self.kind == "callable":
            if self.fn is None:
                raise ScenarioError(
                    "trigger kind 'callable' needs a trigger function")
            return CallableTrigger(self.fn, style=self.style,
                                   cadence_seconds=self.cadence_seconds)
        raise ScenarioError(f"unknown trigger kind: {self.kind!r}")


@dataclass
class ScenarioRun:
    """One scenario executed on one seed.

    ``app_result`` carries the application stage of a kill-chain
    scenario (None when the scenario had no ``app_spec``).
    """

    label: str
    method: str
    seed: Any
    result: AttackResult
    wall_time: float = 0.0
    app_result: AppStageResult | None = None
    # The scenario's deployed defense-stack key ("none" when undefended)
    # — what lets campaign aggregation pivot on (method x defense).
    defense: str = "none"
    # What the benign client population experienced during the run
    # (None when the scenario carried no workload, or its qps was 0).
    load_report: LoadReport | None = None
    # Non-empty when the cell could not run: the one-line failure a
    # RunPolicy recorded instead of killing the grid (the attack
    # statistics are then all zero).  See repro.faults.failed_run.
    error: str = ""

    # -- flattened conveniences for aggregation --------------------------------

    @property
    def success(self) -> bool:
        return self.result.success

    @property
    def packets_sent(self) -> int:
        return self.result.packets_sent

    @property
    def queries_triggered(self) -> int:
        return self.result.queries_triggered

    @property
    def duration(self) -> float:
        """Virtual (simulated) attack duration in seconds."""
        return self.result.duration

    @property
    def iterations(self) -> int:
        return self.result.iterations

    @property
    def impact_realized(self) -> bool:
        """Did the application stage demonstrate its Table 1 impact?"""
        return self.app_result is not None and self.app_result.realized

    @property
    def failed(self) -> bool:
        """Whether this cell failed to execute (vs. the attack merely
        not succeeding)."""
        return bool(self.error)

    @property
    def status(self) -> str:
        """``"ok"`` for executed cells, ``"failed"`` for recorded
        failures — the run store's status column."""
        return "failed" if self.error else "ok"

    def describe(self) -> str:
        if self.error:
            return f"[seed={self.seed}] {self.method}: ERROR {self.error}"
        line = f"[seed={self.seed}] {self.result.describe()}"
        if self.app_result is not None:
            line += f"\n  app stage: {self.app_result.describe()}"
        if self.load_report is not None:
            report = self.load_report
            line += (
                f"\n  load: {report.offered} queries at"
                f" {report.offered_qps:.1f} qps, p50"
                f" {report.latency_percentile_ms(0.50):.1f} ms, window"
                f" open {report.window_fraction * 100:.1f}%,"
                f" {report.poisoned_answers} poisoned answers")
        return line


@dataclass
class AttackScenario:
    """Everything needed to run one poisoning attack, as plain data.

    ``method`` is a registry name (``"HijackDNS"``, ``"SadDNS"``,
    ``"FragDNS"`` or an alias like ``"hijack"``/``"frag"``); the other
    fields override the standard testbed and the attack defaults.  Any
    field left at its default is filled in by the method's registered
    defaults (e.g. a SadDNS scenario gets a rate-limited nameserver, a
    FragDNS scenario a global-IP-ID nameserver and the long qname whose
    answer spills into the second fragment).
    """

    method: str
    qname: str | None = None
    target_domain: str = TARGET_DOMAIN
    trigger: TriggerSpec = field(default_factory=TriggerSpec)
    malicious_records: tuple[ResourceRecord, ...] = ()
    attack_config: Any = None
    # -- standard_testbed overrides (None = method/testbed default) ------------
    resolver_config: ResolverConfig | None = None
    ns_config: NameserverConfig | None = None
    ns_host_config: HostConfig | None = None
    resolver_host_config: HostConfig | None = None
    signed_target: bool = False
    extra_target_records: tuple[ResourceRecord, ...] = ()
    # -- deployed defenses -----------------------------------------------------
    # A DefenseStack applied to the world config after the method
    # defaults fill in: pure transforms, so the scenario's own config
    # objects are never mutated.  A BGP-layer ROV member additionally
    # deploys real RPKI validation onto the built world.
    defenses: DefenseStack | None = None
    # -- the application stage of the kill chain -------------------------------
    # When set, build() wires the named app driver into the world before
    # the attack and execute() runs its workload after it, so the run
    # measures application impact, not just cache state.
    app_spec: AppSpec | None = None
    # -- benign traffic load ---------------------------------------------------
    # When set, build() compiles the client population into scheduler
    # events on the world's clock and execute() runs the load around the
    # attack: warmup primes the cache, arrivals interleave with attack
    # traffic, and the run carries a LoadReport.  A qps=0 workload
    # compiles to an empty trace and reproduces the idle world exactly.
    workload: WorkloadSpec | None = None
    # -- degraded fabric -------------------------------------------------------
    # When set, make_world() compiles the plan's impairments onto the
    # network with a seed-derived RNG stream (repro.faults) and applies
    # its chaos schedule (crash/flaky seeds raise at build time).  A
    # no-op plan installs nothing and reproduces the clean run bit for
    # bit; the plan is part of the scenario's spec hash, so the run
    # store keys impaired and clean runs distinctly.
    faults: FaultPlan | None = None
    # -- metadata --------------------------------------------------------------
    app: str | None = None             # application victim (Table 1 row)
    capture_possible: bool = True      # HijackDNS control-plane outcome
    label: str | None = None
    planner_notes: tuple[str, ...] = ()
    # Scenario runs are statistical (campaigns sweep thousands of
    # seeds), so worlds default to the untraced NullLog fast path.
    # Instrumented runs — the Figure 1/2 sequence charts — set
    # ``trace=True`` to get a recording EventLog back.
    trace: bool = False

    # -- derived ---------------------------------------------------------------

    @property
    def canonical_method(self) -> str:
        """The registry's canonical name for :attr:`method`."""
        from repro.scenario.registry import resolve_method

        return resolve_method(self.method).name

    @property
    def defense_key(self) -> str:
        """Canonical key of the deployed stack (``"none"`` if none)."""
        return self.defenses.key if self.defenses is not None else "none"

    @property
    def app_name(self) -> str | None:
        """The application this scenario attacks, if any."""
        if self.app is not None:
            return self.app
        return self.app_spec.app if self.app_spec is not None else None

    @property
    def display_label(self) -> str:
        return self.label if self.label is not None else (
            f"{self.canonical_method}:{self.target_domain}"
            + (f" [{self.app_name}]" if self.app_name else "")
        )

    def planted_address(self, attacker_address: str) -> str:
        """The address the attack's planted A record maps the qname to."""
        from repro.dns import names

        qname = self.effective_qname()
        for record in self.malicious_records:
            if record.rtype == TYPE_A and names.same_name(record.name,
                                                          qname):
                return record.data
        return attacker_address

    def effective_qname(self) -> str:
        """The name the attack races (method default when unset)."""
        if self.qname is not None:
            return self.qname
        from repro.scenario.registry import resolve_method

        return resolve_method(self.method).default_qname(self)

    # -- materialisation -------------------------------------------------------

    def make_world(self, seed: Any = 0) -> dict:
        """Build the standard testbed with this scenario's overrides.

        Overrides the user left unset fall back to the registered
        method defaults, so ``AttackScenario("saddns")`` runs against a
        rate-limited nameserver without further ceremony.
        """
        from repro.scenario.registry import resolve_method

        if self.faults is not None:
            from repro.faults.chaos import maybe_crash

            maybe_crash(self.faults, self.display_label, seed)
        spec = resolve_method(self.method)
        kwargs: dict[str, Any] = {
            "resolver_config": self.resolver_config,
            "ns_config": self.ns_config,
            "ns_host_config": self.ns_host_config,
            "resolver_host_config": self.resolver_host_config,
        }
        for key, value in spec.world_defaults(self).items():
            if key not in kwargs:
                raise ScenarioError(
                    f"{spec.name} world_defaults names {key!r}; only the"
                    f" config knobs {sorted(kwargs)} can default per"
                    " method")
            if kwargs[key] is None:
                kwargs[key] = value
        config = WorldConfig(signed_target=self.signed_target, **kwargs)
        if self.defenses is not None:
            # Pure transforms: the scenario's own config objects (and
            # anything the caller shared into them) stay untouched.
            config = self.defenses.apply(config)
        world = standard_testbed(seed=seed, trace=self.trace,
                                 **config.testbed_kwargs())
        if config.rov is not None:
            # BGP-layer defense: relying parties hold validated ROAs
            # covering the target; the hijack announcement is origin-
            # validated for real (repro.bgp.rpki) before it can divert.
            world["rov"] = config.rov.deploy(world)
        for record in self.extra_target_records:
            world["target"].zone.add(record)
        if self.faults is not None and self.faults.active_impairments:
            from repro.faults.inject import install_plan

            install_plan(self.faults, world)
        return world

    def build(self, *, world: dict | None = None, seed: Any = 0
              ) -> "BuiltScenario":
        """Materialise the scenario: world, attacker, trigger, attack.

        Both parameters are keyword-only: ``build(7)`` would otherwise
        silently bind a seed to ``world`` and fail far from the call.
        """
        from repro.scenario.registry import resolve_method

        spec = resolve_method(self.method)
        if self.attack_config is not None and not isinstance(
                self.attack_config, spec.config_cls):
            raise ScenarioError(
                f"{spec.name} expects a {spec.config_cls.__name__},"
                f" got {type(self.attack_config).__name__}")
        if world is None:
            world = self.make_world(seed=seed)
        attacker = OffPathAttacker(world["attacker"])
        app_driver = None
        app_ctx = None
        runtime = self
        if self.app_spec is not None:
            from repro.apps.driver import resolve_driver

            app_driver = resolve_driver(self.app_spec.app)
            if spec.name not in app_driver.methods:
                raise ScenarioError(
                    f"app {self.app_spec.app!r} cannot observe records "
                    f"planted by {spec.name} (its workload needs "
                    f"{', '.join(app_driver.methods)})")
            qname = self.effective_qname()
            if not self.malicious_records:
                # The driver knows which records its workload consumes
                # (the A mapping plus any TXT/IPSECKEY extras); the
                # attack plants exactly that set.
                runtime = replace(self, malicious_records=tuple(
                    app_driver.malicious_records(qname, attacker.address)))
            app_ctx = app_driver.setup(
                world, qname, runtime.planted_address(attacker.address),
                **self.app_spec.kwargs())
        trigger = self.trigger.build(
            world, attacker,
            app_stage=(app_driver, app_ctx)
            if app_driver is not None else None)
        attack = spec.attack_factory(runtime, world, attacker)
        load_engine = None
        if self.workload is not None:
            from repro.workload.engine import WorkloadEngine

            load_engine = WorkloadEngine(self.workload, world,
                                         self.effective_qname())
            load_engine.install()
        return BuiltScenario(scenario=self, seed=seed, world=world,
                             attacker=attacker, trigger=trigger,
                             attack=attack, app_driver=app_driver,
                             app_ctx=app_ctx, load_engine=load_engine)

    def run(self, seed: Any = 0) -> ScenarioRun:
        """Build a fresh world for ``seed`` and execute the attack."""
        return self.build(seed=seed).execute()

    def variants(self, **axes: Iterable[Any]) -> list["AttackScenario"]:
        """Expand a config grid: one scenario per combination of axes.

        Each keyword names a scenario field; each value is an iterable
        of settings for that field.  The cartesian product is returned
        with labels recording the grid point, ready for
        :meth:`repro.scenario.campaign.Campaign.run`.
        """
        valid = {f.name for f in fields(self)}
        for name in axes:
            if name not in valid:
                raise ScenarioError(f"unknown scenario field: {name!r}")
        grid: list[AttackScenario] = [self]
        for name, values in axes.items():
            values = list(values)
            if not values:
                raise ScenarioError(f"empty axis: {name!r}")
            expanded: list[AttackScenario] = []
            for point in grid:
                for value in values:
                    changes: dict[str, Any] = {name: value}
                    if name != "label" and len(values) > 1:
                        changes["label"] = (
                            f"{point.display_label} {name}={value!r}")
                    expanded.append(replace(point, **changes))
            grid = expanded
        return grid


@dataclass
class BuiltScenario:
    """A scenario materialised against one concrete world."""

    scenario: AttackScenario
    seed: Any
    world: dict
    attacker: OffPathAttacker
    trigger: QueryTrigger
    attack: Any
    app_driver: AppDriver | None = None
    app_ctx: dict | None = None
    load_engine: Any = None

    @property
    def testbed(self):
        return self.world["testbed"]

    @property
    def network(self):
        return self.world["testbed"].network

    @property
    def resolver(self):
        return self.world["resolver"]

    @property
    def target(self):
        return self.world["target"]

    def execute(self) -> ScenarioRun:
        """Run the kill chain: load warmup, attack phase, app stage."""
        started = time.perf_counter()
        if self.load_engine is not None:
            # Prime the cache and start the benign arrivals before the
            # attack fires: load and attack traffic share the scheduler,
            # so they interleave exactly as on a busy resolver.
            self.load_engine.begin()
        result = self.attack.execute(
            self.trigger, qname=self.scenario.effective_qname())
        app_result = None
        if self.app_driver is not None:
            # The victim application operates against whatever world the
            # attack left behind — poisoned cache or not, the workload
            # and its impact classification run identically.  First let
            # the network settle past the kernel reassembly timeout so
            # planted-but-unused fragments age out of reassembly caches
            # (Linux keeps partials ~30s) instead of corrupting the
            # app's own fragmented responses.
            from repro.netsim.fragmentation import LINUX_FRAG_TIMEOUT

            self.network.run(LINUX_FRAG_TIMEOUT + 1.0)
            app_result = self.app_driver.run_stage(self.app_ctx)
        load_report = None
        if self.load_engine is not None:
            # Drain the remaining arrivals (plus the client-timeout
            # tail) and collect what the benign population experienced.
            # An empty trace (qps=0) yields no report: the run is the
            # idle-world baseline, bit for bit.
            report = self.load_engine.finish()
            if self.load_engine.active:
                load_report = report
        network = self.network
        if network.fault_injector is not None:
            # Only when a plan is installed, so fault-free runs carry a
            # byte-identical detail payload.
            result.detail["faults"] = {
                "dropped": network.stats.faults_dropped,
                "delayed": network.stats.faults_delayed,
                "duplicated": network.stats.faults_duplicated,
            }
        wall_time = time.perf_counter() - started
        if OBS.enabled:
            # End-of-run mirror only: the simulator hot loop stays
            # untouched; everything here reads counters the run
            # already kept.
            observe_scheduler(network.scheduler, wall_time=wall_time)
            if network.fault_injector is not None:
                OBS.counter("faults.dropped_total").inc(
                    network.stats.faults_dropped)
                OBS.counter("faults.delayed_total").inc(
                    network.stats.faults_delayed)
                OBS.counter("faults.duplicated_total").inc(
                    network.stats.faults_duplicated)
        return ScenarioRun(
            label=self.scenario.display_label,
            method=self.scenario.canonical_method,
            seed=self.seed,
            result=result,
            wall_time=wall_time,
            app_result=app_result,
            defense=self.scenario.defense_key,
            load_report=load_report,
        )
