"""App drivers: the application stage of the end-to-end kill chain.

The paper's impact claims (Table 1, §4.5) are statements about what a
poisoned cache does *to an application* — a CA issues a fraudulent
certificate, a relying party stops validating routes, a roaming user is
denied network access.  An :class:`AppDriver` packages one Table 1
application as a scenario stage:

* :meth:`AppDriver.setup` attaches the application's principals to a
  built testbed world — the victim application on the in-ACL service
  host, the genuine remote endpoint at the address the target zone
  really publishes, and the attacker's counterfeit endpoint at the
  address the poisoning plants;
* :meth:`AppDriver.workload` executes the application operation against
  the (possibly poisoned) world after the attack phase;
* :meth:`AppDriver.realized` decides whether the outcomes demonstrate
  the row's impact — traffic at the planted address, a fraudulent
  issuance, a fail-open downgrade.

An :class:`AppSpec` names a driver as plain picklable data, and
``AttackScenario.app_spec`` turns any attack scenario into a full kill
chain that campaigns can sweep on worker processes.  The driver table
maps each name to the module defining it, so resolving one driver
imports one application module.
"""

from __future__ import annotations

import importlib
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any

from repro.apps.base import Application, AppOutcome
from repro.attacks.trigger import QueryTrigger, send_query
from repro.core.errors import ScenarioError
from repro.core.rng import DeterministicRNG
from repro.dns.records import ResourceRecord, TYPE_A, rr_a
from repro.dns.stub import StubResolver
from repro.testbed import TARGET_WEB_IP

#: Table 1 impact classes (the prefix before the colon in every cell).
IMPACT_HIJACK = "Hijack"
IMPACT_DOWNGRADE = "Downgrade"
IMPACT_DOS = "DoS"
IMPACT_CLASSES = (IMPACT_HIJACK, IMPACT_DOWNGRADE, IMPACT_DOS)


def impact_class(impact: str) -> str:
    """The Table 1 impact class of an impact cell string."""
    prefix = impact.split(":", 1)[0].strip()
    if prefix not in IMPACT_CLASSES:
        raise ValueError(f"unclassifiable impact cell: {impact!r}")
    return prefix


@dataclass(frozen=True, slots=True)
class AppSpec:
    """The application stage of a scenario, as plain picklable data.

    ``app`` names a driver; ``params`` (sorted key/value pairs, kept as
    a tuple so the spec stays hashable) are passed to the driver's
    :meth:`AppDriver.setup`.
    """

    app: str
    params: tuple[tuple[str, Any], ...] = ()

    @classmethod
    def of(cls, app: str, **params: Any) -> "AppSpec":
        """Build a spec with keyword parameters."""
        return cls(app=app, params=tuple(sorted(params.items())))

    def kwargs(self) -> dict[str, Any]:
        """The params as a keyword dict for the driver."""
        return dict(self.params)

    # Frozen+slots dataclasses only pickle out of the box from Python
    # 3.11; campaign workers ship specs on 3.10 too.
    def __getstate__(self):
        return (self.app, self.params)

    def __setstate__(self, state):
        for name, value in zip(("app", "params"), state):
            object.__setattr__(self, name, value)


@dataclass(frozen=True, slots=True)
class AppStageResult:
    """What the application stage of one kill-chain run measured.

    ``impact`` is the Table 1 impact cell the driver reproduces;
    ``realized`` says whether this run's outcomes actually demonstrated
    it (they can only when the attack phase poisoned the cache).
    """

    app: str
    impact: str
    impact_class: str
    realized: bool
    outcomes: tuple[AppOutcome, ...] = ()

    @property
    def fraud_certificate(self) -> bool:
        """A fraudulent (but genuine-looking) certificate was issued."""
        return self.realized and "certificate" in self.impact

    @property
    def takeover(self) -> bool:
        """An account/credential takeover completed."""
        return self.realized and "account hijack" in self.impact

    @property
    def downgrade(self) -> bool:
        """A security mechanism was silently switched off."""
        return self.realized and self.impact_class == IMPACT_DOWNGRADE

    def describe(self) -> str:
        status = "IMPACT REALIZED" if self.realized else "no impact"
        return f"{self.app}: {status} ({self.impact})"

    def __getstate__(self):
        return (self.app, self.impact, self.impact_class, self.realized,
                self.outcomes)

    def __setstate__(self, state):
        for name, value in zip(
                ("app", "impact", "impact_class", "realized", "outcomes"),
                state):
            object.__setattr__(self, name, value)


class AppTrigger(QueryTrigger):
    """Application-style query trigger bound to a built app stage.

    Emits the DNS query the application's own host would issue (MX
    lookup for a bounce, SRV discovery for federation, a plain A for a
    fetch) from inside the resolver's ACL — non-blocking, so the attack
    keeps control of the race window.  The declarative counterpart is
    ``TriggerSpec(kind="app")``; this live object is built per world by
    the scenario, never pickled.
    """

    def __init__(self, app_host, resolver_ip: str, style: str,
                 rng: DeterministicRNG):
        self.app_host = app_host
        self.resolver_ip = resolver_ip
        self.style = style
        self.rng = rng
        self.fired = 0

    def fire(self, qname: str, qtype: int | str = "A") -> None:
        send_query(self.app_host, self.app_host.address, self.resolver_ip,
                   self.rng, qname, qtype)
        self.fired += 1


class AppDriver(ABC):
    """One Table 1 application, runnable as a kill-chain stage."""

    #: driver table key (``AppSpec.app``)
    name: str
    #: the Table 1 application class this driver executes
    application: type[Application]
    #: methodologies whose planted records this driver's workload can
    #: observe.  FragDNS only rewrites A rdata, so drivers that need a
    #: planted TXT/IPSECKEY restrict this; the planner's Table 1
    #: applicability verdicts are a separate (stricter) question.
    methods: tuple[str, ...] = ("HijackDNS", "SadDNS", "FragDNS")

    @property
    def impact(self) -> str:
        """The Table 1 impact cell this driver reproduces."""
        return self.application.row.impact

    @property
    def trigger_style(self) -> str:
        """Table 1 trigger style, for :class:`AppTrigger` display."""
        return self.application.row.trigger_method

    def malicious_records(self, qname: str, attacker_ip: str
                          ) -> tuple[ResourceRecord, ...]:
        """Records the attack must plant for this app's workload.

        Every methodology verifies success through the planted
        ``A(qname) -> attacker`` mapping, so that record must always be
        present; drivers needing extra records (TXT, IPSECKEY, ...)
        extend this.
        """
        return (rr_a(qname, attacker_ip, ttl=86400),)

    @abstractmethod
    def setup(self, world: dict, qname: str, malicious_ip: str,
              **params: Any) -> dict:
        """Attach the app's principals to the world; returns the ctx."""

    @abstractmethod
    def workload(self, ctx: dict) -> tuple[AppOutcome, ...]:
        """Execute the application operation against the current world."""

    @abstractmethod
    def realized(self, ctx: dict, outcomes: tuple[AppOutcome, ...]) -> bool:
        """Did these outcomes demonstrate the Table 1 impact?"""

    def run_stage(self, ctx: dict) -> AppStageResult:
        """Workload + classification, wrapped for the scenario run."""
        outcomes = tuple(self.workload(ctx))
        return AppStageResult(
            app=self.name,
            impact=self.impact,
            impact_class=impact_class(self.impact),
            realized=self.realized(ctx, outcomes),
            outcomes=outcomes,
        )

    def query_trigger(self, ctx: dict) -> AppTrigger:
        """The app-style trigger for this stage's world."""
        return AppTrigger(
            ctx["app_host"], ctx["resolver_ip"],
            style=self.trigger_style, rng=ctx["trigger_rng"],
        )

    # -- shared world plumbing -------------------------------------------------

    def base_ctx(self, world: dict, qname: str, malicious_ip: str) -> dict:
        """Common stage context: the victim-side host, stub and RNGs.

        The application lives on the standard world's in-ACL service
        host; its stub points at the victim resolver, with RNG streams
        derived from the testbed seed so every executor replays the
        stage bit-identically.
        """
        bed = world["testbed"]
        app_host = world["service"]
        resolver_ip = world["resolver"].address
        return {
            "world": world,
            "testbed": bed,
            "qname": qname,
            "malicious_ip": malicious_ip,
            "genuine_ip": genuine_address(world, qname),
            "app_host": app_host,
            "resolver_ip": resolver_ip,
            "stub": StubResolver(app_host, resolver_ip,
                                 rng=bed.rng.derive("app-stub")),
            "trigger_rng": bed.rng.derive("app-trigger"),
            "app_rng": bed.rng.derive("app-rng"),
        }


def genuine_address(world: dict, qname: str) -> str:
    """The address the target zone legitimately publishes for ``qname``."""
    for record in world["target"].zone.records_at(qname):
        if record.rtype == TYPE_A:
            return record.data
    return TARGET_WEB_IP


def host_at(world: dict, address: str, name: str):
    """The host at ``address``, attached on demand.

    The attacker's counterfeit endpoints usually land on the existing
    attacker host (the planted A record points there by default);
    genuine origins attach fresh hosts at the zone-published address.
    """
    bed = world["testbed"]
    host = bed.network.host_for(address)
    if host is None:
        host = bed.make_host(name, address)
    return host


# -- driver table --------------------------------------------------------------

#: Each driver's name to the module whose ``DRIVERS`` holds it, in
#: Table 1 row order (one driver per Table 1 application).
DRIVER_MODULES = {
    "radius": "repro.apps.radius",
    "xmpp": "repro.apps.xmpp",
    "smtp": "repro.apps.email_",
    "spf": "repro.apps.email_",
    "dkim": "repro.apps.email_",
    "http": "repro.apps.web",
    "recovery": "repro.apps.web",
    "ntp": "repro.apps.ntp",
    "bitcoin": "repro.apps.bitcoin",
    "openvpn": "repro.apps.vpn",
    "ike": "repro.apps.vpn",
    "ipsec": "repro.apps.vpn",
    "dv": "repro.apps.pki",
    "ocsp": "repro.apps.pki",
    "rpki": "repro.apps.pki",
    "firewall": "repro.apps.middlebox",
    "loadbalancer": "repro.apps.middlebox",
    "cdn": "repro.apps.middlebox",
    "alias": "repro.apps.middlebox",
    "proxy": "repro.apps.middlebox",
}


def resolve_driver(name: str) -> AppDriver:
    """Look up an application driver by name, importing its module."""
    key = name.lower()
    module = DRIVER_MODULES.get(key)
    if module is None:
        known = ", ".join(available_apps())
        raise ScenarioError(
            f"unknown application {name!r}; registered: {known}")
    return importlib.import_module(module).DRIVERS[key]


def available_apps() -> list[str]:
    """Names of all application drivers."""
    return sorted(DRIVER_MODULES)


def driver_for(app_class: type[Application]) -> AppDriver:
    """The driver executing a given Table 1 application class."""
    for name in DRIVER_MODULES:
        driver = resolve_driver(name)
        if driver.application is app_class:
            return driver
    raise ScenarioError(f"no app driver for {app_class.__name__}")
