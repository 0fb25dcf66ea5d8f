"""Intermediate devices: firewalls, load balancers, CDNs, ALIAS, proxies.

Table 1's "Intermediate devices" category and the whole of Table 2: the
devices resolve configured hostnames either on their own **timer** or
**on demand** when client traffic arrives, and cache the result for a
product-specific time.  That trigger/caching behaviour decides whether
an attacker can force (or must predict) the query — which is what the
Table 2 bench measures against these models.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.apps.base import (
    Application,
    AppOutcome,
    QUERY_CONFIG,
    QUERY_TARGET,
    Table1Row,
    USE_LOCATION,
)
from repro.apps.driver import AppDriver
from repro.attacks.planner import TargetProfile
from repro.dns.stub import StubResolver

TRIGGER_TIMER = "timer"
TRIGGER_ON_DEMAND = "on-demand"
CACHE_TTL = "TTL"


@dataclass(frozen=True)
class MiddleboxProfile:
    """One product's query-trigger behaviour (a Table 2 row).

    ``caching_time`` is seconds for fixed timers, or the string "TTL"
    when the device honours the record TTL.  ``alexa_100k_sites`` is the
    paper's count of top-100K websites using the provider.
    """

    device_type: str
    provider: str
    trigger: str                  # "timer" | "on-demand"
    caching_time: float | str
    alexa_100k_sites: int | None = None

    @property
    def externally_triggerable(self) -> bool:
        """Can an external client force the DNS query right now?"""
        return self.trigger == TRIGGER_ON_DEMAND


# The twelve products of Table 2, with the paper's observed behaviour.
TABLE2_PROFILES: list[MiddleboxProfile] = [
    MiddleboxProfile("Firewall", "pfSense", TRIGGER_TIMER, 500.0, None),
    MiddleboxProfile("Firewall", "Sophos UTM", TRIGGER_TIMER, 240.0, None),
    MiddleboxProfile("Load balancer", "Kemp Technologies", TRIGGER_TIMER,
                     3600.0, None),
    MiddleboxProfile("Load balancer", "F5 Networks", TRIGGER_TIMER,
                     3600.0, None),
    MiddleboxProfile("CDN", "Stackpath", TRIGGER_ON_DEMAND, CACHE_TTL, 79),
    MiddleboxProfile("CDN", "Fastly", TRIGGER_TIMER, CACHE_TTL, 1143),
    MiddleboxProfile("CDN", "AWS", TRIGGER_ON_DEMAND, CACHE_TTL, 11057),
    MiddleboxProfile("CDN", "Cloudflare", TRIGGER_ON_DEMAND, CACHE_TTL,
                     17393),
    MiddleboxProfile("Managed DNS (ALIAS)", "DNSimple", TRIGGER_ON_DEMAND,
                     CACHE_TTL, 248),
    MiddleboxProfile("Managed DNS (ALIAS)", "DNS Made Easy", TRIGGER_TIMER,
                     2100.0, 1192),
    MiddleboxProfile("Managed DNS (ALIAS)", "Oracle Cloud",
                     TRIGGER_ON_DEMAND, CACHE_TTL, 1382),
    MiddleboxProfile("Managed DNS (ALIAS)", "Cloudflare", TRIGGER_ON_DEMAND,
                     CACHE_TTL, 20027),
]


class ResolvingMiddlebox:
    """Shared machinery: resolve a configured name per the profile.

    Concrete devices below differ in what they *do* with the address;
    the trigger/caching behaviour is uniform and measurable.
    """

    def __init__(self, stub: StubResolver, profile: MiddleboxProfile,
                 configured_name: str, record_ttl: float = 300.0):
        self.stub = stub
        self.profile = profile
        self.configured_name = configured_name
        self.record_ttl = record_ttl
        self.current_address: str | None = None
        self.last_refresh: float | None = None
        self.refreshes = 0

    def _cache_lifetime(self) -> float:
        if self.profile.caching_time == CACHE_TTL:
            return self.record_ttl
        return float(self.profile.caching_time)

    def _refresh(self) -> None:
        answer = self.stub.lookup(self.configured_name, "A")
        self.current_address = answer.first_address()
        self.last_refresh = self.stub.host.now
        self.refreshes += 1

    def needs_refresh(self, now: float) -> bool:
        """Whether the cached address has expired."""
        if self.last_refresh is None or self.current_address is None:
            return True
        return now - self.last_refresh >= self._cache_lifetime()

    def address(self, demand: bool = False) -> str | None:
        """The address the device currently uses.

        ``demand=True`` models client traffic arriving: on-demand
        devices refresh immediately if expired; timer devices serve the
        stale/cached answer and only refresh from :meth:`tick`.
        """
        now = self.stub.host.now
        if self.current_address is None \
                or (demand and self.profile.externally_triggerable
                    and self.needs_refresh(now)):
            self._refresh()
        return self.current_address

    def tick(self) -> bool:
        """The device's own timer; returns True if it refreshed."""
        now = self.stub.host.now
        if self.profile.trigger == TRIGGER_TIMER and self.needs_refresh(now):
            self._refresh()
            return True
        return False


class Firewall(Application):
    """A firewall resolving hostname-based allow rules on a timer."""

    row = Table1Row(
        category="Intermediate devices", protocol="-",
        use_case="Firewall filters", query_name=QUERY_CONFIG,
        query_known=False, trigger_method="waiting", record_types=["A"],
        dns_use=USE_LOCATION, impact="Downgrade: no filters",
    )

    def __init__(self, stub: StubResolver, profile: MiddleboxProfile,
                 allowed_name: str):
        self.box = ResolvingMiddlebox(stub, profile, allowed_name)

    def target_profile(self, **infrastructure: bool) -> TargetProfile:
        """Planner description of this application."""
        return self._base_profile(**infrastructure)

    def permits(self, destination: str) -> bool:
        """Is traffic to ``destination`` allowed by the hostname rule?"""
        return self.box.address() == destination

    def tick(self) -> bool:
        """Periodic rule refresh."""
        return self.box.tick()


class LoadBalancer(Application):
    """A load balancer resolving its backend pool hostname."""

    row = Table1Row(
        category="Intermediate devices", protocol="HTTP/...",
        use_case="Loadbalancers", query_name=QUERY_CONFIG,
        query_known=False, trigger_method="on-demand", record_types=["A"],
        dns_use=USE_LOCATION, impact="Hijack: eavesdropping",
    )

    def __init__(self, stub: StubResolver, profile: MiddleboxProfile,
                 backend_name: str):
        self.box = ResolvingMiddlebox(stub, profile, backend_name)
        self.forwarded: list[str] = []

    def target_profile(self, **infrastructure: bool) -> TargetProfile:
        """Planner description of this application."""
        return self._base_profile(**infrastructure)

    def route_request(self) -> AppOutcome:
        """Forward one client request to the resolved backend."""
        backend = self.box.address(demand=True)
        if backend is None:
            return AppOutcome(app="loadbalancer", action="route", ok=False,
                              detail={"error": "backend did not resolve"})
        self.forwarded.append(backend)
        return AppOutcome(app="loadbalancer", action="route", ok=True,
                          used_address=backend)

    def tick(self) -> bool:
        """Periodic pool refresh (for timer-based products)."""
        return self.box.tick()


class CdnEdge(Application):
    """A CDN edge fetching from a customer origin by hostname."""

    row = Table1Row(
        category="Intermediate devices", protocol="HTTP",
        use_case="CDN's", query_name=QUERY_CONFIG, query_known=False,
        trigger_method="on-demand", record_types=["A"],
        dns_use=USE_LOCATION, impact="Hijack: eavesdropping",
    )

    def __init__(self, stub: StubResolver, profile: MiddleboxProfile,
                 origin_name: str):
        self.box = ResolvingMiddlebox(stub, profile, origin_name)
        self.origin_fetches: list[str] = []

    def target_profile(self, **infrastructure: bool) -> TargetProfile:
        """Planner description of this application."""
        return self._base_profile(**infrastructure)

    def fetch_from_origin(self, path: str) -> AppOutcome:
        """A cache miss: fetch ``path`` from the resolved origin."""
        origin = self.box.address(demand=True)
        if origin is None:
            return AppOutcome(app="cdn", action="origin-fetch", ok=False,
                              detail={"error": "origin did not resolve"})
        self.origin_fetches.append(origin)
        return AppOutcome(app="cdn", action="origin-fetch", ok=True,
                          used_address=origin, detail={"path": path})

    def tick(self) -> bool:
        """Periodic origin re-resolution (timer products, e.g. Fastly)."""
        return self.box.tick()


class AliasProvider(Application):
    """Managed-DNS ALIAS/ANAME flattening: the provider resolves for you."""

    row = Table1Row(
        category="Intermediate devices", protocol="DNS",
        use_case="ANAME/ALIAS", query_name=QUERY_CONFIG,
        query_known=False, trigger_method="on-demand", record_types=["A"],
        dns_use=USE_LOCATION, impact="Hijack: eavesdropping",
    )

    def __init__(self, stub: StubResolver, profile: MiddleboxProfile,
                 alias_target: str):
        self.box = ResolvingMiddlebox(stub, profile, alias_target)

    def target_profile(self, **infrastructure: bool) -> TargetProfile:
        """Planner description of this application."""
        return self._base_profile(**infrastructure)

    def answer_client(self) -> str | None:
        """The A record the provider serves for the ALIAS name."""
        return self.box.address(demand=True)

    def tick(self) -> bool:
        """Periodic re-resolution (timer products, e.g. DNS Made Easy)."""
        return self.box.tick()


class Proxy(Application):
    """An HTTP/SOCKS proxy resolving the client's target per request."""

    row = Table1Row(
        category="Intermediate devices", protocol="HTTP/Socks",
        use_case="Proxies", query_name=QUERY_TARGET, query_known=True,
        trigger_method="direct", record_types=["A"],
        dns_use=USE_LOCATION, impact="Hijack: eavesdropping",
    )

    def __init__(self, stub: StubResolver):
        self.stub = stub
        self.connections: list[tuple[str, str]] = []

    def target_profile(self, **infrastructure: bool) -> TargetProfile:
        """Planner description of this application."""
        return self._base_profile(**infrastructure)

    def connect(self, hostname: str) -> AppOutcome:
        """Resolve the requested hostname and open the upstream leg."""
        answer = self.stub.lookup(hostname, "A")
        address = answer.first_address()
        if address is None:
            return AppOutcome(app="proxy", action="connect", ok=False,
                              detail={"error": f"NXDOMAIN {hostname}"})
        self.connections.append((hostname, address))
        return AppOutcome(app="proxy", action="connect", ok=True,
                          used_address=address)


# -- kill-chain drivers --------------------------------------------------------


class FirewallDriver(AppDriver):
    """A hostname allow-rule resolving to the attacker admits its traffic."""

    name = "firewall"
    application = Firewall

    def setup(self, world: dict, qname: str, malicious_ip: str,
              **params) -> dict:
        ctx = self.base_ctx(world, qname, malicious_ip)
        profile = params.get("profile", TABLE2_PROFILES[0])  # pfSense
        ctx["firewall"] = Firewall(ctx["stub"], profile,
                                   allowed_name=qname)
        return ctx

    def workload(self, ctx: dict) -> tuple[AppOutcome, ...]:
        firewall = ctx["firewall"]
        admits_attacker = firewall.permits(ctx["malicious_ip"])
        admits_genuine = firewall.permits(ctx["genuine_ip"])
        return (AppOutcome(
            app="firewall", action="filter", ok=not admits_attacker,
            security_degraded=admits_attacker,
            used_address=firewall.box.current_address,
            detail={"admits_attacker": admits_attacker,
                    "admits_genuine": admits_genuine},
        ),)

    def realized(self, ctx: dict, outcomes: tuple[AppOutcome, ...]) -> bool:
        # The rule meant to whitelist the genuine service now admits the
        # attacker's host instead: the filter is effectively gone.
        return outcomes[0].detail.get("admits_attacker", False)


class LoadBalancerDriver(AppDriver):
    """Client requests forwarded to the attacker's backend."""

    name = "loadbalancer"
    application = LoadBalancer

    def setup(self, world: dict, qname: str, malicious_ip: str,
              **params) -> dict:
        ctx = self.base_ctx(world, qname, malicious_ip)
        profile = params.get("profile", TABLE2_PROFILES[3])  # F5
        ctx["balancer"] = LoadBalancer(ctx["stub"], profile,
                                       backend_name=qname)
        return ctx

    def workload(self, ctx: dict) -> tuple[AppOutcome, ...]:
        return (ctx["balancer"].route_request(),)

    def realized(self, ctx: dict, outcomes: tuple[AppOutcome, ...]) -> bool:
        routed = outcomes[0]
        return routed.ok and routed.used_address == ctx["malicious_ip"]


class CdnDriver(AppDriver):
    """Edge cache misses fetched from the attacker's "origin"."""

    name = "cdn"
    application = CdnEdge

    def setup(self, world: dict, qname: str, malicious_ip: str,
              **params) -> dict:
        ctx = self.base_ctx(world, qname, malicious_ip)
        profile = params.get("profile", TABLE2_PROFILES[6])  # AWS
        ctx["edge"] = CdnEdge(ctx["stub"], profile, origin_name=qname)
        return ctx

    def workload(self, ctx: dict) -> tuple[AppOutcome, ...]:
        return (ctx["edge"].fetch_from_origin("/index.html"),)

    def realized(self, ctx: dict, outcomes: tuple[AppOutcome, ...]) -> bool:
        fetched = outcomes[0]
        return fetched.ok and fetched.used_address == ctx["malicious_ip"]


class AliasDriver(AppDriver):
    """ALIAS flattening serves the attacker's address to every client."""

    name = "alias"
    application = AliasProvider

    def setup(self, world: dict, qname: str, malicious_ip: str,
              **params) -> dict:
        ctx = self.base_ctx(world, qname, malicious_ip)
        profile = params.get("profile", TABLE2_PROFILES[8])  # DNSimple
        ctx["provider"] = AliasProvider(ctx["stub"], profile,
                                        alias_target=qname)
        return ctx

    def workload(self, ctx: dict) -> tuple[AppOutcome, ...]:
        served = ctx["provider"].answer_client()
        return (AppOutcome(
            app="alias", action="flatten", ok=served is not None,
            used_address=served,
            detail={"alias_target": ctx["qname"]},
        ),)

    def realized(self, ctx: dict, outcomes: tuple[AppOutcome, ...]) -> bool:
        served = outcomes[0]
        return served.ok and served.used_address == ctx["malicious_ip"]


class ProxyDriver(AppDriver):
    """Per-request proxy resolution lands the upstream leg on the attacker."""

    name = "proxy"
    application = Proxy

    def setup(self, world: dict, qname: str, malicious_ip: str,
              **params) -> dict:
        ctx = self.base_ctx(world, qname, malicious_ip)
        ctx["proxy"] = Proxy(ctx["stub"])
        return ctx

    def workload(self, ctx: dict) -> tuple[AppOutcome, ...]:
        return (ctx["proxy"].connect(ctx["qname"]),)

    def realized(self, ctx: dict, outcomes: tuple[AppOutcome, ...]) -> bool:
        connected = outcomes[0]
        return connected.ok \
            and connected.used_address == ctx["malicious_ip"]


#: This module's app drivers by name, for ``resolve_driver``.
DRIVERS = {driver.name: driver for driver in (
    FirewallDriver(), LoadBalancerDriver(), CdnDriver(), AliasDriver(),
    ProxyDriver())}
