"""Reusable experiment topology mirroring the paper's ethics setup.

The authors ran their attacks against infrastructure they set up
themselves: a victim AS with its resolver and services, victim domains
with their own nameservers, and an adversarial AS (paper, "Disclosure and
ethics"; Figures 1 and 2 use the concrete addresses reproduced here).
:class:`Testbed` builds exactly that world on the simulated network:

* a DNS root and TLD infrastructure so resolution is genuinely iterative;
* the victim network ``30.0.0.0/24`` with resolver ``30.0.0.1`` and a
  service host ``30.0.0.25``;
* the target domain ``vict.im`` served by ``123.0.0.53`` inside
  ``123.0.0.0/24``;
* the attacker at ``6.6.6.6`` on a spoofing-friendly network.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.eventlog import EventLog, NullLog
from repro.core.rng import DeterministicRNG
from repro.dns.dnssec import DnssecRegistry
from repro.dns.nameserver import AuthoritativeServer, NameserverConfig
from repro.dns.records import ResourceRecord, rr_a, rr_ns
from repro.dns.resolver import RecursiveResolver, ResolverConfig
from repro.dns.zones import Zone
from repro.netsim.host import Host, HostConfig
from repro.netsim.network import Network

ROOT_SERVER_IP = "198.41.0.4"
VICTIM_PREFIX = "30.0.0.0/24"
RESOLVER_IP = "30.0.0.1"
SERVICE_IP = "30.0.0.25"
TARGET_NS_IP = "123.0.0.53"
TARGET_WEB_IP = "123.0.0.80"
ATTACKER_IP = "6.6.6.6"
TARGET_DOMAIN = "vict.im"
# A host inside the target domain whose qname is long enough that the
# answer rdata lands in the second fragment at the minimum MTU of 68 —
# the FragDNS benches and examples race this name.
FRAG_TARGET_NAME = "secure-login.vict.im"


def default_resolver_config() -> ResolverConfig:
    """The victim resolver config a testbed builds when none is given.

    The single source of truth for "unconfigured resolver": the
    defense-stack transforms (:mod:`repro.defenses.base`) materialise
    this same default before rewriting a knob, so a defended world
    differs from its baseline only in what the defense actually writes.
    """
    return ResolverConfig(allowed_clients=[VICTIM_PREFIX])


@dataclass
class DomainSetup:
    """Bookkeeping for one domain added to the testbed."""

    name: str
    ns_name: str
    ns_ip: str
    server: AuthoritativeServer
    zone: Zone


class Testbed:
    """A programmable mini-Internet with a full DNS delegation tree."""

    __test__ = False  # not a pytest collection target

    def __init__(self, seed: int | str = 0, default_latency: float = 0.01,
                 trace: bool = True):
        self.rng = DeterministicRNG(seed)
        # Untraced testbeds (statistical campaigns, population scans) get
        # the NullLog: the event-record fast path costs nothing and the
        # log interface stays intact for any code that queries it.
        self.log = EventLog() if trace else NullLog()
        self.network = Network(default_latency=default_latency, log=self.log)
        self.dnssec = DnssecRegistry()
        self.domains: dict[str, DomainSetup] = {}
        self._tld_servers: dict[str, AuthoritativeServer] = {}
        self._tld_zones: dict[str, Zone] = {}
        self._next_tld_ip = 10
        root_host = self.network.attach(Host(
            "root-ns", ROOT_SERVER_IP,
            config=HostConfig(icmp_rate_limited=False),
            rng=self.rng.derive("root"),
        ))
        self.root_zone = Zone("")
        self.root_server = AuthoritativeServer(root_host, rng=self.rng)
        self.root_server.add_zone(self.root_zone)
        self.root_hints = [ROOT_SERVER_IP]

    # -- infrastructure builders ---------------------------------------------

    def _ensure_tld(self, tld: str) -> Zone:
        if tld in self._tld_zones:
            return self._tld_zones[tld]
        address = f"192.5.{self._next_tld_ip}.30"
        self._next_tld_ip += 1
        host = self.network.attach(Host(
            f"tld-{tld}", address,
            config=HostConfig(icmp_rate_limited=False),
            rng=self.rng.derive(f"tld-{tld}"),
        ))
        server = AuthoritativeServer(host, rng=self.rng.derive(f"auth-{tld}"))
        zone = Zone(tld)
        server.add_zone(zone)
        ns_name = f"a.nic.{tld}"
        self.root_zone.add(rr_ns(tld, ns_name, ttl=86400))
        self.root_zone.add(rr_a(ns_name, address, ttl=86400))
        zone.add(rr_ns(tld, ns_name, ttl=86400))
        zone.add(rr_a(ns_name, address, ttl=86400))
        self._tld_servers[tld] = server
        self._tld_zones[tld] = zone
        return zone

    def add_domain(self, name: str, ns_ip: str,
                   records: list[ResourceRecord] | None = None,
                   signed: bool = False,
                   ns_config: NameserverConfig | None = None,
                   host_config: HostConfig | None = None) -> DomainSetup:
        """Create a domain with its own authoritative server and delegation."""
        name = name.rstrip(".").lower()
        if name in self.domains:
            raise ValueError(f"domain already exists: {name}")
        tld = name.rsplit(".", 1)[-1]
        tld_zone = self._ensure_tld(tld)
        ns_name = f"ns1.{name}"
        host = self.network.host_for(ns_ip)
        if host is None:
            host = self.network.attach(Host(
                f"ns-{name}", ns_ip,
                config=host_config if host_config is not None
                else HostConfig(),
                rng=self.rng.derive(f"ns-{name}"),
            ))
            server = AuthoritativeServer(
                host,
                config=ns_config if ns_config is not None
                else NameserverConfig(),
                rng=self.rng.derive(f"auth-{name}"),
            )
        else:
            server = self._server_on(host)
        zone = Zone(name, signed=signed)
        zone.add(rr_ns(name, ns_name, ttl=3600))
        zone.add(rr_a(ns_name, ns_ip, ttl=3600))
        if records:
            zone.add_all(records)
        server.add_zone(zone)
        tld_zone.add(rr_ns(name, ns_name, ttl=3600))
        tld_zone.add(rr_a(ns_name, ns_ip, ttl=3600))
        if signed:
            self.dnssec.register(name)
        setup = DomainSetup(name=name, ns_name=ns_name, ns_ip=ns_ip,
                            server=server, zone=zone)
        self.domains[name] = setup
        return setup

    def _server_on(self, host: Host) -> AuthoritativeServer:
        for domain in self.domains.values():
            if domain.server.host is host:
                return domain.server
        raise ValueError(f"no authoritative server on {host.name}")

    def make_resolver(self, address: str = RESOLVER_IP,
                      config: ResolverConfig | None = None,
                      host_config: HostConfig | None = None,
                      name: str | None = None) -> RecursiveResolver:
        """Attach a recursive resolver host serving the victim network."""
        if config is None:
            config = default_resolver_config()
        host = self.network.attach(Host(
            name if name is not None else f"resolver-{address}",
            address,
            config=host_config if host_config is not None else HostConfig(),
            rng=self.rng.derive(f"resolver-{address}"),
        ))
        return RecursiveResolver(
            host, root_hints=self.root_hints, config=config,
            dnssec=self.dnssec, rng=self.rng.derive(f"res-rng-{address}"),
        )

    def make_host(self, name: str, address: str,
                  spoofing: bool = False,
                  host_config: HostConfig | None = None) -> Host:
        """Attach a plain host (service, client or attacker).

        The caller's ``host_config`` is never mutated: one config object
        can safely parameterise many hosts (or scenario sweeps).
        """
        if host_config is None:
            host_config = HostConfig(egress_spoofing_allowed=spoofing)
        elif spoofing and not host_config.egress_spoofing_allowed:
            host_config = replace(host_config, egress_spoofing_allowed=True)
        return self.network.attach(Host(
            name, address, config=host_config,
            rng=self.rng.derive(f"host-{name}"),
        ))

    # -- simulation helpers ----------------------------------------------------

    def run(self, duration: float | None = None) -> None:
        """Drive the network (all queued events, or a bounded slice)."""
        self.network.run(duration)

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self.network.now

    def domain(self, name: str) -> DomainSetup:
        """Lookup a previously added domain."""
        return self.domains[name.rstrip(".").lower()]


def standard_testbed(seed: int | str = 0,
                     resolver_config: ResolverConfig | None = None,
                     ns_config: NameserverConfig | None = None,
                     ns_host_config: HostConfig | None = None,
                     resolver_host_config: HostConfig | None = None,
                     signed_target: bool = False,
                     trace: bool = True) -> dict:
    """The Figure 1 / Figure 2 world, ready for attacks.

    Returns a dict with the testbed and the named principals:
    ``testbed``, ``resolver``, ``service``, ``attacker``, ``target``
    (the vict.im :class:`DomainSetup`).  ``trace=False`` builds the
    world with a :class:`repro.core.eventlog.NullLog` — the zero-cost
    path statistical campaigns run on.
    """
    bed = Testbed(seed=seed, trace=trace)
    target = bed.add_domain(
        TARGET_DOMAIN, TARGET_NS_IP,
        records=[
            rr_a(TARGET_DOMAIN, TARGET_WEB_IP, ttl=300),
            rr_a(FRAG_TARGET_NAME, TARGET_WEB_IP, ttl=300),
        ],
        signed=signed_target,
        ns_config=ns_config,
        host_config=ns_host_config,
    )
    resolver = bed.make_resolver(RESOLVER_IP, config=resolver_config,
                                 host_config=resolver_host_config)
    service = bed.make_host("victim-service", SERVICE_IP)
    attacker = bed.make_host("attacker", ATTACKER_IP, spoofing=True)
    return {
        "testbed": bed,
        "resolver": resolver,
        "service": service,
        "attacker": attacker,
        "target": target,
    }
