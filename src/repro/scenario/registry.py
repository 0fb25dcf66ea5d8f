"""Method registry: methodology names -> attack factories + defaults.

The three attack classes grew three divergent constructors; the registry
collapses them behind one factory so a scenario can name its methodology
as a string (``"HijackDNS"``, ``"saddns"``, ``"frag"`` ...) and
``scenario.build(world)`` instantiates the right class with the right
wiring.  Each entry also carries the *world defaults* the methodology
needs to be demonstrable on the standard testbed — a rate-limited
nameserver for SadDNS, a global-IP-ID nameserver and the long qname for
FragDNS — applied only where the scenario left the knob unset.

The paper's three methodologies are a closed set: :data:`ALL_METHODS`
lists them, and one static table maps every canonical name and alias
to its entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

from repro.attacks.base import OffPathAttacker
from repro.attacks.fragdns import FragDnsAttack, FragDnsConfig
from repro.attacks.hijackdns import HijackDnsAttack, HijackDnsConfig
from repro.attacks.saddns import SadDnsAttack, SadDnsConfig
from repro.core.errors import ScenarioError
from repro.dns.nameserver import NameserverConfig
from repro.dns.records import TYPE_A
from repro.netsim.host import HostConfig
from repro.testbed import FRAG_TARGET_NAME, TARGET_DOMAIN

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids the cycle
    from repro.scenario.spec import AttackScenario


@dataclass(frozen=True)
class MethodSpec:
    """One poisoning methodology."""

    name: str
    aliases: tuple[str, ...]
    config_cls: type
    attack_factory: Callable[["AttackScenario", dict, OffPathAttacker], Any]
    world_defaults: Callable[["AttackScenario"], dict]
    default_qname: Callable[["AttackScenario"], str]


# -- the paper's three methodologies -------------------------------------------


def _default_qname(scenario: "AttackScenario") -> str:
    return scenario.target_domain


def _frag_qname(scenario: "AttackScenario") -> str:
    # The standard testbed publishes one name long enough that its
    # answer rdata lands in the second fragment at MTU 68; custom
    # domains must bring their own qname.
    if scenario.target_domain == TARGET_DOMAIN:
        return FRAG_TARGET_NAME
    return scenario.target_domain


def _no_world_defaults(scenario: "AttackScenario") -> dict:
    return {}


def _saddns_world_defaults(scenario: "AttackScenario") -> dict:
    # The side channel needs a nameserver whose RRL the attacker can
    # exhaust (paper §3.2: the muting step).
    return {"ns_config": NameserverConfig(rrl_enabled=True)}


def _fragdns_world_defaults(scenario: "AttackScenario") -> dict:
    # Predictable IP-IDs and a PTB-honouring stack (paper §3.3).
    return {"ns_host_config": HostConfig(ipid_policy="global",
                                         min_accepted_mtu=68)}


def _build_hijackdns(scenario: "AttackScenario", world: dict,
                     attacker: OffPathAttacker) -> HijackDnsAttack:
    return HijackDnsAttack(
        attacker, world["testbed"].network, world["resolver"],
        scenario.target_domain, world["target"].ns_ip,
        malicious_records=list(scenario.malicious_records),
        config=scenario.attack_config,
        capture_possible=scenario.capture_possible,
        # Deployed by a BGP-layer defense (AttackScenario.make_world):
        # the announcement must pass real origin validation to divert.
        rov_filter=world.get("rov"),
    )


def _build_saddns(scenario: "AttackScenario", world: dict,
                  attacker: OffPathAttacker) -> SadDnsAttack:
    return SadDnsAttack(
        attacker, world["testbed"].network, world["resolver"],
        world["target"].server, scenario.target_domain,
        malicious_records=list(scenario.malicious_records) or None,
        config=scenario.attack_config,
    )


def _build_fragdns(scenario: "AttackScenario", world: dict,
                   attacker: OffPathAttacker) -> FragDnsAttack:
    # FragDNS rewrites rdata in place rather than forging whole
    # responses; a malicious A record, if given, names the address to
    # plant.
    malicious_ip = None
    for record in scenario.malicious_records:
        if record.rtype == TYPE_A:
            malicious_ip = record.data
            break
    return FragDnsAttack(
        attacker, world["testbed"].network, world["resolver"],
        world["target"].server, scenario.target_domain,
        malicious_ip=malicious_ip,
        config=scenario.attack_config,
        # Cross-traffic noise ("the rest of the Internet" advancing the
        # nameserver's IP-ID counter) must vary per world, or every seed
        # of a campaign would replay one fixed advance sequence.
        world_rng=world["testbed"].rng.derive("fragdns-world"),
    )


HIJACKDNS = MethodSpec(
    name="HijackDNS",
    aliases=("hijack", "bgp-hijack"),
    config_cls=HijackDnsConfig,
    attack_factory=_build_hijackdns,
    world_defaults=_no_world_defaults,
    default_qname=_default_qname,
)

SADDNS = MethodSpec(
    name="SadDNS",
    aliases=("sad-dns", "side-channel"),
    config_cls=SadDnsConfig,
    attack_factory=_build_saddns,
    world_defaults=_saddns_world_defaults,
    default_qname=_default_qname,
)

FRAGDNS = MethodSpec(
    name="FragDNS",
    aliases=("frag", "fragmentation"),
    config_cls=FragDnsConfig,
    attack_factory=_build_fragdns,
    world_defaults=_fragdns_world_defaults,
    default_qname=_frag_qname,
)

ALL_METHODS = (HIJACKDNS, SADDNS, FRAGDNS)

#: Every canonical name and alias, case-folded, to its methodology.
_METHODS = {key.lower(): spec for spec in ALL_METHODS
           for key in (spec.name, *spec.aliases)}


def resolve_method(name: str) -> MethodSpec:
    """Look up a methodology by canonical name or alias."""
    spec = _METHODS.get(name.lower())
    if spec is None:
        known = ", ".join(available_methods())
        raise ScenarioError(
            f"unknown attack method {name!r}; registered: {known}")
    return spec


def available_methods() -> list[str]:
    """Canonical names of the three methodologies."""
    return sorted(spec.name for spec in ALL_METHODS)
