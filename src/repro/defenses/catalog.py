"""The Section 6 defenses, concrete and catalogued.

Each class packages one recommendation from the paper's Section 6 as a
:class:`repro.defenses.base.Defense`: the world-config transform that
deploys it, the planner facts it imposes, and the methodologies it is
expected to defeat (verified by the ablation grid in
:mod:`repro.experiments.ablation`).

As with the scenario methods, one static table built from
:data:`ALL_DEFENSES` resolves every defense by key or alias
(``resolve_defense("0x20")``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.defenses.base import Defense, DefenseError, DefenseStack, \
    WorldConfig
from repro.defenses.rov import RovDeployment
from repro.netsim.host import LINUX_MIN_PMTU

# -- DNS-layer challenges -------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Encoding0x20(Defense):
    """Randomise query-name case; forged responses miss the challenge."""

    key = "0x20-encoding"
    aliases = ("0x20",)
    layer = "dns"
    paper_section = "6.1"
    description = "randomise query-name case; responses must echo it"
    defeats = ("SadDNS",)
    writes = ("resolver.use_0x20",)

    def apply(self, config: WorldConfig) -> WorldConfig:
        return config.with_resolver(use_0x20=True)

    def profile_facts(self) -> dict[str, bool]:
        return {"resolver_uses_0x20": True}


@dataclass(frozen=True, slots=True)
class RandomizeRecords(Defense):
    """Shuffle answer records so second-fragment checksums are
    unpredictable (FragDNS must guess the permutation)."""

    key = "randomize-records"
    aliases = ("record-randomisation", "record-randomization")
    layer = "dns"
    paper_section = "6.1"
    description = "nameserver shuffles records; checksums unpredictable"
    defeats = ("FragDNS",)
    writes = ("ns.randomize_record_order",)

    def apply(self, config: WorldConfig) -> WorldConfig:
        return config.with_ns(randomize_record_order=True)

    def profile_facts(self) -> dict[str, bool]:
        return {"ns_randomizes_record_order": True}


@dataclass(frozen=True, slots=True)
class Dnssec(Defense):
    """Sign the target zone and validate at the resolver: off-path
    forgeries cannot carry valid RRSIGs, so all three methods die."""

    key = "dnssec"
    aliases = ()
    layer = "dns"
    paper_section = "2.1/6"
    description = "target zone signed and resolver validates"
    defeats = ("FragDNS", "HijackDNS", "SadDNS")
    writes = ("resolver.validates_dnssec", "world.signed_target")

    def apply(self, config: WorldConfig) -> WorldConfig:
        from dataclasses import replace

        return replace(config.with_resolver(validates_dnssec=True),
                       signed_target=True)

    def profile_facts(self) -> dict[str, bool]:
        return {"dnssec_validated": True}


# -- IP-layer fragment hygiene --------------------------------------------------


@dataclass(frozen=True, slots=True)
class BlockFragments(Defense):
    """Resolver-side firewall drops all IP fragments."""

    key = "block-fragments"
    aliases = ("drop-fragments",)
    layer = "ip"
    paper_section = "6.1"
    description = "resolver-side firewall drops all IP fragments"
    defeats = ("FragDNS",)
    writes = ("resolver_host.accept_fragments",)

    def apply(self, config: WorldConfig) -> WorldConfig:
        return config.with_resolver_host(accept_fragments=False)

    def profile_facts(self) -> dict[str, bool]:
        return {"resolver_accepts_fragments": False}


@dataclass(frozen=True, slots=True)
class PmtuClamp(Defense):
    """Refuse PTB-advertised MTUs below the clamp (modern Linux)."""

    key = "pmtu-clamp"
    aliases = ("min-pmtu",)
    layer = "ip"
    paper_section = "6.1"
    description = "nameserver refuses PTB-advertised MTUs below 552"
    defeats = ("FragDNS",)
    writes = ("ns_host.min_accepted_mtu",)

    min_mtu: int = LINUX_MIN_PMTU

    def apply(self, config: WorldConfig) -> WorldConfig:
        return config.with_ns_host(min_accepted_mtu=self.min_mtu)

    def profile_facts(self) -> dict[str, bool]:
        # DNS answers fit under the clamp: the attacker can no longer
        # force a response past the fragmentation floor.
        return {"response_can_exceed_frag_limit": False}


# -- transport-layer side-channel hygiene ---------------------------------------


@dataclass(frozen=True, slots=True)
class NoIcmpErrors(Defense):
    """Never emit ICMP port-unreachable: the port scan goes blind."""

    key = "no-icmp-errors"
    aliases = ("no-icmp",)
    layer = "transport"
    paper_section = "6.1"
    description = "resolver never sends ICMP port-unreachable"
    defeats = ("SadDNS",)
    writes = ("resolver_host.respond_port_unreachable",)

    def apply(self, config: WorldConfig) -> WorldConfig:
        return config.with_resolver_host(respond_port_unreachable=False)

    def profile_facts(self) -> dict[str, bool]:
        return {"resolver_global_icmp_limit": False}


@dataclass(frozen=True, slots=True)
class RandomizedIcmpLimit(Defense):
    """Jitter the global ICMP budget (the CVE-2020-25705 fix)."""

    key = "randomized-icmp-limit"
    aliases = ("icmp-jitter",)
    layer = "transport"
    paper_section = "6.1"
    description = "kernel randomises the global ICMP budget"
    defeats = ("SadDNS",)
    writes = ("resolver_host.icmp_limit_randomized",)

    def apply(self, config: WorldConfig) -> WorldConfig:
        return config.with_resolver_host(icmp_limit_randomized=True)

    def profile_facts(self) -> dict[str, bool]:
        return {"resolver_global_icmp_limit": False}


# -- BGP-layer origin validation ------------------------------------------------


@dataclass(frozen=True, slots=True)
class RpkiRov(Defense):
    """Route origin validation over published ROAs (RFC 6811).

    Unlike the old ``capture_possible`` shortcut, this goes through
    :mod:`repro.bgp.rpki`: the deployment publishes a ROA for the
    target nameserver prefix and the hijack announcement is validated
    for real — ``invalid`` is filtered, ``unknown`` still propagates
    (which is exactly the downgrade the paper's RPKI kill chain
    exploits).
    """

    key = "rpki-rov"
    aliases = ("rov", "rpki")
    layer = "bgp"
    paper_section = "6.1 (Securing BGP)"
    description = "RPKI route-origin validation filters the hijack"
    defeats = ("HijackDNS",)
    writes = ("world.rov",)

    deployment: RovDeployment = RovDeployment()

    def apply(self, config: WorldConfig) -> WorldConfig:
        from dataclasses import replace

        return replace(config, rov=self.deployment)

    def profile_facts(self) -> dict[str, bool]:
        return {"rov_protects_prefixes": True}


#: The eight Section 6 defenses in the paper's presentation order.
DEFENSE_0X20 = Encoding0x20()
DEFENSE_RANDOMIZE_RECORDS = RandomizeRecords()
DEFENSE_BLOCK_FRAGMENTS = BlockFragments()
DEFENSE_PMTU_CLAMP = PmtuClamp()
DEFENSE_NO_ICMP = NoIcmpErrors()
DEFENSE_RANDOMIZED_ICMP_LIMIT = RandomizedIcmpLimit()
DEFENSE_DNSSEC = Dnssec()
DEFENSE_ROV = RpkiRov()

ALL_DEFENSES = (
    DEFENSE_0X20,
    DEFENSE_RANDOMIZE_RECORDS,
    DEFENSE_BLOCK_FRAGMENTS,
    DEFENSE_PMTU_CLAMP,
    DEFENSE_NO_ICMP,
    DEFENSE_RANDOMIZED_ICMP_LIMIT,
    DEFENSE_DNSSEC,
    DEFENSE_ROV,
)

#: Every key and alias, case-folded, to its defense.
_DEFENSES = {name.lower(): defense for defense in ALL_DEFENSES
             for name in (defense.key, *defense.aliases)}


def resolve_defense(name: "str | Defense") -> Defense:
    """Look up a defense by key or alias (instances pass through)."""
    if isinstance(name, Defense):
        return name
    defense = _DEFENSES.get(str(name).lower())
    if defense is None:
        known = ", ".join(available_defenses())
        raise DefenseError(
            f"unknown defense {name!r}; registered: {known}")
    return defense


def available_defenses() -> list[str]:
    """Canonical keys of the eight Section 6 defenses."""
    return sorted(defense.key for defense in ALL_DEFENSES)


def single_stacks() -> list[DefenseStack]:
    """One single-defense stack per Section 6 defense."""
    return [DefenseStack.of(defense) for defense in ALL_DEFENSES]


def pairwise_stacks() -> list[DefenseStack]:
    """Every two-defense combination of the Section 6 defenses."""
    stacks = []
    for i, first in enumerate(ALL_DEFENSES):
        for second in ALL_DEFENSES[i + 1:]:
            stacks.append(DefenseStack.of(first, second))
    return stacks
