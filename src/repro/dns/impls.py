"""Behaviour presets for the resolver implementations measured in Table 5.

The paper tests ANY-response caching across five popular resolvers
(Section 5.2.2, Table 5).  Each preset below configures
:class:`~repro.dns.resolver.ResolverConfig` with the observed behaviour
of that implementation:

==========================  ==========  ====================================
Implementation              Vulnerable  Paper note
==========================  ==========  ====================================
BIND 9.14.0                 yes         caches ANY contents
Unbound 1.9.1               no          does not support ANY at all
PowerDNS Recursor 4.3.0     yes         caches ANY contents
systemd-resolved 245        yes         caches ANY contents
dnsmasq 2.79                no          answers but does not cache
==========================  ==========  ====================================
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dns.resolver import ResolverConfig


@dataclass(frozen=True)
class ImplementationProfile:
    """One resolver software release and its observed behaviours."""

    name: str
    version: str
    any_caching: str          # "cache" | "no-cache" | "refuse"
    default_0x20: bool = False
    default_validates_dnssec: bool = False
    default_edns_size: int = 4096

    @property
    def vulnerable_to_any_poisoning(self) -> bool:
        """Whether cached ANY contents answer later A queries (Table 5)."""
        return self.any_caching == "cache"

    def make_config(self, **overrides) -> ResolverConfig:
        """A :class:`ResolverConfig` matching this implementation."""
        return ResolverConfig(**{
            "any_caching": self.any_caching,
            "use_0x20": self.default_0x20,
            "validates_dnssec": self.default_validates_dnssec,
            "edns_udp_size": self.default_edns_size,
            **overrides,
        })


BIND_9_14 = ImplementationProfile(
    name="BIND", version="9.14.0", any_caching="cache",
)
UNBOUND_1_9 = ImplementationProfile(
    name="Unbound", version="1.9.1", any_caching="refuse",
    default_edns_size=4096,
)
POWERDNS_4_3 = ImplementationProfile(
    name="PowerDNS Recursor", version="4.3.0", any_caching="cache",
)
SYSTEMD_RESOLVED_245 = ImplementationProfile(
    name="systemd resolved", version="245", any_caching="cache",
    default_edns_size=512,
)
DNSMASQ_2_79 = ImplementationProfile(
    name="dnsmasq", version="2.79", any_caching="no-cache",
    default_edns_size=1232,
)

ALL_IMPLEMENTATIONS = [
    BIND_9_14,
    UNBOUND_1_9,
    POWERDNS_4_3,
    SYSTEMD_RESOLVED_245,
    DNSMASQ_2_79,
]

TABLE5_EXPECTED = {
    "BIND 9.14.0": ("yes", "cached"),
    "Unbound 1.9.1": ("no", "doesn't support ANY at all"),
    "PowerDNS Recursor 4.3.0": ("yes", "cached"),
    "systemd resolved 245": ("yes", "cached"),
    "dnsmasq 2.79": ("no", "not cached"),
}
