"""Measurement scanners: the probe logic of paper Section 5.

Each scanner mirrors a probe the paper ran against the real Internet:

* **prefix-length mapping** (§5.1.2) — an address is sub-prefix
  hijackable when its covering BGP announcement is shorter than /24;
* **SadDNS scan** — ping, then a same-instant burst at closed UDP ports:
  exactly ``burst`` ICMP errors back means a deterministic global limit;
* **fragmentation scan** — a test nameserver emits a padded, fragmented
  CNAME response; the resolver is vulnerable when it accepts it (which
  requires fragment acceptance *and* an EDNS buffer above the padded
  size, otherwise the response is truncated and retried over TCP);
* **RRL burst scan** (§5.2.2) — 4000 queries in one second; a drop in
  responses marks the nameserver mutable;
* **PMTUD / record-type scan** — minimum fragment size per query type;
* **EDNS harvest** — the advertised UDP payload size (Figure 4).

Scanners work on the lightweight population profiles; the identical
kernel behaviours (token buckets and friends) back the full host model
used in the end-to-end attacks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from repro.measurements.population import (
    DomainProfile,
    FrontEnd,
    NameserverProfile,
    ResolverProfile,
)
from repro.netsim.ratelimit import TokenBucket

FRAG_TEST_RESPONSE_SIZE = 600   # the padded CNAME test response
SADDNS_PROBE_BURST = 51         # 50 spoofed + 1 verification
RRL_BURST = 4000                # queries in the muting test


@dataclass(slots=True)
class ResolverScanResult:
    """Measured vulnerability flags for one front-end system."""

    identifier: str
    hijack: bool = False
    saddns: bool = False
    frag: bool = False


@dataclass(slots=True)
class DomainScanResult:
    """Measured vulnerability flags for one domain."""

    name: str
    hijack: bool = False
    saddns: bool = False
    frag_any: bool = False
    frag_global: bool = False
    dnssec: bool = False


# The Figure 3 criterion: announcements shorter than this are
# sub-prefix hijackable.  The fused hot loops in the atlas aggregate
# compare against this constant directly — keep it the single source
# of truth.
SUBPREFIX_HIJACKABLE_BELOW = 24


def scan_saddns(resolver: ResolverProfile) -> bool:
    """The global-ICMP-limit side-channel test.

    Ping first (dead resolvers are skipped), then burst-probe closed
    ports.  A resolver with the vulnerable behaviour returns *exactly*
    the burst size of errors — a deterministic, observable global limit.
    Randomised limits (the CVE-2020-25705 fix) return a jittered count.
    """
    if not resolver.reachable:
        return False
    errors = resolver.icmp.errors_for_burst(SADDNS_PROBE_BURST)
    return errors == int(resolver.icmp.burst)


def scan_saddns_verdict(resolver: ResolverProfile) -> bool:
    """Verdict-only SadDNS probe for single-use (streaming) entities.

    Returns exactly :func:`scan_saddns`'s boolean, but prunes the
    randomised-budget replay as soon as the error count can no longer
    reach the burst (the "exactly 50 errors" signature needs every
    accepted probe to cost one token, so the first jittered draw almost
    always decides it).  Pruning leaves the resolver's ICMP RNG stream
    partially consumed — callers must not scan the entity again, which
    is precisely the contract of the aggregate-only shard scans where
    the producer re-seeds its scratch RNGs every entity.
    """
    if not resolver.reachable:
        return False
    icmp = resolver.icmp
    target = int(icmp.burst)
    if not icmp.rate_limited:
        return SADDNS_PROBE_BURST == target
    if not icmp.randomized:
        # Dispatches to the memoised fixed-cost replay; no RNG involved.
        return icmp.errors_for_burst(SADDNS_PROBE_BURST) == target
    getrandbits = icmp.rng.getrandbits
    tokens = icmp.burst
    errors = 0
    remaining = SADDNS_PROBE_BURST
    while remaining:
        draw = getrandbits(3)
        while draw >= 6:
            draw = getrandbits(3)
        cost = 1 + draw
        if tokens >= cost:
            tokens -= cost
            errors += 1
        remaining -= 1
        # Upper bound on the final count: every remaining probe accepted,
        # each costing at least one whole token.
        best = remaining if remaining < int(tokens) else int(tokens)
        if errors + best < target:
            return False
    return errors == target


def scan_fragmentation(resolver: ResolverProfile) -> bool:
    """The fragmented-CNAME-re-query test against one resolver."""
    if not resolver.reachable:
        return False
    if resolver.edns_size is None \
            or resolver.edns_size < FRAG_TEST_RESPONSE_SIZE:
        # The test response does not fit the advertised buffer: the
        # nameserver truncates instead of fragmenting, TCP follows, and
        # no fragment ever reaches the resolver.
        return False
    return resolver.accepts_fragments


def scan_front_end(front_end: FrontEnd) -> ResolverScanResult:
    """Scan all of a front-end's resolvers; any vulnerable counts.

    Each probe fires only until its flag first turns true (exactly the
    historical ``flag or scan(...)`` short-circuit, so the per-resolver
    RNG consumption is unchanged).
    """
    hijack = saddns = frag = False
    for resolver in front_end.resolvers:
        if not hijack and resolver.prefix_length < SUBPREFIX_HIJACKABLE_BELOW:
            hijack = True
        if not saddns and scan_saddns(resolver):
            saddns = True
        if not frag and scan_fragmentation(resolver):
            frag = True
    return ResolverScanResult(identifier=front_end.identifier,
                              hijack=hijack, saddns=saddns, frag=frag)


@lru_cache(maxsize=None)
def _rrl_burst_answered(rate: float, burst: float, probes: int) -> int:
    """Responses a fresh token bucket allows for one evenly-paced burst.

    Pure in its arguments — the bucket starts full and the probe
    schedule is fixed — so the atlas path scanning a million
    nameservers replays the identical probe sequence once instead of
    per entity.
    """
    bucket = TokenBucket(rate=rate, burst=burst)
    return sum(1 for i in range(probes) if bucket.allow(i / probes))


def scan_nameserver_rrl(nameserver: NameserverProfile) -> bool:
    """The 4000-query burst test: do responses drop afterwards?"""
    if not nameserver.rrl_enabled:
        return False
    # A rate-limited server answers the early part of the burst and
    # mutes for the rest: the response count visibly drops.
    answered = _rrl_burst_answered(10.0, 20.0, RRL_BURST)
    return answered < RRL_BURST * 0.9


def scan_domain(domain: DomainProfile) -> DomainScanResult:
    """Scan all nameservers of a domain; any vulnerable counts."""
    hijack = saddns = frag_any = frag_global = False
    for nameserver in domain.nameservers:
        if not hijack and nameserver.prefix_length < SUBPREFIX_HIJACKABLE_BELOW:
            hijack = True
        if not saddns and scan_nameserver_rrl(nameserver):
            saddns = True
        # The fragmentation probe runs per nameserver regardless:
        # frag_global needs the per-server verdict.
        if nameserver.fragments_response("ANY"):
            frag_any = True
            if nameserver.ipid_global:
                frag_global = True
    return DomainScanResult(name=domain.name, dnssec=domain.signed,
                            hijack=hijack, saddns=saddns,
                            frag_any=frag_any, frag_global=frag_global)


@dataclass
class SurveySummary:
    """Aggregated percentages over one dataset."""

    dataset: str
    size: int
    full_size: int
    percentages: dict[str, float] = field(default_factory=dict)

    def pct(self, key: str) -> float:
        """Percentage for one measured property."""
        return self.percentages.get(key, 0.0)


def summarise_resolver_scan(dataset: str, full_size: int,
                            results: list[ResolverScanResult]
                            ) -> SurveySummary:
    """Percentages over a resolver dataset scan."""
    count = max(len(results), 1)
    return SurveySummary(
        dataset=dataset, size=len(results), full_size=full_size,
        percentages={
            "hijack": 100.0 * sum(r.hijack for r in results) / count,
            "saddns": 100.0 * sum(r.saddns for r in results) / count,
            "frag": 100.0 * sum(r.frag for r in results) / count,
        },
    )


def summarise_domain_scan(dataset: str, full_size: int,
                          results: list[DomainScanResult]) -> SurveySummary:
    """Percentages over a domain dataset scan."""
    count = max(len(results), 1)
    return SurveySummary(
        dataset=dataset, size=len(results), full_size=full_size,
        percentages={
            "hijack": 100.0 * sum(r.hijack for r in results) / count,
            "saddns": 100.0 * sum(r.saddns for r in results) / count,
            "frag_any": 100.0 * sum(r.frag_any for r in results) / count,
            "frag_global": 100.0 * sum(r.frag_global for r in results)
            / count,
            "dnssec": 100.0 * sum(r.dnssec for r in results) / count,
        },
    )


def harvest_edns_sizes(front_ends: list[FrontEnd]) -> list[int]:
    """EDNS UDP sizes advertised by (reachable) resolvers (Figure 4)."""
    sizes = []
    for front_end in front_ends:
        for resolver in front_end.resolvers:
            if resolver.reachable and resolver.edns_size is not None:
                sizes.append(resolver.edns_size)
    return sizes


def harvest_min_fragment_sizes(domains: list[DomainProfile]) -> list[int]:
    """Minimum emitted fragment size of fragmenting nameservers (Fig. 4)."""
    sizes = []
    for domain in domains:
        for nameserver in domain.nameservers:
            if nameserver.honours_ptb:
                sizes.append(nameserver.min_frag_size)
    return sizes


def harvest_prefix_lengths(items: list[FrontEnd] | list[DomainProfile]
                           ) -> list[int]:
    """Covering-announcement lengths of a population (Figure 3)."""
    lengths: list[int] = []
    for item in items:
        if isinstance(item, FrontEnd):
            lengths.extend(r.prefix_length for r in item.resolvers)
        else:
            lengths.extend(n.prefix_length for n in item.nameservers)
    return lengths
