"""Measurement scanners: the probe logic of paper Section 5.

Each probe mirrors one the paper ran against the real Internet, applied
to a single resolver or nameserver profile.  The probes do not fold
anything themselves: :class:`repro.atlas.aggregate.ScanAggregate` calls
them for every resolver of a front end and every nameserver of a
domain, and folds the verdicts (plus the prefix-length, EDNS-size and
fragment-size histograms Figures 3-4 read) into one mergeable survey
aggregate.  The probes:

* **prefix-length mapping** (§5.1.2) — an address is sub-prefix
  hijackable when its covering BGP announcement is shorter than /24;
* **SadDNS scan** — ping, then a same-instant burst at closed UDP ports:
  exactly ``burst`` ICMP errors back means a deterministic global limit;
* **fragmentation scan** — a test nameserver emits a padded, fragmented
  CNAME response; the resolver is vulnerable when it accepts it (which
  requires fragment acceptance *and* an EDNS buffer above the padded
  size, otherwise the response is truncated and retried over TCP);
* **RRL burst scan** (§5.2.2) — 4000 queries in one second; a drop in
  responses marks the nameserver mutable.

The probes work on the lightweight population profiles; the identical
kernel behaviours (token buckets and friends) back the full host model
used in the end-to-end attacks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from repro.measurements.population import NameserverProfile, ResolverProfile
from repro.netsim.ratelimit import TokenBucket

FRAG_TEST_RESPONSE_SIZE = 600   # the padded CNAME test response
SADDNS_PROBE_BURST = 51         # 50 spoofed + 1 verification
RRL_BURST = 4000                # queries in the muting test


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
