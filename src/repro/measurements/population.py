"""Synthetic Internet populations for the measurement study.

The paper measures real populations (Censys open resolvers, Alexa Top-1M
domains, an ad-network's clients, eduroam institution lists, RIR whois
data ...).  Offline, those populations are *generated*: each entity gets
ground-truth properties drawn from distributions calibrated to the
paper's per-dataset numbers (Tables 3 and 4), and the scanners in
:mod:`repro.measurements.scanner` then measure the entities through the
same probe logic the paper used — without ever reading the ground truth
directly.

Scaling: the real datasets reach 1.58M resolvers.  The entities
themselves are streamed by :mod:`repro.atlas.synth` (one derived RNG
stream per entity, over the draw kernels below); a sampled experiment
takes the first :func:`sample_size` entities of a stream, while
``full_size`` is preserved for reporting, so the tables print the
paper's dataset sizes next to percentages measured on the sample.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from functools import lru_cache

from repro.core.rng import DeterministicRNG
from repro.netsim.ratelimit import TokenBucket

# Announced-prefix-length mixes (Figure 3): fraction of hosts whose
# covering BGP announcement has each length.  The /24 mass equals
# 1 - (sub-prefix-hijackable fraction) for the population.
PREFIX_LENGTHS = list(range(11, 25))


def _prefix_length_distribution(slash24_mass: float,
                                peak: int = 20) -> dict[int, float]:
    """A plausible hump-shaped length mix with fixed /24 mass."""
    weights = {}
    for length in PREFIX_LENGTHS[:-1]:
        distance = abs(length - peak)
        weights[length] = max(0.2, 6.0 - distance * 1.1)
    total = sum(weights.values())
    remaining = 1.0 - slash24_mass
    mix = {length: remaining * weight / total
           for length, weight in weights.items()}
    mix[24] = slash24_mass
    return mix


class MixSampler:
    """Precompiled categorical sampler over a value -> mass mix.

    The cumulative masses accumulate in the mix's iteration order, and
    one draw returns the first value whose cumulative mass reaches the
    point (``bisect_left``), or the largest value when float rounding
    leaves the total short of 1 — without re-walking the mix per
    entity.
    """

    __slots__ = ("values", "cumulative", "fallback")

    def __init__(self, mix: dict[int, float]):
        values = []
        cumulative = []
        acc = 0.0
        for value, mass in mix.items():
            acc += mass
            values.append(value)
            cumulative.append(acc)
        self.values = values
        self.cumulative = cumulative
        self.fallback = max(mix)

    def draw(self, rng: DeterministicRNG) -> int:
        point = rng.random()
        index = bisect_left(self.cumulative, point)
        values = self.values
        return values[index] if index < len(values) else self.fallback


@lru_cache(maxsize=None)
def _deterministic_burst_errors(rate: float, burst: float,
                                n_probes: int) -> int:
    bucket = TokenBucket(rate=rate, burst=burst)
    return sum(1 for _ in range(n_probes) if bucket.allow(0.0))


@dataclass(slots=True)
class IcmpBehaviour:
    """The ICMP error behaviour of one resolver's operating system.

    Wraps the same :class:`TokenBucket` the full host model uses, so the
    scanner's burst probe exercises genuinely identical logic.
    """

    rate_limited: bool
    randomized: bool
    rng: DeterministicRNG
    rate: float = 1000.0
    burst: float = 50.0

    def errors_for_burst(self, n_probes: int) -> int:
        """How many ICMP errors a same-instant burst of probes elicits."""
        if not self.rate_limited:
            return n_probes
        if not self.randomized:
            # Fixed-cost probes against a fresh bucket are pure in
            # (rate, burst, n): memoised so population-scale scans pay
            # the 51-probe replay once, not per resolver.
            return _deterministic_burst_errors(self.rate, self.burst,
                                               n_probes)
        # Randomised-budget replay, inlined: a same-instant burst never
        # refills the bucket, and ``1 + randint(0, 5)`` is CPython's
        # ``_randbelow(6)`` rejection loop over 3-bit draws.  Same RNG
        # consumption, same error count, none of the per-probe
        # TokenBucket/randrange frame overhead — this is the inner loop
        # of every population-scale resolver scan.
        getrandbits = self.rng.getrandbits
        tokens = self.burst
        errors = 0
        for _ in range(n_probes):
            draw = getrandbits(3)
            while draw >= 6:
                draw = getrandbits(3)
            cost = 1 + draw
            if tokens >= cost:
                tokens -= cost
                errors += 1
        return errors


@dataclass(slots=True)
class ResolverProfile:
    """Ground truth for one resolver back-end address."""

    address: str
    asn: int
    prefix_length: int              # covering BGP announcement
    reachable: bool
    icmp: IcmpBehaviour
    accepts_fragments: bool
    edns_size: int | None           # advertised EDNS UDP payload size
    open_resolver: bool = False
    forwarder_upstreams: list[str] = field(default_factory=list)
    cached_apps: set[str] = field(default_factory=set)


@dataclass(slots=True)
class FrontEnd:
    """A front-end system (SMTP server, web client, CA...) and its resolvers."""

    identifier: str
    resolvers: list[ResolverProfile]


@dataclass(slots=True)
class NameserverProfile:
    """Ground truth for one authoritative nameserver."""

    address: str
    asn: int
    prefix_length: int
    honours_ptb: bool               # PMTUD via ICMP frag-needed
    min_frag_size: int              # smallest fragment it will emit
    rrl_enabled: bool
    ipid_global: bool               # predictable global IP-ID counter
    supports_any: bool
    base_response_size: int         # A-response size before amplification

    def response_size(self, qtype: str, qname_length: int = 20) -> int:
        """Modelled response size per query type and qname bloat.

        A bloated qname is amplified 1.5x: it is echoed once in the
        question section and, on roughly half of deployments, appears
        again uncompressed in answer/authority owner names.
        """
        size = self.base_response_size + 3 * max(0, qname_length - 20) // 2
        if qtype == "ANY" and self.supports_any:
            return size * 6 + 120
        if qtype == "MX":
            return size + 30
        return size

    def fragments_response(self, qtype: str, qname_length: int = 20) -> bool:
        """Would a response of this type fragment at the server's floor?"""
        return self.honours_ptb and \
            self.response_size(qtype, qname_length) > self.min_frag_size


@dataclass(slots=True)
class DomainProfile:
    """Ground truth for one domain under test."""

    name: str
    nameservers: list[NameserverProfile]
    signed: bool


@dataclass
class ResolverDatasetSpec:
    """Calibration for one Table 3 row."""

    key: str
    label: str
    protocols: str
    full_size: int
    expected_hijack: float          # paper's percentages, for comparison
    expected_saddns: float
    expected_frag: float
    # Ground-truth rates the generator draws from.  These are set from
    # the paper's measured values; the scanner re-measures them.
    rate_unreachable: float = 0.05
    edns_mix: tuple[float, float, float] = (0.4, 0.1, 0.5)  # 512/mid/4096+
    resolvers_per_frontend: int = 1


@dataclass
class DomainDatasetSpec:
    """Calibration for one Table 4 row."""

    key: str
    label: str
    protocols: str
    full_size: int
    expected_hijack: float
    expected_saddns: float
    expected_frag_any: float
    expected_frag_global: float
    expected_dnssec: float
    ns_per_domain: int = 2


# Table 3 rows: (key, label, protocols, size, %hijack, %saddns, %frag).
RESOLVER_DATASETS: list[ResolverDatasetSpec] = [
    ResolverDatasetSpec("eduroam", "Local university", "Radius", 1,
                        100.0, 0.0, 100.0, rate_unreachable=0.0,
                        edns_mix=(0.0, 0.0, 1.0)),
    ResolverDatasetSpec("pw-recovery", "Popular services", "PW-recovery",
                        29, 93.0, 16.0, 90.0, rate_unreachable=0.0,
                        edns_mix=(0.04, 0.04, 0.92)),
    ResolverDatasetSpec("cas", "Popular CAs", "DV", 5, 75.0, 0.0, 0.0,
                        rate_unreachable=0.0),
    ResolverDatasetSpec("cdns", "Popular CDNs", "CDN", 4, 100.0, 0.0, 25.0,
                        rate_unreachable=0.0, edns_mix=(0.25, 0.0, 0.75)),
    ResolverDatasetSpec("alexa-srv", "Alexa 1M SRV", "XMPP", 476,
                        73.0, 1.0, 57.0, edns_mix=(0.3, 0.1, 0.6)),
    ResolverDatasetSpec("alexa-mx", "Alexa 1M MX",
                        "SMTP SPF DMARC DKIM", 61_036, 79.0, 9.0, 56.0,
                        edns_mix=(0.3, 0.1, 0.6)),
    ResolverDatasetSpec("ad-net", "Ad-net study", "HTTP DANE OCSP",
                        5_847, 70.0, 11.0, 91.0,
                        edns_mix=(0.03, 0.04, 0.93)),
    ResolverDatasetSpec("open", "Open resolvers", "All", 1_583_045,
                        74.0, 12.0, 31.0, rate_unreachable=0.15),
    ResolverDatasetSpec("ntp-cache", "Cache test", "NTP", 448_521,
                        79.0, 9.0, 32.0, rate_unreachable=0.1),
]

# Table 4 rows.
DOMAIN_DATASETS: list[DomainDatasetSpec] = [
    DomainDatasetSpec("eduroam-domains", "Eduroam list", "Radius", 1_152,
                      96.0, 11.0, 44.0, 18.0, 10.0),
    DomainDatasetSpec("alexa", "Alexa 1M", "HTTP DANE DV", 877_071,
                      53.0, 12.0, 4.0, 1.0, 2.0),
    DomainDatasetSpec("alexa-mx-domains", "Alexa 1M MX",
                      "SMTP SPF DKIM DMARC", 63_726,
                      44.0, 6.0, 7.0, 1.0, 3.0),
    DomainDatasetSpec("alexa-srv-domains", "Alexa 1M SRV", "XMPP", 2_025,
                      44.0, 4.0, 29.0, 5.0, 7.0),
    DomainDatasetSpec("rir-whois", "RIR whois", "PW-recovery", 58_742,
                      59.0, 9.0, 14.0, 4.0, 4.0),
    DomainDatasetSpec("registrar-whois", "Registrar whois", "PW-recovery",
                      4_628, 51.0, 10.0, 23.0, 5.0, 6.0),
    DomainDatasetSpec("ntp-domains", "Well-known", "NTP", 9,
                      25.0, 0.0, 25.0, 25.0, 25.0),
    DomainDatasetSpec("crypto-domains", "Well-known", "Crypto-currency",
                      32, 28.0, 17.0, 21.0, 3.0, 21.0),
    DomainDatasetSpec("rpki-domains", "Well-known", "RPKI", 8,
                      14.0, 0.0, 0.0, 0.0, 67.0),
    DomainDatasetSpec("vpn-domains", "Cert. Scan", "IKE OpenVPN", 307,
                      51.0, 11.0, 5.0, 1.0, 7.0),
]

MIN_SAMPLE = 40


def sample_size(full_size: int, scale: float) -> int:
    """Entities to instantiate when sampling a ``full_size`` population."""
    if scale <= 0:
        raise ValueError("scale must be positive")
    return max(min(MIN_SAMPLE, full_size),
               min(full_size, int(full_size * scale)))


# Figure 4's minimum-fragment-size split: 7% / 83% / 10% across
# 292 / 548 / 1280 bytes.  One shared list so every draw site uses the
# identical choice distribution (and the identical RNG consumption).
MIN_FRAG_CHOICES = [292] * 7 + [548] * 83 + [1280] * 10


def resolver_prefix_mix(spec: ResolverDatasetSpec) -> dict[int, float]:
    """The announcement-length mix matching one Table 3 row."""
    return _prefix_length_distribution(1.0 - spec.expected_hijack / 100.0)


# Shared choice lists: every draw site must use identical sequences so
# the RNG consumption (and therefore the population) stays bit-stable —
# and module-level constants also avoid a list build per entity.
EDNS_MID_CHOICES = [1232, 1400, 2048]
EDNS_BIG_CHOICES = [4000, 4096, 8192]


def draw_edns_size(rng: DeterministicRNG,
                   mix: tuple[float, float, float]) -> int:
    """One advertised EDNS UDP payload size from a 512/mid/big mix."""
    point = rng.random()
    if point < mix[0]:
        return 512
    if point < mix[0] + mix[1]:
        return rng.choice(EDNS_MID_CHOICES)
    return rng.choice(EDNS_BIG_CHOICES)


@dataclass(frozen=True)
class ResolverRates:
    """Loop-invariant per-resolver draw rates for one Table 3 row.

    Pure arithmetic on the spec — hoisting it out of
    :func:`draw_resolver_profile` keeps the per-entity kernel free of
    repeated derivations on million-entity atlas scans.  The expressions
    mirror the historical inline computation exactly (same operations,
    same floats).
    """

    conditional_saddns: float
    p_accept_given_big: float
    is_open: bool


def resolver_rates(spec: ResolverDatasetSpec) -> ResolverRates:
    """Compute the per-resolver calibration for one Table 3 row."""
    # SadDNS ground truth: the paper's measured rate already reflects
    # reachability losses, so the generator draws the *conditional* rate
    # among reachable hosts.
    reachable_mass = 1.0 - spec.rate_unreachable
    saddns_target = spec.expected_saddns / 100.0
    conditional = min(1.0, saddns_target / reachable_mass) \
        if reachable_mass > 0 else 0.0
    # Unreachable hosts fail the scan too, so the ground-truth rate
    # among reachable hosts is scaled up.
    frag_target = min(1.0, (spec.expected_frag / 100.0)
                      / max(reachable_mass, 1e-9))
    big_mass = spec.edns_mix[1] + spec.edns_mix[2]
    return ResolverRates(
        conditional_saddns=conditional,
        p_accept_given_big=(min(1.0, frag_target / big_mass)
                            if big_mass else 0.0),
        is_open=spec.key == "open",
    )


def draw_resolver_profile(rng: DeterministicRNG, spec: ResolverDatasetSpec,
                          address: str, prefix_mix: MixSampler,
                          icmp_rng: DeterministicRNG,
                          rates: ResolverRates) -> ResolverProfile:
    """Draw one calibrated resolver.

    This is the per-entity kernel of the :mod:`repro.atlas` entity
    streams (one derived stream per entity); the vector scan kernel in
    :mod:`repro.parallel.kernel` consumes randomness in exactly this
    order, so its verdicts are bit-identical by construction.
    """
    reachable = not rng.chance(spec.rate_unreachable)
    icmp = IcmpBehaviour(
        rate_limited=True,
        randomized=not rng.chance(rates.conditional_saddns),
        rng=icmp_rng,
    )
    edns = draw_edns_size(rng, spec.edns_mix)
    # The fragmentation scan needs both fragment acceptance and an EDNS
    # buffer larger than the padded test response; draw acceptance
    # conditioned on buffer size so the joint rate matches the paper.
    accepts = rng.chance(rates.p_accept_given_big) if edns >= 1232 else False
    return ResolverProfile(
        address=address,
        asn=rng.uniform_int(1, 60_000),
        prefix_length=prefix_mix.draw(rng),
        reachable=reachable,
        icmp=icmp,
        accepts_fragments=accepts,
        edns_size=edns,
        open_resolver=rates.is_open,
    )


@dataclass(frozen=True)
class DomainRates:
    """Loop-invariant per-nameserver rates for one Table 4 row.

    Per-domain verdicts are "any nameserver vulnerable"; each rate is
    derated as 1-(1-p)^(1/n) so the per-domain rates match the paper.
    """

    prefix_mix: MixSampler
    p_rrl: float
    p_frag_any: float
    p_global: float


# The fragmentation scan only flags a PMTUD-honouring nameserver whose
# ANY response actually exceeds its fragment floor: with 85% ANY
# support, gauss(140, 40) base sizes and the Figure 4 floor split,
# ~74% of frag-capable servers pass.  The ground-truth honours_ptb rate
# is scaled up by the inverse so the *measured* per-domain rate — not
# just the latent capability rate — matches the paper's Table 4 column.
ANY_SCAN_PASS_RATE = 0.74


def domain_rates(spec: DomainDatasetSpec) -> DomainRates:
    """Compute the per-nameserver calibration for one Table 4 row."""
    n_ns = spec.ns_per_domain
    per_ns_hijack = _per_item_rate(spec.expected_hijack / 100.0, n_ns)
    return DomainRates(
        prefix_mix=MixSampler(
            _prefix_length_distribution(1.0 - per_ns_hijack)),
        p_rrl=_per_item_rate(spec.expected_saddns / 100.0, n_ns),
        p_frag_any=min(1.0, _per_item_rate(
            spec.expected_frag_any / 100.0, n_ns) / ANY_SCAN_PASS_RATE),
        # The global-IP-ID draw is already conditional on the (derated)
        # per-NS fragmentation draw, so the paper's global/any ratio
        # applies directly — derating it again would square the
        # correction and undershoot the Table 4 column.
        p_global=min(1.0, spec.expected_frag_global
                     / max(spec.expected_frag_any, 0.01)),
    )


def draw_nameserver_profile(rng: DeterministicRNG, rates: DomainRates,
                            address: str) -> NameserverProfile:
    """Draw one calibrated authoritative nameserver."""
    frag_capable = rng.chance(rates.p_frag_any)
    return NameserverProfile(
        address=address,
        asn=rng.uniform_int(1, 60_000),
        prefix_length=rates.prefix_mix.draw(rng),
        honours_ptb=frag_capable,
        min_frag_size=(
            rng.choice(MIN_FRAG_CHOICES) if frag_capable else 1500
        ),
        rrl_enabled=rng.chance(rates.p_rrl),
        ipid_global=frag_capable and rng.chance(rates.p_global),
        supports_any=rng.chance(0.85),
        base_response_size=int(rng.gauss(140, 40)),
    )


def draw_domain_profile(rng: DeterministicRNG, spec: DomainDatasetSpec,
                        name: str, addresses: list[str],
                        rates: DomainRates) -> DomainProfile:
    """Draw one calibrated domain with ``len(addresses)`` nameservers."""
    nameservers = [draw_nameserver_profile(rng, rates, address)
                   for address in addresses]
    return DomainProfile(
        name=name,
        nameservers=nameservers,
        signed=rng.chance(spec.expected_dnssec / 100.0),
    )


# The §5.2.2 study's announcement mix: a 47% /24 mass.
_ALEXA_NS_PREFIX_MIX = MixSampler(_prefix_length_distribution(0.47))


def alexa_nameserver_population(seed: int | str = 0,
                                count: int = 4000) -> list[DomainProfile]:
    """The §5.2.2 record-type study population (Alexa-1M nameservers).

    Calibration: 20.5% of nameservers honour PMTUD; minimum fragment
    sizes split 7% / 83% / 10% across 292 / 548 / 1280 bytes
    (Figure 4); base A-response sizes are drawn wide enough that ANY
    responses almost always exceed the floor while plain A responses
    almost never do — reproducing the 19.5% / 0.29% / 0.44% / >10%
    pattern for ANY / A / MX / bloated queries.  One sequential stream
    draws the whole population; nameserver ``index`` sits at the atlas
    address slot ``index``.
    """
    from repro.atlas.synth import atlas_address

    rng = DeterministicRNG(seed).derive("alexa-ns")
    domains = []
    for index in range(count):
        honours = rng.chance(0.205)
        nameservers = [NameserverProfile(
            address=atlas_address(index),
            asn=rng.randint(1, 60_000),
            prefix_length=_ALEXA_NS_PREFIX_MIX.draw(rng),
            honours_ptb=honours,
            min_frag_size=(
                rng.choice(MIN_FRAG_CHOICES) if honours else 1500
            ),
            rrl_enabled=rng.chance(0.18),
            ipid_global=honours and rng.chance(0.25),
            supports_any=rng.chance(0.95),
            base_response_size=max(60, int(rng.gauss(230, 75))),
        )]
        domains.append(DomainProfile(
            name=f"alexa-{index}.example", nameservers=nameservers,
            signed=rng.chance(0.02),
        ))
    return domains


def _per_item_rate(aggregate: float, n: int) -> float:
    """Per-nameserver rate so that P(any of n) equals ``aggregate``."""
    aggregate = min(max(aggregate, 0.0), 1.0)
    if n <= 1:
        return aggregate
    return 1.0 - (1.0 - aggregate) ** (1.0 / n)
