"""Mergeable streaming aggregates for population-scale scans.

A shard worker never materialises its entities: it feeds each one
through the Section 5 scanners and folds the verdicts into a
:class:`ScanAggregate` — counters and histograms with an associative,
commutative :meth:`ScanAggregate.merge`.  Merging all shard aggregates
(in any order) therefore equals aggregating the monolithic stream, which
is what lets Tables 3 and 4 run at the paper's full dataset sizes in
constant memory per worker.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable

from repro.measurements.population import DomainProfile, FrontEnd
from repro.measurements.scanner import (
    SUBPREFIX_HIJACKABLE_BELOW,
    SurveySummary,
    scan_fragmentation,
    scan_nameserver_rrl,
    scan_saddns,
    scan_saddns_verdict,
)

#: Methodology flags per entity kind, in reporting order.
RESOLVER_FLAGS = ("hijack", "saddns", "frag")
DOMAIN_FLAGS = ("hijack", "saddns", "frag_any", "frag_global", "dnssec")

#: The three-methodology stratum axes (domains fold frag_any/global).
STRATUM_FLAGS = ("hijack", "saddns", "frag")


def stratum_key(hijack: bool, saddns: bool, frag: bool) -> str:
    """Canonical name of one vulnerability-profile stratum."""
    return _STRATUM_KEYS[bool(hijack), bool(saddns), bool(frag)]


def _stratum_name(hijack: bool, saddns: bool, frag: bool) -> str:
    parts = [name for name, flag in
             zip(STRATUM_FLAGS, (hijack, saddns, frag)) if flag]
    return "+".join(parts) if parts else "none"


# All eight strata, precomputed: the key is built once per scanned
# entity, millions of times per full-population run.
_STRATUM_KEYS = {
    (h, s, f): _stratum_name(h, s, f)
    for h in (False, True) for s in (False, True) for f in (False, True)
}


@dataclass
class ScanAggregate:
    """Streaming scan statistics for one shard (or a merge of shards)."""

    kind: str
    count: int = 0
    flags: Counter = field(default_factory=Counter)
    strata: Counter = field(default_factory=Counter)
    histograms: dict[str, Counter] = field(default_factory=dict)

    def _bump(self, histogram: str, value: int) -> None:
        counter = self.histograms.get(histogram)
        if counter is None:
            counter = self.histograms[histogram] = Counter()
        counter[value] += 1

    def _histogram(self, name: str) -> Counter:
        counter = self.histograms.get(name)
        if counter is None:
            counter = self.histograms[name] = Counter()
        return counter

    def observe_front_end(self, front_end: FrontEnd,
                          single_use: bool = False) -> None:
        """Scan one front-end system and fold in the verdicts.

        Each probe fires only until its flag first turns true, so a
        resolver behind an already-vulnerable front end draws no probe
        RNG for that flag.  ``single_use=True`` switches the SadDNS
        probe to the pruned
        :func:`scan_saddns_verdict` — identical verdicts, but the
        entity's ICMP RNG may be left mid-stream, so it is only valid
        when the entity is discarded after this call (the aggregate-only
        shard scans).
        """
        saddns_probe = scan_saddns_verdict if single_use else scan_saddns
        hijack = saddns = frag = False
        self.count += 1
        if front_end.resolvers:
            prefix_hist = self._histogram("prefix_length")
            for resolver in front_end.resolvers:
                if not hijack and resolver.prefix_length < SUBPREFIX_HIJACKABLE_BELOW:
                    hijack = True
                if not saddns and saddns_probe(resolver):
                    saddns = True
                if not frag and scan_fragmentation(resolver):
                    frag = True
                prefix_hist[resolver.prefix_length] += 1
                if resolver.reachable and resolver.edns_size is not None:
                    self._bump("edns_size", resolver.edns_size)
        flags = self.flags
        if hijack:
            flags["hijack"] += 1
        if saddns:
            flags["saddns"] += 1
        if frag:
            flags["frag"] += 1
        self.strata[_STRATUM_KEYS[hijack, saddns, frag]] += 1

    def observe_domain(self, domain: DomainProfile,
                       single_use: bool = False) -> None:
        """Scan one domain and fold in the verdicts (fused scan loop).

        ``single_use`` is accepted for symmetry with
        :meth:`observe_front_end`; domain scanning consumes no RNG, so
        both modes are identical.
        """
        hijack = saddns = frag_any = frag_global = False
        self.count += 1
        if domain.nameservers:
            prefix_hist = self._histogram("prefix_length")
            for ns in domain.nameservers:
                if not hijack and ns.prefix_length < SUBPREFIX_HIJACKABLE_BELOW:
                    hijack = True
                if not saddns and scan_nameserver_rrl(ns):
                    saddns = True
                if ns.fragments_response("ANY"):
                    frag_any = True
                    if ns.ipid_global:
                        frag_global = True
                prefix_hist[ns.prefix_length] += 1
                if ns.honours_ptb:
                    self._bump("min_frag_size", ns.min_frag_size)
        flags = self.flags
        if hijack:
            flags["hijack"] += 1
        if saddns:
            flags["saddns"] += 1
        if frag_any:
            flags["frag_any"] += 1
        if frag_global:
            flags["frag_global"] += 1
        if domain.signed:
            flags["dnssec"] += 1
        self.strata[_STRATUM_KEYS[hijack, saddns,
                                  frag_any or frag_global]] += 1

    def observe(self, entity: FrontEnd | DomainProfile) -> None:
        if isinstance(entity, FrontEnd):
            self.observe_front_end(entity)
        else:
            self.observe_domain(entity)

    # -- algebra ---------------------------------------------------------------

    def merge(self, other: "ScanAggregate") -> "ScanAggregate":
        """Fold another aggregate in (associative and commutative)."""
        if other.kind != self.kind:
            raise ValueError(
                f"cannot merge {other.kind!r} into {self.kind!r}")
        self.count += other.count
        self.flags.update(other.flags)
        self.strata.update(other.strata)
        for name, histogram in other.histograms.items():
            self.histograms.setdefault(name, Counter()).update(histogram)
        return self

    @classmethod
    def merged(cls, kind: str,
               parts: Iterable["ScanAggregate"]) -> "ScanAggregate":
        total = cls(kind=kind)
        for part in parts:
            total.merge(part)
        return total

    # -- reporting -------------------------------------------------------------

    def pct(self, flag: str) -> float:
        return 100.0 * self.flags.get(flag, 0) / self.count \
            if self.count else 0.0

    def flag_names(self) -> tuple[str, ...]:
        return RESOLVER_FLAGS if self.kind == "resolver" else DOMAIN_FLAGS

    def to_summary(self, dataset: str, full_size: int) -> SurveySummary:
        """The same shape the monolithic scanners summarise into."""
        return SurveySummary(
            dataset=dataset, size=self.count, full_size=full_size,
            percentages={flag: self.pct(flag)
                         for flag in self.flag_names()},
        )

    # -- persistence -----------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "count": self.count,
            "flags": dict(self.flags),
            "strata": dict(self.strata),
            "histograms": {name: {str(value): count
                                  for value, count in histogram.items()}
                           for name, histogram in self.histograms.items()},
        }

    @classmethod
    def from_json(cls, payload: dict) -> "ScanAggregate":
        return cls(
            kind=payload["kind"],
            count=payload["count"],
            flags=Counter(payload.get("flags", {})),
            strata=Counter(payload.get("strata", {})),
            histograms={
                name: Counter({int(value): count
                               for value, count in histogram.items()})
                for name, histogram in payload.get("histograms", {}).items()
            },
        )
