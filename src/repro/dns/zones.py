"""Authoritative zone data and the delegation hierarchy.

A :class:`Zone` is a bag of records under one origin plus delegation
(child NS) records; :class:`ZoneSet` is what one authoritative server
carries.  The full simulated namespace — root, TLDs, second-level
domains — is assembled by :class:`repro.testbed.Testbed` from these
pieces so resolvers perform genuine iterative resolution.
"""

from __future__ import annotations

from typing import Iterable

from repro.dns import names
from repro.dns.records import (
    QTYPE_ANY,
    ResourceRecord,
    TYPE_CNAME,
    TYPE_NS,
    TYPE_RRSIG,
    TYPE_SOA,
    rr_rrsig,
    rr_soa,
    rrset_digest,
)


class Zone:
    """One zone: origin, its records, and child delegations.

    ``signed`` marks the zone as DNSSEC-signed; on lookup, signed zones
    attach modelled RRSIGs so validating resolvers can check them.

    Records are indexed by normalised owner name, so a lookup reads one
    owner's records instead of scanning the zone.  ``records`` is a
    read-only snapshot: change records through :meth:`add` and
    :meth:`set_ttl`, which keep the index in step.
    """

    def __init__(self, origin: str,
                 records: Iterable[ResourceRecord] = (),
                 signed: bool = False) -> None:
        self.origin = names.normalise(origin)
        self.signed = signed
        self._records: list[ResourceRecord] = []
        self._by_owner: dict[str, list[ResourceRecord]] = {}
        records = list(records)
        if not any(r.rtype == TYPE_SOA for r in records):
            records.insert(0, rr_soa(
                self.origin or ".",
                f"ns1.{self.origin}" if self.origin else "a.root",
                f"hostmaster.{self.origin}" if self.origin else "nstld",
            ))
        self.add_all(records)

    @property
    def records(self) -> tuple[ResourceRecord, ...]:
        """Every record, in the order it was added."""
        return tuple(self._records)

    def add(self, record: ResourceRecord) -> "Zone":
        """Add a record (chainable)."""
        if self.origin and not names.is_subdomain(record.name, self.origin):
            raise ValueError(
                f"record {record.name!r} outside zone {self.origin!r}"
            )
        self._records.append(record)
        self._by_owner.setdefault(
            names.normalise(record.name), []).append(record)
        return self

    def add_all(self, records: Iterable[ResourceRecord]) -> "Zone":
        """Add several records (chainable)."""
        for record in records:
            self.add(record)
        return self

    def set_ttl(self, name: str, rtype: int, ttl: int) -> None:
        """Give every ``rtype`` record at ``name`` the TTL ``ttl``, each
        keeping its place in the zone."""
        owner = names.normalise(name)
        for index, record in enumerate(self._records):
            if record.rtype == rtype \
                    and names.normalise(record.name) == owner:
                self._records[index] = record._replace(ttl=ttl)
        if owner in self._by_owner:
            self._by_owner[owner] = [
                r for r in self._records if names.normalise(r.name) == owner]

    def records_at(self, name: str) -> tuple[ResourceRecord, ...]:
        """Every record owned by ``name``, in zone order."""
        return tuple(self._by_owner.get(names.normalise(name), ()))

    def lookup(self, qname: str, qtype: int,
               _depth: int = 0) -> list[ResourceRecord]:
        """Records matching (qname, qtype); ANY returns every type.

        When the name owns a CNAME and the query asks for another type,
        the CNAME is returned and, if the target lives in this zone, the
        chain is chased server-side (RFC 1034 §3.6.2).
        """
        owned = self._by_owner.get(names.normalise(qname), ())
        matched = [
            r for r in owned
            if (qtype == QTYPE_ANY or r.rtype == qtype)
            and r.rtype != TYPE_RRSIG
        ]
        if not matched and qtype not in (QTYPE_ANY, TYPE_CNAME) \
                and _depth < 8:
            aliases = [r for r in owned if r.rtype == TYPE_CNAME]
            if aliases:
                target = str(aliases[0].data)
                chain = list(aliases)
                if self.signed:
                    chain.append(rr_rrsig(
                        qname, TYPE_CNAME, self.origin or ".",
                        digest=rrset_digest(aliases),
                    ))
                if names.is_subdomain(target, self.origin):
                    chain.extend(self.lookup(target, qtype,
                                             _depth=_depth + 1))
                return chain
        if self.signed and matched:
            covered_types = {r.rtype for r in matched}
            matched = matched + [
                rr_rrsig(
                    qname, rtype, self.origin or ".",
                    digest=rrset_digest(
                        [r for r in matched if r.rtype == rtype]),
                )
                for rtype in sorted(covered_types)
            ]
        return matched

    def delegation_for(self, qname: str) -> tuple[str, list[ResourceRecord]] | None:
        """Child-zone NS records covering ``qname``, if delegated away.

        Returns (child origin, NS records) for the deepest delegation
        point between our origin and ``qname``, or None if ``qname`` is
        answered authoritatively here.
        """
        owner = names.normalise(qname)
        if not names.is_subdomain(owner, self.origin):
            return None
        # From qname up to, not including, the apex (whose NS records
        # are not a delegation): the first owner with NS is the deepest.
        while owner != self.origin:
            ns_records = [r for r in self._by_owner.get(owner, ())
                          if r.rtype == TYPE_NS]
            if ns_records:
                return (owner, ns_records)
            dot = owner.find(".")
            if dot < 0:
                break
            owner = owner[dot + 1:]
        return None

    def has_name(self, qname: str) -> bool:
        """True if any record (of any type) exists at ``qname``."""
        return names.normalise(qname) in self._by_owner


class ZoneSet:
    """The zones one authoritative server carries, deepest-match lookup."""

    def __init__(self) -> None:
        self._zones: dict[str, Zone] = {}

    def add(self, zone: Zone) -> Zone:
        """Register a zone (origin must be unique on this server)."""
        if zone.origin in self._zones:
            raise ValueError(f"duplicate zone {zone.origin!r}")
        self._zones[zone.origin] = zone
        return zone

    def __iter__(self):
        return iter(self._zones.values())

    def __len__(self) -> int:
        return len(self._zones)

    def zone_for(self, qname: str) -> Zone | None:
        """The most specific zone whose origin contains ``qname``."""
        origin = names.normalise(qname)
        # From qname up to the root: the first origin carried wins.
        while True:
            zone = self._zones.get(origin)
            if zone is not None or not origin:
                return zone
            dot = origin.find(".")
            origin = origin[dot + 1:] if dot >= 0 else ""

    def get(self, origin: str) -> Zone | None:
        """Zone by exact origin."""
        return self._zones.get(names.normalise(origin))
