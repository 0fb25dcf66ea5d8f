"""Resource record model and record-type registry.

Rdata is stored in parsed (presentation) form on :class:`ResourceRecord`
instances; the byte encodings live in :mod:`repro.dns.wire`.  The types
implemented are exactly those the paper's attacks inject or downgrade
(Table 1): A, AAAA, NS, CNAME, SOA, MX, TXT, SRV, NAPTR, IPSECKEY, plus
the DNSSEC presence markers (RRSIG, DNSKEY, DS) and OPT for EDNS.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, NamedTuple

from repro.core.values import checked_replace

_tuple_new = tuple.__new__

# RR type codes (RFC 1035 and successors).
TYPE_A = 1
TYPE_NS = 2
TYPE_CNAME = 5
TYPE_SOA = 6
TYPE_PTR = 12
TYPE_MX = 15
TYPE_TXT = 16
TYPE_AAAA = 28
TYPE_SRV = 33
TYPE_NAPTR = 35
TYPE_OPT = 41
TYPE_DS = 43
TYPE_IPSECKEY = 45
TYPE_RRSIG = 46
TYPE_DNSKEY = 48
QTYPE_ANY = 255

TYPE_NAMES = {
    TYPE_A: "A",
    TYPE_NS: "NS",
    TYPE_CNAME: "CNAME",
    TYPE_SOA: "SOA",
    TYPE_PTR: "PTR",
    TYPE_MX: "MX",
    TYPE_TXT: "TXT",
    TYPE_AAAA: "AAAA",
    TYPE_SRV: "SRV",
    TYPE_NAPTR: "NAPTR",
    TYPE_OPT: "OPT",
    TYPE_DS: "DS",
    TYPE_IPSECKEY: "IPSECKEY",
    TYPE_RRSIG: "RRSIG",
    TYPE_DNSKEY: "DNSKEY",
    QTYPE_ANY: "ANY",
}

NAME_TYPES = {name: code for code, name in TYPE_NAMES.items()}


def type_name(code: int) -> str:
    """Presentation name for an RR type code ('TYPE123' if unknown)."""
    return TYPE_NAMES.get(code, f"TYPE{code}")


def type_code(name: str) -> int:
    """RR type code for a presentation name."""
    upper = name.upper()
    if upper in NAME_TYPES:
        return NAME_TYPES[upper]
    if upper.startswith("TYPE"):
        return int(upper[4:])
    raise ValueError(f"unknown record type: {name!r}")


class _RecordFields(NamedTuple):
    name: str
    rtype: int
    ttl: int
    data: Any


class ResourceRecord(_RecordFields):
    """One DNS resource record.

    ``data`` holds presentation-form rdata whose shape depends on the
    type: a string for A/NS/CNAME/PTR/TXT, a tuple for the structured
    types (see :mod:`repro.dns.wire` for the exact layouts).

    A tuple underneath: a response carries its records by the dozen
    and the wire codec hashes them into its cache keys, so building,
    hashing and comparing one runs in C.  Its ``repr`` and hash are a
    frozen dataclass's with the same fields, which digests, rendered
    tables and set orders rely on.
    """

    __slots__ = ()

    def __new__(cls, name: str, rtype: int, ttl: int,
                data: Any) -> "ResourceRecord":
        if ttl < 0:
            raise ValueError(f"negative TTL: {ttl}")
        return _tuple_new(cls, (name, rtype, ttl, data))

    _replace = checked_replace

    @property
    def rtype_name(self) -> str:
        """Presentation name of the type."""
        return type_name(self.rtype)

    def describe(self) -> str:
        """Zone-file-like one-liner."""
        return f"{self.name} {self.ttl} {self.rtype_name} {self.data!r}"


def rr_a(name: str, address: str, ttl: int = 300) -> ResourceRecord:
    """Build an A record."""
    return ResourceRecord(name, TYPE_A, ttl, address)


def rr_ns(name: str, target: str, ttl: int = 300) -> ResourceRecord:
    """Build an NS record."""
    return ResourceRecord(name, TYPE_NS, ttl, target)


def rr_cname(name: str, target: str, ttl: int = 300) -> ResourceRecord:
    """Build a CNAME record."""
    return ResourceRecord(name, TYPE_CNAME, ttl, target)


def rr_mx(name: str, preference: int, exchange: str,
          ttl: int = 300) -> ResourceRecord:
    """Build an MX record."""
    return ResourceRecord(name, TYPE_MX, ttl, (preference, exchange))


def rr_txt(name: str, text: str, ttl: int = 300) -> ResourceRecord:
    """Build a TXT record."""
    return ResourceRecord(name, TYPE_TXT, ttl, text)


def rr_srv(name: str, priority: int, weight: int, port: int, target: str,
           ttl: int = 300) -> ResourceRecord:
    """Build an SRV record."""
    return ResourceRecord(name, TYPE_SRV, ttl, (priority, weight, port, target))


def rr_naptr(name: str, order: int, preference: int, flags: str,
             service: str, regexp: str, replacement: str,
             ttl: int = 300) -> ResourceRecord:
    """Build a NAPTR record (used by RADIUS dynamic peer discovery)."""
    return ResourceRecord(
        name, TYPE_NAPTR, ttl,
        (order, preference, flags, service, regexp, replacement),
    )


def rr_soa(name: str, mname: str, rname: str, serial: int = 1,
           refresh: int = 3600, retry: int = 600, expire: int = 86400,
           minimum: int = 60, ttl: int = 300) -> ResourceRecord:
    """Build an SOA record."""
    return ResourceRecord(
        name, TYPE_SOA, ttl,
        (mname, rname, serial, refresh, retry, expire, minimum),
    )


def rr_ipseckey(name: str, gateway: str, public_key: str = "mock-key",
                ttl: int = 300) -> ResourceRecord:
    """Build a (simplified) IPSECKEY record for opportunistic IPsec."""
    return ResourceRecord(name, TYPE_IPSECKEY, ttl, (gateway, public_key))


def rr_rrsig(name: str, covered_type: int, signer: str,
             valid: bool = True, digest: str = "",
             ttl: int = 300) -> ResourceRecord:
    """Build a modelled RRSIG.

    ``valid`` models whether the signature cryptographically verifies
    (off-path attackers can never set it truthfully) and ``digest``
    binds the signature to the covered rrset's rdata, so that
    tampering with record bytes after signing — e.g. by a spliced
    fragment — is detected by validating resolvers.
    """
    return ResourceRecord(name, TYPE_RRSIG, ttl,
                          (covered_type, signer, valid, digest))


def rrset_digest(records: list["ResourceRecord"]) -> str:
    """Canonical digest over an rrset's rdata (the signed content)."""
    import hashlib

    canonical = sorted(
        f"{r.name.lower()}|{r.rtype}|{r.data!r}" for r in records
    )
    return hashlib.sha256("\n".join(canonical).encode()).hexdigest()[:16]


@dataclass
class RRSet:
    """All records sharing (name, type); the unit of caching."""

    name: str
    rtype: int
    records: list[ResourceRecord] = field(default_factory=list)

    @property
    def ttl(self) -> int:
        """Minimum TTL across the set (what a cache should honour)."""
        if not self.records:
            return 0
        return min(r.ttl for r in self.records)

    def add(self, record: ResourceRecord) -> None:
        """Append a record; name/type must match the set."""
        if record.rtype != self.rtype:
            raise ValueError("record type does not match RRSet")
        self.records.append(record)


def group_rrsets(records: list[ResourceRecord]) -> list[RRSet]:
    """Group a record list into RRSets, preserving first-seen order."""
    sets: dict[tuple[str, int], RRSet] = {}
    order: list[tuple[str, int]] = []
    for record in records:
        key = (record.name.lower(), record.rtype)
        if key not in sets:
            sets[key] = RRSet(record.name, record.rtype)
            order.append(key)
        sets[key].records.append(record)
    return [sets[key] for key in order]
