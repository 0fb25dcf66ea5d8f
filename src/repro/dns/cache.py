"""The resolver cache — the asset every attack in the paper targets.

Entries are RRSets keyed by (lowercased name, type), each with an absolute
expiry on the virtual clock.  Insertion enforces the *bailiwick* rule: a
record may only enter the cache if its owner name falls inside the zone
the responding server is authoritative for, which is why the paper's
attackers inject records for the victim domain itself rather than
arbitrary names.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.dns import names
from repro.dns.records import (
    QTYPE_ANY,
    ResourceRecord,
    TYPE_CNAME,
    group_rrsets,
)


@dataclass
class CacheEntry:
    """A cached RRSet plus bookkeeping."""

    records: list[ResourceRecord]
    expires_at: float
    inserted_at: float
    source: str = ""          # responding server address, for forensics
    poisoned: bool = False    # ground-truth flag set by attack harnesses

    def alive(self, now: float) -> bool:
        """True while the entry has remaining TTL."""
        return now < self.expires_at


@dataclass
class CacheStats:
    """Hit/miss accounting."""

    hits: int = 0
    misses: int = 0
    insertions: int = 0
    bailiwick_rejects: int = 0
    expirations: int = 0
    evictions: int = 0      # live entries displaced by a full cache


class DnsCache:
    """TTL- and bailiwick-respecting record cache."""

    def __init__(self, max_entries: int = 100_000):
        self.max_entries = max_entries
        self._entries: dict[tuple[str, int], CacheEntry] = {}
        self.stats = CacheStats()
        # Earliest expiry across current entries: lets a full insert
        # know whether an expired-entry sweep can free room at all.
        self._min_expiry = math.inf

    def __len__(self) -> int:
        return len(self._entries)

    def _key(self, name: str, rtype: int) -> tuple[str, int]:
        return (names.normalise(name), rtype)

    def get(self, name: str, rtype: int, now: float) -> list[ResourceRecord] | None:
        """Cached records for (name, type), following same-name CNAMEs."""
        entry = self._entries.get(self._key(name, rtype))
        if entry is not None:
            if entry.alive(now):
                self.stats.hits += 1
                return list(entry.records)
            del self._entries[self._key(name, rtype)]
            self.stats.expirations += 1
        if rtype != TYPE_CNAME and rtype != QTYPE_ANY:
            alias = self._entries.get(self._key(name, TYPE_CNAME))
            if alias is not None and alias.alive(now):
                self.stats.hits += 1
                return list(alias.records)
        self.stats.misses += 1
        return None

    def get_any(self, name: str, now: float) -> list[ResourceRecord]:
        """All live records cached under ``name`` regardless of type."""
        found: list[ResourceRecord] = []
        wanted = names.normalise(name)
        for (cached_name, _rtype), entry in list(self._entries.items()):
            if cached_name == wanted and entry.alive(now):
                found.extend(entry.records)
        return found

    def put(self, records: list[ResourceRecord], now: float,
            bailiwick: str | None = None, source: str = "",
            poisoned: bool = False) -> int:
        """Insert records grouped into RRSets; returns sets accepted.

        Records outside ``bailiwick`` are rejected (and counted), exactly
        as RFC 2181 trust rules demand.
        """
        accepted = 0
        for rrset in group_rrsets(records):
            if bailiwick is not None and not names.is_subdomain(
                    rrset.name, bailiwick):
                self.stats.bailiwick_rejects += 1
                continue
            if len(self._entries) >= self.max_entries:
                self._make_room(now)
            key = self._key(rrset.name, rrset.rtype)
            expires_at = now + rrset.ttl
            self._entries[key] = CacheEntry(
                records=list(rrset.records),
                expires_at=expires_at,
                inserted_at=now,
                source=source,
                poisoned=poisoned,
            )
            if expires_at < self._min_expiry:
                self._min_expiry = expires_at
            self.stats.insertions += 1
            accepted += 1
        return accepted

    def _make_room(self, now: float) -> None:
        """Free at least one slot: sweep expired entries, else evict.

        The sweep runs only when the earliest expiry has passed, so a
        loaded cache pays O(n) once per expiry wave instead of per
        insert; when nothing is expired, the longest-resident entry is
        evicted in O(1) (dicts preserve insertion order).
        """
        if now >= self._min_expiry:
            expired = [key for key, entry in self._entries.items()
                       if not entry.alive(now)]
            for key in expired:
                del self._entries[key]
            self.stats.expirations += len(expired)
            self._min_expiry = min(
                (entry.expires_at for entry in self._entries.values()),
                default=math.inf)
            if expired:
                return
        oldest = next(iter(self._entries))
        del self._entries[oldest]
        self.stats.evictions += 1

    def entry(self, name: str, rtype: int) -> CacheEntry | None:
        """Raw entry access for tests and forensics (ignores TTL)."""
        return self._entries.get(self._key(name, rtype))

    def contains_poison(self, now: float) -> bool:
        """True if any live entry was inserted by an attack harness.

        Expired poison is spent ammunition — under TTL churn a planted
        record that already aged out must not count as a live
        compromise, so liveness is checked against ``now``.
        """
        return any(e.poisoned and e.alive(now)
                   for e in self._entries.values())

    def poisoned_names(self, now: float) -> set[str]:
        """Owner names of live poisoned entries (for measurement harnesses)."""
        return {
            key[0] for key, entry in self._entries.items()
            if entry.poisoned and entry.alive(now)
        }

    def flush(self) -> None:
        """Drop everything (operator remediation)."""
        self._entries.clear()
        self._min_expiry = math.inf
