"""Modelled DNSSEC: signed-zone registry and signature validity.

The paper's attacks never break DNSSEC cryptography — they succeed where
DNSSEC is absent (fewer than 5% of studied domains were signed) or not
validated (71.4% of resolvers).  The model therefore only needs the
*control flow* of validation:

* genuine signed zones attach RRSIGs whose ``valid`` flag is True;
* off-path attackers cannot produce a valid signature, so every forgery
  helper in :mod:`repro.attacks` stamps ``valid=False``;
* a validating resolver rejects answers from zones registered as signed
  unless a valid covering RRSIG is present.
"""

from __future__ import annotations

from repro.dns import names
from repro.dns.records import ResourceRecord, TYPE_RRSIG


class DnssecRegistry:
    """The set of zone origins protected by a secure delegation chain.

    Shared between testbed construction (which registers signed zones)
    and validating resolvers (which consult it).  It stands in for the
    DS-record chain of trust from the root.
    """

    def __init__(self) -> None:
        self._signed: set[str] = set()

    def register(self, origin: str) -> None:
        """Mark ``origin`` as a signed zone with a valid chain of trust."""
        self._signed.add(names.normalise(origin))

    def is_signed(self, origin: str) -> bool:
        """Whether the zone at ``origin`` is signed."""
        return names.normalise(origin) in self._signed


def validate_rrsets(records: list[ResourceRecord], zone_origin: str,
                    registry: DnssecRegistry) -> bool:
    """Check the (modelled) signatures over a response's records.

    Returns True when the records are acceptable to a validating
    resolver: either the zone is unsigned (no protection expected), or
    every non-RRSIG rrset is covered by a valid RRSIG from the right
    signer.
    """
    if not registry.is_signed(zone_origin):
        return True
    rrsigs = [r for r in records if r.rtype == TYPE_RRSIG]
    plain = [r for r in records if r.rtype != TYPE_RRSIG]
    if not plain:
        return True
    from repro.dns.records import rrset_digest

    needed = {(names.normalise(r.name), r.rtype) for r in plain}
    for owner, rtype in needed:
        rrset = [
            r for r in plain
            if names.normalise(r.name) == owner and r.rtype == rtype
        ]
        presented_digest = rrset_digest(rrset)
        covered = False
        for sig in rrsigs:
            sig_covered_type, signer, valid, digest = sig.data
            if (names.normalise(sig.name) == owner
                    and sig_covered_type == rtype
                    and valid
                    and digest == presented_digest
                    and names.same_name(signer, zone_origin)):
                covered = True
                break
        if not covered:
            return False
    return True
