"""Authoritative nameserver bound to a simulated host.

Implements the server-side behaviours the paper measures and abuses:

* response-rate-limiting (RRL) — the property SadDNS exploits to "mute"
  the genuine nameserver (Section 5.2.2 probes it with a 4000-query
  burst);
* ANY query handling and response bloating — what makes responses exceed
  the path MTU so FragDNS gets fragments at all;
* PMTUD acceptance and minimum fragment size — inherited from the
  underlying :class:`~repro.netsim.host.Host` config;
* record-order randomisation — the Section 6 countermeasure that breaks
  UDP-checksum prediction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.errors import WireFormatError
from repro.core.rng import DeterministicRNG
from repro.dns.message import (
    DnsMessage,
    RCODE_NOERROR,
    RCODE_NOTIMP,
    RCODE_NXDOMAIN,
    RCODE_REFUSED,
)
from repro.dns.records import TYPE_A, TYPE_NS, TYPE_SOA
from repro.dns.wire import decode_message, encode_message
from repro.dns.zones import Zone, ZoneSet
from repro.netsim.host import Host, UdpSocket
from repro.netsim.packet import UdpDatagram
from repro.netsim.ratelimit import TokenBucket

DNS_PORT = 53
#: The largest UDP response served, whatever buffer the client offers.
MAX_UDP_RESPONSE = 4096


@dataclass
class NameserverConfig:
    """Behaviour switches for one authoritative server."""

    rrl_enabled: bool = False
    rrl_rate: float = 10.0          # responses per second once limited
    rrl_burst: float = 20.0
    randomize_record_order: bool = False


@dataclass
class NameserverStats:
    """Query/response accounting."""

    queries: int = 0
    responses: int = 0
    rate_limited: int = 0
    refused: int = 0
    nxdomain: int = 0
    referrals: int = 0


class AuthoritativeServer:
    """Serves a :class:`ZoneSet` over simulated UDP (and TCP fallback)."""

    def __init__(self, host: Host, zones: ZoneSet | None = None,
                 config: NameserverConfig | None = None,
                 rng: DeterministicRNG | None = None):
        self.host = host
        self.zones = zones if zones is not None else ZoneSet()
        self.config = config if config is not None else NameserverConfig()
        self.rng = rng if rng is not None else DeterministicRNG(host.name)
        self.stats = NameserverStats()
        self._rrl_bucket: TokenBucket | None = (
            TokenBucket(self.config.rrl_rate, self.config.rrl_burst)
            if self.config.rrl_enabled else None
        )
        self.socket: UdpSocket = host.open_udp(DNS_PORT, self._on_datagram)
        host.stream_handlers[DNS_PORT] = self._on_stream

    def add_zone(self, zone: Zone) -> Zone:
        """Register an additional zone on this server."""
        return self.zones.add(zone)

    # -- transport ---------------------------------------------------------

    def _on_datagram(self, datagram: UdpDatagram, src: str, dst: str) -> None:
        try:
            query = decode_message(datagram.payload)
        except WireFormatError:
            return  # malformed queries are dropped silently
        if query.is_response:
            return
        self.stats.queries += 1
        if self._rrl_bucket is not None and not self._rrl_bucket.allow(
                self.host.now):
            self.stats.rate_limited += 1
            return  # muted: this is the window SadDNS races inside
        response, wire = self._respond(query, via_tcp=False)
        self.stats.responses += 1
        if wire is None:
            wire = encode_message(response)
        self.socket.sendto(src, datagram.sport, wire, df=False)

    def _on_stream(self, payload: bytes, src: str) -> bytes | None:
        try:
            query = decode_message(payload)
        except WireFormatError:
            return None
        self.stats.queries += 1
        response = self.build_response(query, via_tcp=True, client=src)
        self.stats.responses += 1
        return encode_message(response)

    # -- response construction ----------------------------------------------

    def build_response(self, query: DnsMessage, via_tcp: bool = False,
                       client: str = "") -> DnsMessage:
        """Construct the authoritative answer for ``query``."""
        return self._respond(query, via_tcp)[0]

    def _respond(self, query: DnsMessage,
                 via_tcp: bool) -> tuple[DnsMessage, bytes | None]:
        """The answer for ``query``, and its UDP wire form when the size
        check already encoded it (``None`` otherwise)."""
        response = query.reply_skeleton()
        response.authoritative = True
        question = query.question
        if question is None:
            response.rcode = RCODE_NOTIMP
            return response, None
        zone = self.zones.zone_for(question.name)
        if zone is None:
            response.rcode = RCODE_REFUSED
            self.stats.refused += 1
            return response, None
        delegation = zone.delegation_for(question.name)
        if delegation is not None:
            child, ns_records = delegation
            response.authoritative = False
            response.authority.extend(ns_records)
            for ns in ns_records:
                response.additional.extend(
                    r for r in zone.records_at(str(ns.data))
                    if r.rtype == TYPE_A
                )
            self.stats.referrals += 1
            return self._finish(response, query, via_tcp)
        answers = zone.lookup(question.name, question.qtype)
        if answers:
            response.answers.extend(answers)
            response.rcode = RCODE_NOERROR
        elif zone.has_name(question.name):
            response.rcode = RCODE_NOERROR  # NODATA
            response.authority.extend(zone.lookup(zone.origin, TYPE_SOA))
        else:
            response.rcode = RCODE_NXDOMAIN
            response.authority.extend(zone.lookup(zone.origin, TYPE_SOA))
            self.stats.nxdomain += 1
        return self._finish(response, query, via_tcp)

    def _finish(self, response: DnsMessage, query: DnsMessage,
                via_tcp: bool) -> tuple[DnsMessage, bytes | None]:
        """Randomise record order if configured, then size a UDP answer.

        A UDP response is encoded once, to compare its size with the
        client's buffer; those bytes are returned for sending, so the
        common (untruncated) answer is never encoded twice.
        """
        if self.config.randomize_record_order:
            # Response randomisation (§6.1): rotate records *and* jitter
            # the answer TTLs per response.  Pure rrset rotation alone
            # would leave the UDP checksum invariant (one's-complement
            # sums are permutation-invariant over aligned words), so the
            # TTL jitter is what actually makes the second fragment's
            # checksum unpredictable to a FragDNS attacker.
            self.rng.shuffle(response.answers)
            self.rng.shuffle(response.additional)
            response.answers = [
                record._replace(ttl=max(1, record.ttl
                                        - self.rng.randint(0, 255)))
                for record in response.answers
            ]
        if via_tcp:
            return response, None
        limit = min(
            MAX_UDP_RESPONSE,
            query.edns_udp_size if query.edns_udp_size else 512,
        )
        wire = encode_message(response)
        if len(wire) > limit:
            # Too big for the client's buffer: truncate so it retries
            # over TCP.  (Fragmentation happens at the IP layer when
            # the *path* is too small, not here.)
            response.answers.clear()
            response.authority.clear()
            response.additional.clear()
            response.truncated = True
            wire = encode_message(response)
        return response, wire

    # -- attack-surface helpers ----------------------------------------------

    @property
    def address(self) -> str:
        """Primary address of the underlying host."""
        return self.host.address

    def is_muted(self, now: float) -> bool:
        """True while RRL would drop the next response."""
        if self._rrl_bucket is None:
            return False
        return self._rrl_bucket.peek(now) < 1.0
