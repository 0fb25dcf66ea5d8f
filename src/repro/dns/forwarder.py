"""DNS forwarders: the open front-ends of the Internet's resolver fleet.

Section 4.3.3 of the paper shows that open *forwarders* are how an
attacker triggers queries on an otherwise closed recursive resolver: the
forwarder accepts anyone's query and relays it upstream, so poisoning the
upstream's cache becomes externally reachable.  A forwarder here is a
thin relay with an optional local cache, bound to its own host.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.errors import WireFormatError
from repro.core.rng import DeterministicRNG
from repro.dns.cache import DnsCache
from repro.dns.message import RCODE_SERVFAIL
from repro.dns.records import QTYPE_ANY
from repro.dns.wire import decode_message, encode_message
from repro.netsim.host import Host, UdpSocket
from repro.netsim.packet import UdpDatagram

DNS_PORT = 53


@dataclass
class ForwarderStats:
    """Relay accounting."""

    client_queries: int = 0
    forwarded: int = 0
    answered_from_cache: int = 0
    upstream_responses: int = 0


class Forwarder:
    """An open DNS forwarder relaying to one upstream recursive resolver."""

    def __init__(self, host: Host, upstream: str,
                 cache_responses: bool = True,
                 rng: DeterministicRNG | None = None):
        self.host = host
        self.upstream = upstream
        self.cache = DnsCache() if cache_responses else None
        self.rng = rng if rng is not None else DeterministicRNG(host.name)
        self.stats = ForwarderStats()
        self._pending: dict[int, tuple[str, int, int]] = {}
        self.service_socket: UdpSocket = host.open_udp(
            DNS_PORT, self._on_client_query
        )
        self._upstream_socket: UdpSocket = host.open_udp(
            None, self._on_upstream_response
        )

    @property
    def address(self) -> str:
        """Client-facing address."""
        return self.host.address

    def _on_client_query(self, datagram: UdpDatagram, src: str,
                         dst: str) -> None:
        try:
            query = decode_message(datagram.payload)
        except WireFormatError:
            return
        if query.is_response or query.question is None:
            return
        self.stats.client_queries += 1
        question = query.question
        if self.cache is not None and question.qtype != QTYPE_ANY:
            cached = self.cache.get(question.name, question.qtype,
                                    self.host.now)
            if cached is not None:
                self.stats.answered_from_cache += 1
                reply = query.reply_skeleton()
                reply.recursion_available = True
                reply.answers.extend(cached)
                self.service_socket.sendto(
                    src, datagram.sport, encode_message(reply)
                )
                return
        relay_txid = self.rng.pick_txid()
        self._pending[relay_txid] = (src, datagram.sport, query.txid)
        relayed = query.with_txid(relay_txid)
        self._upstream_socket.sendto(self.upstream, DNS_PORT,
                                     encode_message(relayed))
        self.stats.forwarded += 1

    def _on_upstream_response(self, datagram: UdpDatagram, src: str,
                              dst: str) -> None:
        if src != self.upstream:
            return
        try:
            response = decode_message(datagram.payload)
        except WireFormatError:
            return
        pending = self._pending.pop(response.txid, None)
        if pending is None:
            return
        self.stats.upstream_responses += 1
        client_ip, client_port, client_txid = pending
        if self.cache is not None and response.answers:
            self.cache.put(response.answers, self.host.now, bailiwick=None,
                           source=src)
        reply = response.with_txid(client_txid)
        self.service_socket.sendto(client_ip, client_port,
                                   encode_message(reply))
