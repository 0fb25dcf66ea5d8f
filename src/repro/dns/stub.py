"""Stub resolver: the client-side API applications use for lookups.

A :class:`StubResolver` is bound to an application host and points at one
(or several) recursive resolvers.  ``lookup`` drives the simulation until
the answer arrives, giving application code a natural synchronous API
while everything underneath remains event-driven.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.errors import ResolutionError, WireFormatError
from repro.core.rng import DeterministicRNG
from repro.dns.message import RCODE_NOERROR, make_query
from repro.dns.records import ResourceRecord, type_code
from repro.dns.wire import decode_message, encode_message
from repro.netsim.host import Host
from repro.netsim.packet import UdpDatagram

DNS_PORT = 53


@dataclass
class LookupAnswer:
    """What a stub lookup returned."""

    qname: str
    qtype: int
    rcode: int
    records: list[ResourceRecord] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True on NOERROR."""
        return self.rcode == RCODE_NOERROR

    def addresses(self) -> list[str]:
        """All A addresses in the answer."""
        from repro.dns.records import TYPE_A

        return [r.data for r in self.records if r.rtype == TYPE_A]

    def first_address(self) -> str | None:
        """First A address, or None."""
        addresses = self.addresses()
        return addresses[0] if addresses else None


class StubResolver:
    """Synchronous-feeling DNS client over the simulated network."""

    def __init__(self, host: Host, resolver_ips: list[str] | str,
                 rng: DeterministicRNG | None = None,
                 timeout: float = 5.0, attempts: int = 2):
        if isinstance(resolver_ips, str):
            resolver_ips = [resolver_ips]
        if not resolver_ips:
            raise ValueError("stub resolver needs at least one resolver")
        self.host = host
        self.resolver_ips = list(resolver_ips)
        self.rng = rng if rng is not None else DeterministicRNG(
            f"stub-{host.name}")
        self.timeout = timeout
        self.attempts = attempts

    def lookup(self, qname: str, qtype: int | str = "A",
               raise_on_error: bool = False) -> LookupAnswer:
        """Resolve (qname, qtype) via the configured recursive resolver.

        Runs the network until an answer arrives or the stub times out.
        """
        if isinstance(qtype, str):
            qtype = type_code(qtype)
        network = self.host.network
        if network is None:
            raise RuntimeError("stub host is not attached to a network")
        answer_box: dict[str, LookupAnswer] = {}

        for attempt in range(self.attempts):
            resolver_ip = self.resolver_ips[attempt % len(self.resolver_ips)]
            txid = self.rng.pick_txid()

            def on_datagram(datagram: UdpDatagram, src: str,
                            dst: str) -> None:
                if src != resolver_ip:
                    return
                try:
                    response = decode_message(datagram.payload)
                except WireFormatError:
                    return
                if response.txid != txid or not response.is_response:
                    return
                answer_box["answer"] = LookupAnswer(
                    qname=qname, qtype=qtype, rcode=response.rcode,
                    records=list(response.answers),
                )

            socket = self.host.open_udp(None, on_datagram)
            query = make_query(qname, qtype, txid)
            socket.sendto(resolver_ip, DNS_PORT, encode_message(query))
            deadline = network.now + self.timeout
            while "answer" not in answer_box and network.now < deadline:
                if not network.scheduler.run_next():
                    break
            socket.close()
            if "answer" in answer_box:
                break
        if "answer" not in answer_box:
            if raise_on_error:
                raise ResolutionError(f"lookup timed out: {qname}")
            return LookupAnswer(qname=qname, qtype=qtype, rcode=2)
        answer = answer_box["answer"]
        if raise_on_error and not answer.ok:
            raise ResolutionError(
                f"lookup failed: {qname} rcode={answer.rcode}",
            )
        return answer
