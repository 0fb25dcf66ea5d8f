"""Common attacker model and attack result types.

The paper's adversary is *off-path*: it cannot observe traffic between
the victim resolver and the nameserver, but it can send packets with
spoofed source addresses (about 30% of networks perform no egress
filtering).  :class:`OffPathAttacker` packages that capability set —
spoofed UDP/ICMP/fragment injection plus accounting — and the three
methodology classes build on it.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Any

from repro.core.eventlog import EventLog
from repro.core.rng import DeterministicRNG
from repro.dns import names
from repro.dns.message import DnsMessage
from repro.dns.records import ResourceRecord, TYPE_A, rr_rrsig
from repro.dns.resolver import RecursiveResolver
from repro.dns.wire import encode_message
from repro.netsim.host import Host
from repro.netsim.packet import (
    FragmentSpray,
    IcmpMessage,
    UdpBurst,
    UdpDatagram,
)
from repro.netsim.wire import encode_ipv4, make_icmp_packet


@dataclass
class AttackResult:
    """Outcome of one attack execution."""

    method: str
    success: bool
    iterations: int = 0
    packets_sent: int = 0
    queries_triggered: int = 0
    duration: float = 0.0
    detail: dict[str, Any] = field(default_factory=dict)

    @property
    def hitrate(self) -> float:
        """Empirical per-triggered-query success probability."""
        if self.queries_triggered == 0:
            return 0.0
        return (1.0 if self.success else 0.0) / self.queries_triggered

    def describe(self) -> str:
        """Summary line in the style of the paper's Table 6 rows."""
        status = "SUCCESS" if self.success else "FAILED"
        return (f"{self.method}: {status} after {self.iterations} iterations,"
                f" {self.queries_triggered} triggered queries,"
                f" {self.packets_sent} attack packets,"
                f" {self.duration:.1f}s (virtual)")


class OffPathAttacker:
    """Spoofing-capable packet injector bound to an attacker host."""

    def __init__(self, host: Host, rng: DeterministicRNG | None = None,
                 log: EventLog | None = None):
        if not host.config.egress_spoofing_allowed:
            raise ValueError(
                "off-path attacks need a spoofing-friendly network; set "
                "egress_spoofing_allowed on the attacker host"
            )
        self.host = host
        self.rng = rng if rng is not None else DeterministicRNG(
            f"attacker-{host.name}")
        self.log = log if log is not None else (
            host.network.log if host.network is not None else EventLog()
        )
        self.packets_sent = 0
        self.icmp_received: list[tuple[IcmpMessage, str]] = []
        host.icmp_listener = self._on_icmp

    @property
    def address(self) -> str:
        """The attacker's own (non-spoofed) address."""
        return self.host.address

    def _on_icmp(self, message: IcmpMessage, src: str) -> None:
        self.icmp_received.append((message, src))

    def drain_icmp(self) -> list[tuple[IcmpMessage, str]]:
        """Collect and clear ICMP messages received since the last call."""
        received = self.icmp_received
        self.icmp_received = []
        return received

    # -- spoofed packet primitives ---------------------------------------------

    def spoof_udp(self, src: str, sport: int, dst: str, dport: int,
                  payload: bytes, ident: int | None = None) -> None:
        """Inject a UDP datagram with an arbitrary source address, as a
        one-datagram burst (IP ident drawn by ``rng.randint(0, 0xFFFF)``
        unless given); a clean fabric builds no packet for it."""
        self.inject_burst(UdpBurst(
            src, dst, (UdpDatagram(sport, dport, payload),),
            (ident if ident is not None else self.rng.randint(0, 0xFFFF),)))

    def inject_burst(self, burst: UdpBurst | FragmentSpray) -> None:
        """Inject a same-instant burst of (possibly spoofed) packets.

        How every spoofed datagram (:meth:`spoof_udp`, SadDNS mute
        queries, scan batches, TXID flood chunks) and FragDNS fragment
        spray leaves: the burst goes through
        :meth:`Host.raw_send_burst`, and each of its packets is
        accounted as one.
        """
        self.host.raw_send_burst(burst)
        self.packets_sent += len(burst.idents)

    def spoof_dns(self, src: str, dst: str, dport: int,
                  message: DnsMessage, sport: int = 53) -> None:
        """Inject a spoofed DNS message (default: as if from port 53)."""
        self.spoof_udp(src, sport, dst, dport, encode_message(message))

    def spoof_icmp(self, src: str, dst: str, message: IcmpMessage) -> None:
        """Inject a spoofed ICMP message."""
        packet = make_icmp_packet(src=src, dst=dst, message=message,
                                  ident=self.rng.randint(0, 0xFFFF))
        self.host.raw_send(packet)
        self.packets_sent += 1

    def spoof_fragments(self, src: str, dst: str, idents: Sequence[int],
                        frag_offset_bytes: int, payload: bytes,
                        more_fragments: bool = False) -> None:
        """Inject one raw UDP fragment per IP ident in ``idents`` (the
        FragDNS planting primitive).

        Every fragment carries ``payload`` at byte offset
        ``frag_offset_bytes`` (8-byte aligned) with MF
        ``more_fragments``.  The spray leaves as one
        :class:`FragmentSpray` through :meth:`inject_burst`: on a clean
        fabric the resolver plants it in its reassembly cache in one
        call, building none of the fragments.
        """
        self.inject_burst(FragmentSpray(src, dst, frag_offset_bytes,
                                        payload, more_fragments,
                                        tuple(idents)))

    def send_udp(self, dst: str, dport: int, payload: bytes,
                 sport: int | None = None) -> None:
        """Send a normal (non-spoofed) UDP packet from the attacker."""
        self.spoof_udp(self.address,
                       sport if sport is not None else self.rng.pick_port(),
                       dst, dport, payload)

    # -- forgery helpers ---------------------------------------------------------

    def forge_response(self, question_name: str, qtype: int, txid: int,
                       records: list[ResourceRecord],
                       pretend_signed: bool = False,
                       edns_udp_size: int | None = 4096) -> DnsMessage:
        """Build a malicious DNS response.

        ``pretend_signed`` attaches RRSIGs — but with ``valid=False``,
        because an off-path attacker cannot forge DNSSEC signatures.
        That is the model's cryptographic assumption, enforced here.
        """
        from repro.dns.message import Question

        response = DnsMessage(
            txid=txid, is_response=True, authoritative=True,
            questions=[Question(name=question_name, qtype=qtype)],
            answers=list(records),
            edns_udp_size=edns_udp_size,
        )
        if pretend_signed:
            for record in records:
                response.answers.append(rr_rrsig(
                    record.name, record.rtype,
                    names.parent_of(record.name) or record.name,
                    valid=False,   # forgery: signature cannot verify
                ))
        return response


def cache_poisoned(resolver: RecursiveResolver, qname: str,
                   attacker_ip: str, mark: bool = True) -> bool:
    """Ground-truth check: does the cache map ``qname`` to the attacker?

    When it does (and ``mark`` is set), the entry's ``poisoned`` flag is
    stamped so later forensics and measurements can count it.
    """
    entry = resolver.cache.entry(qname, TYPE_A)
    if entry is None:
        return False
    poisoned = any(
        record.rtype == TYPE_A and record.data == attacker_ip
        for record in entry.records
    )
    if poisoned and mark:
        entry.poisoned = True
    return poisoned


def plant_poison(resolver: RecursiveResolver,
                 records: list[ResourceRecord],
                 source: str = "poisoning-attack") -> None:
    """Insert records into a cache as a completed poisoning attack would.

    The application-level attack demonstrations need "a poisoned cache"
    as their starting state; any of the three methodologies produces the
    same end state, so this helper stamps the records in directly (with
    the ``poisoned`` ground-truth flag) instead of re-running a full
    methodology per demonstration.  End-to-end attack paths are
    exercised by the methodology tests and benches themselves.
    """
    now = resolver.host.now
    resolver.cache.put(records, now, bailiwick=None, source=source,
                       poisoned=True)
    for record in records:
        entry = resolver.cache.entry(record.name, record.rtype)
        if entry is not None:
            entry.poisoned = True
