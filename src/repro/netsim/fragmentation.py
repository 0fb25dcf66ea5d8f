"""IP fragmentation and the defragmentation cache.

FragDNS (paper Section 3.3) injects a spoofed fragment into the victim's
reassembly cache *before* the genuine fragment arrives, so the cache here
reproduces the behaviours that matter:

* keyed by (src, dst, proto, IP-ID) per RFC 791;
* bounded capacity — Linux keeps roughly 64 datagrams per peer under the
  default ``ipfrag_high_thresh``; the paper's worst case "64 packets to
  fill the resolver IP-defragmentation buffer" comes from this;
* first-arrival-wins on overlap, which is what lets a pre-planted spoofed
  fragment displace the genuine one;
* a reassembly timeout (Linux default 30 s).

A FragDNS spray (one :class:`~repro.netsim.packet.FragmentSpray`)
enters the cache in one :meth:`ReassemblyCache.plant`, which leaves the
cache as one :meth:`ReassemblyCache.add` per fragment would.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.netsim.packet import PROTO_UDP, FragmentSpray, Ipv4Packet

LINUX_FRAG_TIMEOUT = 30.0
LINUX_FRAG_CAPACITY = 64


@dataclass(slots=True)
class _PartialDatagram:
    """Fragments collected so far for one (src, dst, proto, ident) key."""

    first_seen: float
    total_length: int | None = None  # payload bytes, known once MF=0 seen
    # byte ranges received: offset -> bytes; first arrival wins
    spans: dict[int, bytes] = field(default_factory=dict)
    template: Ipv4Packet | None = None  # first fragment, for header fields

    def add(self, fragment: Ipv4Packet) -> None:
        offset = fragment.frag_offset * 8
        if offset not in self.spans:
            self.spans[offset] = fragment.payload
        if fragment.frag_offset == 0 and self.template is None:
            self.template = fragment
        if not fragment.mf:
            end = offset + len(fragment.payload)
            if self.total_length is None or end < self.total_length:
                self.total_length = end

    def try_reassemble(self) -> bytes | None:
        """Return the full payload if every byte span is covered."""
        if self.total_length is None or self.template is None:
            return None
        assembled = bytearray(self.total_length)
        covered = 0
        for offset in sorted(self.spans):
            chunk = self.spans[offset]
            end = min(offset + len(chunk), self.total_length)
            if offset > covered:
                return None  # hole
            if end > covered:
                assembled[offset:end] = chunk[: end - offset]
                covered = end
        if covered < self.total_length:
            return None
        return bytes(assembled)


class ReassemblyCache:
    """A bounded, timing-out IP defragmentation cache.

    Feed fragments in with :meth:`add`, or a whole spray with
    :meth:`plant`; a completed datagram is returned as a fresh
    unfragmented :class:`Ipv4Packet` (transport not yet parsed — UDP
    checksum verification happens after reassembly, in the host).

    Virtual time never runs backwards (:meth:`add` refuses it), so the
    insertion order of the partial datagrams is their ``first_seen``
    order: the stale ones are a prefix and the oldest is the first, and
    expiry and eviction cost O(1) per fragment.
    """

    def __init__(self, capacity: int = LINUX_FRAG_CAPACITY,
                 timeout: float = LINUX_FRAG_TIMEOUT):
        self.capacity = capacity
        self.timeout = timeout
        self._partials: dict[tuple[str, str, int, int], _PartialDatagram] = {}
        self._last = float("-inf")
        self.evictions = 0
        self.timeouts = 0
        self.reassembled = 0

    def __len__(self) -> int:
        return len(self._partials)

    def expire(self, now: float) -> None:
        """Drop partial datagrams older than the reassembly timeout."""
        partials = self._partials
        while partials:
            key = next(iter(partials))
            if now - partials[key].first_seen <= self.timeout:
                return
            del partials[key]
            self.timeouts += 1

    def _tick(self, now: float) -> None:
        if now < self._last:
            # A backwards clock would break the first_seen order that
            # expiry and eviction rely on, so fail loudly instead.
            raise ValueError(
                f"time went backwards: now={now} < last={self._last}")
        self._last = now
        self.expire(now)

    def add(self, fragment: Ipv4Packet, now: float) -> Ipv4Packet | None:
        """Insert a fragment; return the reassembled packet if complete."""
        if not fragment.is_fragment:
            raise ValueError("add() expects a fragment")
        self._tick(now)
        key = fragment.fragment_key
        partial = self._partials.get(key)
        if partial is None:
            if len(self._partials) >= self.capacity:
                # Evict the oldest entry, as Linux does under memory
                # pressure.  The attacker's cache-filling trick exploits
                # exactly this bound.
                del self._partials[next(iter(self._partials))]
                self.evictions += 1
            partial = _PartialDatagram(first_seen=now)
            self._partials[key] = partial
        partial.add(fragment)
        payload = partial.try_reassemble()
        if payload is None:
            return None
        template = partial.template
        assert template is not None
        del self._partials[key]
        self.reassembled += 1
        return template.evolve(
            payload=payload, mf=False, frag_offset=0, udp=None, icmp=None,
        )

    def plant(self, spray: FragmentSpray, now: float) -> list[Ipv4Packet]:
        """Insert every fragment of ``spray`` as one :meth:`add` each, in
        order, would; return the datagrams they complete, in order.

        One clock check and one expiry serve the whole spray.  A
        fragment whose ident is new starts a partial datagram without
        being built, after evicting the oldest entry if the cache is
        full.  One whose ident already has a partial goes through
        :meth:`add`: it may complete a waiting genuine first fragment.
        """
        self._tick(now)
        partials, capacity = self._partials, self.capacity
        src, dst = spray.src, spray.dst
        offset, payload = spray.frag_offset, spray.payload
        total_length = None if spray.mf else offset + len(payload)
        completed = []
        evictions = 0  # add never evicts for an ident it already holds
        for index, ident in enumerate(spray.idents):
            key = (src, dst, PROTO_UDP, ident)
            if key in partials:
                packet = self.add(spray.packet(index), now)
                if packet is not None:
                    completed.append(packet)
                continue
            if len(partials) >= capacity:
                del partials[next(iter(partials))]  # the oldest, as in add
                evictions += 1
            partials[key] = _PartialDatagram(
                now, total_length, {offset: payload},
                spray.packet(index) if offset == 0 else None)
        self.evictions += evictions
        return completed


def fragment_packet(packet: Ipv4Packet, mtu: int) -> list[Ipv4Packet]:
    """Split a packet into fragments that fit ``mtu`` bytes on the wire.

    Fragment payload sizes are multiples of 8 except for the last
    fragment, matching RFC 791.  A packet that already fits is returned
    unchanged (as a single-element list).  DF packets that do not fit
    raise ``ValueError`` — senders must check DF and emit ICMP instead.
    """
    from repro.netsim.packet import IPV4_HEADER_LEN, MIN_IPV4_MTU

    if mtu < MIN_IPV4_MTU:
        raise ValueError(f"MTU below IPv4 minimum: {mtu}")
    max_payload = mtu - IPV4_HEADER_LEN
    if len(packet.payload) <= max_payload:
        return [packet]
    if packet.df:
        raise ValueError("cannot fragment: DF bit set")
    chunk = (max_payload // 8) * 8
    fragments: list[Ipv4Packet] = []
    offset = 0
    total = len(packet.payload)
    while offset < total:
        piece = packet.payload[offset:offset + chunk]
        last = offset + len(piece) >= total
        fragments.append(packet.evolve(
            payload=piece,
            mf=not last or packet.mf,
            frag_offset=packet.frag_offset + offset // 8,
            udp=packet.udp if offset == 0 else None,
            icmp=packet.icmp if offset == 0 else None,
        ))
        offset += len(piece)
    return fragments
