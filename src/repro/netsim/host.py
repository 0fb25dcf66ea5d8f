"""Simulated hosts: UDP sockets, ICMP behaviour, PMTUD, defragmentation.

A :class:`Host` models the slice of an operating system kernel that the
paper's attacks interact with.  The security-relevant behaviours are all
explicit configuration (see :class:`HostConfig`) so that measurement
populations can be generated with known ground truth and countermeasure
benches can flip single knobs.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.core.errors import WireFormatError
from repro.core.rng import DeterministicRNG
from repro.netsim.fragmentation import ReassemblyCache, fragment_packet
from repro.netsim.ipid import IPIDAllocator, PerDestinationIPID
from repro.netsim.packet import (
    DEFAULT_MTU,
    ICMP_DEST_UNREACHABLE,
    ICMP_ECHO_REPLY,
    ICMP_ECHO_REQUEST,
    IPV4_HEADER_LEN,
    MIN_IPV4_MTU,
    PROTO_ICMP,
    PROTO_UDP,
    UDP_HEADER_LEN,
    Burst,
    FragmentSpray,
    IcmpErrorBurst,
    IcmpMessage,
    Ipv4Packet,
    PortSweep,
    TxidSweep,
    UdpBurst,
    UdpDatagram,
)
from repro.netsim.ratelimit import TokenBucket
from repro.netsim.wire import (
    attach_transport,
    make_icmp_packet,
    make_udp_packet,
)

if TYPE_CHECKING:
    from repro.netsim.network import Network

UdpHandler = Callable[[UdpDatagram, str, str], None]
# Takes ``sweep[index:]`` from (src, dst) and returns the index of the
# first datagram it did not consume: above ``index`` and at most
# ``len(sweep)``, or the host raises ValueError.
SweepHandler = Callable[[TxidSweep, int, str, str], int]
IcmpErrorHandler = Callable[[IcmpMessage, str], None]
# The lazy datagram sequences a UdpBurst may carry instead of a tuple.
_SWEEPS = (TxidSweep, PortSweep)
_Datagrams = tuple[UdpDatagram, ...] | TxidSweep | PortSweep

# Modern Linux refuses PTB-advertised MTUs below this for path MTU
# updates (net.ipv4.route.min_pmtu); stacks that honour 68 are the
# vulnerable population for FragDNS tiny-fragment attacks.
LINUX_MIN_PMTU = 552


@dataclass
class HostConfig:
    """Security-relevant kernel behaviour switches.

    Attributes:
        icmp_rate_limited: send ICMP errors through a global token bucket
            (the SadDNS side channel exists only when this is a *global*
            deterministic limit).
        icmp_limit_randomized: model the CVE-2020-25705 fix — the bucket
            size jitters per refill, destroying the side channel while
            still rate limiting.
        respond_port_unreachable: emit ICMP port-unreachable for closed
            UDP ports at all (firewalled hosts do not).
        accepts_ptb: honour ICMP fragmentation-needed for path MTU
            discovery (prerequisite for FragDNS against this sender).
        min_accepted_mtu: clamp for PTB-advertised MTUs; 68 reproduces
            old stacks, 552 reproduces modern Linux.
        ipid_policy: 'global', 'per-destination' or 'random'.
        mtu: first-hop MTU.
        egress_spoofing_allowed: whether this host's network performs no
            egress filtering (about 30% of the Internet per the paper).
    """

    icmp_rate_limited: bool = True
    icmp_limit_randomized: bool = False
    icmp_rate: float = 1000.0       # tokens per second (Linux default)
    icmp_burst: float = 50.0        # bucket size (the side-channel constant)
    respond_port_unreachable: bool = True
    accepts_ptb: bool = True
    min_accepted_mtu: int = MIN_IPV4_MTU
    accept_fragments: bool = True   # firewalls may drop fragments entirely
    ipid_policy: str = "per-destination"
    mtu: int = DEFAULT_MTU
    egress_spoofing_allowed: bool = False
    # Ephemeral port range for unbound sockets (RFC 6056).  Tests and
    # ablations may narrow it to keep probabilistic attacks fast.
    ephemeral_low: int = 1024
    ephemeral_high: int = 65535


@dataclass
class HostStats:
    """Packet accounting for one host."""

    sent: int = 0
    received: int = 0
    udp_delivered: int = 0
    udp_to_closed_port: int = 0
    icmp_errors_sent: int = 0
    icmp_errors_suppressed: int = 0
    checksum_drops: int = 0
    df_drops: int = 0
    reassembled: int = 0


class UdpSocket:
    """A bound UDP endpoint on a :class:`Host`.

    ``handler`` takes one datagram at a time.  An owner that can take a
    :class:`TxidSweep` in bulk also sets ``sweep_handler``, which must
    treat the sweep's datagrams as ``handler`` would, one after another.
    """

    def __init__(self, host: "Host", local_ip: str, port: int,
                 handler: UdpHandler | None):
        self.host = host
        self.local_ip = local_ip
        self.port = port
        self.handler = handler
        self.sweep_handler: SweepHandler | None = None
        self.error_handler: IcmpErrorHandler | None = None
        self.closed = False

    def sendto(self, dst: str, dport: int, payload: bytes,
               df: bool = False) -> None:
        """Send a UDP datagram from this socket."""
        if self.closed:
            raise ValueError("socket is closed")
        self.host.send_udp(self.local_ip, self.port, dst, dport, payload,
                           df=df)

    def close(self) -> None:
        """Unbind the socket; the port becomes closed for future packets."""
        if not self.closed:
            self.closed = True
            self.host._release_port(self.port)

    def __repr__(self) -> str:
        return f"<UdpSocket {self.local_ip}:{self.port}>"


class Host:
    """One simulated machine attached to a :class:`Network`."""

    def __init__(self, name: str, addresses: list[str] | str,
                 config: HostConfig | None = None,
                 rng: DeterministicRNG | None = None):
        if isinstance(addresses, str):
            addresses = [addresses]
        if not addresses:
            raise ValueError("a host needs at least one address")
        self.name = name
        self.addresses = list(addresses)
        self.config = config if config is not None else HostConfig()
        self.rng = rng if rng is not None else DeterministicRNG(name)
        self.network: "Network | None" = None
        self.stats = HostStats()
        self.reassembly = ReassemblyCache()
        self._sockets: dict[int, UdpSocket] = {}
        self._icmp_bucket: TokenBucket | None = (
            TokenBucket(rate=self.config.icmp_rate,
                        burst=self.config.icmp_burst)
            if self.config.icmp_rate_limited else None
        )
        self._pmtu_cache: dict[str, int] = {}
        self.ipid: IPIDAllocator = self._make_ipid()
        self.icmp_listener: Callable[[IcmpMessage, str], None] | None = None
        # Raw tap: sees every packet addressed to this host before normal
        # processing; used by on-path middleboxes and instrumented tests.
        self.packet_tap: Callable[[Ipv4Packet], None] | None = None
        # TCP-like reliable byte-request handlers, keyed by port.  Streams
        # are connection-oriented and source-validated, so they are immune
        # to the spoofing attacks — which is exactly why DNS-over-TCP
        # fallback matters as a defence.
        self.stream_handlers: dict[
            int, Callable[[bytes, str], bytes | None]] = {}

    def _make_ipid(self) -> IPIDAllocator:
        from repro.netsim.ipid import make_allocator

        return make_allocator(self.config.ipid_policy,
                              self.rng.derive("ipid"),
                              start=self.rng.randint(0, 0xFFFF))

    # -- properties ------------------------------------------------------

    @property
    def address(self) -> str:
        """Primary address of the host."""
        return self.addresses[0]

    @property
    def now(self) -> float:
        """Current virtual time (requires attachment to a network)."""
        if self.network is None:
            return 0.0
        return self.network.scheduler.clock.now

    def owns(self, address: str) -> bool:
        """True if ``address`` is one of this host's addresses."""
        return address in self.addresses

    # -- sockets ---------------------------------------------------------

    def open_udp(self, port: int | None = None,
                 handler: UdpHandler | None = None,
                 local_ip: str | None = None) -> UdpSocket:
        """Bind a UDP socket; ``port=None`` picks a random ephemeral port.

        Ephemeral selection is uniform over 1024-65535 excluding bound
        ports, matching RFC 6056 algorithm 1 — the randomisation whose
        entropy SadDNS strips away.  An explicit port outside 0-65535
        raises ``ValueError`` here rather than at the first send.
        """
        if local_ip is None:
            local_ip = self.address
        if not self.owns(local_ip):
            raise ValueError(f"{self.name} does not own {local_ip}")
        if port is None:
            for _ in range(200):
                candidate = self.rng.pick_port(self.config.ephemeral_low,
                                               self.config.ephemeral_high)
                if candidate not in self._sockets:
                    port = candidate
                    break
            else:
                raise RuntimeError("ephemeral port space exhausted")
        elif not 0 <= port <= 0xFFFF:
            raise ValueError(f"UDP port out of range: {port}")
        if port in self._sockets:
            raise ValueError(f"port {port} already bound on {self.name}")
        socket = UdpSocket(self, local_ip, port, handler)
        self._sockets[port] = socket
        return socket

    def _release_port(self, port: int) -> None:
        self._sockets.pop(port, None)

    def open_ports(self) -> set[int]:
        """Currently bound UDP ports (ground truth; not attacker-visible)."""
        return set(self._sockets)

    # -- sending ---------------------------------------------------------

    def path_mtu(self, dst: str) -> int:
        """Effective MTU toward ``dst`` (first hop clamped by PMTUD cache)."""
        return min(self.config.mtu, self._pmtu_cache.get(dst, self.config.mtu))

    def send_udp(self, src_ip: str, sport: int, dst: str, dport: int,
                 payload: bytes, df: bool = False) -> None:
        """Transmit a UDP datagram, fragmenting if needed.

        A datagram that fits the path MTU leaves as a one-datagram
        :class:`UdpBurst`, so no packet is built unless the fabric or
        the receiver needs one.  An oversize one is built and goes
        through fragmentation (or is dropped, under DF).
        """
        ident = self.ipid.next_id(dst)
        # Only a learned PMTU can lower the MTU below the interface's.
        mtu = self.path_mtu(dst) if self._pmtu_cache else self.config.mtu
        if IPV4_HEADER_LEN + UDP_HEADER_LEN + len(payload) > mtu:
            self._transmit(make_udp_packet(
                src=src_ip, dst=dst, sport=sport, dport=dport,
                payload=payload, ident=ident, df=df,
            ))
            return
        if self.network is None:
            raise RuntimeError(f"{self.name} is not attached to a network")
        self.stats.sent += 1
        self.network.transmit_burst(
            UdpBurst(src_ip, dst, (UdpDatagram(sport, dport, payload),),
                     (ident,), df),
            origin=self)

    def send_icmp(self, dst: str, message: IcmpMessage,
                  src_ip: str | None = None) -> None:
        """Transmit an ICMP message."""
        src = src_ip if src_ip is not None else self.address
        packet = make_icmp_packet(src=src, dst=dst, message=message,
                                  ident=self.ipid.next_id(dst))
        self._transmit(packet)

    def raw_send(self, packet: Ipv4Packet) -> None:
        """Inject an arbitrary (possibly spoofed) packet into the network.

        Spoofed source addresses require the host's network to allow
        egress spoofing, reproducing the paper's off-path attacker model.
        """
        if self.network is None:
            raise RuntimeError(f"{self.name} is not attached to a network")
        spoofed = not self.owns(packet.src)
        if spoofed and not self.config.egress_spoofing_allowed:
            raise PermissionError(
                f"{self.name} cannot spoof {packet.src}: egress filtering"
            )
        self.stats.sent += 1
        self.network.transmit(packet, origin=self)

    def raw_send_burst(self, burst: UdpBurst | FragmentSpray) -> None:
        """Inject a same-instant burst of (possibly spoofed) packets.

        The attacker's side of :meth:`send_udp`'s lazy path (SadDNS
        scan batches and TXID flood chunks, FragDNS fragment sprays):
        the burst reaches the network as one
        :meth:`Network.transmit_burst`.  Egress spoofing is checked
        once, for the burst's shared source.
        """
        if self.network is None:
            raise RuntimeError(f"{self.name} is not attached to a network")
        if not self.owns(burst.src) \
                and not self.config.egress_spoofing_allowed:
            raise PermissionError(
                f"{self.name} cannot spoof {burst.src}: egress filtering"
            )
        if not burst.idents:
            return
        self.stats.sent += len(burst.idents)
        self.network.transmit_burst(burst, origin=self)

    def _transmit(self, packet: Ipv4Packet) -> None:
        if self.network is None:
            raise RuntimeError(f"{self.name} is not attached to a network")
        mtu = self.path_mtu(packet.dst)
        if packet.total_length > mtu:
            if packet.df:
                self.stats.df_drops += 1
                log = self.network.log
                if log.enabled:
                    log.record(
                        self.now, self.name, "ip.df_drop",
                        f"DF packet {packet.total_length}B exceeds MTU {mtu}",
                    )
                return
            pieces = fragment_packet(packet, mtu)
        else:
            pieces = [packet]
        for piece in pieces:
            self.stats.sent += 1
            self.network.transmit(piece, origin=self)

    # -- receiving -------------------------------------------------------

    def receive(self, packet: Ipv4Packet) -> None:
        """Entry point called by the network for packets addressed here."""
        self.stats.received += 1
        if self.packet_tap is not None:
            self.packet_tap(packet)
        if not self.owns(packet.dst):
            # Diverted traffic (e.g. a BGP hijack delivered someone else's
            # packet to us): visible to the tap only, never to sockets.
            return
        if packet.is_fragment:
            if not self.config.accept_fragments:
                return  # fragment-filtering firewall (Section 6.1)
            reassembled = self.reassembly.add(packet, self.now)
            if reassembled is not None:
                self._receive_reassembled(reassembled)
            return
        if packet.udp is None and packet.icmp is None:
            try:
                packet = attach_transport(packet)
            except WireFormatError:
                self.stats.checksum_drops += 1
                return
        self._dispatch(packet)

    def _receive_reassembled(self, packet: Ipv4Packet) -> None:
        """Take a datagram the reassembly cache completed: count it,
        verify its checksum, and hand it to its transport."""
        self.stats.reassembled += 1
        try:
            packet = attach_transport(packet)
        except WireFormatError:
            self.stats.checksum_drops += 1
            if self.network is not None and self.network.log.enabled:
                self.network.log.record(
                    self.now, self.name, "ip.checksum_drop",
                    "reassembled datagram failed checksum",
                )
            return
        self._dispatch(packet)

    def _dispatch(self, packet: Ipv4Packet) -> None:
        if packet.proto == PROTO_UDP and packet.udp is not None:
            self._receive_udp(packet.src, packet.dst, (packet.udp,),
                              (packet.ident,), packet.df)
        elif packet.proto == PROTO_ICMP and packet.icmp is not None:
            self._deliver_icmp(packet)

    def receive_burst(self, burst: Burst) -> None:
        """Network entry point for a burst from :meth:`send_udp`,
        :meth:`raw_send_burst` or another host's port-unreachable errors.

        A burst of datagrams goes to :meth:`_receive_udp`, and a
        fragment spray into the reassembly cache in one
        :meth:`ReassemblyCache.plant
        <repro.netsim.fragmentation.ReassemblyCache.plant>`.  A burst
        that needs more (a tap is set, or the destination is not ours)
        goes through :meth:`receive` one packet at a time.
        """
        if type(burst) is IcmpErrorBurst:
            self._receive_port_unreachables(burst)
            return
        if self.packet_tap is not None or not self.owns(burst.dst):
            for packet in burst.packets():
                self.receive(packet)
            return
        self.stats.received += len(burst.idents)
        if type(burst) is FragmentSpray:
            if self.config.accept_fragments:
                for packet in self.reassembly.plant(burst, self.now):
                    self._receive_reassembled(packet)
            return
        self._receive_udp(burst.src, burst.dst, burst.datagrams,
                          burst.idents, burst.df)

    def _receive_udp(self, src: str, dst: str, datagrams: _Datagrams,
                     idents: Sequence[int], df: bool) -> None:
        """Hand ``datagrams`` from ``src`` to ``dst`` (IP idents
        ``idents``, DF flag ``df``) to their ports' sockets, in order.

        The one place a UDP datagram meets a socket: :meth:`receive`
        passes one datagram, :meth:`receive_burst` a whole burst.  A run
        of datagrams that find their ports closed is counted, rate
        limited and answered in one step (:meth:`_closed_run`), with no
        datagram built.  No handler runs inside a run, so no port can
        open: a :class:`TxidSweep`'s run (one port) reaches the end of
        the sweep, and any other run stops at the next port that is
        open.  The errors collected so far leave before any socket
        handler runs, and the rest at the end, so the scheduler sees
        them in the order one receive per datagram would give.  A TXID
        sweep that reaches an open socket with a ``sweep_handler`` is
        handed over in bulk: ``stop = sweep_handler(sweep, index, src,
        dst)`` takes datagrams ``index`` to ``stop - 1``, and the socket
        is looked up again before datagram ``stop``.
        """
        txid_sweep = type(datagrams) is TxidSweep
        ports = (None if txid_sweep
                 else datagrams.dports if type(datagrams) is PortSweep
                 else [datagram.dport for datagram in datagrams])
        sockets = self._sockets
        stats = self.stats
        errors: list[int] = []
        error_idents: list[int] = []
        index, end = 0, len(datagrams)
        while index < end:
            socket = sockets.get(datagrams.dport if txid_sweep
                                 else ports[index])
            if socket is None or socket.closed:
                stop = end if txid_sweep else index + 1
                while stop < end and ports[stop] not in sockets:
                    stop += 1
                self._closed_run(src, index, stop, errors, error_idents)
                index = stop
                continue
            if errors:
                # The handler may schedule events: earlier errors go first.
                self._send_port_unreachables(src, dst, datagrams, idents,
                                             df, errors, error_idents)
                errors, error_idents = [], []
            if txid_sweep and socket.sweep_handler is not None:
                stop = socket.sweep_handler(datagrams, index, src, dst)
                if not index < stop <= end:
                    raise ValueError(
                        f"sweep handler of port {socket.port} returned"
                        f" {stop} for datagrams {index}..{end - 1}")
                stats.udp_delivered += stop - index
                index = stop
            else:
                stats.udp_delivered += 1
                if socket.handler is not None:
                    socket.handler(datagrams[index], src, dst)
                index += 1
        if errors:
            self._send_port_unreachables(src, dst, datagrams, idents, df,
                                         errors, error_idents)

    def _closed_run(self, src: str, start: int, stop: int,
                    errors: list[int], idents: list[int]) -> None:
        """Datagrams ``start`` to ``stop - 1`` of a receive from ``src``
        found their ports closed: count them, and append to ``errors``
        and ``idents`` the ones that draw a port-unreachable (each error
        takes its IP ident when it is drawn).

        The only code that counts closed-port datagrams and spends the
        ICMP limiter's tokens.  It asks the limiter for the whole run:
        one :meth:`TokenBucket.allow_run`, which counts what one
        :meth:`TokenBucket.allow` per datagram would.  Under
        ``icmp_limit_randomized`` (patched kernels randomise the
        effective budget, so the attacker can no longer count errors
        deterministically) each datagram costs ``1 + jitter`` tokens:
        the jitter draws come at once, then one
        :meth:`TokenBucket.allow` per datagram (a later, cheaper cost
        can still pass).
        """
        count = stop - start
        self.stats.udp_to_closed_port += count
        config = self.config
        if not config.respond_port_unreachable:
            return
        bucket = self._icmp_bucket
        if bucket is None:
            passed = range(start, stop)
        elif config.icmp_limit_randomized:
            allow, now = bucket.allow, self.now
            passed = [index for index, jitter in zip(
                range(start, stop), self.rng.below_many(6, count))
                if allow(now, 1 + jitter)]
        else:
            passed = range(start, start + bucket.allow_run(self.now, count))
        self.stats.icmp_errors_suppressed += count - len(passed)
        if passed:
            next_id = self.ipid.next_id
            errors += passed
            idents += [next_id(src) for _ in passed]

    def _send_port_unreachables(self, src: str, dst: str,
                                datagrams: _Datagrams,
                                idents: Sequence[int], df: bool,
                                indices: list[int],
                                error_idents: list[int]) -> None:
        """Send the port-unreachable errors for the datagrams at
        ``indices`` of a receive (IP idents ``error_idents``) as one
        :class:`IcmpErrorBurst`.

        The offending datagrams, with their IP idents and ``df``, become
        the error burst's :class:`UdpBurst`: an error's embed is the
        packet around its datagram as ``make_udp_packet`` builds it.
        """
        if self.network is None:
            raise RuntimeError(f"{self.name} is not attached to a network")
        count = len(indices)
        self.stats.icmp_errors_sent += count
        self.stats.sent += count
        if type(datagrams) is PortSweep:
            offending = PortSweep(datagrams.sport,
                                  tuple([datagrams.dports[i]
                                         for i in indices]),
                                  datagrams.payload)
        else:
            offending = tuple([datagrams[i] for i in indices])
        offending = UdpBurst(src, dst, offending,
                             tuple([idents[i] for i in indices]), df)
        self.network.transmit_burst(
            IcmpErrorBurst(self.address, offending, tuple(error_idents)),
            origin=self)

    def _receive_port_unreachables(self, errors: IcmpErrorBurst) -> None:
        """Take delivery of another host's port-unreachable errors.

        Each error's message is built only for an :attr:`icmp_listener`
        or for an ``error_handler`` on the socket of the offending
        datagram's source port, which then see it as
        :meth:`_deliver_icmp` would show it.  A tap or a foreign
        destination gets the packets through :meth:`receive`.
        """
        if self.packet_tap is not None or not self.owns(errors.dst):
            for packet in errors.packets():
                self.receive(packet)
            return
        self.stats.received += len(errors.idents)
        src = errors.src
        sockets = self._sockets
        datagrams = errors.offending.datagrams
        if type(datagrams) in _SWEEPS:
            # A sweep's datagrams share one source port: build none.
            sports = [datagrams.sport] * len(datagrams)
        else:
            sports = [datagram.sport for datagram in datagrams]
        for index, sport in enumerate(sports):
            socket = sockets.get(sport)
            error_handler = None if socket is None else socket.error_handler
            if error_handler is None and self.icmp_listener is None:
                continue
            message = errors.message(index)
            if error_handler is not None:
                error_handler(message, src)
            if self.icmp_listener is not None:
                self.icmp_listener(message, src)

    def _deliver_icmp(self, packet: Ipv4Packet) -> None:
        assert packet.icmp is not None
        message = packet.icmp
        if message.icmp_type == ICMP_ECHO_REQUEST:
            self.send_icmp(
                packet.src,
                IcmpMessage(icmp_type=ICMP_ECHO_REPLY, ident=message.ident,
                            seq=message.seq, embedded=message.embedded),
            )
            return
        if message.is_frag_needed:
            self._handle_frag_needed(packet)
        if message.icmp_type == ICMP_DEST_UNREACHABLE:
            self._dispatch_icmp_error(message, packet.src)
        if self.icmp_listener is not None:
            self.icmp_listener(message, packet.src)

    def _handle_frag_needed(self, packet: Ipv4Packet) -> None:
        """Path MTU discovery: accept or reject an advertised next-hop MTU."""
        assert packet.icmp is not None
        if not self.config.accepts_ptb:
            return
        mtu = max(packet.icmp.mtu, self.config.min_accepted_mtu)
        if mtu < MIN_IPV4_MTU:
            return
        # The embedded header names the destination whose path shrank.
        victim_dst = _embedded_destination(packet.icmp.embedded)
        if victim_dst is None:
            return
        current = self._pmtu_cache.get(victim_dst, self.config.mtu)
        if mtu < current:
            self._pmtu_cache[victim_dst] = mtu
            if self.network is not None and self.network.log.enabled:
                self.network.log.record(
                    self.now, self.name, "ip.pmtu_update",
                    f"PMTU to {victim_dst} lowered to {mtu}",
                    dst=victim_dst, mtu=mtu,
                )

    def _dispatch_icmp_error(self, message: IcmpMessage, src: str) -> None:
        """Route an ICMP error back to the socket that sent the packet."""
        origin_sport = _embedded_udp_sport(message.embedded)
        if origin_sport is None:
            return
        socket = self._sockets.get(origin_sport)
        if socket is not None and socket.error_handler is not None:
            socket.error_handler(message, src)

    def flush_pmtu_cache(self) -> None:
        """Forget learned path MTUs (route cache expiry)."""
        self._pmtu_cache.clear()


def _embedded_destination(embedded: bytes) -> str | None:
    """Destination address from the embedded IP header of an ICMP error."""
    if len(embedded) < 20:
        return None
    from repro.netsim.addresses import int_to_ip

    dst_int = int.from_bytes(embedded[16:20], "big")
    return int_to_ip(dst_int)


def _embedded_udp_sport(embedded: bytes) -> int | None:
    """Source port from the embedded IP+UDP headers of an ICMP error."""
    if len(embedded) < 22:
        return None
    return int.from_bytes(embedded[20:22], "big")
