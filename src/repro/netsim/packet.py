"""Packet object model: IPv4, UDP and ICMP, and UDP sends in flight.

These classes are the in-simulation representation; the byte encodings
live in :mod:`repro.netsim.wire`.  Packets are treated as immutable once
sent — mutation happens by building new packets (see :meth:`Ipv4Packet.evolve`),
which keeps traces trustworthy.

Most UDP traffic never becomes an :class:`Ipv4Packet`: an ordinary
unfragmented send travels as a :class:`UdpBurst` of one datagram, and
the port-unreachable errors that any receive draws, a burst's or one
packet's, travel back as one :class:`IcmpErrorBurst`.  Their packets
are built only where something looks at one (a watched fabric, a
packet tap, a diverted destination, an ICMP listener or socket error
handler that reads an error's embed).
The SadDNS bursts are sweeps, read-only sequences that build a datagram
only when one is read: a scan batch is a :class:`PortSweep` (one probe
payload over many ports) and a flood chunk a :class:`TxidSweep` (one
shared payload tail behind a range of TXIDs).  The receiving host
counts and rate-limits each run of closed-port datagrams in one step,
a sweep's without building them, and the resolver's socket, which
takes a whole TXID sweep in one call, reads just the one datagram
carrying the TXID it waits for.
A FragDNS spray travels as one :class:`FragmentSpray`: fragments that
differ only in IP ident, which the resolver plants in its reassembly
cache in one call (:meth:`ReassemblyCache.plant
<repro.netsim.fragmentation.ReassemblyCache.plant>`) without building
them.

The objects built per datagram, :class:`UdpDatagram` and
:class:`UdpBurst`, are tuples (``typing.NamedTuple`` classes): volume
attacks build millions of them per campaign, and a tuple is built,
hashed, compared and pickled in C.  Their ``__new__`` makes every
check (a datagram's stay in its ``__post_init__``, which ``__new__``
runs), and so does ``_replace``
(:func:`~repro.core.values.checked_replace`), which on a plain
namedtuple skips ``__new__``.  The sweeps build the datagrams they hand out with
``tuple.__new__``, past checks they made once for the whole sweep.
The rest are slotted frozen dataclasses, which cut the per-instance
memory and the attribute-access cost on the receive path.  Their
validation lives in ``__post_init__`` and guards hand-built packets
(tests, attack crafting); our own wire/fragmentation code reuses field
values that were already validated, so it goes through
:meth:`Ipv4Packet.evolve`, which skips re-validation.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

from repro.core.values import checked_replace

PROTO_ICMP = 1
PROTO_UDP = 17

ICMP_ECHO_REPLY = 0
ICMP_DEST_UNREACHABLE = 3
ICMP_ECHO_REQUEST = 8

# Destination-unreachable codes.
ICMP_PORT_UNREACHABLE = 3
ICMP_FRAG_NEEDED = 4

IPV4_HEADER_LEN = 20
UDP_HEADER_LEN = 8
MIN_IPV4_MTU = 68
DEFAULT_MTU = 1500

_tuple_new = tuple.__new__


class _DatagramFields(NamedTuple):
    sport: int
    dport: int
    payload: bytes = b""


class UdpDatagram(_DatagramFields):
    """A UDP segment: ports plus application payload bytes."""

    __slots__ = ()

    def __new__(cls, sport: int, dport: int,
                payload: bytes = b"") -> "UdpDatagram":
        datagram = _tuple_new(cls, (sport, dport, payload))
        datagram.__post_init__()
        return datagram

    def __post_init__(self) -> None:
        # The checks, under the name a dataclass gives them, so that a
        # profiler hooking packet validation (as perfbench's layer
        # tracer does) sees them.  Runs once per datagram built; a
        # sweep checks its ports once for a whole scan batch or flood
        # chunk.
        if not 0 <= self.sport <= 0xFFFF:
            raise ValueError(f"UDP sport out of range: {self.sport}")
        if not 0 <= self.dport <= 0xFFFF:
            raise ValueError(f"UDP dport out of range: {self.dport}")

    _replace = checked_replace

    @property
    def length(self) -> int:
        """UDP length field value (header + payload)."""
        return UDP_HEADER_LEN + len(self.payload)


@dataclass(frozen=True, slots=True)
class IcmpMessage:
    """An ICMP message.

    For destination-unreachable messages, ``embedded`` carries the leading
    bytes of the offending packet (IP header + first 8 payload bytes, as
    real kernels do) so receivers can demultiplex errors back to sockets.
    ``mtu`` is the next-hop MTU for Fragmentation-Needed (type 3 code 4).
    """

    icmp_type: int
    code: int = 0
    mtu: int = 0
    ident: int = 0
    seq: int = 0
    embedded: bytes = b""

    @property
    def is_port_unreachable(self) -> bool:
        """True for destination-unreachable / port-unreachable."""
        return (
            self.icmp_type == ICMP_DEST_UNREACHABLE
            and self.code == ICMP_PORT_UNREACHABLE
        )

    @property
    def is_frag_needed(self) -> bool:
        """True for destination-unreachable / fragmentation-needed (PTB)."""
        return (
            self.icmp_type == ICMP_DEST_UNREACHABLE
            and self.code == ICMP_FRAG_NEEDED
        )

    def __getstate__(self):
        return (self.icmp_type, self.code, self.mtu, self.ident, self.seq,
                self.embedded)

    def __setstate__(self, state):
        for name, value in zip(
                ("icmp_type", "code", "mtu", "ident", "seq", "embedded"),
                state):
            object.__setattr__(self, name, value)


_IPV4_FIELDS = ("src", "dst", "proto", "payload", "ident", "ttl", "df",
                "mf", "frag_offset", "udp", "icmp")


@dataclass(frozen=True, slots=True)
class Ipv4Packet:
    """An IPv4 packet carrying either UDP bytes or an ICMP message.

    ``payload`` is always the raw transport-layer bytes; for convenience
    the parsed transport object can ride along in ``udp``/``icmp`` (kept
    consistent by the constructors in :mod:`repro.netsim.wire`).  Fragments
    carry only ``payload`` slices and have ``udp``/``icmp`` unset except in
    the first fragment.
    """

    src: str
    dst: str
    proto: int
    payload: bytes = b""
    ident: int = 0
    ttl: int = 64
    df: bool = False
    mf: bool = False
    frag_offset: int = 0  # in 8-byte units, as on the wire
    udp: UdpDatagram | None = field(default=None, compare=False)
    icmp: IcmpMessage | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if not 0 <= self.ident <= 0xFFFF:
            raise ValueError(f"IP ident out of range: {self.ident}")
        if not 0 <= self.frag_offset <= 0x1FFF:
            raise ValueError(f"fragment offset out of range: {self.frag_offset}")

    @property
    def total_length(self) -> int:
        """IP total length: header plus payload bytes."""
        return IPV4_HEADER_LEN + len(self.payload)

    @property
    def is_fragment(self) -> bool:
        """True if this packet is part of a fragmented datagram."""
        return self.mf or self.frag_offset > 0

    @property
    def fragment_key(self) -> tuple[str, str, int, int]:
        """Reassembly cache key per RFC 791: (src, dst, proto, ident)."""
        return (self.src, self.dst, self.proto, self.ident)

    def evolve(self, **changes) -> "Ipv4Packet":
        """Copy of this packet with ``changes`` applied, skipping validation.

        The fast-path replacement for :func:`dataclasses.replace` used by
        the fragmentation and wire code: every field value either comes
        from this (already validated) packet or from reassembly/slicing
        arithmetic that cannot leave the valid range, so ``__post_init__``
        is not re-run and no field introspection happens.
        """
        new = object.__new__(Ipv4Packet)
        setattr_ = object.__setattr__
        for name in _IPV4_FIELDS:
            setattr_(new, name, changes.get(name, getattr(self, name)))
        return new

    def with_payload(self, payload: bytes) -> "Ipv4Packet":
        """Copy of this packet with different payload bytes."""
        return self.evolve(payload=payload, udp=None, icmp=None)

    def describe(self) -> str:
        """Short human-readable summary for event logs."""
        base = f"{self.src}->{self.dst}"
        if self.is_fragment:
            base += f" frag(id={self.ident}, off={self.frag_offset * 8}," \
                    f" mf={int(self.mf)})"
        if self.udp is not None:
            base += f" udp {self.udp.sport}->{self.udp.dport}" \
                    f" len={len(self.udp.payload)}"
        elif self.icmp is not None:
            base += f" icmp type={self.icmp.icmp_type} code={self.icmp.code}"
        else:
            base += f" proto={self.proto} len={len(self.payload)}"
        return base

    def __getstate__(self):
        return tuple(getattr(self, name) for name in _IPV4_FIELDS)

    def __setstate__(self, state):
        for name, value in zip(_IPV4_FIELDS, state):
            object.__setattr__(self, name, value)


@dataclass(frozen=True, slots=True)
class TxidSweep(Sequence):
    """Datagrams ``sport -> dport`` that differ only in their first word.

    A SadDNS flood chunk: datagram ``i`` carries the payload
    ``txids[i].to_bytes(2, "big") + tail``, where ``txids`` is a step-1
    range inside 0..0xFFFF.  Ports and range are checked once, here;
    indexing builds a :class:`UdpDatagram` only when one is read.  A
    socket with a ``sweep_handler`` takes a whole sweep in one call
    (see :meth:`Host._receive_udp
    <repro.netsim.host.Host._receive_udp>`).
    """

    sport: int
    dport: int
    txids: range
    tail: bytes

    def __post_init__(self) -> None:
        if not 0 <= self.sport <= 0xFFFF:
            raise ValueError(f"UDP sport out of range: {self.sport}")
        if not 0 <= self.dport <= 0xFFFF:
            raise ValueError(f"UDP dport out of range: {self.dport}")
        txids = self.txids
        if type(txids) is not range or txids.step != 1:
            raise ValueError("sweep TXIDs must be a step-1 range")
        if txids and not (0 <= txids.start and txids.stop <= 0x10000):
            raise ValueError(f"sweep TXIDs out of range: {txids}")

    def __len__(self) -> int:
        return len(self.txids)

    def __getitem__(self, index: int) -> UdpDatagram:
        # The ports were checked once, above: skip UdpDatagram's checks.
        return _tuple_new(UdpDatagram, (
            self.sport, self.dport,
            self.txids[index].to_bytes(2, "big") + self.tail))


@dataclass(frozen=True, slots=True)
class PortSweep(Sequence):
    """Datagrams ``sport -> dports[i]`` that all carry one ``payload``.

    A SadDNS scan batch: one probe per candidate port.  Ports are
    checked once, here; indexing builds a :class:`UdpDatagram` only when
    one is read, so the probes that find their ports closed are counted
    (and rate limited) without ever being built (see
    :meth:`Host._receive_udp <repro.netsim.host.Host._receive_udp>`).
    """

    sport: int
    dports: tuple[int, ...]
    payload: bytes

    def __post_init__(self) -> None:
        if not 0 <= self.sport <= 0xFFFF:
            raise ValueError(f"UDP sport out of range: {self.sport}")
        if type(self.dports) is not tuple:
            raise ValueError("sweep ports must be a tuple")
        if self.dports and not (0 <= min(self.dports)
                                and max(self.dports) <= 0xFFFF):
            raise ValueError("UDP dport out of range in a port sweep")

    def __len__(self) -> int:
        return len(self.dports)

    def __getitem__(self, index: int) -> UdpDatagram:
        # The ports were checked once, above: skip UdpDatagram's checks.
        return _tuple_new(UdpDatagram,
                          (self.sport, self.dports[index], self.payload))


class _BurstFields(NamedTuple):
    src: str
    dst: str
    datagrams: tuple[UdpDatagram, ...] | TxidSweep | PortSweep
    idents: Sequence[int]
    df: bool = False


class UdpBurst(_BurstFields):
    """Same-instant UDP datagrams from one ``src`` to one ``dst``.

    How unfragmented UDP travels: one datagram for an ordinary
    :meth:`Host.send_udp <repro.netsim.host.Host.send_udp>`, a
    :class:`PortSweep` for a SadDNS scan batch, and a :class:`TxidSweep`
    for a TXID flood chunk.
    The datagrams travel as they are, and the packet around datagram
    ``i`` (IP ident ``idents[i]``, the burst's ``df`` flag) is built by
    :meth:`packet` only where one has to exist; an ICMP error embeds it
    only when something reads the error (see :class:`IcmpErrorBurst`),
    even when the datagram arrived as a packet or was reassembled from
    fragments.  Ports may differ per datagram.  ``idents`` is a tuple
    or, for a flood chunk's thousands, the ``array('H')`` that
    :meth:`DeterministicRNG.pick_txids
    <repro.core.rng.DeterministicRNG.pick_txids>` draws, whose type
    alone keeps every ident in range.
    """

    __slots__ = ()

    def __new__(cls, src: str, dst: str,
                datagrams: tuple[UdpDatagram, ...] | TxidSweep | PortSweep,
                idents: Sequence[int], df: bool = False) -> "UdpBurst":
        if len(idents) != len(datagrams):
            raise ValueError(f"a burst needs one IP ident per datagram, got"
                             f" {len(idents)} for {len(datagrams)}")
        if idents and (type(idents) is not array or idents.typecode != "H") \
                and not (0 <= min(idents) and max(idents) <= 0xFFFF):
            raise ValueError("burst IP ident out of range")
        return _tuple_new(cls, (src, dst, datagrams, idents, df))

    _replace = checked_replace

    def packet(self, index: int) -> Ipv4Packet:
        """Datagram ``index`` as the packet ``make_udp_packet`` builds
        (with the burst's ``df``)."""
        from repro.netsim.wire import encode_udp

        datagram = self.datagrams[index]
        return Ipv4Packet(src=self.src, dst=self.dst, proto=PROTO_UDP,
                          payload=encode_udp(self.src, self.dst, datagram),
                          ident=self.idents[index], df=self.df,
                          udp=datagram)

    def packets(self) -> list[Ipv4Packet]:
        """Every datagram's packet, in order."""
        return [self.packet(index) for index in range(len(self.datagrams))]


@dataclass(frozen=True, slots=True)
class IcmpErrorBurst:
    """Same-instant ICMP port-unreachable errors from one host.

    How a host answers the datagrams of one receive that hit closed
    ports (see :meth:`Host._receive_udp
    <repro.netsim.host.Host._receive_udp>`): ``offending`` holds only
    those datagrams (with their IP idents), and error ``i``, from
    ``src`` to ``offending.src`` with IP ident ``idents[i]``, embeds the
    IP and UDP headers of ``offending.packet(i)``.  Its message
    (:meth:`message`) and packet (:meth:`packet`) are built only where
    something reads them.
    """

    src: str
    offending: UdpBurst
    idents: tuple[int, ...]

    @property
    def dst(self) -> str:
        """Where the errors go: the offending datagrams' source."""
        return self.offending.src

    def message(self, index: int) -> IcmpMessage:
        """Error ``index``'s message, embedding the offending packet's IP
        header and UDP header."""
        from repro.netsim.wire import encode_ipv4

        return IcmpMessage(
            icmp_type=ICMP_DEST_UNREACHABLE, code=ICMP_PORT_UNREACHABLE,
            embedded=encode_ipv4(self.offending.packet(index))[:28])

    def packet(self, index: int) -> Ipv4Packet:
        """Error ``index`` as the packet ``make_icmp_packet`` builds."""
        from repro.netsim.wire import make_icmp_packet

        return make_icmp_packet(self.src, self.dst, self.message(index),
                                ident=self.idents[index])

    def packets(self) -> list[Ipv4Packet]:
        """Every error's packet, in order."""
        return [self.packet(index) for index in range(len(self.idents))]


@dataclass(frozen=True, slots=True)
class FragmentSpray:
    """Same-instant UDP fragments that differ only in their IP ident.

    A FragDNS spray: fragment ``i`` carries ``payload`` at byte offset
    ``frag_offset`` (a multiple of 8) of the datagram with IP ident
    ``idents[i]``, from ``src`` to ``dst``, with the MF flag ``mf``.
    Offset, flags and idents are checked once, here; :meth:`packet`
    builds a fragment only where one has to exist (a watched fabric, a
    packet tap, a diverted destination).
    """

    src: str
    dst: str
    frag_offset: int  # in bytes, unlike Ipv4Packet.frag_offset
    payload: bytes
    mf: bool
    idents: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.frag_offset % 8:
            raise ValueError("fragment offset must be 8-byte aligned")
        if not 0 <= self.frag_offset // 8 <= 0x1FFF:
            raise ValueError(
                f"fragment offset out of range: {self.frag_offset}")
        if not (self.mf or self.frag_offset):
            raise ValueError("a spray fragment needs MF or an offset")
        if self.idents and not (0 <= min(self.idents)
                                and max(self.idents) <= 0xFFFF):
            raise ValueError("spray IP ident out of range")

    def packet(self, index: int) -> Ipv4Packet:
        """Fragment ``index`` as a raw :class:`Ipv4Packet`."""
        return Ipv4Packet(src=self.src, dst=self.dst, proto=PROTO_UDP,
                          payload=self.payload, ident=self.idents[index],
                          mf=self.mf, frag_offset=self.frag_offset // 8)

    def packets(self) -> list[Ipv4Packet]:
        """Every fragment's packet, in order."""
        return [self.packet(index) for index in range(len(self.idents))]


# Everything Network.transmit_burst carries: one heap entry per burst on
# a clean fabric.
Burst = UdpBurst | IcmpErrorBurst | FragmentSpray
