"""The network fabric: delivery, latency, interception and accounting.

The :class:`Network` is a routed cloud connecting every attached
:class:`~repro.netsim.host.Host`.  Delivery normally follows destination
ownership, but *interceptors* can claim packets first — that hook is how
the BGP layer diverts traffic during a prefix hijack, and how middleboxes
tap flows.  All delivery is scheduled on virtual time, so races (spoofed
response vs. genuine response) resolve deterministically by latency.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

from repro.core.clock import Scheduler
from repro.core.eventlog import EventLog
from repro.netsim.host import Host
from repro.netsim.packet import Burst, Ipv4Packet

# An interceptor looks at an in-flight packet and may claim it by
# returning the host that should receive it instead of the owner.
Interceptor = Callable[[Ipv4Packet, Host | None], "Host | None"]


def interceptor_label(interceptor: Interceptor) -> str:
    """Display name for an interceptor in the stats breakdown.

    An explicit ``name`` attribute wins (set via
    :meth:`Network.add_interceptor`); bound methods fall back to the
    owning object's class, plain functions to their qualname.
    """
    name = getattr(interceptor, "name", None)
    if name:
        return str(name)
    owner = getattr(interceptor, "__self__", None)
    if owner is not None:
        return type(owner).__name__
    return getattr(interceptor, "__qualname__", repr(interceptor))


@dataclass
class NetworkStats:
    """Fabric-wide packet accounting.

    ``per_destination`` and ``intercepted_by`` are
    :class:`collections.Counter` objects, so missing keys read as zero
    and set-algebra (``most_common``, ``+``) works directly;
    ``intercepted_by`` breaks the ``intercepted`` total down per
    claiming interceptor (middleboxes, hijack campaigns...).
    """

    transmitted: int = 0
    delivered: int = 0
    dropped_no_route: int = 0
    intercepted: int = 0
    # Fault-injection accounting (repro.faults): zeros on a clean fabric.
    faults_dropped: int = 0
    faults_delayed: int = 0
    faults_duplicated: int = 0
    per_destination: Counter = field(default_factory=Counter)
    intercepted_by: Counter = field(default_factory=Counter)

    def note_delivery(self, dst: str) -> None:
        self.delivered += 1
        self.per_destination[dst] += 1

    def note_interception(self, label: str) -> None:
        self.intercepted += 1
        self.intercepted_by[label] += 1


class Network:
    """A virtual internet: hosts, latency model, interception hooks."""

    def __init__(self, scheduler: Scheduler | None = None,
                 default_latency: float = 0.01,
                 log: EventLog | None = None):
        self.scheduler = scheduler if scheduler is not None else Scheduler()
        self.default_latency = default_latency
        self.log = log if log is not None else EventLog()
        self.stats = NetworkStats()
        self._hosts: list[Host] = []
        self._by_address: dict[str, Host] = {}
        self._interceptors: list[Interceptor] = []
        self._interceptor_names: dict[Interceptor, str] = {}
        self._latency_overrides: dict[tuple[str, str], float] = {}
        self._faults = None
        self.trace_packets = False

    # -- topology --------------------------------------------------------

    def attach(self, host: Host) -> Host:
        """Register a host; all its addresses become routable."""
        if host.network is not None and host.network is not self:
            raise ValueError(f"{host.name} is attached to another network")
        host.network = self
        self._hosts.append(host)
        for address in host.addresses:
            if address in self._by_address:
                raise ValueError(f"duplicate address {address}")
            self._by_address[address] = host
        return host

    def add_address(self, host: Host, address: str) -> None:
        """Give an attached host an additional address."""
        if address in self._by_address:
            raise ValueError(f"duplicate address {address}")
        host.addresses.append(address)
        self._by_address[address] = host

    def host_for(self, address: str) -> Host | None:
        """The host owning ``address``, if any."""
        return self._by_address.get(address)

    @property
    def hosts(self) -> list[Host]:
        """All attached hosts."""
        return list(self._hosts)

    # -- behaviour knobs ---------------------------------------------------

    def set_latency(self, src: str, dst: str, latency: float) -> None:
        """Fix the one-way latency for a (src address, dst address) pair."""
        self._latency_overrides[(src, dst)] = latency

    def latency_between(self, src: str, dst: str) -> float:
        """One-way latency used for a packet from ``src`` to ``dst``."""
        return self._latency_overrides.get((src, dst), self.default_latency)

    def set_fault_injector(self, injector) -> None:
        """Install a :class:`repro.faults.inject.FaultInjector` (or None).

        The injector rewrites each routed packet's delivery delay —
        possibly into zero deliveries (loss) or several (duplication).
        A fabric without one pays a single ``is not None`` test per
        packet, keeping clean runs bit-identical.
        """
        self._faults = injector

    @property
    def fault_injector(self):
        """The installed fault injector, or None on a clean fabric."""
        return self._faults

    def add_interceptor(self, interceptor: Interceptor,
                        name: str | None = None) -> None:
        """Register a routing interceptor (first non-None claim wins).

        ``name`` labels the interceptor in ``stats.intercepted_by``;
        unnamed interceptors are labelled from the callable itself.
        """
        if name is not None:
            self._interceptor_names[interceptor] = name
        self._interceptors.append(interceptor)

    def remove_interceptor(self, interceptor: Interceptor) -> None:
        """Remove a previously registered interceptor."""
        self._interceptors.remove(interceptor)
        self._interceptor_names.pop(interceptor, None)

    # -- data plane --------------------------------------------------------

    def transmit(self, packet: Ipv4Packet, origin: Host | None = None) -> None:
        """Accept a packet from ``origin`` and schedule its delivery."""
        self.stats.transmitted += 1
        if self.trace_packets and self.log.enabled:
            self.log.record(
                self.scheduler.clock.now,
                origin.name if origin is not None else "?",
                "net.tx", packet.describe(),
                src_actor=origin.name if origin is not None else None,
                dst_actor=self._destination_name(packet),
            )
        if self._interceptors:
            target = self._route(packet, origin)
        else:
            target = self._by_address.get(packet.dst)
        if target is None:
            self.stats.dropped_no_route += 1
            return
        latency = self._latency_overrides.get(
            (packet.src, packet.dst), self.default_latency)
        if self._faults is not None:
            delays = self._faults.delays(
                packet, latency,
                origin.address if origin is not None else None)
            if not delays:
                self.stats.faults_dropped += 1
                return
            if delays[0] != latency:
                self.stats.faults_delayed += 1
            if len(delays) > 1:
                self.stats.faults_duplicated += len(delays) - 1
            for delay in delays:
                self.scheduler.schedule(delay, self._deliver, packet, target)
            return
        # No closure, no handle: deliveries are never cancelled.
        self.scheduler.schedule(latency, self._deliver, packet, target)

    def transmit_burst(self, burst: Burst, origin: Host | None = None) -> None:
        """Accept a same-instant burst of packets (one src, one dst).

        Every unfragmented UDP send arrives here, one datagram from
        :meth:`Host.send_udp` and many from :meth:`Host.raw_send_burst`,
        and so do every FragDNS fragment spray and the port-unreachable
        errors a host sends, one burst per receive.  On a clean fabric
        every packet would take the same route at the same latency, so
        the burst becomes one heap entry that delivers the packets in
        order, with the deliveries and stats of :meth:`transmit` called
        per packet.  A fabric that looks at packets one by one (packet
        tracing, interceptors or a fault injector) gets each packet built
        and transmitted.
        """
        if self.trace_packets or self._interceptors \
                or self._faults is not None:
            for packet in burst.packets():
                self.transmit(packet, origin)
            return
        count = len(burst.idents)
        self.stats.transmitted += count
        target = self._by_address.get(burst.dst)
        if target is None:
            self.stats.dropped_no_route += count
            return
        latency = self._latency_overrides.get(
            (burst.src, burst.dst), self.default_latency)
        self.scheduler.schedule(latency, self._deliver_burst, burst, target)

    def _route(self, packet: Ipv4Packet, origin: Host | None) -> Host | None:
        for interceptor in self._interceptors:
            claimed = interceptor(packet, origin)
            if claimed is not None:
                self.stats.note_interception(
                    self._interceptor_names.get(
                        interceptor, interceptor_label(interceptor)))
                return claimed
        return self._by_address.get(packet.dst)

    def _deliver(self, packet: Ipv4Packet, target: Host) -> None:
        self.stats.note_delivery(packet.dst)
        target.receive(packet)

    def _deliver_burst(self, burst: Burst, target: Host) -> None:
        count = len(burst.idents)
        self.stats.delivered += count
        self.stats.per_destination[burst.dst] += count
        target.receive_burst(burst)

    def _destination_name(self, packet: Ipv4Packet) -> str | None:
        host = self._by_address.get(packet.dst)
        return host.name if host is not None else None

    # -- reliable streams (TCP model) ----------------------------------------

    def stream_request(self, src_host: Host, dst: str, port: int,
                       payload: bytes,
                       callback: Callable[[bytes | None], None]) -> None:
        """A TCP-like request/response exchange.

        Reliable, source-authenticated (no spoofing possible) and charged
        one round-trip of latency each way.  ``callback(None)`` signals
        connection refused (no listener).
        """
        target = self._by_address.get(dst)
        latency = self.latency_between(src_host.address, dst)
        self.scheduler.schedule(latency, self._stream_serve,
                                target, port, payload, src_host.address,
                                latency, callback)

    def _stream_serve(self, target: Host | None, port: int, payload: bytes,
                      client: str, latency: float,
                      callback: Callable[[bytes | None], None]) -> None:
        if target is None or port not in target.stream_handlers:
            self.scheduler.schedule(latency, callback, None)
            return
        response = target.stream_handlers[port](payload, client)
        self.scheduler.schedule(latency, callback, response)

    # -- simulation control -------------------------------------------------

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self.scheduler.clock.now

    def run(self, duration: float | None = None) -> None:
        """Run queued deliveries; bounded by ``duration`` when given."""
        if duration is None:
            self.scheduler.run_until_idle()
        else:
            self.scheduler.run_until(self.now + duration)
