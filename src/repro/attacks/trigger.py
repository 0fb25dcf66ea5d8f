"""Query triggering: how the attacker makes the victim resolver look up.

Paper Section 4.3.  The hardest part of a cross-layer attack is causing
(or predicting) the victim resolver's query.  The strategies here are the
application-independent ones; application-specific triggers (email
bounce, RADIUS federation, web objects) live with their applications in
:mod:`repro.apps` and simply conform to the same protocol.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

from repro.core.rng import DeterministicRNG
from repro.dns.message import make_query
from repro.dns.records import type_code
from repro.dns.wire import encode_message
from repro.netsim.host import Host
from repro.netsim.packet import UdpBurst, UdpDatagram

DNS_PORT = 53


def send_query(host: Host, src: str, resolver_ip: str,
               rng: DeterministicRNG, qname: str, qtype: int | str) -> None:
    """Send the query for (qname, qtype) from ``src`` to the resolver.

    The one send path of every trigger that emits the query itself: a
    one-datagram :class:`UdpBurst` (IP ident 0) through
    :meth:`Host.raw_send_burst`, with the TXID and then the source port
    drawn from ``rng``.  A clean fabric builds no packet for it.
    """
    if isinstance(qtype, str):
        qtype = type_code(qtype)
    query = make_query(qname, qtype, rng.pick_txid())
    datagram = UdpDatagram(rng.pick_port(), DNS_PORT, encode_message(query))
    host.raw_send_burst(UdpBurst(src, resolver_ip, (datagram,), (0,)))


class QueryTrigger(ABC):
    """Strategy: make the victim resolver issue a query for (name, type)."""

    #: how Table 1 refers to this trigger style
    style: str = "abstract"

    @abstractmethod
    def fire(self, qname: str, qtype: int | str = "A") -> None:
        """Cause the target resolver to start resolving (qname, qtype)."""

    def cadence(self) -> float | None:
        """Seconds between query opportunities; None = attacker-chosen."""
        return None


class SpoofedClientTrigger(QueryTrigger):
    """Spoof a client query from an address inside the resolver's ACL.

    This is the trigger in Figure 1 (``src=30.0.0.1``): the attacker
    spoofs the query as if a legitimate internal client asked.  Works
    whenever spoofing is possible and the resolver serves an internal
    prefix; the response goes to the spoofed client, which ignores it.
    """

    style = "direct"

    def __init__(self, attacker_host: Host, resolver_ip: str,
                 client_ip: str, rng: DeterministicRNG | None = None):
        self.attacker_host = attacker_host
        self.resolver_ip = resolver_ip
        self.client_ip = client_ip
        self.rng = rng if rng is not None else DeterministicRNG("trigger")
        self.fired = 0

    def fire(self, qname: str, qtype: int | str = "A") -> None:
        send_query(self.attacker_host, self.client_ip, self.resolver_ip,
                   self.rng, qname, qtype)
        self.fired += 1


class OpenResolverTrigger(QueryTrigger):
    """Query an open resolver (or open forwarder) directly.

    Per Section 4.3.3, 79% of the resolvers serving web clients are
    reachable through some open forwarder, so this is the default path
    for attacking "closed" resolvers.
    """

    style = "direct"

    def __init__(self, attacker_host: Host, resolver_ip: str,
                 rng: DeterministicRNG | None = None):
        self.attacker_host = attacker_host
        self.resolver_ip = resolver_ip
        self.rng = rng if rng is not None else DeterministicRNG("open-trig")
        self.fired = 0

    def fire(self, qname: str, qtype: int | str = "A") -> None:
        send_query(self.attacker_host, self.attacker_host.address,
                   self.resolver_ip, self.rng, qname, qtype)
        self.fired += 1


class CallableTrigger(QueryTrigger):
    """Adapter for application-provided trigger functions.

    ``fn(qname, qtype)`` performs the application action (sending an
    email to a non-existent user, fetching a web object, connecting to a
    federated peer ...) whose side effect is the DNS query.
    """

    def __init__(self, fn, style: str = "application",
                 cadence_seconds: float | None = None):
        self._fn = fn
        self.style = style
        self._cadence = cadence_seconds
        self.fired = 0

    def fire(self, qname: str, qtype: int | str = "A") -> None:
        self._fn(qname, qtype)
        self.fired += 1

    def cadence(self) -> float | None:
        return self._cadence


@dataclass
class TimerPrediction:
    """Waiting for a device's own periodic query (Table 2 "timer" rows).

    The attacker cannot fire the query; it can only predict the next
    firing from the device's refresh period and plant its attack in the
    window around it.
    """

    period: float
    last_observed: float

    def next_window(self, now: float) -> tuple[float, float]:
        """(start, end) of the next predicted query window."""
        if self.period <= 0:
            raise ValueError("period must be positive")
        elapsed = now - self.last_observed
        cycles = int(elapsed // self.period) + 1
        start = self.last_observed + cycles * self.period
        return (start - 0.5, start + 0.5)
