"""XMPP server-to-server federation (Table 1, Online Chat row).

XMPP locates a user's home server through
``_xmpp-server._tcp.<domain>`` SRV records; the domain is the part after
the ``@`` in the contact's JID, so the attacker chooses the queried name
by messaging from (or to) a JID in its own domain — the "bounce" trigger.
Legacy server-to-server links frequently run without verified TLS, so a
poisoned SRV/A record yields **interception** ("Hijack: eavesdropping").
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.apps.base import (
    Application,
    AppOutcome,
    QUERY_TARGET,
    Table1Row,
    USE_FEDERATION,
)
from repro.apps.driver import AppDriver, host_at
from repro.apps.tls import TlsAuthority
from repro.attacks.planner import TargetProfile
from repro.dns.records import TYPE_SRV, rr_srv
from repro.dns.stub import StubResolver
from repro.netsim.host import Host

XMPP_S2S_PORT = 5269


@dataclass
class XmppMessage:
    """A federated chat message."""

    sender: str
    recipient: str
    body: str


class XmppMailbox:
    """Server-side message sink; also usable as an attacker's honeypot."""

    def __init__(self, host: Host, port: int = XMPP_S2S_PORT):
        self.host = host
        self.received: list[XmppMessage] = []
        host.stream_handlers[port] = self._accept

    def _accept(self, payload: bytes, src: str) -> bytes:
        sender, recipient, body = payload.decode("utf-8").split("\n", 2)
        self.received.append(XmppMessage(sender, recipient, body))
        return b"OK"


class XmppServer(Application):
    """An XMPP server delivering messages to federated domains."""

    row = Table1Row(
        category="Online Chat", protocol="XMPP", use_case="Chat+VoIP",
        query_name=QUERY_TARGET, query_known=True, trigger_method="bounce",
        record_types=["A", "SRV"], dns_use=USE_FEDERATION,
        impact="Hijack: eavesdropping",
    )

    def __init__(self, host: Host, stub: StubResolver,
                 tls: TlsAuthority | None = None,
                 require_verified_tls: bool = False):
        self.host = host
        self.stub = stub
        self.tls = tls
        self.require_verified_tls = require_verified_tls
        self.delivery_log: list[AppOutcome] = []

    def target_profile(self, **infrastructure: bool) -> TargetProfile:
        """Planner description of this application."""
        return self._base_profile(**infrastructure)

    def locate_home_server(self, domain: str) -> tuple[str, str, int] | None:
        """SRV → A discovery of a domain's XMPP server."""
        srv = self.stub.lookup(f"_xmpp-server._tcp.{domain}", TYPE_SRV)
        hostname, port = f"xmpp.{domain}", XMPP_S2S_PORT
        for record in srv.records:
            if record.rtype == TYPE_SRV:
                _prio, _weight, port, hostname = record.data
                break
        answer = self.stub.lookup(hostname, "A")
        address = answer.first_address()
        if address is None:
            return None
        return hostname, address, port

    def deliver(self, message: XmppMessage) -> AppOutcome:
        """Deliver a message to the recipient's federated home server."""
        domain = message.recipient.rsplit("@", 1)[-1].lower()
        located = self.locate_home_server(domain)
        if located is None:
            outcome = AppOutcome(app="xmpp", action="deliver", ok=False,
                                 detail={"error": f"cannot locate {domain}"})
            self.delivery_log.append(outcome)
            return outcome
        hostname, address, port = located
        if self.require_verified_tls and self.tls is not None \
                and not self.tls.handshake(hostname, address):
            outcome = AppOutcome(
                app="xmpp", action="deliver", ok=False,
                used_address=address,
                detail={"error": "s2s TLS verification failed"},
            )
            self.delivery_log.append(outcome)
            return outcome
        network = self.host.network
        assert network is not None
        box: dict[str, bytes | None] = {}
        payload = "\n".join(
            [message.sender, message.recipient, message.body]
        ).encode("utf-8")
        network.stream_request(self.host, address, port, payload,
                               lambda data: box.update(data=data))
        deadline = network.now + 3.0
        while "data" not in box and network.now < deadline:
            if not network.scheduler.run_next():
                break
        delivered = box.get("data") == b"OK"
        outcome = AppOutcome(
            app="xmpp", action="deliver", ok=delivered,
            used_address=address,
            detail={"recipient": message.recipient},
        )
        self.delivery_log.append(outcome)
        return outcome


# -- kill-chain driver ---------------------------------------------------------


class XmppDriver(AppDriver):
    """Federated chat delivered to the attacker's server (legacy s2s)."""

    name = "xmpp"
    application = XmppServer

    def setup(self, world: dict, qname: str, malicious_ip: str,
              **params) -> dict:
        ctx = self.base_ctx(world, qname, malicious_ip)
        world["target"].zone.add(
            rr_srv(f"_xmpp-server._tcp.{qname}", 0, 0, XMPP_S2S_PORT,
                   qname, ttl=300))
        XmppMailbox(host_at(world, ctx["genuine_ip"], "xmpp-origin"))
        ctx["evil_mailbox"] = XmppMailbox(
            host_at(world, malicious_ip, "evil-xmpp"))
        # Legacy server-to-server links run without verified TLS — the
        # configuration Table 1 scores as interception.
        ctx["server"] = XmppServer(ctx["app_host"], ctx["stub"])
        return ctx

    def workload(self, ctx: dict) -> tuple[AppOutcome, ...]:
        message = XmppMessage(sender="alice@campus.example",
                              recipient=f"bob@{ctx['qname']}",
                              body="meet at the usual place")
        return (ctx["server"].deliver(message),)

    def realized(self, ctx: dict, outcomes: tuple[AppOutcome, ...]) -> bool:
        delivered = outcomes[0]
        return delivered.ok \
            and delivered.used_address == ctx["malicious_ip"] \
            and bool(ctx["evil_mailbox"].received)


#: This module's app drivers by name, for ``resolve_driver``.
DRIVERS = {driver.name: driver for driver in (XmppDriver(),)}
