"""RADIUS / eduroam dynamic peer discovery (Table 1, Authentication row).

Eduroam-style federation locates a realm's authentication server with
NAPTR and SRV lookups on the realm (the domain part of the user ID — so
the *attacker chooses the queried name* by picking the user ID).  The
peer connection is authenticated with TLS (RadSec): an attacker that
poisons the discovery records redirects the connection to itself but
cannot complete the handshake — the outcome is **denial of service**
("DoS: no network access"), exactly as Table 1 reports.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.apps.base import (
    Application,
    AppOutcome,
    QUERY_TARGET,
    Table1Row,
    USE_FEDERATION,
)
from repro.apps.driver import AppDriver
from repro.apps.tls import TlsAuthority
from repro.attacks.planner import TargetProfile
from repro.dns.records import TYPE_NAPTR, TYPE_SRV, rr_srv
from repro.dns.stub import StubResolver


@dataclass
class RadiusPeer:
    """A discovered federation peer."""

    realm: str
    hostname: str
    address: str
    port: int


class RadiusServer(Application):
    """A RADIUS server performing dynamic federation peer discovery."""

    row = Table1Row(
        category="Authentication", protocol="Radius",
        use_case="Peer discovery", query_name=QUERY_TARGET,
        query_known=True, trigger_method="direct",
        record_types=["NAPTR", "SRV", "A"], dns_use=USE_FEDERATION,
        impact="DoS: no network access",
    )

    def __init__(self, stub: StubResolver, tls: TlsAuthority,
                 home_realm: str = "home.example"):
        self.stub = stub
        self.tls = tls
        self.home_realm = home_realm
        self.discoveries: list[RadiusPeer] = []

    def target_profile(self, **infrastructure: bool) -> TargetProfile:
        """Planner description of this application."""
        return self._base_profile(**infrastructure)

    def discover_peer(self, realm: str) -> RadiusPeer | None:
        """NAPTR → SRV → A resolution of a realm's RADIUS server."""
        naptr = self.stub.lookup(realm, TYPE_NAPTR)
        srv_name = f"_radsec._tcp.{realm}"
        for record in naptr.records:
            if record.rtype == TYPE_NAPTR:
                replacement = record.data[5]
                if replacement:
                    srv_name = replacement
                break
        srv = self.stub.lookup(srv_name, TYPE_SRV)
        hostname, port = f"radius.{realm}", 2083
        for record in srv.records:
            if record.rtype == TYPE_SRV:
                _prio, _weight, port, hostname = record.data
                break
        answer = self.stub.lookup(hostname, "A")
        address = answer.first_address()
        if address is None:
            return None
        peer = RadiusPeer(realm=realm, hostname=hostname,
                          address=address, port=port)
        self.discoveries.append(peer)
        return peer

    def authenticate_roaming_user(self, user_id: str) -> AppOutcome:
        """Authenticate ``user@realm`` by asking the realm's home server.

        The realm comes from the user ID — an attacker-controlled string
        — which is what makes the DNS query externally triggerable.
        """
        if "@" not in user_id:
            return AppOutcome(app="radius", action="authenticate", ok=False,
                              detail={"error": "malformed user id"})
        realm = user_id.rsplit("@", 1)[1].lower()
        peer = self.discover_peer(realm)
        if peer is None:
            return AppOutcome(
                app="radius", action="authenticate", ok=False,
                detail={"error": f"no RADIUS server found for {realm}"},
            )
        # RadSec: the TLS handshake must authenticate the peer's name.
        if not self.tls.handshake(peer.hostname, peer.address):
            return AppOutcome(
                app="radius", action="authenticate", ok=False,
                used_address=peer.address,
                detail={
                    "error": "TLS authentication of federation peer failed",
                    "effect": "user denied network access (DoS)",
                },
            )
        return AppOutcome(app="radius", action="authenticate", ok=True,
                          used_address=peer.address)


# -- kill-chain driver ---------------------------------------------------------


class RadiusDriver(AppDriver):
    """Eduroam peer discovery redirected to the attacker: RadSec DoS.

    The realm (and so every queried name) comes from the roaming user
    ID the attacker presents; the genuine SRV record points discovery
    at the realm apex, whose poisoned A record lands the RadSec
    connection on the attacker — where TLS fails and the user is denied
    network access.
    """

    name = "radius"
    application = RadiusServer

    def setup(self, world: dict, qname: str, malicious_ip: str,
              **params) -> dict:
        ctx = self.base_ctx(world, qname, malicious_ip)
        world["target"].zone.add(
            rr_srv(f"_radsec._tcp.{qname}", 0, 0, 2083, qname, ttl=300))
        tls = TlsAuthority()
        tls.issue(qname, ctx["genuine_ip"])
        ctx["server"] = RadiusServer(ctx["stub"], tls,
                                     home_realm="campus.example")
        return ctx

    def workload(self, ctx: dict) -> tuple[AppOutcome, ...]:
        return (ctx["server"].authenticate_roaming_user(
            f"eve@{ctx['qname']}"),)

    def realized(self, ctx: dict, outcomes: tuple[AppOutcome, ...]) -> bool:
        auth = outcomes[0]
        return not auth.ok and auth.used_address == ctx["malicious_ip"]


#: This module's app drivers by name, for ``resolve_driver``.
DRIVERS = {driver.name: driver for driver in (RadiusDriver(),)}
