"""VPN tunnelling: OpenVPN, IKE, and opportunistic IPsec (Table 1).

Two distinct outcomes from the paper:

* **OpenVPN / IKE with authentication** — the gateway name comes from
  private client configuration ("config"), and the tunnel is mutually
  authenticated; redirecting the client to the attacker only yields
  **denial of service** ("DoS: no VPN access").
* **IKE opportunistic encryption** — peers fetch each other's public
  keys from IPSECKEY records; a poisoned record substitutes the
  attacker's key and gateway, silently turning the "encrypted" tunnel
  into **interception** ("Hijack: eavesdropping").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.apps.base import (
    Application,
    AppOutcome,
    QUERY_CONFIG,
    QUERY_TARGET,
    Table1Row,
    USE_LOCATION,
)
from repro.apps.driver import AppDriver, host_at
from repro.attacks.planner import TargetProfile
from repro.dns.records import TYPE_IPSECKEY
from repro.dns.stub import StubResolver
from repro.netsim.host import Host

OPENVPN_PORT = 1194
IKE_PORT = 500


class VpnGateway:
    """A VPN concentrator that only accepts clients knowing the PSK."""

    def __init__(self, host: Host, psk: str, port: int = OPENVPN_PORT):
        self.host = host
        self.psk = psk
        self.established = 0
        host.stream_handlers[port] = self._handshake

    def _handshake(self, payload: bytes, src: str) -> bytes:
        if payload.decode("utf-8", "replace") == self.psk:
            self.established += 1
            return b"TUNNEL-UP"
        return b"AUTH-FAIL"


class OpenVpnClient(Application):
    """An OpenVPN client connecting to its configured gateway name."""

    row = Table1Row(
        category="Tunnelling", protocol="OpenVPN", use_case="VPN",
        query_name=QUERY_CONFIG, query_known=False,
        trigger_method="connection DoS", record_types=["A"],
        dns_use=USE_LOCATION, impact="DoS: no VPN aceess",
    )

    def __init__(self, host: Host, stub: StubResolver,
                 gateway_name: str, psk: str, port: int = OPENVPN_PORT):
        self.host = host
        self.stub = stub
        self.gateway_name = gateway_name
        self.psk = psk
        self.port = port
        self.tunnel_up = False

    def target_profile(self, **infrastructure: bool) -> TargetProfile:
        """Planner description of this application."""
        return self._base_profile(**infrastructure)

    def connect(self) -> AppOutcome:
        """Resolve the gateway and attempt an authenticated handshake."""
        answer = self.stub.lookup(self.gateway_name, "A")
        address = answer.first_address()
        if address is None:
            return AppOutcome(app="openvpn", action="connect", ok=False,
                              detail={"error": "gateway did not resolve"})
        network = self.host.network
        assert network is not None
        box: dict[str, bytes | None] = {}
        network.stream_request(self.host, address, self.port,
                               self.psk.encode("utf-8"),
                               lambda data: box.update(data=data))
        deadline = network.now + 3.0
        while "data" not in box and network.now < deadline:
            if not network.scheduler.run_next():
                break
        self.tunnel_up = box.get("data") == b"TUNNEL-UP"
        return AppOutcome(
            app="openvpn", action="connect", ok=self.tunnel_up,
            used_address=address,
            detail={} if self.tunnel_up else {
                "error": "handshake failed",
                "effect": "client cannot reach the VPN (DoS)",
            },
        )


class IkeApplication(Application):
    """Table 1 row object for authenticated IKE VPN configuration."""

    row = Table1Row(
        category="Tunnelling", protocol="IKE", use_case="VPN",
        query_name=QUERY_CONFIG, query_known=False,
        trigger_method="connection DoS", record_types=["A"],
        dns_use=USE_LOCATION, impact="DoS: no VPN aceess",
    )

    def target_profile(self, **infrastructure: bool) -> TargetProfile:
        """Planner description of this application."""
        return self._base_profile(**infrastructure)


class OpportunisticIpsecPeer(Application):
    """Opportunistic encryption: keys fetched from IPSECKEY records."""

    row = Table1Row(
        category="Tunnelling", protocol="IKE",
        use_case="Opportunistic Enc.", query_name=QUERY_TARGET,
        query_known=True, trigger_method="bounce",
        record_types=["IPSECKEY"], dns_use=USE_LOCATION,
        impact="Hijack: eavesdropping",
    )

    def __init__(self, host: Host, stub: StubResolver):
        self.host = host
        self.stub = stub
        self.sessions: list[dict] = []

    def target_profile(self, **infrastructure: bool) -> TargetProfile:
        """Planner description of this application."""
        return self._base_profile(**infrastructure)

    def establish(self, peer_name: str) -> AppOutcome:
        """Fetch the peer's IPSECKEY and "encrypt" to that key/gateway.

        There is no authentication beyond DNS in opportunistic mode, so
        whatever gateway/key the (possibly poisoned) record names becomes
        the session endpoint.
        """
        answer = self.stub.lookup(peer_name, TYPE_IPSECKEY)
        for record in answer.records:
            if record.rtype == TYPE_IPSECKEY:
                gateway, public_key = record.data
                session = {
                    "peer": peer_name,
                    "gateway": gateway,
                    "key": public_key,
                }
                self.sessions.append(session)
                return AppOutcome(
                    app="ipsec", action="establish", ok=True,
                    used_address=gateway,
                    detail=session,
                )
        return AppOutcome(app="ipsec", action="establish", ok=False,
                          detail={"error": "no IPSECKEY published"})


# -- kill-chain drivers --------------------------------------------------------


class _TunnelDoSDriver(AppDriver):
    """Shared mechanics for the authenticated-tunnel DoS rows.

    The gateway name resolves to the attacker, the mutually
    authenticated handshake fails, and the client is locked out of its
    VPN — Table 1's "DoS: no VPN access" for OpenVPN and IKE alike.
    """

    port = OPENVPN_PORT

    def setup(self, world: dict, qname: str, malicious_ip: str,
              **params) -> dict:
        ctx = self.base_ctx(world, qname, malicious_ip)
        VpnGateway(host_at(world, ctx["genuine_ip"], "vpn-origin"),
                   psk="shared-secret", port=self.port)
        ctx["client"] = OpenVpnClient(ctx["app_host"], ctx["stub"],
                                      gateway_name=qname,
                                      psk="shared-secret", port=self.port)
        return ctx

    def workload(self, ctx: dict) -> tuple[AppOutcome, ...]:
        return (ctx["client"].connect(),)

    def realized(self, ctx: dict, outcomes: tuple[AppOutcome, ...]) -> bool:
        connect = outcomes[0]
        return not connect.ok \
            and connect.used_address == ctx["malicious_ip"]


class OpenVpnDriver(_TunnelDoSDriver):
    name = "openvpn"
    application = OpenVpnClient
    port = OPENVPN_PORT


class IkeDriver(_TunnelDoSDriver):
    name = "ike"
    application = IkeApplication
    port = IKE_PORT


class IpsecDriver(AppDriver):
    """Opportunistic IPsec keys come straight from (poisoned) DNS.

    The planted IPSECKEY record rides along in the HijackDNS/SadDNS
    forgery; FragDNS only rewrites A rdata, so it cannot plant one.
    """

    name = "ipsec"
    application = OpportunisticIpsecPeer
    methods = ("HijackDNS", "SadDNS")

    def malicious_records(self, qname: str, attacker_ip: str):
        from repro.dns.records import rr_a, rr_ipseckey

        return (rr_a(qname, attacker_ip, ttl=86400),
                rr_ipseckey(qname, attacker_ip, "attacker-key", ttl=86400))

    def setup(self, world: dict, qname: str, malicious_ip: str,
              **params) -> dict:
        from repro.dns.records import rr_ipseckey

        ctx = self.base_ctx(world, qname, malicious_ip)
        world["target"].zone.add(
            rr_ipseckey(qname, ctx["genuine_ip"], "genuine-key", ttl=300))
        ctx["peer"] = OpportunisticIpsecPeer(ctx["app_host"], ctx["stub"])
        return ctx

    def workload(self, ctx: dict) -> tuple[AppOutcome, ...]:
        return (ctx["peer"].establish(ctx["qname"]),)

    def realized(self, ctx: dict, outcomes: tuple[AppOutcome, ...]) -> bool:
        session = outcomes[0]
        # "Encryption" is now to the attacker's key and gateway: silent
        # interception, not a failure the peer could notice.
        return session.ok and session.used_address == ctx["malicious_ip"] \
            and session.detail.get("key") == "attacker-key"


#: This module's app drivers by name, for ``resolve_driver``.
DRIVERS = {driver.name: driver for driver in (
    OpenVpnDriver(), IkeDriver(), IpsecDriver())}
