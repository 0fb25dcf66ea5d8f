"""NTP time synchronisation (Table 1, Sync row).

The NTP client resolves a well-known pool name (``pool.ntp.org``); the
attacker cannot choose the name but knows it, and queries recur on the
client's own schedule ("waiting" trigger).  A poisoned A record points
the client at an attacker server that serves an arbitrary clock —
"Hijack: change time", which cascades into TLS validity windows, DNSSEC
signature validity, Kerberos and certificate expiry (the paper cites
[45], "The Impact of DNS Insecurity on Time").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.apps.base import (
    Application,
    AppOutcome,
    QUERY_KNOWN,
    Table1Row,
    USE_LOCATION,
)
from repro.apps.driver import AppDriver, host_at
from repro.attacks.planner import TargetProfile
from repro.dns.stub import StubResolver
from repro.netsim.host import Host

NTP_PORT = 123
WELL_KNOWN_POOL = "pool.ntp.org"


class NtpServer:
    """A (possibly lying) NTP server."""

    def __init__(self, host: Host, time_offset: float = 0.0):
        self.host = host
        self.time_offset = time_offset
        self.queries_served = 0
        self._socket = host.open_udp(NTP_PORT, self._serve)

    def _serve(self, datagram, src: str, dst: str) -> None:
        self.queries_served += 1
        reported = self.host.now + self.time_offset
        self._socket.sendto(src, datagram.sport,
                            f"{reported:.6f}".encode("ascii"))


class NtpClient(Application):
    """An NTP client tracking its clock offset from the pool."""

    row = Table1Row(
        category="Sync", protocol="NTP", use_case="Time synchronisation",
        query_name=QUERY_KNOWN, query_known=True,
        trigger_method="connection DoS", record_types=["A"],
        dns_use=USE_LOCATION, impact="Hijack: change time",
    )

    def __init__(self, host: Host, stub: StubResolver,
                 pool_name: str = WELL_KNOWN_POOL,
                 poll_interval: float = 64.0):
        self.host = host
        self.stub = stub
        self.pool_name = pool_name
        self.poll_interval = poll_interval
        self.clock_offset = 0.0
        self.last_server: str | None = None
        self.sync_count = 0

    def target_profile(self, **infrastructure: bool) -> TargetProfile:
        """Planner description of this application."""
        return self._base_profile(**infrastructure)

    def synchronise(self) -> AppOutcome:
        """One poll: resolve the pool, query it, adopt the offset."""
        answer = self.stub.lookup(self.pool_name, "A")
        address = answer.first_address()
        if address is None:
            return AppOutcome(app="ntp", action="sync", ok=False,
                              detail={"error": "pool did not resolve"})
        network = self.host.network
        assert network is not None
        box: dict[str, float] = {}

        def on_reply(datagram, src, dst):
            if src == address:
                try:
                    box["time"] = float(datagram.payload.decode("ascii"))
                except ValueError:
                    pass

        socket = self.host.open_udp(None, on_reply)
        socket.sendto(address, NTP_PORT, b"ntp-query")
        deadline = network.now + 2.0
        while "time" not in box and network.now < deadline:
            if not network.scheduler.run_next():
                break
        socket.close()
        if "time" not in box:
            return AppOutcome(app="ntp", action="sync", ok=False,
                              used_address=address,
                              detail={"error": "no NTP response"})
        self.clock_offset = box["time"] - self.host.now
        self.last_server = address
        self.sync_count += 1
        return AppOutcome(
            app="ntp", action="sync", ok=True, used_address=address,
            detail={"offset": self.clock_offset},
        )


# -- kill-chain driver ---------------------------------------------------------


class NtpDriver(AppDriver):
    """A poisoned pool name hands the clock to a lying server."""

    name = "ntp"
    application = NtpClient

    #: the attacker server's clock error (one hour is plenty to break
    #: certificate validity windows, Kerberos and DNSSEC signatures)
    LIE_SECONDS = 3600.0

    def setup(self, world: dict, qname: str, malicious_ip: str,
              **params) -> dict:
        ctx = self.base_ctx(world, qname, malicious_ip)
        NtpServer(host_at(world, ctx["genuine_ip"], "ntp-origin"),
                  time_offset=0.0)
        NtpServer(host_at(world, malicious_ip, "evil-ntp"),
                  time_offset=self.LIE_SECONDS)
        ctx["client"] = NtpClient(ctx["app_host"], ctx["stub"],
                                  pool_name=qname)
        return ctx

    def workload(self, ctx: dict) -> tuple[AppOutcome, ...]:
        return (ctx["client"].synchronise(),)

    def realized(self, ctx: dict, outcomes: tuple[AppOutcome, ...]) -> bool:
        sync = outcomes[0]
        return sync.ok and sync.used_address == ctx["malicious_ip"] \
            and abs(ctx["client"].clock_offset) >= self.LIE_SECONDS / 2


#: This module's app drivers by name, for ``resolve_driver``.
DRIVERS = {driver.name: driver for driver in (NtpDriver(),)}
