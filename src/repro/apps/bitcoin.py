"""Bitcoin peer discovery via DNS seeds (Table 1, Crypto-currency row).

New Bitcoin nodes bootstrap their peer set from well-known DNS seed
names.  Poisoning the seed's A records lets the attacker become *all* of
the node's peers — an eclipse — after which the node follows whatever
chain the attacker serves ("Hijack: fake blockchain", cf. Apostolaki et
al. [16] in the paper).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.apps.base import (
    Application,
    AppOutcome,
    QUERY_KNOWN,
    Table1Row,
    USE_LOCATION,
)
from repro.apps.driver import AppDriver, host_at
from repro.attacks.planner import TargetProfile
from repro.dns.records import TYPE_A
from repro.dns.stub import StubResolver
from repro.netsim.host import Host

P2P_PORT = 8333
WELL_KNOWN_SEED = "seed.bitcoin.sipa.be"


@dataclass
class ChainTip:
    """The tip a peer advertises: height plus a chain identity tag."""

    height: int
    chain_id: str


class BitcoinPeer:
    """A full node answering handshakes with its chain tip."""

    def __init__(self, host: Host, tip: ChainTip):
        self.host = host
        self.tip = tip
        self.handshakes = 0
        host.stream_handlers[P2P_PORT] = self._handshake

    def _handshake(self, payload: bytes, src: str) -> bytes:
        self.handshakes += 1
        return f"{self.tip.height}:{self.tip.chain_id}".encode("ascii")


class BitcoinNode(Application):
    """A bootstrapping node: DNS seed → peers → adopt the best chain."""

    row = Table1Row(
        category="Crypto-currency", protocol="Bitcoin",
        use_case="Peer discovery", query_name=QUERY_KNOWN,
        query_known=True, trigger_method="waiting", record_types=["A"],
        dns_use=USE_LOCATION, impact="Hijack: fake blockchain",
    )

    def __init__(self, host: Host, stub: StubResolver,
                 seed_name: str = WELL_KNOWN_SEED, max_peers: int = 8):
        self.host = host
        self.stub = stub
        self.seed_name = seed_name
        self.max_peers = max_peers
        self.peers: list[str] = []
        self.tip: ChainTip | None = None

    def target_profile(self, **infrastructure: bool) -> TargetProfile:
        """Planner description of this application."""
        return self._base_profile(**infrastructure)

    def bootstrap(self) -> AppOutcome:
        """Resolve the DNS seed and take the returned addresses as peers."""
        answer = self.stub.lookup(self.seed_name, TYPE_A)
        addresses = answer.addresses()[: self.max_peers]
        if not addresses:
            return AppOutcome(app="bitcoin", action="bootstrap", ok=False,
                              detail={"error": "seed did not resolve"})
        self.peers = addresses
        return AppOutcome(app="bitcoin", action="bootstrap", ok=True,
                          detail={"peers": list(addresses)})

    def sync_chain(self) -> AppOutcome:
        """Handshake all peers and adopt the highest advertised tip."""
        if not self.peers:
            bootstrap = self.bootstrap()
            if not bootstrap.ok:
                return bootstrap
        network = self.host.network
        assert network is not None
        tips: list[tuple[str, ChainTip]] = []
        for peer in self.peers:
            box: dict[str, bytes | None] = {}
            network.stream_request(self.host, peer, P2P_PORT, b"version",
                                   lambda data, b=box: b.update(data=data))
            deadline = network.now + 2.0
            while "data" not in box and network.now < deadline:
                if not network.scheduler.run_next():
                    break
            data = box.get("data")
            if not data:
                continue
            try:
                height_text, chain_id = data.decode("ascii").split(":", 1)
                tips.append((peer, ChainTip(int(height_text), chain_id)))
            except ValueError:
                continue
        if not tips:
            return AppOutcome(app="bitcoin", action="sync", ok=False,
                              detail={"error": "no peer responded"})
        best_peer, best_tip = max(tips, key=lambda item: item[1].height)
        self.tip = best_tip
        eclipsed = len({chain for _peer, chain in tips
                        if chain.chain_id != best_tip.chain_id}) == 0
        return AppOutcome(
            app="bitcoin", action="sync", ok=True, used_address=best_peer,
            detail={
                "height": best_tip.height,
                "chain_id": best_tip.chain_id,
                "peers_responding": len(tips),
                "single_chain_view": eclipsed,
            },
        )


# -- kill-chain driver ---------------------------------------------------------


class BitcoinDriver(AppDriver):
    """Seed poisoning eclipses the node onto the attacker's chain."""

    name = "bitcoin"
    application = BitcoinNode

    def setup(self, world: dict, qname: str, malicious_ip: str,
              **params) -> dict:
        ctx = self.base_ctx(world, qname, malicious_ip)
        BitcoinPeer(host_at(world, ctx["genuine_ip"], "btc-origin"),
                    ChainTip(800_000, "main"))
        BitcoinPeer(host_at(world, malicious_ip, "evil-btc"),
                    ChainTip(800_001, "attacker-fork"))
        ctx["node"] = BitcoinNode(ctx["app_host"], ctx["stub"],
                                  seed_name=qname)
        return ctx

    def workload(self, ctx: dict) -> tuple[AppOutcome, ...]:
        bootstrap = ctx["node"].bootstrap()
        if not bootstrap.ok:
            return (bootstrap,)
        return (bootstrap, ctx["node"].sync_chain())

    def realized(self, ctx: dict, outcomes: tuple[AppOutcome, ...]) -> bool:
        if len(outcomes) < 2 or not outcomes[1].ok:
            return False
        sync = outcomes[1]
        # All peers came from the poisoned seed: the node sees a single,
        # attacker-authored view of the chain.
        return sync.detail.get("chain_id") == "attacker-fork" \
            and sync.detail.get("single_chain_view", False)


#: This module's app drivers by name, for ``resolve_driver``.
DRIVERS = {driver.name: driver for driver in (BitcoinDriver(),)}
