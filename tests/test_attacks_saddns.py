"""Tests for the SadDNS side-channel methodology."""

import pytest

from repro.attacks import (
    OffPathAttacker,
    SadDnsAttack,
    SadDnsConfig,
    SpoofedClientTrigger,
)
from repro.dns.nameserver import NameserverConfig
from repro.dns.records import TYPE_A
from repro.netsim.host import HostConfig
from repro.netsim.packet import IcmpErrorBurst
from repro.testbed import (
    ATTACKER_IP,
    RESOLVER_IP,
    SERVICE_IP,
    TARGET_DOMAIN,
    TARGET_NS_IP,
    standard_testbed,
)
from tests.conftest import make_trigger


def build_attack(world, attacker, **config_kwargs):
    return SadDnsAttack(
        attacker, world["testbed"].network, world["resolver"],
        world["target"].server, TARGET_DOMAIN,
        config=SadDnsConfig(**config_kwargs),
    )


@pytest.fixture
def prepared(saddns_world):
    attacker = OffPathAttacker(saddns_world["attacker"])
    trigger = make_trigger(saddns_world, attacker)
    return saddns_world, attacker, trigger


class TestSideChannel:
    def test_probe_detects_open_port_in_batch(self, prepared):
        world, attacker, trigger = prepared
        attack = build_attack(world, attacker)
        attack.mute_nameserver()
        trigger.fire(TARGET_DOMAIN, "A")
        world["testbed"].run(0.08)
        resolver = world["resolver"]
        port = next(iter(resolver.host.open_ports() - {53}))
        batch = [port] + list(range(20000, 20049))
        assert attack.probe_ports(batch)

    def test_probe_negative_when_all_closed(self, prepared):
        world, attacker, trigger = prepared
        attack = build_attack(world, attacker)
        attack.mute_nameserver()
        trigger.fire(TARGET_DOMAIN, "A")
        world["testbed"].run(0.08)
        world["testbed"].run(0.06)  # refill the ICMP bucket
        assert not attack.probe_ports(list(range(20000, 20050)))

    def test_clean_fabric_probe_batch_builds_no_closed_port_datagram(
            self, prepared, monkeypatch):
        """A probe batch is a port sweep: the probes that find their
        ports closed are counted, rate limited and answered without a
        datagram built; only the probe to the open port is built, for
        its socket's handler."""
        from repro.netsim.packet import PortSweep

        world, attacker, trigger = prepared
        attack = build_attack(world, attacker)
        attack.mute_nameserver()
        trigger.fire(TARGET_DOMAIN, "A")
        world["testbed"].run(0.08)
        host = world["resolver"].host
        port = next(iter(host.open_ports() - {53}))
        built = []
        getitem = PortSweep.__getitem__
        monkeypatch.setattr(
            PortSweep, "__getitem__",
            lambda sweep, index: (built.append(sweep.dports[index]),
                                  getitem(sweep, index))[1])
        closed = host.stats.udp_to_closed_port
        assert attack.probe_ports(
            list(range(20000, 20025)) + [port] + list(range(20025, 20049)))
        assert built == [port]
        world["testbed"].run(0.06)
        assert not attack.probe_ports(list(range(20000, 20050)))
        assert built == [port]
        # Both batches' closed probes and both verification probes.
        assert host.stats.udp_to_closed_port - closed == 49 + 50 + 2

    @pytest.mark.parametrize("batch_size", [61, 62])
    def test_fillers_skip_the_resolver_dns_port(self, batch_size):
        # 10 closed candidates need 51 or 52 fillers counting up from
        # port 2; the 52nd would be 53, which is open and burns no
        # ICMP token, so the verification probe would draw an error.
        world = standard_testbed(
            seed="pytest-saddns",
            ns_config=NameserverConfig(rrl_enabled=True),
            resolver_host_config=HostConfig(
                ephemeral_low=30000, ephemeral_high=30999,
                icmp_burst=batch_size),
        )
        attacker = OffPathAttacker(world["attacker"])
        attack = build_attack(world, attacker, batch_size=batch_size)
        _rng, bursts = _captured_bursts(attacker)
        assert not attack.probe_ports(list(range(20000, 20010)))
        (burst,) = _port_sweeps(bursts)
        ports = [datagram.dport for datagram in burst.datagrams]
        assert len(ports) == batch_size and 53 not in ports
        assert ports[10:] == [port for port in range(2, 55)
                              if port != 53][:batch_size - 10]

    def test_isolation_narrows_to_exact_port(self, prepared):
        world, attacker, trigger = prepared
        attack = build_attack(world, attacker)
        attack.mute_nameserver()
        trigger.fire(TARGET_DOMAIN, "A")
        world["testbed"].run(0.08)
        port = next(iter(world["resolver"].host.open_ports() - {53}))
        batch = [port] + list(range(20000, 20049))
        assert attack.isolate_port(batch) == port

    def test_muting_silences_nameserver(self, prepared):
        world, attacker, trigger = prepared
        attack = build_attack(world, attacker)
        attack.mute_nameserver()
        nameserver = world["target"].server
        assert nameserver.is_muted(world["testbed"].now)
        # Muting persists across the configured window.
        world["testbed"].run(1.0)
        assert nameserver.is_muted(world["testbed"].now)

    def test_flood_poisons_discovered_port(self, prepared):
        world, attacker, trigger = prepared
        attack = build_attack(world, attacker)
        attack.mute_nameserver()
        trigger.fire(TARGET_DOMAIN, "A")
        world["testbed"].run(0.08)
        port = next(iter(world["resolver"].host.open_ports() - {53}))
        assert attack.flood_txids(port, TARGET_DOMAIN)
        entry = world["resolver"].cache.entry(TARGET_DOMAIN, TYPE_A)
        assert entry is not None and entry.poisoned


def _captured_bursts(attacker):
    """Record every burst the attacker injects (and still send it),
    with a copy of the attacker's RNG from before the first one."""
    from repro.core.rng import DeterministicRNG

    before = DeterministicRNG()
    before.setstate(attacker.rng.getstate())
    bursts = []
    inject = attacker.inject_burst

    def injected(burst):
        bursts.append(burst)
        inject(burst)

    attacker.inject_burst = injected
    return before, bursts


def _port_sweeps(bursts):
    """The scan batches among captured bursts (the verification probe
    is a one-datagram burst of its own)."""
    from repro.netsim.packet import PortSweep

    return [burst for burst in bursts
            if isinstance(burst.datagrams, PortSweep)]


class TestBurstContents:
    """The bursts carry exactly the packets per-packet sends built."""

    def test_probe_batch_is_what_spoof_udp_sends(self, prepared):
        from repro.netsim.wire import make_udp_packet

        world, attacker, _trigger = prepared
        attack = build_attack(world, attacker)
        rng, bursts = _captured_bursts(attacker)
        attack.probe_ports([20000, 31000])
        (burst,) = _port_sweeps(bursts)
        assert burst.packets() == [
            make_udp_packet(TARGET_NS_IP, RESOLVER_IP, 53, port,
                            b"\x00\x00probe", ident=rng.randint(0, 0xFFFF))
            for port in [20000, 31000] + list(range(2, 50))]
        # Then the verification probe, from the attacker's own address:
        # its source port, then its ident, from the same stream.
        assert bursts[0] is burst
        (verify,) = bursts[1:]
        sport = rng.pick_port()
        assert verify.packets() == [make_udp_packet(
            ATTACKER_IP, RESOLVER_IP, sport, 11, b"\x00\x00verify",
            ident=rng.randint(0, 0xFFFF))]
        assert rng.getstate() == attacker.rng.getstate()

    def test_mute_queries_are_what_spoof_udp_sent(self, prepared):
        """The five real mute queries leave as one burst carrying the
        packets five ``spoof_udp`` calls built, each source port drawn
        from the attack's stream and each ident from the attacker's."""
        from repro.core.rng import DeterministicRNG
        from repro.dns import names
        from repro.dns.message import make_query
        from repro.dns.wire import encode_message
        from repro.netsim.wire import make_udp_packet

        world, attacker, _trigger = prepared
        attack = build_attack(world, attacker)
        own = DeterministicRNG()
        own.setstate(attack._rng.getstate())
        rng, bursts = _captured_bursts(attacker)
        attack.mute_nameserver()
        payload = encode_message(make_query(
            f"{names.random_label(own)}.{TARGET_DOMAIN}", TYPE_A,
            own.pick_txid()))
        (burst,) = bursts
        assert burst.packets() == [
            make_udp_packet(RESOLVER_IP, TARGET_NS_IP, own.pick_port(), 53,
                            payload, ident=rng.randint(0, 0xFFFF))
            for _ in range(5)]
        assert own.getstate() == attack._rng.getstate()
        assert rng.getstate() == attacker.rng.getstate()
        assert attacker.packets_sent == SadDnsConfig().mute_burst

    def test_flood_is_every_encoded_forgery(self, prepared):
        from repro.dns.wire import encode_message
        from repro.netsim.wire import make_udp_packet

        world, attacker, _trigger = prepared
        attack = build_attack(world, attacker)
        rng, bursts = _captured_bursts(attacker)
        assert not attack.flood_txids(20000, TARGET_DOMAIN)  # closed port
        assert [len(burst.datagrams) for burst in bursts] == [4096] * 16
        idents = [ident for burst in bursts for ident in burst.idents]
        assert idents == [rng.randint(0, 0xFFFF) for _ in range(0x10000)]
        for txid in (0, 1, 0x1234, 0xFFFF):
            burst = bursts[txid // 4096]
            index = txid % 4096
            payload = encode_message(attacker.forge_response(
                TARGET_DOMAIN, TYPE_A, txid, attack.malicious_records))
            assert burst.packet(index) == make_udp_packet(
                TARGET_NS_IP, RESOLVER_IP, 53, 20000, payload,
                ident=idents[txid])


class TestEndToEnd:
    def test_attack_succeeds_on_narrow_port_space(self, prepared):
        world, attacker, trigger = prepared
        attack = build_attack(world, attacker, max_iterations=80)
        result = attack.execute(trigger)
        assert result.success
        assert result.iterations <= 80
        assert result.queries_triggered == result.iterations
        assert result.packets_sent > 1000  # muting floods dominate

    def test_randomized_icmp_limit_defeats_attack(self):
        world = standard_testbed(
            seed="saddns-fix",
            ns_config=NameserverConfig(rrl_enabled=True),
            resolver_host_config=HostConfig(
                ephemeral_low=30000, ephemeral_high=30999,
                icmp_limit_randomized=True),
        )
        attacker = OffPathAttacker(world["attacker"])
        attack = build_attack(world, attacker, max_iterations=30)
        result = attack.execute(make_trigger(world, attacker))
        assert not result.success

    def test_no_icmp_errors_defeats_attack(self):
        world = standard_testbed(
            seed="saddns-noicmp",
            ns_config=NameserverConfig(rrl_enabled=True),
            resolver_host_config=HostConfig(
                ephemeral_low=30000, ephemeral_high=30999,
                respond_port_unreachable=False),
        )
        attacker = OffPathAttacker(world["attacker"])
        attack = build_attack(world, attacker, max_iterations=30)
        result = attack.execute(make_trigger(world, attacker))
        assert not result.success

    def test_0x20_defeats_txid_flood(self):
        from repro.dns.resolver import ResolverConfig

        world = standard_testbed(
            seed="saddns-0x20",
            ns_config=NameserverConfig(rrl_enabled=True),
            resolver_config=ResolverConfig(
                allowed_clients=["30.0.0.0/24"], use_0x20=True),
            resolver_host_config=HostConfig(
                ephemeral_low=30000, ephemeral_high=30999),
        )
        attacker = OffPathAttacker(world["attacker"])
        attack = build_attack(world, attacker, max_iterations=25)
        result = attack.execute(make_trigger(world, attacker))
        assert not result.success
        assert world["resolver"].stats.rejected_responses > 0


class _EventMute(SadDnsAttack):
    """Reference mute: five ``spoof_udp`` calls and one scheduled
    ``drain`` event per re-drain step, counted as they run."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.drain_events = 0
        self.mute_rounds = 0

    def _drain(self, when):
        self.drain_events += 1
        self.nameserver._rrl_bucket.drain(when)

    def mute_nameserver(self):
        from repro.dns import names
        from repro.dns.message import make_query
        from repro.dns.wire import encode_message

        config = self.config
        flood_query = make_query(
            f"{names.random_label(self._rng)}.{self.target_domain}",
            TYPE_A, self._rng.pick_txid())
        payload = encode_message(flood_query)
        for _ in range(5):
            self.attacker.spoof_udp(self.resolver.address,
                                    self._rng.pick_port(),
                                    self.nameserver.address, 53, payload)
        bucket = self.nameserver._rrl_bucket
        if bucket is not None:
            scheduler = self.network.scheduler
            steps = int(config.mute_duration / config.mute_interval)
            bucket.drain(self.network.now)
            for step in range(1, steps + 1):
                when = self.network.now + step * config.mute_interval
                scheduler.call_at(when, self._drain, when)
        self.mute_rounds += 1
        self.attacker.packets_sent += config.mute_burst - 5
        return config.mute_burst


def _muted_cell(stack, reference):
    """A 20-iteration SadDNS cell of the Section 6 grid; ``reference``
    runs it with :class:`_EventMute`."""
    from repro.defenses import DefenseStack
    from repro.defenses.ablation import defended_scenario

    scenario = defended_scenario("SadDNS", DefenseStack.parse(stack),
                                 saddns_iterations=20)
    built = scenario.build(seed=f"mute-{stack}")
    if reference:
        attack = built.attack
        built.attack = _EventMute(
            attack.attacker, attack.network, attack.resolver,
            attack.nameserver, attack.target_domain,
            attack.malicious_records, attack.config)
    return built, built.execute()


class TestLazyMute:
    @pytest.mark.parametrize("stack", ["none", "0x20-encoding", "dnssec"])
    def test_lazy_drains_match_drain_events(self, stack):
        """The limiter's recorded drain cadence runs the cell the
        scheduled drain events ran, with those events and four per mute
        round (five single-datagram bursts against one) fewer."""
        import dataclasses

        lazy, lazy_run = _muted_cell(stack, False)
        ref, ref_run = _muted_cell(stack, True)
        assert dataclasses.replace(lazy_run, wall_time=0.0) \
            == dataclasses.replace(ref_run, wall_time=0.0)
        assert lazy.attack.nameserver.stats == ref.attack.nameserver.stats
        assert lazy.attack.nameserver.host.stats \
            == ref.attack.nameserver.host.stats
        assert lazy.resolver.stats == ref.resolver.stats
        assert lazy.resolver.host.stats == ref.resolver.host.stats
        assert lazy.attacker.host.stats == ref.attacker.host.stats
        assert lazy.attacker.rng.getstate() == ref.attacker.rng.getstate()
        assert lazy.attack._rng.getstate() == ref.attack._rng.getstate()
        assert lazy.network.now == ref.network.now
        attack = ref.attack
        assert attack.mute_rounds == lazy_run.result.iterations
        assert attack.drain_events > 0
        assert ref.network.scheduler.executed \
            - lazy.network.scheduler.executed \
            == attack.drain_events + 4 * attack.mute_rounds
        # The mute held: the limiter refused every query the nameserver
        # got, the resolver's included.
        stats = lazy.attack.nameserver.stats
        assert stats.rate_limited == stats.queries > 0


def _flooded_cell(defense, per_packet):
    """A short SadDNS grid cell (6 iterations, seed ``burst-4``).

    ``per_packet`` installs an interceptor that claims nothing: the
    fabric is then no longer clean, so every burst (scan batch or flood
    chunk) goes through the per-packet path instead.  Returns the built
    world, its run, the flooded ports, per burst injected its length,
    payload kind and the scheduler entries it added, and the source and
    size of each port-unreachable error burst the fabric delivered.
    """
    from repro.defenses import DefenseStack
    from repro.defenses.ablation import defended_scenario

    scenario = defended_scenario("SadDNS", DefenseStack.of(defense),
                                 saddns_iterations=6)
    built = scenario.build(seed="burst-4")
    if per_packet:
        built.network.add_interceptor(lambda packet, origin: None)
    floods, bursts, errors = [], [], []
    flood = built.attack.flood_txids
    attacker = built.attack.attacker
    inject = attacker.inject_burst
    network = built.network
    scheduler = network.scheduler
    deliver_burst = network._deliver_burst

    def counted(port, qname):
        floods.append(port)
        return flood(port, qname)

    def injected(burst):
        before = scheduler.pending
        inject(burst)
        probe = burst.datagrams[0].payload.endswith(b"probe")
        bursts.append((len(burst.datagrams), probe,
                       scheduler.pending - before))

    def delivered(burst, target):
        if isinstance(burst, IcmpErrorBurst):
            errors.append((burst.src, len(burst.idents)))
        deliver_burst(burst, target)

    built.attack.flood_txids = counted
    attacker.inject_burst = injected
    network._deliver_burst = delivered
    return built, built.execute(), floods, bursts, errors


# Per stack: does the cell reach the flood, does the attack succeed, and
# does the resolver send port-unreachable errors at all?
_FLOOD_CELLS = {
    "0x20-encoding": (True, False, True),
    "dnssec": (True, False, True),
    # The forgery is accepted mid-chunk: the rest of the chunk hits a
    # closed port and draws rate-limited ICMP errors.
    "rpki-rov": (True, True, True),
    # Every closed-port datagram draws budget jitter from the resolver's
    # RNG; the side channel never finds the port.
    "randomized-icmp-limit": (False, False, True),
    # No error ever comes back: the scan is blind, and every probe is
    # counted closed without asking the rate limiter.
    "no-icmp-errors": (False, False, False),
}


# A response header whose question name runs past the end: no TXID
# makes it parse.
_GARBAGE_TAIL = b"\x81\x80\x00\x01\x00\x00\x00\x00\x00\x00\xff"


def _use_0x20():
    from repro.dns.resolver import ResolverConfig

    return ResolverConfig(allowed_clients=["30.0.0.0/24"], use_0x20=True)


# Per case: the resolver config, and the sweeps to send as (source,
# TXIDs around the outstanding query's, tail).  Sources: "ns" is the
# server queried, "other" any other address.  A "probe" sweep is a scan
# batch instead: the probe payload to the ports around the query's, so
# the open port sits mid-batch (closed run, error flush, handler, closed
# run).  In ``port-already-closed`` the accepted forgery closes the
# query's socket, so the whole second sweep finds its port closed.
_SWEEP_CASES = {
    "wrong-source": (None, [("other", (-50, 50), "forged")]),
    "txid-below-sweep": (None, [("ns", (1, 201), "forged")]),
    "txid-inside-sweep": (None, [("ns", (-100, 100), "forged")]),
    "txid-above-sweep": (None, [("ns", (-200, 0), "forged")]),
    "probe-batch-open-port-mid-batch": (None,
                                        [("ns", (-40, 40), "probe")]),
    "port-already-closed": (None, [("ns", (0, 1), "forged"),
                                   ("ns", (-100, 100), "forged")]),
    "0x20-case-reject": (_use_0x20, [("ns", (-100, 100), "forged")]),
    "malformed-tail": (None, [("ns", (-100, 100), "garbage"),
                              ("other", (-100, 100), "garbage")]),
}

# What each case must count, so that the case tests what it names.
_SWEEP_EXPECT = {
    "wrong-source": {"rejected_source": 100},
    "txid-below-sweep": {"rejected_txid": 200},
    "txid-inside-sweep": {"rejected_txid": 100, "resolutions": 1},
    "txid-above-sweep": {"rejected_txid": 200},
    "probe-batch-open-port-mid-batch": {},
    "port-already-closed": {"resolutions": 1},
    "0x20-case-reject": {"rejected_case": 1, "rejected_txid": 199},
    "malformed-tail": {},
}


def _swept_resolver(case, per_packet):
    """Send a case's sweeps at a resolver's outstanding query.

    ``per_packet`` installs an interceptor that claims nothing, so the
    sweeps reach the resolver as packets, one ``_on_datagram`` each.
    Returns the world, the attacker, in arrival order what the
    nameserver (the resolver's ICMP errors) and the client (its
    answers) received, and the resolver host's stats from before the
    sweeps.
    """
    import dataclasses

    from repro.dns.wire import encode_message
    from repro.netsim.packet import PortSweep, TxidSweep, UdpBurst

    make_config, sweeps = _SWEEP_CASES[case]
    world = standard_testbed(
        seed="pytest-saddns",
        ns_config=NameserverConfig(rrl_enabled=True),
        resolver_config=make_config() if make_config else None,
        resolver_host_config=HostConfig(
            ephemeral_low=30000, ephemeral_high=30999),
    )
    network = world["testbed"].network
    if per_packet:
        network.add_interceptor(lambda packet, origin: None)
    resolver = world["resolver"]
    attacker = OffPathAttacker(world["attacker"])
    attack = build_attack(world, attacker)
    received = []
    for host in (world["target"].server.host, world["service"]):
        host.packet_tap = lambda packet, name=host.name: received.append(
            (network.now, name, packet.describe()))
    attack.mute_nameserver()
    make_trigger(world, attacker).fire(TARGET_DOMAIN, "A")
    world["testbed"].run(0.08)
    (task,) = resolver._inflight.values()
    port, txid, server = task.socket.port, task.txid, task.current_server
    before = dataclasses.replace(resolver.host.stats)
    tails = {"forged": encode_message(attacker.forge_response(
        TARGET_DOMAIN, TYPE_A, 0, attack.malicious_records))[2:],
        "garbage": _GARBAGE_TAIL}
    for source, (low, high), tail in sweeps:
        if tail == "probe":
            sweep = PortSweep(53, tuple(range(port + low, port + high)),
                              b"\x00\x00probe")
        else:
            txids = range(txid + low, txid + high)
            assert 0 <= txids.start and txids.stop <= 0x10000
            sweep = TxidSweep(53, port, txids, tails[tail])
        attacker.inject_burst(UdpBurst(
            server if source == "ns" else SERVICE_IP, RESOLVER_IP, sweep,
            tuple(attacker.rng.pick_txids(len(sweep)))))
    world["testbed"].run(0.05)
    return world, attacker, received, before


class TestFloodBurst:
    @pytest.mark.parametrize("defense", list(_FLOOD_CELLS))
    def test_burst_and_per_packet_paths_agree(self, defense):
        import dataclasses

        floods, success, icmp_errors = _FLOOD_CELLS[defense]
        burst, burst_run, burst_floods, burst_bursts, burst_errors = \
            _flooded_cell(defense, False)
        single, single_run, single_floods, single_bursts, single_errors = \
            _flooded_cell(defense, True)
        assert bool(burst_floods) is floods
        assert burst_floods == single_floods
        assert burst_run.result.success is success
        assert dataclasses.replace(burst_run, wall_time=0.0) \
            == dataclasses.replace(single_run, wall_time=0.0)
        assert burst.network.stats == single.network.stats
        assert burst.resolver.host.stats == single.resolver.host.stats
        assert burst.attack.nameserver.host.stats \
            == single.attack.nameserver.host.stats
        assert burst.resolver.stats == single.resolver.stats
        assert burst.resolver.cache._entries \
            == single.resolver.cache._entries
        assert burst.resolver.cache.stats == single.resolver.cache.stats
        # Every RNG draw happened, in the same order.
        assert burst.attack.attacker.rng.getstate() \
            == single.attack.attacker.rng.getstate()
        assert burst.resolver.host.rng.getstate() \
            == single.resolver.host.rng.getstate()
        if success:
            # More closed-port hits than scan probes (each batch plus its
            # verification probe): the flood's tail after the acceptance.
            probed = sum(size + 1 for size, probe, _ in burst_bursts
                         if probe)
            assert burst.resolver.host.stats.udp_to_closed_port > probed
        # Same bursts; on the clean fabric each one, a probe batch or a
        # 4,096-datagram flood chunk, is a single scheduler event.
        assert [b[:2] for b in burst_bursts] \
            == [b[:2] for b in single_bursts]
        assert any(probe for _, probe, _ in burst_bursts)
        assert all(added == 1 for _, _, added in burst_bursts)
        assert all(added == size for size, _, added in single_bursts)
        # The port-unreachable errors each of those draws go back as one
        # more event, where the per-packet path sends one per error.
        resolver_ip = burst.resolver.address
        assert any(src == resolver_ip for src, _ in burst_errors) \
            is icmp_errors
        assert single_errors == []
        assert single.network.scheduler.executed \
            - burst.network.scheduler.executed \
            == sum(size - 1 for size, _, _ in burst_bursts) \
            + sum(size - 1 for _, size in burst_errors)

    @pytest.mark.parametrize("case", list(_SWEEP_CASES))
    def test_sweep_and_per_packet_paths_agree(self, case):
        """A flood chunk taken by the resolver's sweep handler counts,
        caches and draws what its datagrams do one packet at a time."""
        from repro.dns.wire import well_formed

        assert not well_formed(b"\x00\x00" + _GARBAGE_TAIL)
        outcomes = []
        for per_packet in (False, True):
            world, attacker, received, before = _swept_resolver(
                case, per_packet)
            resolver = world["resolver"]
            outcomes.append((
                received,
                resolver.stats, resolver.host.stats, attacker.host.stats,
                world["testbed"].network.stats,
                resolver.cache._entries, resolver.cache.stats,
                resolver.rng.getstate(), resolver.host.rng.getstate(),
                attacker.rng.getstate(), before))
        assert outcomes[0] == outcomes[1]
        stats = outcomes[0][1]
        counted = {name: value for name, value in vars(stats).items()
                   if value and name.startswith(("rejected", "resolutions"))}
        assert counted == _SWEEP_EXPECT[case]
        host_stats, before = outcomes[0][2], outcomes[0][-1]
        closed, sent, suppressed = (
            host_stats.udp_to_closed_port - before.udp_to_closed_port,
            host_stats.icmp_errors_sent - before.icmp_errors_sent,
            host_stats.icmp_errors_suppressed
            - before.icmp_errors_suppressed)
        burst = int(world["resolver"].host.config.icmp_burst)
        if case == "probe-batch-open-port-mid-batch":
            # 40 probes before the open port draw 40 errors, which leave
            # before its handler runs; of the 39 after it, only 10 find
            # a token left.
            assert (closed, sent, suppressed) == (79, burst, 29)
            assert host_stats.udp_delivered - before.udp_delivered == 1
        elif case == "port-already-closed":
            # The bucket is full when the second sweep arrives: it pays
            # for one error per token and no more.
            assert (closed, sent, suppressed) == (200, burst, 200 - burst)

    def test_clean_fabric_flood_builds_one_datagram_per_sweep_call(
            self, monkeypatch):
        """Against 0x20 every chunk of a flood reaches the open port and
        is rejected in bulk: the one datagram with the query's TXID is
        the only one built, and no packet is."""
        from repro.dns.resolver import _Resolution
        from repro.netsim.packet import Ipv4Packet, TxidSweep

        calls, built, packets = [], [], []
        on_sweep = _Resolution._on_sweep
        monkeypatch.setattr(
            _Resolution, "_on_sweep",
            lambda task, *args: (calls.append(args[1]),
                                 on_sweep(task, *args))[1])
        world, attacker, _, _ = _swept_resolver("0x20-case-reject", False)
        resolver = world["resolver"]
        port = next(iter(resolver.host.open_ports() - {53}))
        calls.clear()
        getitem = TxidSweep.__getitem__
        monkeypatch.setattr(
            TxidSweep, "__getitem__",
            lambda sweep, index: (built.append(index),
                                  getitem(sweep, index))[1])
        monkeypatch.setattr(Ipv4Packet, "__post_init__",
                            lambda packet: packets.append(packet))
        before = resolver.stats.rejected_txid
        assert not build_attack(world, attacker).flood_txids(
            port, TARGET_DOMAIN)
        assert resolver.stats.rejected_case == 2
        assert resolver.stats.rejected_txid - before == 0xFFFF
        assert len(calls) == 17  # 16 chunks, one re-entered after the match
        assert len(built) == 1 and packets == []
