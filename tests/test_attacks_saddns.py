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
from repro.testbed import (
    ATTACKER_IP,
    RESOLVER_IP,
    SERVICE_IP,
    TARGET_DOMAIN,
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


def _flooded_cell(defense, per_packet):
    """A short blocked SadDNS grid cell that still reaches the flood.

    ``per_packet`` installs an interceptor that claims nothing: the
    fabric is then no longer clean, so every flood chunk goes through
    the per-packet path instead of one burst.
    """
    from repro.defenses import DefenseStack
    from repro.defenses.ablation import defended_scenario

    scenario = defended_scenario("SadDNS", DefenseStack.of(defense),
                                 saddns_iterations=6)
    built = scenario.build(seed="burst-4")
    if per_packet:
        built.network.add_interceptor(lambda packet, origin: None)
    floods = []
    flood = built.attack.flood_txids

    def counted(port, qname):
        floods.append(port)
        return flood(port, qname)

    built.attack.flood_txids = counted
    return built, built.execute(), floods


class TestFloodBurst:
    @pytest.mark.parametrize("defense", ["0x20-encoding", "dnssec"])
    def test_burst_and_per_packet_paths_agree(self, defense):
        import dataclasses

        burst, burst_run, burst_floods = _flooded_cell(defense, False)
        single, single_run, single_floods = _flooded_cell(defense, True)
        assert burst_floods and burst_floods == single_floods
        assert dataclasses.replace(burst_run, wall_time=0.0) \
            == dataclasses.replace(single_run, wall_time=0.0)
        assert burst.network.stats == single.network.stats
        assert burst.resolver.host.stats == single.resolver.host.stats
        assert burst.resolver.stats == single.resolver.stats
        assert burst.resolver.cache._entries \
            == single.resolver.cache._entries
        assert burst.resolver.cache.stats == single.resolver.cache.stats
        # Same packets, far fewer scheduler events: each 4,096-packet
        # chunk of a flood is one event on the clean fabric.
        assert burst.network.scheduler.executed \
            < single.network.scheduler.executed - 60_000
