"""Tests for the FragDNS fragmentation methodology."""

import pytest

from repro.attacks import (
    FragDnsAttack,
    FragDnsConfig,
    OffPathAttacker,
)
from repro.core.errors import AttackError
from repro.dns.nameserver import NameserverConfig
from repro.dns.records import TYPE_A
from repro.dns.resolver import ResolverConfig
from repro.netsim.checksum import ones_complement_sum
from repro.netsim.host import HostConfig
from repro.testbed import (
    ATTACKER_IP,
    FRAG_TARGET_NAME,
    TARGET_DOMAIN,
    standard_testbed,
)
from tests.conftest import drop_packets, make_trigger


def build_attack(world, attacker, **config_kwargs):
    return FragDnsAttack(
        attacker, world["testbed"].network, world["resolver"],
        world["target"].server, TARGET_DOMAIN,
        config=FragDnsConfig(**config_kwargs),
    )


@pytest.fixture
def prepared(fragdns_world):
    attacker = OffPathAttacker(fragdns_world["attacker"])
    trigger = make_trigger(fragdns_world, attacker)
    return fragdns_world, attacker, trigger


class TestPreparation:
    def test_ptb_forces_tiny_mtu(self, prepared):
        world, attacker, _trigger = prepared
        attack = build_attack(world, attacker)
        assert attack.effective_mtu() == 1500
        attack.force_fragmentation()
        assert attack.effective_mtu() == 68

    def test_pmtu_clamp_resists_ptb(self):
        world = standard_testbed(
            seed="frag-clamp",
            ns_host_config=HostConfig(ipid_policy="global",
                                      min_accepted_mtu=552),
        )
        attacker = OffPathAttacker(world["attacker"])
        attack = build_attack(world, attacker)
        attack.force_fragmentation()
        assert attack.effective_mtu() == 552

    def test_reconnaissance_learns_response(self, prepared):
        world, attacker, _trigger = prepared
        attack = build_attack(world, attacker)
        template = attack.reconnoitre(FRAG_TARGET_NAME)
        from repro.dns.wire import decode_message

        message = decode_message(template)
        assert message.answers[0].data == "123.0.0.80"

    def test_crafted_fragment_preserves_checksum_sum(self, prepared):
        world, attacker, _trigger = prepared
        attack = build_attack(world, attacker)
        attack.force_fragmentation()
        malicious = attack.craft_second_fragment(FRAG_TARGET_NAME)
        template = attack._template
        boundary = attack.fragment_boundary()
        genuine_tail = template[boundary - 8:]
        assert malicious != genuine_tail
        assert ones_complement_sum(malicious) \
            == ones_complement_sum(genuine_tail)
        # The attacker's address was written into the fragment.
        from repro.netsim.addresses import ip_to_int

        assert ip_to_int(ATTACKER_IP).to_bytes(4, "big") in malicious

    def test_too_small_response_rejected(self, prepared):
        """The short qname's rdata sits in the first fragment."""
        world, attacker, _trigger = prepared
        attack = build_attack(world, attacker)
        attack.force_fragmentation()
        with pytest.raises(AttackError):
            attack.craft_second_fragment(TARGET_DOMAIN)

    def test_ipid_sampling_tracks_global_counter(self, prepared):
        world, attacker, _trigger = prepared
        attack = build_attack(world, attacker)
        first = attack.sample_ipid()
        second = attack.sample_ipid()
        assert first is not None and second is not None
        assert (second - first) & 0xFFFF <= 8

    def test_prediction_blind_when_sample_lost(self, prepared):
        world, attacker, _trigger = prepared
        attack = build_attack(world, attacker)
        ns_ip = world["target"].server.address
        drop_packets(world["testbed"].network,
                     lambda packet: packet.src == ns_ip
                     and packet.dst == ATTACKER_IP)
        assert attack.sample_ipid() is None
        idents = attack.predict_ipids()
        assert len(set(idents)) == 64
        # A lost sample leaves no counter to plant after: the window
        # is a blind pick, not the 64 idents after some value.
        assert idents != [(idents[0] + i) & 0xFFFF for i in range(64)]

    def test_prediction_blind_for_random_ipid(self):
        world = standard_testbed(
            seed="frag-random",
            ns_host_config=HostConfig(ipid_policy="random",
                                      min_accepted_mtu=68),
        )
        attacker = OffPathAttacker(world["attacker"])
        attack = build_attack(world, attacker)
        idents = attack.predict_ipids()
        assert len(idents) == 64
        assert len(set(idents)) == 64


class TestEndToEnd:
    def test_global_ipid_attack_succeeds_quickly(self, prepared):
        world, attacker, trigger = prepared
        attack = build_attack(world, attacker, max_attempts=100)
        result = attack.execute(trigger, qname=FRAG_TARGET_NAME)
        assert result.success
        # Paper Table 6: ~5 queries, ~325 packets for global IP-ID.
        assert result.iterations <= 60
        entry = world["resolver"].cache.entry(FRAG_TARGET_NAME, TYPE_A)
        assert entry is not None and entry.poisoned

    def test_poisoned_record_serves_attacker_address(self, prepared):
        world, attacker, trigger = prepared
        attack = build_attack(world, attacker, max_attempts=100)
        attack.execute(trigger, qname=FRAG_TARGET_NAME)
        from repro.dns.stub import StubResolver

        stub = StubResolver(world["service"], "30.0.0.1")
        answer = stub.lookup(FRAG_TARGET_NAME, "A")
        assert ATTACKER_IP in answer.addresses()

    def test_pmtud_refusal_blocks_attack(self):
        world = standard_testbed(
            seed="frag-noptb",
            ns_host_config=HostConfig(ipid_policy="global",
                                      accepts_ptb=False),
        )
        attacker = OffPathAttacker(world["attacker"])
        attack = build_attack(world, attacker, max_attempts=5)
        result = attack.execute(make_trigger(world, attacker),
                                qname=FRAG_TARGET_NAME)
        assert not result.success
        assert "reason" in result.detail

    def test_fragment_filtering_resolver_blocks_attack(self):
        world = standard_testbed(
            seed="frag-filter",
            ns_host_config=HostConfig(ipid_policy="global",
                                      min_accepted_mtu=68),
            resolver_host_config=HostConfig(accept_fragments=False),
        )
        attacker = OffPathAttacker(world["attacker"])
        attack = build_attack(world, attacker, max_attempts=20,
                              attempt_spacing=0.1)
        result = attack.execute(make_trigger(world, attacker),
                                qname=FRAG_TARGET_NAME)
        assert not result.success

    def test_small_edns_buffer_does_not_block_attack(self):
        """A resolver without EDNS (a 512-byte buffer) is still poisoned.

        The 73-byte answer fits 512 bytes, so nothing truncates: only the
        path MTU fragments the response, and the spray lands."""
        world = standard_testbed(
            seed="frag-smalledns",
            ns_host_config=HostConfig(ipid_policy="global",
                                      min_accepted_mtu=68),
            resolver_config=ResolverConfig(
                allowed_clients=["30.0.0.0/24"], edns_udp_size=None),
        )
        attacker = OffPathAttacker(world["attacker"])
        attack = build_attack(world, attacker, max_attempts=10,
                              attempt_spacing=0.1)
        result = attack.execute(make_trigger(world, attacker),
                                qname=FRAG_TARGET_NAME)
        assert result.success

    def test_random_ipid_needs_many_attempts(self):
        world = standard_testbed(
            seed="frag-random-e2e",
            ns_host_config=HostConfig(ipid_policy="random",
                                      min_accepted_mtu=68),
        )
        attacker = OffPathAttacker(world["attacker"])
        attack = build_attack(world, attacker, max_attempts=40,
                              attempt_spacing=0.05)
        result = attack.execute(make_trigger(world, attacker),
                                qname=FRAG_TARGET_NAME)
        # 40 attempts x 64/65536 ~ 4% success probability: this run
        # fails, demonstrating the 0.1% hitrate regime — every attempt
        # ends with the genuine answer cached.
        assert not result.success
        assert result.iterations == 40
        assert result.detail["genuine_cached"] == 40


def _sprayed_cell(scenario, per_packet):
    """Run ``scenario`` at seed ``spray-1``, recording the length of
    every fragment spray the attacker sends.

    ``per_packet`` installs an interceptor that claims nothing: the
    fabric is then no longer clean, so each spray reaches the resolver
    as packets, one reassembly-cache ``add`` each, instead of one
    ``plant``.  Returns the built world, its run and the spray lengths.
    """
    from repro.netsim.packet import FragmentSpray

    built = scenario.build(seed="spray-1")
    if per_packet:
        built.network.add_interceptor(lambda packet, origin: None)
    sprays = []
    attacker = built.attacker
    inject = attacker.inject_burst

    def injected(burst):
        if type(burst) is FragmentSpray:
            sprays.append(len(burst.idents))
        inject(burst)

    attacker.inject_burst = injected
    return built, built.execute(), sprays


def _blind_cell():
    from repro.scenario import AttackScenario

    return AttackScenario(
        method="FragDNS", label="FragDNS (random IPID)",
        ns_host_config=HostConfig(ipid_policy="random", min_accepted_mtu=68),
        attack_config=FragDnsConfig(max_attempts=8, attempt_spacing=0.2))


def _defended_cell(defense):
    from repro.defenses import DefenseStack
    from repro.defenses.ablation import defended_scenario

    return defended_scenario("FragDNS", DefenseStack.of(defense),
                             frag_attempts=20)


def _host_stats(built):
    return [host.stats for host in (built.resolver.host,
                                     built.attack.nameserver.host,
                                     built.attacker.host)]


def _rng_states(built):
    return [rng.getstate() for rng in (
        built.attacker.rng, built.attack._rng, built.attack._world_rng,
        built.resolver.rng, *(host.rng for host in built.network.hosts))]


# Per cell: does the attack succeed, and does it spray at all?  (The
# PMTU clamp stops it before the first attempt.)
_SPRAY_CELLS = {
    "0x20-encoding": (True, True),
    # One forged fragment meets a shuffled first fragment: the
    # reassembled datagram fails its UDP checksum.
    "randomize-records": (False, True),
    "block-fragments": (False, True),
    "pmtu-clamp": (False, False),
    "no-icmp-errors": (True, True),
    "randomized-icmp-limit": (True, True),
    # The forgery reassembles and fails validation.
    "dnssec": (False, True),
    "rpki-rov": (True, True),
    "blind-random-ipid": (False, True),
}


class TestSprayDifferential:
    @pytest.mark.parametrize("cell", list(_SPRAY_CELLS))
    def test_spray_and_per_packet_paths_agree(self, cell):
        """A spray planted in one reassembly-cache call leaves the run,
        every counter, the caches and every RNG as one packet per
        fragment does, with one scheduler event per spray."""
        import dataclasses

        from repro.defenses import ALL_DEFENSES

        if cell == "blind-random-ipid":
            scenario = _blind_cell()
        else:
            (defense,) = [d for d in ALL_DEFENSES if d.key == cell]
            scenario = _defended_cell(defense)
        (lazy, lazy_run, sprays), (single, single_run, single_sprays) = (
            _sprayed_cell(scenario, per_packet)
            for per_packet in (False, True))
        success, sprayed = _SPRAY_CELLS[cell]
        assert lazy_run.result.success is success
        assert bool(sprays) is sprayed
        assert sprays == single_sprays
        assert dataclasses.replace(lazy_run, wall_time=0.0) \
            == dataclasses.replace(single_run, wall_time=0.0)
        assert lazy.network.stats == single.network.stats
        assert _host_stats(lazy) == _host_stats(single)
        assert lazy.resolver.stats == single.resolver.stats
        assert lazy.resolver.cache._entries == single.resolver.cache._entries
        assert lazy.resolver.cache.stats == single.resolver.cache.stats
        lazy_cache, single_cache = (world.resolver.host.reassembly
                                    for world in (lazy, single))
        assert (lazy_cache.evictions, lazy_cache.timeouts,
                lazy_cache.reassembled, list(lazy_cache._partials)) \
            == (single_cache.evictions, single_cache.timeouts,
                single_cache.reassembled, list(single_cache._partials))
        if cell == "randomize-records":
            assert lazy.resolver.host.stats.checksum_drops > 0
        # Every RNG draw happened, in the same order.
        assert _rng_states(lazy) == _rng_states(single)
        # Each spray of n fragments is one scheduler event, not n.
        assert single.network.scheduler.executed \
            - lazy.network.scheduler.executed \
            == sum(length - 1 for length in sprays)
