"""Failure injection: attacks and resolution under packet loss and churn."""

import pytest

from repro.attacks import (
    HijackDnsAttack,
    OffPathAttacker,
)
from repro.dns.records import rr_a
from repro.dns.stub import StubResolver
from repro.netsim.packet import PROTO_ICMP
from repro.testbed import (
    TARGET_DOMAIN,
    TARGET_NS_IP,
    Testbed,
    standard_testbed,
)
from tests.conftest import drop_packets, make_trigger


class TestResolutionUnderLoss:
    def build(self, seed):
        bed = Testbed(seed=seed)
        bed.add_domain("vict.im", "123.0.0.53",
                       records=[rr_a("vict.im", "123.0.0.80")])
        resolver = bed.make_resolver("30.0.0.1")
        client = bed.make_host("client", "30.0.0.50")
        return bed, resolver, StubResolver(client, "30.0.0.1",
                                           timeout=30.0)

    def test_retransmission_recovers_from_loss(self):
        bed, resolver, stub = self.build("loss-1")
        upstream = []

        def drop_first_upstream(packet):
            # Drop the first query the resolver sends upstream.
            if packet.src == "30.0.0.1" and packet.udp is not None \
                    and packet.udp.dport == 53:
                upstream.append((packet.dst, packet.udp.sport))
                return len(upstream) == 1
            return False

        drop_packets(bed.network, drop_first_upstream)
        answer = stub.lookup("vict.im", "A")
        assert answer.ok
        assert answer.addresses() == ["123.0.0.80"]
        assert resolver.stats.upstream_timeouts >= 1
        # The retransmission goes to the same server from the same
        # source port: the fixed target SadDNS's port scan relies on.
        assert upstream[1] == upstream[0]

    def test_total_blackhole_yields_servfail(self):
        bed, resolver, stub = self.build("loss-2")
        drop_packets(bed.network,
                     lambda packet: packet.dst == "123.0.0.53")
        answer = stub.lookup("vict.im", "A")
        assert not answer.ok or answer.records == []
        assert resolver.stats.servfails >= 1

    def test_icmp_blackhole_does_not_break_resolution(self):
        bed, resolver, stub = self.build("loss-3")
        drop_packets(bed.network,
                     lambda packet: packet.proto == PROTO_ICMP)
        assert stub.lookup("vict.im", "A").ok


class TestAttackRobustness:
    def test_hijack_succeeds_despite_icmp_loss(self):
        world = standard_testbed(seed="robust-1")
        drop_packets(world["testbed"].network,
                     lambda packet: packet.proto == PROTO_ICMP)
        attacker = OffPathAttacker(world["attacker"])
        attack = HijackDnsAttack(attacker, world["testbed"].network,
                                 world["resolver"], TARGET_DOMAIN,
                                 TARGET_NS_IP, malicious_records=[])
        assert attack.execute(make_trigger(world, attacker)).success

    def test_hijack_retries_when_trigger_lost(self):
        world = standard_testbed(seed="robust-2")
        state = {"dropped": 0}

        def drop_first_client_query(packet):
            if packet.dst == "30.0.0.1" and packet.udp is not None \
                    and packet.udp.dport == 53 and state["dropped"] < 1:
                state["dropped"] += 1
                return True
            return False

        drop_packets(world["testbed"].network, drop_first_client_query)
        attacker = OffPathAttacker(world["attacker"])
        attack = HijackDnsAttack(attacker, world["testbed"].network,
                                 world["resolver"], TARGET_DOMAIN,
                                 TARGET_NS_IP, malicious_records=[])
        result = attack.execute(make_trigger(world, attacker))
        assert result.success
        assert result.iterations == 2  # first trigger was eaten
