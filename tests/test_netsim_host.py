"""Tests for hosts: sockets, ICMP behaviour, PMTUD, spoofing rules."""

import pytest

from repro.core.rng import DeterministicRNG
from repro.netsim.host import Host, HostConfig
from repro.netsim.network import Network
from repro.netsim.packet import (
    ICMP_DEST_UNREACHABLE,
    ICMP_ECHO_REPLY,
    ICMP_ECHO_REQUEST,
    ICMP_FRAG_NEEDED,
    IcmpMessage,
)
from repro.netsim.wire import encode_ipv4, make_icmp_packet, make_udp_packet


def two_hosts(config_b: HostConfig | None = None):
    net = Network()
    a = net.attach(Host("a", "10.0.0.1",
                        config=HostConfig(egress_spoofing_allowed=True)))
    b = net.attach(Host("b", "10.0.0.2", config=config_b))
    return net, a, b


class TestSockets:
    def test_udp_delivery(self):
        net, a, b = two_hosts()
        got = []
        b.open_udp(53, lambda d, src, dst: got.append((d.payload, src)))
        a.open_udp().sendto("10.0.0.2", 53, b"hello")
        net.run()
        assert got == [(b"hello", "10.0.0.1")]

    def test_ephemeral_ports_respect_range(self):
        net = Network()
        host = net.attach(Host("h", "10.0.0.9", config=HostConfig(
            ephemeral_low=5000, ephemeral_high=5010)))
        for _ in range(5):
            socket = host.open_udp()
            assert 5000 <= socket.port <= 5010
            socket.close()

    def test_duplicate_bind_rejected(self):
        _net, a, _b = two_hosts()
        a.open_udp(1000)
        with pytest.raises(ValueError):
            a.open_udp(1000)

    def test_closed_socket_releases_port(self):
        _net, a, _b = two_hosts()
        socket = a.open_udp(1000)
        socket.close()
        a.open_udp(1000)  # no error

    def test_send_on_closed_socket_fails(self):
        _net, a, _b = two_hosts()
        socket = a.open_udp()
        socket.close()
        with pytest.raises(ValueError):
            socket.sendto("10.0.0.2", 53, b"late")


class TestIcmpBehaviour:
    def test_echo_request_gets_reply(self):
        net, a, b = two_hosts()
        replies = []
        a.icmp_listener = lambda m, src: replies.append((m.icmp_type, src))
        a.send_icmp("10.0.0.2",
                    IcmpMessage(icmp_type=ICMP_ECHO_REQUEST, ident=5))
        net.run()
        assert replies == [(ICMP_ECHO_REPLY, "10.0.0.2")]

    def test_closed_port_returns_port_unreachable(self):
        net, a, b = two_hosts()
        errors = []
        socket = a.open_udp()
        socket.error_handler = lambda m, src: errors.append(m)
        socket.sendto("10.0.0.2", 4444, b"probe")
        net.run()
        assert len(errors) == 1
        assert errors[0].is_port_unreachable

    def test_global_icmp_limit_is_50_burst(self):
        net, a, b = two_hosts()
        socket = a.open_udp()
        for port in range(3000, 3060):
            socket.sendto("10.0.0.2", port, b"x")
        net.run()
        assert b.stats.icmp_errors_sent == 50
        assert b.stats.icmp_errors_suppressed == 10

    def test_limit_refills_over_time(self):
        net, a, b = two_hosts()
        socket = a.open_udp()
        for port in range(3000, 3050):
            socket.sendto("10.0.0.2", port, b"x")
        net.run()
        net.scheduler.run_until(net.now + 1.0)
        socket.sendto("10.0.0.2", 3100, b"x")
        net.run()
        assert b.stats.icmp_errors_sent == 51

    def test_unlimited_host_answers_everything(self):
        net, a, b = two_hosts(HostConfig(icmp_rate_limited=False))
        socket = a.open_udp()
        for port in range(3000, 3080):
            socket.sendto("10.0.0.2", port, b"x")
        net.run()
        assert b.stats.icmp_errors_sent == 80

    def test_silent_host_sends_nothing(self):
        net, a, b = two_hosts(HostConfig(respond_port_unreachable=False))
        socket = a.open_udp()
        socket.sendto("10.0.0.2", 4444, b"x")
        net.run()
        assert b.stats.icmp_errors_sent == 0


class TestPmtud:
    def make_ptb(self, reporter: str, victim_src: str, victim_dst: str,
                 mtu: int):
        original = make_udp_packet(victim_src, victim_dst, 53, 9999,
                                   b"payload!")
        embedded = encode_ipv4(original)[:28]
        return IcmpMessage(icmp_type=ICMP_DEST_UNREACHABLE,
                           code=ICMP_FRAG_NEEDED, mtu=mtu,
                           embedded=embedded)

    def test_ptb_lowers_path_mtu(self):
        net, a, b = two_hosts()
        message = self.make_ptb("10.0.0.1", "10.0.0.2", "10.0.0.99", 296)
        a.raw_send(make_icmp_packet("10.0.0.1", "10.0.0.2", message))
        net.run()
        assert b.path_mtu("10.0.0.99") == 296

    def test_ptb_clamped_to_min_accepted(self):
        net, a, b = two_hosts(HostConfig(min_accepted_mtu=552))
        message = self.make_ptb("10.0.0.1", "10.0.0.2", "10.0.0.99", 68)
        a.raw_send(make_icmp_packet("10.0.0.1", "10.0.0.2", message))
        net.run()
        assert b.path_mtu("10.0.0.99") == 552

    def test_ptb_ignored_when_pmtud_off(self):
        net, a, b = two_hosts(HostConfig(accepts_ptb=False))
        message = self.make_ptb("10.0.0.1", "10.0.0.2", "10.0.0.99", 296)
        a.raw_send(make_icmp_packet("10.0.0.1", "10.0.0.2", message))
        net.run()
        assert b.path_mtu("10.0.0.99") == b.config.mtu

    def test_flush_pmtu_cache(self):
        net, a, b = two_hosts()
        message = self.make_ptb("10.0.0.1", "10.0.0.2", "10.0.0.99", 296)
        a.raw_send(make_icmp_packet("10.0.0.1", "10.0.0.2", message))
        net.run()
        b.flush_pmtu_cache()
        assert b.path_mtu("10.0.0.99") == b.config.mtu

    def test_sender_fragments_after_ptb(self):
        net, a, b = two_hosts()
        received = []
        a.open_udp(5555, lambda d, src, dst: received.append(d.payload))
        message = self.make_ptb("x", "10.0.0.2", "10.0.0.1", 68)
        a.raw_send(make_icmp_packet("10.0.0.9", "10.0.0.2", message))
        net.run()
        payload = bytes(300)
        b.open_udp(7777).sendto("10.0.0.1", 5555, payload)
        net.run()
        assert received == [payload]
        assert a.stats.reassembled == 1


class TestSpoofing:
    def test_spoofing_requires_permissive_network(self):
        net, a, b = two_hosts()
        packet = make_udp_packet("99.99.99.99", "10.0.0.1", 1, 2, b"")
        with pytest.raises(PermissionError):
            b.raw_send(packet)

    def test_spoofing_allowed_when_configured(self):
        net, a, b = two_hosts()
        got = []
        b.open_udp(53, lambda d, src, dst: got.append(src))
        a.raw_send(make_udp_packet("99.99.99.99", "10.0.0.2", 1, 53, b"x"))
        net.run()
        assert got == ["99.99.99.99"]

    def test_fragment_filtering_host_drops_fragments(self):
        net, a, b = two_hosts(HostConfig(accept_fragments=False))
        got = []
        b.open_udp(53, lambda d, src, dst: got.append(d.payload))
        # A fragmented datagram never reassembles on a filtering host.
        a._pmtu_cache["10.0.0.2"] = 68
        a.open_udp(1234).sendto("10.0.0.2", 53, bytes(200))
        net.run()
        assert got == []
        # Unfragmented traffic still flows.
        a.flush_pmtu_cache()
        a.open_udp(1235).sendto("10.0.0.2", 53, b"small")
        net.run()
        assert got == [b"small"]


class TestRawSendBurst:
    def _burst(self, count=4, dport=53):
        return [make_udp_packet("10.0.0.9", "10.0.0.2", 53, dport,
                                bytes([i]) * 4, ident=i)
                for i in range(count)]

    def test_burst_matches_per_packet_sends(self):
        """One scheduler event, but the deliveries, their order and
        every counter of the per-packet path — including a port that
        closes mid-burst and answers the rest with ICMP errors."""
        outcomes = []
        for burst in (True, False):
            net, a, b = two_hosts()
            got = []

            def handler(datagram, src, dst):
                got.append(datagram.payload)
                if len(got) == 2:
                    socket.close()

            socket = b.open_udp(53, handler)
            packets = self._burst()
            if burst:
                a.raw_send_burst(packets)
            else:
                for packet in packets:
                    a.raw_send(packet)
            net.run()
            outcomes.append((got, net.stats, a.stats, b.stats,
                             net.scheduler.executed))
        (got, net_stats, a_stats, b_stats, burst_events), \
            (got_1, net_stats_1, a_stats_1, b_stats_1, single_events) \
            = outcomes
        assert got == got_1 == [b"\x00" * 4, b"\x01" * 4]
        assert (net_stats, a_stats, b_stats) \
            == (net_stats_1, a_stats_1, b_stats_1)
        assert b_stats.udp_to_closed_port == 2
        assert b_stats.icmp_errors_sent == 2
        # The errors go to the spoofed, unrouted source either way.
        assert net_stats.dropped_no_route == 2
        assert (burst_events, single_events) == (1, 4)

    def test_burst_falls_back_on_a_watched_fabric(self):
        net, a, b = two_hosts()
        b.open_udp(53)
        net.add_interceptor(lambda packet, origin: None)
        a.raw_send_burst(self._burst())
        net.run()
        assert net.scheduler.executed == 4
        assert b.stats.udp_delivered == 4

    @pytest.mark.parametrize("bad", ["fragment", "no-udp",
                                     "mixed-destination"])
    def test_burst_contract_violations_raise(self, bad):
        net, a, _b = two_hosts()
        packets = self._burst()
        if bad == "fragment":
            packets[2] = packets[2].evolve(mf=True)
        elif bad == "no-udp":
            packets[2] = packets[2].evolve(udp=None)
        else:
            packets[2] = packets[2].evolve(dst="10.0.0.3")
        with pytest.raises(ValueError, match="burst"):
            a.raw_send_burst(packets)
        # Nothing of a rejected burst leaves the host.
        assert a.stats.sent == 0
        assert net.stats.transmitted == 0

    def test_burst_spoofing_needs_permissive_network(self):
        net, _a, b = two_hosts()
        with pytest.raises(PermissionError):
            b.raw_send_burst(self._burst())
        assert net.stats.transmitted == 0
