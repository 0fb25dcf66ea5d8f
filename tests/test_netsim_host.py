"""Tests for hosts: sockets, ICMP behaviour, PMTUD, spoofing rules."""

import pytest

from repro.core.rng import DeterministicRNG
from repro.netsim.fragmentation import fragment_packet
from repro.netsim.host import Host, HostConfig, HostStats
from repro.netsim.network import Network
from repro.netsim.packet import (
    ICMP_DEST_UNREACHABLE,
    ICMP_ECHO_REPLY,
    ICMP_ECHO_REQUEST,
    ICMP_FRAG_NEEDED,
    PROTO_UDP,
    FragmentSpray,
    IcmpMessage,
    Ipv4Packet,
    PortSweep,
    TxidSweep,
    UdpBurst,
    UdpDatagram,
)
from repro.netsim.wire import encode_ipv4, make_icmp_packet, make_udp_packet
from tests.conftest import drop_packets


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

    @pytest.mark.parametrize("port", [-5, 65536, 70000])
    def test_out_of_range_port_rejected_at_bind(self, port):
        _net, a, _b = two_hosts()
        with pytest.raises(ValueError, match="out of range"):
            a.open_udp(port)
        assert port not in a.open_ports()

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


def _flood_tail():
    from repro.dns.message import make_query
    from repro.dns.records import TYPE_A
    from repro.dns.wire import encode_message

    return encode_message(make_query("victim.example", TYPE_A, 0))[2:]


def _flood_chunk(port=40000, txids=range(0xFFF8, 0x10000)):
    """A TXID flood chunk: one encoded response, TXID varied."""
    return UdpBurst(
        "10.0.0.9", "10.0.0.2", TxidSweep(53, port, txids, _flood_tail()),
        tuple(range(0xFFFF, 0xFFFF - len(txids), -1)))


def _probe_batch(dports=(2, 30000, 65535, 3), idents=(0, 7, 0xFFFF, 12)):
    """A SadDNS scan batch: the probe payload to each of ``dports``."""
    return UdpBurst("10.0.0.9", "10.0.0.2",
                    PortSweep(53, tuple(dports), b"\x00\x00probe"), idents)


class TestUdpBurst:
    def test_packets_are_what_make_udp_packet_builds(self):
        batch = UdpBurst(
            "10.0.0.9", "10.0.0.2",
            tuple(UdpDatagram(53, dport, b"\x00\x00probe")
                  for dport in (2, 30000, 65535, 3)),
            (0, 7, 0xFFFF, 12))
        for burst in (_flood_chunk(), batch, _probe_batch()):
            packets = burst.packets()
            assert len(packets) == len(burst.datagrams)
            for index, datagram in enumerate(burst.datagrams):
                expected = make_udp_packet(
                    burst.src, burst.dst, datagram.sport, datagram.dport,
                    datagram.payload, ident=burst.idents[index])
                for packet in (burst.packet(index), packets[index]):
                    assert packet == expected
                    assert packet.udp == expected.udp
                    assert encode_ipv4(packet) == encode_ipv4(expected)

    def test_sweep_datagrams_are_the_txid_and_the_tail(self):
        sweep = _flood_chunk().datagrams
        expected = [UdpDatagram(53, 40000, txid.to_bytes(2, "big")
                                + _flood_tail())
                    for txid in range(0xFFF8, 0x10000)]
        assert len(sweep) == 8
        assert list(sweep) == [sweep[i] for i in range(8)] == expected
        assert sweep[-1] == expected[-1]
        with pytest.raises(IndexError):
            sweep[8]

    @pytest.mark.parametrize("args", [
        (0x10000, 1, range(2)), (53, -1, range(2)),
        (53, 1, range(0, 4, 2)), (53, 1, range(0xFFFF, 0x10001)),
        (53, 1, range(-1, 2)), (53, 1, [0, 1])],
        ids=["sport", "dport", "step", "above-range", "negative", "list"])
    def test_bad_sweeps_raise(self, args):
        with pytest.raises(ValueError):
            TxidSweep(*args, b"tail")

    def test_port_sweep_datagrams_are_the_ports_and_the_payload(self):
        sweep = _probe_batch().datagrams
        expected = [UdpDatagram(53, dport, b"\x00\x00probe")
                    for dport in (2, 30000, 65535, 3)]
        assert len(sweep) == 4
        assert list(sweep) == [sweep[i] for i in range(4)] == expected
        assert sweep[-1] == expected[-1]
        with pytest.raises(IndexError):
            sweep[4]

    @pytest.mark.parametrize("args", [
        (0x10000, (1, 2)), (-1, (1, 2)), (53, (1, 0x10000)), (53, (-1, 2)),
        (53, [1, 2])],
        ids=["sport", "negative-sport", "dport", "negative-dport", "list"])
    def test_bad_port_sweeps_raise(self, args):
        with pytest.raises(ValueError):
            PortSweep(*args, b"probe")

    @pytest.mark.parametrize("idents", [(0, 0x10000), (-1, 0), (0,),
                                        (0, 1, 2)],
                             ids=["above-range", "negative", "too-few",
                                  "too-many"])
    def test_bad_idents_raise(self, idents):
        with pytest.raises(ValueError, match="ident"):
            UdpBurst("10.0.0.9", "10.0.0.2",
                     (UdpDatagram(53, 1), UdpDatagram(53, 2)), idents)


class TestRawSendBurst:
    def _burst(self, count=4, dport=53):
        return UdpBurst(
            "10.0.0.9", "10.0.0.2",
            tuple(UdpDatagram(53, dport, bytes([i]) * 4)
                  for i in range(count)),
            tuple(range(count)))

    def test_burst_matches_per_packet_sends(self):
        """One scheduler event, but the deliveries, their order and
        every counter of the per-packet path, including a port that
        closes mid-burst and answers the rest with ICMP errors that
        embed the packets per-packet sends would have built."""
        outcomes = []
        for burst in (True, False):
            net, a, b = two_hosts()
            # The spoofed source exists, so the errors come back.
            victim = net.attach(Host("victim", "10.0.0.9"))
            errors = []
            victim.icmp_listener = \
                lambda message, src: errors.append(message.embedded)
            got = []

            def handler(datagram, src, dst):
                got.append((datagram.payload, src, dst))
                if len(got) == 2:
                    socket.close()

            socket = b.open_udp(53, handler)
            datagrams = self._burst()
            if burst:
                a.raw_send_burst(datagrams)
            else:
                for index, datagram in enumerate(datagrams.datagrams):
                    a.raw_send(make_udp_packet(
                        "10.0.0.9", "10.0.0.2", datagram.sport,
                        datagram.dport, datagram.payload, ident=index))
            net.run()
            outcomes.append((got, errors, net.stats, a.stats, b.stats,
                             net.scheduler.executed))
        (got, errors, net_stats, a_stats, b_stats, burst_events), \
            (got_1, errors_1, net_stats_1, a_stats_1, b_stats_1,
             single_events) = outcomes
        assert got == got_1 == [(b"\x00" * 4, "10.0.0.9", "10.0.0.2"),
                                (b"\x01" * 4, "10.0.0.9", "10.0.0.2")]
        assert (net_stats, a_stats, b_stats) \
            == (net_stats_1, a_stats_1, b_stats_1)
        assert b_stats.udp_to_closed_port == 2
        assert b_stats.icmp_errors_sent == 2
        assert errors == errors_1 == [
            encode_ipv4(self._burst().packet(index))[:28]
            for index in (2, 3)]
        # Four datagrams in one event, two ICMP errors in one more.
        assert (burst_events, single_events) == (2, 6)

    def test_burst_falls_back_on_a_watched_fabric(self):
        net, a, b = two_hosts()
        b.open_udp(53)
        seen = []
        net.add_interceptor(lambda packet, origin: seen.append(packet))
        a.raw_send_burst(self._burst())
        net.run()
        assert net.scheduler.executed == 4
        assert b.stats.udp_delivered == 4
        assert seen == self._burst().packets()

    def test_burst_to_a_tapped_host_builds_the_packets(self):
        net, a, b = two_hosts()
        b.open_udp(53)
        tapped = []
        b.packet_tap = tapped.append
        a.raw_send_burst(self._burst())
        net.run()
        assert net.scheduler.executed == 1
        assert tapped == self._burst().packets()
        assert b.stats.received == b.stats.udp_delivered == 4

    def test_burst_for_a_foreign_destination_reaches_no_socket(self):
        # A hijack delivers someone else's traffic: the tap sees the
        # packets, sockets never do.
        _net, _a, b = two_hosts()
        got = []
        b.open_udp(53, lambda datagram, src, dst: got.append(datagram))
        tapped = []
        b.packet_tap = tapped.append
        burst = self._burst()
        foreign = UdpBurst("10.0.0.9", "10.0.0.3", burst.datagrams,
                           burst.idents)
        b.receive_burst(foreign)
        assert tapped == foreign.packets()
        assert got == []
        assert b.stats.received == 4
        assert b.stats.udp_delivered == 0

    def test_burst_spoofing_needs_permissive_network(self):
        net, _a, b = two_hosts()
        with pytest.raises(PermissionError):
            b.raw_send_burst(self._burst())
        assert b.stats.sent == 0
        assert net.stats.transmitted == 0

    @pytest.mark.parametrize("stop", [
        lambda index, end: index, lambda index, end: index - 1,
        lambda index, end: end + 1],
        ids=["no-progress", "backwards", "past-the-end"])
    def test_bad_sweep_handler_return_raises(self, stop):
        """A handler that takes nothing would spin the sweep loop
        forever, and one that claims datagrams past the end would
        over-count deliveries."""
        _net, _a, b = two_hosts()
        b.open_udp(40000).sweep_handler = \
            lambda sweep, index, src, dst: stop(index, len(sweep))
        with pytest.raises(ValueError, match="sweep handler"):
            b.receive_burst(_flood_chunk())
        assert b.stats.udp_delivered == 0


def _genuine_fragments(ident=7):
    """A datagram to b's port 53 at MTU 68: 48 bytes at offset 0 (MF),
    then the last 32 at byte offset 48."""
    return fragment_packet(make_udp_packet(
        "10.0.0.9", "10.0.0.2", 53, 53, bytes(range(72)), ident=ident), 68)


def _forged_spray(payload=None, idents=(3, 7, 9, 7), dst="10.0.0.2"):
    """Forged last fragments for ``idents``; ``payload`` defaults to the
    genuine one, so the datagram of ident 7 checks out."""
    last = _genuine_fragments()[1]
    return FragmentSpray("10.0.0.9", dst, last.frag_offset * 8,
                         payload if payload is not None else last.payload,
                         False, idents)


def _received_spray(lazy, spray, config=None, tap=False, first=True):
    """What b makes of ``spray``, taken as one burst (``lazy``) or as
    one packet per fragment, after the genuine first fragment of ident
    7 (``first``): its socket's and tap's deliveries, its stats, its
    reassembly cache and the log."""
    net, _a, b = two_hosts(config)
    got, tapped = [], []
    b.open_udp(53, lambda datagram, src, dst: got.append(datagram.payload))
    if first:
        b.receive(_genuine_fragments()[0])
    if tap:
        b.packet_tap = tapped.append
    if lazy:
        b.receive_burst(spray)
    else:
        for packet in spray.packets():
            b.receive(packet)
    cache = b.reassembly
    return (got, tapped, b.stats,
            [(key, partial.first_seen, partial.spans)
             for key, partial in cache._partials.items()],
            (cache.evictions, cache.timeouts, cache.reassembled),
            [(event.kind, event.detail) for event in net.log])


class TestFragmentSpray:
    def test_packets_are_what_one_raw_fragment_at_a_time_builds(self):
        spray = _forged_spray()
        assert spray.packets() == [spray.packet(i) for i in range(4)] == [
            Ipv4Packet(src="10.0.0.9", dst="10.0.0.2", proto=PROTO_UDP,
                       payload=spray.payload, ident=ident,
                       frag_offset=spray.frag_offset // 8)
            for ident in (3, 7, 9, 7)]

    @pytest.mark.parametrize("args", [
        (44, False, (1,)), (0x2000 * 8, False, (1,)), (0, False, (1,)),
        (48, False, (1, 0x10000)), (48, True, (-1,))],
        ids=["misaligned", "offset-out-of-range", "not-a-fragment",
             "ident-above-range", "negative-ident"])
    def test_bad_sprays_raise(self, args):
        offset, mf, idents = args
        with pytest.raises(ValueError):
            FragmentSpray("10.0.0.9", "10.0.0.2", offset, b"x" * 8, mf,
                          idents)

    def test_spray_is_one_event_with_the_per_packet_counters(self):
        outcomes = []
        for lazy in (True, False):
            net, a, b = two_hosts()
            b.receive(_genuine_fragments()[0])
            got = []
            b.open_udp(53, lambda datagram, src, dst: got.append(datagram))
            spray = _forged_spray(idents=tuple(range(64)))
            if lazy:
                a.raw_send_burst(spray)
            else:
                for packet in spray.packets():
                    a.raw_send(packet)
            net.run()
            outcomes.append((got, a.stats, b.stats, net.stats,
                             list(b.reassembly._partials),
                             net.scheduler.executed))
        assert outcomes[0][:-1] == outcomes[1][:-1]
        assert (outcomes[0][-1], outcomes[1][-1]) == (1, 64)
        got, _a_stats, b_stats = outcomes[0][:3]
        assert [datagram.payload for datagram in got] == [bytes(range(72))]
        assert (b_stats.received, b_stats.reassembled) == (65, 1)
        # Ident 7 left the cache complete; the other 63 forged
        # fragments wait.
        assert len(outcomes[0][4]) == 63

    @pytest.mark.parametrize("case", [
        "completes", "tapped", "checksum-fails", "fragment-filter"])
    def test_spray_matches_the_per_packet_path(self, case):
        spray = _forged_spray(b"\xee" * 32 if case == "checksum-fails"
                              else None)
        config = HostConfig(accept_fragments=False) \
            if case == "fragment-filter" else None
        lazy, single = (_received_spray(lazy, spray, config,
                                        tap=case == "tapped")
                        for lazy in (True, False))
        assert lazy == single
        got, tapped, stats, partials, counters, log = lazy
        assert stats.received == 5
        assert tapped == (spray.packets() if case == "tapped" else [])
        if case == "fragment-filter":
            assert (got, partials, counters) == ([], [], (0, 0, 0))
        elif case == "checksum-fails":
            assert got == []
            assert stats.checksum_drops == stats.reassembled == 1
            assert log == [("ip.checksum_drop",
                            "reassembled datagram failed checksum")]
        else:
            assert got == [bytes(range(72))]
            assert stats.checksum_drops == 0
            # Ident 7 completed; ident 7's repeat starts a new partial.
            assert [key[3] for key, _, _ in partials] == [3, 9, 7]

    def test_spray_to_a_diverted_destination_reaches_only_the_tap(self):
        spray = _forged_spray(dst="10.0.0.3")
        lazy, single = (_received_spray(lazy, spray, tap=True, first=False)
                        for lazy in (True, False))
        assert lazy == single
        got, tapped, stats, partials, counters, _log = lazy
        assert tapped == spray.packets()
        assert (got, partials, counters) == ([], [], (0, 0, 0))
        assert stats.received == 4


def _packet_path_send(host, src, sport, dst, dport, payload, df=False):
    """The send every UDP datagram took before lazy unicast: the packet
    is built up front and handed to the fragmenting transmit path."""
    host._transmit(make_udp_packet(src, dst, sport, dport, payload,
                                   ident=host.ipid.next_id(dst), df=df))


def _send(lazy, host, *args, **kwargs):
    if lazy:
        host.send_udp(*args, **kwargs)
    else:
        _packet_path_send(host, *args, **kwargs)


class TestLazySend:
    def test_clean_fabric_send_builds_no_packet(self, monkeypatch):
        net, a, b = two_hosts()
        got = []
        b.open_udp(53, lambda datagram, src, dst:
                   got.append((datagram.payload, src, dst)))
        built, bursts = [], []
        monkeypatch.setattr(Ipv4Packet, "__post_init__",
                            lambda packet: built.append(packet))
        deliver_burst = Network._deliver_burst
        monkeypatch.setattr(
            Network, "_deliver_burst",
            lambda net, burst, target: (bursts.append(burst),
                                        deliver_burst(net, burst, target)))
        a.send_udp("10.0.0.1", 1234, "10.0.0.2", 53, b"query", df=True)
        net.run()
        assert got == [(b"query", "10.0.0.1", "10.0.0.2")]
        assert built == []
        assert net.scheduler.executed == 1
        (burst,) = bursts
        assert burst.df and burst.datagrams == (UdpDatagram(1234, 53,
                                                            b"query"),)

    @pytest.mark.parametrize("df", [False, True])
    def test_closed_port_matches_the_packet_path(self, df):
        outcomes = []
        for lazy in (True, False):
            net, a, b = two_hosts()
            errors = []
            a.icmp_listener = \
                lambda message, src: errors.append(message.embedded)
            for port in (9, 10):
                _send(lazy, a, "10.0.0.1", 1234, "10.0.0.2", port,
                      b"payload", df=df)
            net.run()
            outcomes.append((errors, net.stats, a.stats, b.stats,
                             net.scheduler.executed))
        assert outcomes[0] == outcomes[1]
        errors, _net_stats, _a_stats, b_stats, _events = outcomes[0]
        assert b_stats.icmp_errors_sent == 2
        assert [bool(embedded[6] & 0x40) for embedded in errors] == [df, df]

    def test_oversize_sends_still_fragment(self):
        net, a, b = two_hosts()
        got = []
        b.open_udp(53, lambda datagram, src, dst:
                   got.append(datagram.payload))
        a.send_udp("10.0.0.1", 1234, "10.0.0.2", 53, b"x" * 1472)
        a.send_udp("10.0.0.1", 1234, "10.0.0.2", 53, b"y" * 1473)
        net.run()
        assert got == [b"x" * 1472, b"y" * 1473]
        # One datagram that just fits, two fragments for the other.
        assert a.stats.sent == net.stats.transmitted == 3
        assert b.stats.reassembled == 1

    @pytest.mark.parametrize("config", [
        {}, {"icmp_limit_randomized": True},
        {"respond_port_unreachable": False}],
        ids=["limited", "jitter", "silent"])
    def test_oversize_send_to_a_closed_port_draws_the_packet_path_error(
            self, config):
        """A fragmented datagram to a closed port is reassembled, and its
        error embeds the reassembled packet's headers, rebuilt from the
        datagram, as the packet ``make_udp_packet`` builds."""
        from repro.netsim.fragmentation import ReassemblyCache

        net, a, b = two_hosts(HostConfig(**config))
        fragments, errors = [], []
        b.packet_tap = fragments.append
        a.icmp_listener = lambda message, src: errors.append((message, src))
        rng_before = b.rng.getstate()
        payload = bytes(range(256)) * 8
        a.send_udp("10.0.0.1", 1234, "10.0.0.2", 9, payload)
        net.run()
        assert len(fragments) == 2
        ident = fragments[0].ident
        cache = ReassemblyCache()
        reassembled = [cache.add(fragment, 0.0) for fragment in fragments]
        silent = config.get("respond_port_unreachable") is False
        if silent:
            assert errors == []
        else:
            embedded = encode_ipv4(make_udp_packet(
                "10.0.0.1", "10.0.0.2", 1234, 9, payload,
                ident=ident))[:28]
            # What the per-packet path embedded: the reassembled packet.
            assert embedded == encode_ipv4(reassembled[-1])[:28]
            ((message, src),) = errors
            assert message.is_port_unreachable
            assert (message.embedded, src) == (embedded, "10.0.0.2")
        sent = 0 if silent else 1
        assert b.stats == HostStats(
            sent=sent, received=2, udp_to_closed_port=1,
            icmp_errors_sent=sent, reassembled=1)
        draws = DeterministicRNG("reference")
        draws.setstate(rng_before)
        if config.get("icmp_limit_randomized"):
            draws.randint(0, 5)
        assert b.rng.getstate() == draws.getstate()

    def test_oversize_df_sends_are_dropped(self):
        net, a, b = two_hosts()
        b.open_udp(53)
        a.send_udp("10.0.0.1", 1234, "10.0.0.2", 53, b"x" * 1473, df=True)
        net.run()
        assert a.stats.df_drops == 1
        assert a.stats.sent == net.stats.transmitted == 0
        assert b.stats.received == 0

    def _watched_world(self, fabric):
        from repro.bgp.hijack import HijackCampaign
        from repro.faults.inject import FaultInjector
        from repro.faults.spec import FaultPlan, ImpairmentSpec

        net, a, b = two_hosts()
        attacker = net.attach(Host("attacker", "10.0.1.6"))
        diverted = []
        attacker.packet_tap = \
            lambda packet: diverted.append((net.now, packet))
        campaign = None
        if fabric == "trace":
            net.trace_packets = True
        elif fabric == "hijack":
            campaign = HijackCampaign(
                net, attacker, "10.0.0.2/32",
                capture_filter=lambda packet: packet.udp is not None
                and packet.udp.dport == 53)
            campaign.start()
        else:
            net.set_fault_injector(FaultInjector(
                FaultPlan(impairments=(ImpairmentSpec(
                    dst="10.0.0.2", jitter=0.02, reorder=0.3,
                    duplicate=0.4),)),
                DeterministicRNG("faults")))
        return net, a, b, diverted, campaign

    @pytest.mark.parametrize("fabric", ["trace", "hijack", "faults"])
    def test_watched_fabric_matches_the_packet_path(self, fabric):
        outcomes = []
        for lazy in (True, False):
            net, a, b, diverted, campaign = self._watched_world(fabric)
            got = []
            for port in (53, 54):
                b.open_udp(port, lambda datagram, src, dst:
                           got.append((net.now, datagram.payload)))
            errors = []
            a.icmp_listener = \
                lambda message, src: errors.append(message.embedded)
            for index in range(12):
                _send(lazy, a, "10.0.0.1", 1234, "10.0.0.2",
                      (53, 54, 9)[index % 3], bytes([index]) * (index + 1),
                      df=index % 2 == 0)
            _send(lazy, a, "10.0.0.1", 1234, "10.0.0.2", 54, b"z" * 2000)
            net.run()
            log = [(event.time, event.actor, event.kind, event.detail)
                   for event in net.log]
            outcomes.append((got, errors, diverted, log, net.stats,
                             a.stats, b.stats, net.scheduler.executed,
                             campaign.diverted if campaign else None))
        assert outcomes[0] == outcomes[1]
        got, errors, diverted, log, net_stats, *_ = outcomes[0]
        assert got and errors
        if fabric == "trace":
            assert sum(kind == "net.tx" for _t, _a, kind, _d in log) \
                == net_stats.transmitted
        elif fabric == "hijack":
            assert len(diverted) == 4
            assert net_stats.intercepted == 4
        else:
            assert net_stats.faults_delayed and net_stats.faults_duplicated


def _closed_port_burst(df=False, count=6, dst="10.0.0.2"):
    """Datagrams from ``a`` to closed ports on ``b``, one source port per
    datagram so each error finds its own socket on ``a``."""
    return UdpBurst(
        "10.0.0.1", dst,
        tuple(UdpDatagram(5000 + i, 9000 + i, bytes([i]) * (3 + i))
              for i in range(count)),
        tuple(range(100, 100 + count)), df)


def _send_burst(lazy, host, burst):
    """The burst as one :meth:`Host.raw_send_burst`, or as the packets
    per-packet sends build (whose errors take the per-packet path)."""
    if lazy:
        host.raw_send_burst(burst)
    else:
        for packet in burst.packets():
            host.raw_send(packet)


class TestLazyIcmpErrors:
    def test_clean_fabric_without_listener_builds_no_error(
            self, monkeypatch):
        from repro.netsim import wire

        net, a, b = two_hosts()
        built = []
        monkeypatch.setattr(Ipv4Packet, "__post_init__",
                            lambda packet: built.append(packet))

        def refuse(*args, **kwargs):
            raise AssertionError("an ICMP error was built")

        monkeypatch.setattr(wire, "make_icmp_packet", refuse)
        monkeypatch.setattr(wire, "encode_icmp", refuse)
        monkeypatch.setattr("repro.netsim.host.make_icmp_packet", refuse)
        a.raw_send_burst(_closed_port_burst())
        net.run()
        assert built == []
        assert b.stats.icmp_errors_sent == b.stats.sent == 6
        assert a.stats.received == 6
        assert net.stats.transmitted == net.stats.delivered == 12
        assert net.stats.per_destination["10.0.0.1"] == 6
        # One event for the burst, one for its six errors.
        assert net.scheduler.executed == 2

    @pytest.mark.parametrize("df", [False, True])
    @pytest.mark.parametrize("dst", ["10.0.0.2", "10.0.0.3"],
                             ids=["primary", "secondary"])
    def test_listener_and_error_handler_see_the_packet_path_embeds(
            self, df, dst):
        outcomes = []
        for lazy in (True, False):
            net, a, b = two_hosts()
            net.add_address(b, "10.0.0.3")
            seen = []
            a.icmp_listener = \
                lambda message, src: seen.append(("listener", message, src))
            for sport in (5001, 5003, 5004):
                a.open_udp(sport).error_handler = \
                    lambda message, src, sport=sport: seen.append(
                        (sport, message, src))
            burst = _closed_port_burst(df, dst=dst)
            _send_burst(lazy, a, burst)
            net.run()
            outcomes.append((seen, net.stats, a.stats, b.stats))
        assert outcomes[0] == outcomes[1]
        seen = outcomes[0][0]
        assert [who for who, _message, _src in seen] == [
            "listener", 5001, "listener", "listener", 5003, "listener",
            5004, "listener", "listener"]
        listened = [message.embedded for who, message, _src in seen
                    if who == "listener"]
        assert listened == [encode_ipv4(packet)[:28]
                            for packet in burst.packets()]
        # Errors leave from the host's primary address, as send_icmp's do.
        assert {src for _who, _message, src in seen} == {"10.0.0.2"}
        assert all(bool(embedded[6] & 0x40) is df for embedded in listened)

    def test_tapped_recipient_gets_the_packets(self):
        outcomes = []
        for lazy in (True, False):
            net, a, b = two_hosts()
            tapped, seen = [], []
            a.packet_tap = tapped.append
            a.icmp_listener = lambda message, src: seen.append(message)
            _send_burst(lazy, a, _closed_port_burst())
            net.run()
            outcomes.append((tapped, seen, a.stats, b.stats))
        assert outcomes[0] == outcomes[1]
        tapped, seen, a_stats, _b_stats = outcomes[0]
        assert [packet.icmp for packet in tapped] == seen
        assert len(seen) == a_stats.received == 6

    def test_foreign_destination_reaches_only_the_tap(self):
        from repro.netsim.packet import IcmpErrorBurst

        _net, a, _b = two_hosts()
        seen, tapped = [], []
        a.icmp_listener = lambda message, src: seen.append(message)
        a.packet_tap = tapped.append
        offending = _closed_port_burst()
        foreign = UdpBurst("10.0.0.7", offending.dst, offending.datagrams,
                           offending.idents)
        errors = IcmpErrorBurst("10.0.0.2", foreign, tuple(range(6)))
        a.receive_burst(errors)
        assert tapped == errors.packets()
        assert [packet.dst for packet in tapped] == ["10.0.0.7"] * 6
        assert seen == []
        assert a.stats.received == 6

    @pytest.mark.parametrize("fabric",
                             ["trace", "loss", "interceptor", "faults"])
    def test_watched_fabric_matches_the_packet_path(self, fabric):
        from repro.faults.inject import FaultInjector
        from repro.faults.spec import FaultPlan, ImpairmentSpec

        outcomes = []
        for lazy in (True, False):
            net, a, b = two_hosts()
            claimed = []
            if fabric == "trace":
                net.trace_packets = True
            elif fabric == "loss":
                drop_packets(net, lambda packet: packet.icmp is not None
                             and packet.ident % 3 == 0)
            elif fabric == "interceptor":
                net.add_interceptor(lambda packet, origin:
                                    claimed.append(packet))
            else:
                net.set_fault_injector(FaultInjector(
                    FaultPlan(impairments=(ImpairmentSpec(
                        dst="10.0.0.1", jitter=0.02, reorder=0.3,
                        duplicate=0.4),)),
                    DeterministicRNG("faults")))
            seen = []
            a.icmp_listener = lambda message, src: seen.append(
                (net.now, message))
            for df in (False, True):
                _send_burst(lazy, a, _closed_port_burst(df))
            net.run()
            log = [(event.time, event.actor, event.kind, event.detail)
                   for event in net.log]
            outcomes.append((seen, claimed, log, net.stats, a.stats,
                             b.stats, net.scheduler.executed))
        assert outcomes[0] == outcomes[1]
        seen, _claimed, log, net_stats, *_ = outcomes[0]
        assert seen
        if fabric == "trace":
            assert sum(kind == "net.tx" for _t, _a, kind, _d in log) == 24
        elif fabric == "loss":
            assert len(seen) < 12
        elif fabric == "faults":
            assert net_stats.faults_delayed and net_stats.faults_duplicated

    @pytest.mark.parametrize("policy",
                             ["global", "per-destination", "random"])
    def test_rate_limit_jitter_and_ipids_match_the_packet_path(
            self, policy):
        outcomes = []
        for lazy in (True, False):
            net, a, b = two_hosts(HostConfig(icmp_limit_randomized=True,
                                             ipid_policy=policy))
            idents = []
            a.packet_tap = lambda packet: idents.append(packet.ident)
            burst = _closed_port_burst(count=40)
            for _ in range(3):
                _send_burst(lazy, a, burst)
                net.run()
            outcomes.append((
                idents, b.stats, b.rng.getstate(),
                [b.ipid.next_id(dst)
                 for dst in ("10.0.0.1", "10.0.0.7", "10.0.0.1")]))
        assert outcomes[0] == outcomes[1]
        b_stats = outcomes[0][1]
        assert b_stats.icmp_errors_sent and b_stats.icmp_errors_suppressed
        assert b_stats.icmp_errors_sent + b_stats.icmp_errors_suppressed \
            == b_stats.udp_to_closed_port == 120

    @pytest.mark.parametrize("kind", ["ports", "txids-closed",
                                      "txids-closed-by-handler"])
    @pytest.mark.parametrize("config", [
        {}, {"icmp_limit_randomized": True, "ipid_policy": "global"},
        {"icmp_limit_randomized": True},
        {"icmp_limit_randomized": True, "ipid_policy": "random"},
        {"icmp_rate_limited": False}, {"respond_port_unreachable": False}],
        ids=["limited", "jitter-global", "jitter-per-destination",
             "jitter-random", "unlimited", "silent"])
    def test_sweep_closed_runs_match_the_packet_path(self, kind, config):
        """A sweep's closed-port runs are counted and rate limited in
        bulk: the same tokens, jitter draws, IP idents, counters and
        errors, in the same order around the handlers, as per-packet
        receives.  A port sweep's runs end at each open port; a TXID
        sweep's one port closes under its handler mid-sweep."""
        if kind == "ports":
            ports = (*range(9000, 9030), 53, *range(9030, 9060), 54, 9060)
            sweep = PortSweep(5000, ports, b"\x00\x00probe")
        else:
            sweep = TxidSweep(5000, 53 if kind.endswith("handler") else 9,
                              range(100, 163), _flood_tail())
        outcomes = []
        for lazy in (True, False):
            net, a, b = two_hosts(HostConfig(**config))
            seen = []

            def handler(datagram, src, dst, b=b, net=net, seen=seen):
                seen.append(("handler", net.now, datagram))
                if datagram.payload[:2] == (102).to_bytes(2, "big"):
                    b._sockets[datagram.dport].close()

            for port in (53, 54):
                b.open_udp(port, handler)
            a.icmp_listener = lambda message, src, net=net, seen=seen: \
                seen.append(("error", net.now, message))
            a.open_udp(5000).error_handler = \
                lambda message, src, net=net, seen=seen: seen.append(
                    ("socket", net.now, message))
            burst = UdpBurst("10.0.0.1", "10.0.0.2", sweep,
                             tuple(range(len(sweep))))
            for _ in range(3):
                _send_burst(lazy, a, burst)
                net.run()
                for port in (53, 54):
                    if port not in b.open_ports():
                        b.open_udp(port, handler)
            bucket = b._icmp_bucket
            outcomes.append((
                seen, net.stats, a.stats, b.stats, b.rng.getstate(),
                None if bucket is None else vars(bucket),
                [b.ipid.next_id(dst)
                 for dst in ("10.0.0.1", "10.0.0.7", "10.0.0.1")]))
        assert outcomes[0] == outcomes[1]
        b_stats = outcomes[0][3]
        closed = {"ports": 61, "txids-closed": 63,
                  "txids-closed-by-handler": 60}[kind]
        assert b_stats.udp_to_closed_port == 3 * closed
        assert b_stats.icmp_errors_sent + b_stats.icmp_errors_suppressed \
            == (0 if config.get("respond_port_unreachable") is False
                else 3 * closed)
        if config in ({}, {"icmp_limit_randomized": True}):
            assert b_stats.icmp_errors_sent and b_stats.icmp_errors_suppressed

    def test_open_port_handler_events_keep_the_packet_path_order(self):
        self._check_open_port_handler_event_order(
            (UdpDatagram(5000, 9), UdpDatagram(5001, 53),
             UdpDatagram(5002, 11), UdpDatagram(5003, 10)))

    def test_port_sweep_open_port_handler_events_keep_the_packet_path_order(
            self):
        self._check_open_port_handler_event_order(
            PortSweep(5000, (9, 53, 11, 10), b""))

    @staticmethod
    def _check_open_port_handler_event_order(datagrams):
        outcomes = []
        for lazy in (True, False):
            net, a, b = two_hosts()
            order = []
            a.icmp_listener = lambda message, src: order.append(
                ("error", message.embedded[20:24]))
            latency = net.latency_between("10.0.0.2", "10.0.0.1")

            def handler(datagram, src, dst):
                # Same instant as the errors' delivery, and right now.
                net.scheduler.schedule(latency, order.append, "handler")
                net.scheduler.schedule(0.0, order.append, "now")

            b.open_udp(53, handler)
            burst = UdpBurst("10.0.0.1", "10.0.0.2", datagrams, (1, 2, 3, 4))
            _send_burst(lazy, a, burst)
            net.run()
            outcomes.append((order, net.stats, a.stats, b.stats))
        assert outcomes[0] == outcomes[1]

        def error(index):
            datagram = datagrams[index]
            return ("error", datagram.sport.to_bytes(2, "big")
                    + datagram.dport.to_bytes(2, "big"))

        assert outcomes[0][0] == [
            "now", error(0), "handler", error(2), error(3)]
