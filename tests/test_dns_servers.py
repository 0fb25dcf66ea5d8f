"""Tests for the authoritative nameserver, zones, and forwarders."""

import pytest

from repro.dns.message import (
    RCODE_NOERROR,
    RCODE_NOTIMP,
    RCODE_NXDOMAIN,
    RCODE_REFUSED,
    make_query,
)
from repro.dns.nameserver import AuthoritativeServer, NameserverConfig
from repro.dns.forwarder import Forwarder
from repro.dns.records import (
    QTYPE_ANY,
    TYPE_A,
    TYPE_MX,
    TYPE_NS,
    TYPE_RRSIG,
    TYPE_SOA,
    rr_a,
    rr_mx,
    rr_ns,
    rr_txt,
)
from repro.dns.stub import StubResolver
from repro.dns.zones import Zone, ZoneSet
from repro.dns.wire import decode_message, encode_message
from repro.netsim.host import Host
from repro.netsim.network import Network
from repro.testbed import Testbed


class TestZone:
    def make_zone(self) -> Zone:
        zone = Zone("vict.im")
        zone.add(rr_ns("vict.im", "ns1.vict.im"))
        zone.add(rr_a("ns1.vict.im", "123.0.0.53"))
        zone.add(rr_a("vict.im", "123.0.0.80"))
        zone.add(rr_ns("child.vict.im", "ns1.child.vict.im"))
        zone.add(rr_a("ns1.child.vict.im", "123.0.0.54"))
        return zone

    def test_soa_auto_added(self):
        assert any(r.rtype == TYPE_SOA for r in Zone("vict.im").records)

    def test_lookup_by_type(self):
        zone = self.make_zone()
        assert [r.data for r in zone.lookup("vict.im", TYPE_A)] \
            == ["123.0.0.80"]

    def test_lookup_any_returns_everything(self):
        zone = self.make_zone()
        types = {r.rtype for r in zone.lookup("vict.im", QTYPE_ANY)}
        assert TYPE_A in types and TYPE_NS in types

    def test_out_of_zone_record_rejected(self):
        with pytest.raises(ValueError):
            Zone("vict.im").add(rr_a("other.example", "1.1.1.1"))

    def test_out_of_zone_constructor_record_rejected(self):
        with pytest.raises(ValueError, match="outside zone"):
            Zone("vict.im", records=[rr_a("www.vict.im", "1.1.1.1"),
                                     rr_a("evilvict.im", "6.6.6.6")])
        # The root zone holds every name.
        assert Zone("", records=[rr_a("other.example", "1.1.1.1")]) \
            .has_name("other.example")

    def test_delegation_detected(self):
        zone = self.make_zone()
        delegation = zone.delegation_for("www.child.vict.im")
        assert delegation is not None
        child, ns_records = delegation
        assert child == "child.vict.im"
        assert len(ns_records) == 1

    def test_apex_is_not_delegation(self):
        zone = self.make_zone()
        assert zone.delegation_for("vict.im") is None

    def test_signed_zone_attaches_rrsig_with_digest(self):
        zone = Zone("signed.im", signed=True)
        zone.add(rr_a("signed.im", "1.2.3.4"))
        records = zone.lookup("signed.im", TYPE_A)
        sigs = [r for r in records if r.rtype == TYPE_RRSIG]
        assert len(sigs) == 1
        covered, signer, valid, digest = sigs[0].data
        assert covered == TYPE_A and valid and digest

    def test_zoneset_deepest_match(self):
        zones = ZoneSet()
        parent = Zone("im")
        child = Zone("vict.im")
        zones.add(parent)
        zones.add(child)
        assert zones.zone_for("www.vict.im") is child
        assert zones.zone_for("other.im") is parent
        assert zones.zone_for("example.com") is None

    def test_zoneset_duplicate_rejected(self):
        zones = ZoneSet()
        zones.add(Zone("vict.im"))
        with pytest.raises(ValueError):
            zones.add(Zone("vict.im"))


def direct_query(net, server_host, query, src_host):
    """Fire a raw DNS query at a server and capture the response."""
    responses = []

    def on_reply(datagram, src, dst):
        responses.append(decode_message(datagram.payload))

    socket = src_host.open_udp(None, on_reply)
    socket.sendto(server_host.address, 53, encode_message(query))
    net.run()
    socket.close()
    return responses


class TestAuthoritativeServer:
    def setup_server(self, config=None):
        net = Network()
        server_host = net.attach(Host("ns", "123.0.0.53"))
        client_host = net.attach(Host("client", "10.0.0.1"))
        server = AuthoritativeServer(server_host, config=config)
        zone = Zone("vict.im")
        zone.add(rr_a("vict.im", "123.0.0.80"))
        zone.add(rr_mx("vict.im", 10, "mail.vict.im"))
        zone.add(rr_txt("vict.im", "v=spf1 -all"))
        server.add_zone(zone)
        return net, server, server_host, client_host

    def test_authoritative_answer(self):
        net, server, server_host, client = self.setup_server()
        responses = direct_query(
            net, server_host, make_query("vict.im", TYPE_A, 7), client)
        assert len(responses) == 1
        assert responses[0].authoritative
        assert responses[0].answers[0].data == "123.0.0.80"
        assert responses[0].txid == 7

    def test_nxdomain_with_soa(self):
        net, server, server_host, client = self.setup_server()
        responses = direct_query(
            net, server_host, make_query("nope.vict.im", TYPE_A, 1), client)
        assert responses[0].rcode == RCODE_NXDOMAIN
        assert any(r.rtype == TYPE_SOA for r in responses[0].authority)

    def test_refused_outside_zones(self):
        net, server, server_host, client = self.setup_server()
        responses = direct_query(
            net, server_host, make_query("other.example", TYPE_A, 1),
            client)
        assert responses[0].rcode == RCODE_REFUSED

    def test_any_refused_when_unsupported(self):
        net, server, server_host, client = self.setup_server(
            NameserverConfig(supports_any=False))
        responses = direct_query(
            net, server_host, make_query("vict.im", QTYPE_ANY, 1), client)
        assert responses[0].rcode == RCODE_NOTIMP

    def test_any_returns_all_types(self):
        net, server, server_host, client = self.setup_server()
        responses = direct_query(
            net, server_host, make_query("vict.im", QTYPE_ANY, 1), client)
        types = {r.rtype for r in responses[0].answers}
        assert {TYPE_A, TYPE_MX} <= types

    def test_rrl_mutes_under_flood(self):
        net, server, server_host, client = self.setup_server(
            NameserverConfig(rrl_enabled=True, rrl_rate=5, rrl_burst=10))
        query = make_query("vict.im", TYPE_A, 2)
        responses = []

        def on_reply(datagram, src, dst):
            responses.append(1)

        socket = client.open_udp(None, on_reply)
        for _ in range(100):
            socket.sendto("123.0.0.53", 53, encode_message(query))
        net.run()
        assert len(responses) <= 11
        assert server.stats.rate_limited >= 89
        assert server.is_muted(net.now)

    def test_truncation_for_small_edns(self):
        net, server, server_host, client = self.setup_server(
            NameserverConfig(pad_txt_to=700))
        query = make_query("vict.im", TYPE_A, 3, edns_udp_size=512)
        responses = direct_query(net, server_host, query, client)
        assert responses[0].truncated
        assert responses[0].answers == []

    def test_tcp_fallback_serves_full_answer(self):
        net, server, server_host, client = self.setup_server()
        got = []
        net.stream_request(
            client, "123.0.0.53", 53,
            encode_message(make_query("vict.im", TYPE_A, 4)),
            lambda data: got.append(decode_message(data)),
        )
        net.run()
        assert got[0].answers[0].data == "123.0.0.80"

    def test_response_randomisation_changes_bytes(self):
        net, server, server_host, client = self.setup_server(
            NameserverConfig(randomize_record_order=True))
        zone = server.zones.zone_for("vict.im")
        for index in range(3):
            zone.add(rr_a("multi.vict.im", f"123.0.0.{90 + index}"))
        blobs = set()
        for txid in range(8):
            response = server.build_response(
                make_query("multi.vict.im", TYPE_A, 0))
            blobs.add(encode_message(response))
        assert len(blobs) > 1


class TestForwarder:
    def test_forwarder_relays_and_caches(self):
        bed = Testbed(seed="fwd")
        bed.add_domain("vict.im", "123.0.0.53",
                       records=[rr_a("vict.im", "123.0.0.80")])
        upstream = bed.make_resolver("30.0.0.1")
        upstream.config.open_to_world = True
        fwd_host = bed.make_host("fwd", "80.0.0.1")
        forwarder = Forwarder(fwd_host, upstream="30.0.0.1")
        client = bed.make_host("client", "99.0.0.2")
        stub = StubResolver(client, "80.0.0.1")
        answer = stub.lookup("vict.im", "A")
        assert answer.ok and answer.addresses() == ["123.0.0.80"]
        assert forwarder.stats.forwarded == 1
        # Second query served from the forwarder's own cache.
        answer2 = stub.lookup("vict.im", "A")
        assert answer2.ok
        assert forwarder.stats.answered_from_cache == 1
        assert forwarder.stats.forwarded == 1
