"""Tests for the recursive resolver: iterative resolution and defences."""

from dataclasses import replace

import pytest

from repro.dns.message import (
    RCODE_NOERROR,
    RCODE_NXDOMAIN,
    RCODE_REFUSED,
    make_query,
)
from repro.dns.records import TYPE_A, TYPE_CNAME, TYPE_MX, rr_a, rr_cname
from repro.dns.resolver import ResolverConfig, _Resolution
from repro.dns.stub import StubResolver
from repro.dns.wire import encode_message
from repro.testbed import Testbed, default_resolver_config


def build_bed(resolver_config=None, seed="resolver-tests"):
    bed = Testbed(seed=seed)
    bed.add_domain("vict.im", "123.0.0.53", records=[
        rr_a("vict.im", "123.0.0.80"),
        rr_cname("www.vict.im", "vict.im"),
        rr_a("multi.vict.im", "123.0.0.81"),
        rr_a("multi.vict.im", "123.0.0.82"),
    ])
    resolver = bed.make_resolver("30.0.0.1", config=resolver_config)
    client = bed.make_host("client", "30.0.0.50")
    stub = StubResolver(client, "30.0.0.1")
    return bed, resolver, stub


class TestIterativeResolution:
    def test_full_chain_resolves(self):
        bed, resolver, stub = build_bed()
        answer = stub.lookup("vict.im", "A")
        assert answer.ok
        assert answer.addresses() == ["123.0.0.80"]
        # Root, TLD and authoritative: three upstream queries.
        assert resolver.stats.upstream_queries == 3

    def test_second_lookup_from_cache(self):
        bed, resolver, stub = build_bed()
        stub.lookup("vict.im", "A")
        before = resolver.stats.upstream_queries
        answer = stub.lookup("vict.im", "A")
        assert answer.ok
        assert resolver.stats.upstream_queries == before
        assert resolver.stats.cache_answers >= 1

    def test_cname_chain_followed(self):
        bed, resolver, stub = build_bed()
        answer = stub.lookup("www.vict.im", "A")
        assert answer.ok
        assert "123.0.0.80" in answer.addresses()
        assert any(r.rtype == TYPE_CNAME for r in answer.records)

    def test_nxdomain(self):
        bed, resolver, stub = build_bed()
        answer = stub.lookup("missing.vict.im", "A")
        assert answer.rcode == RCODE_NXDOMAIN

    def test_nodata_for_wrong_type(self):
        bed, resolver, stub = build_bed()
        answer = stub.lookup("vict.im", TYPE_MX)
        assert answer.rcode == RCODE_NOERROR
        assert answer.records == []

    def test_multiple_records_returned(self):
        bed, resolver, stub = build_bed()
        answer = stub.lookup("multi.vict.im", "A")
        assert sorted(answer.addresses()) == ["123.0.0.81", "123.0.0.82"]

    def test_unknown_tld_servfail_or_nxdomain(self):
        bed, resolver, stub = build_bed()
        answer = stub.lookup("host.unknowntld", "A")
        assert not answer.ok or answer.records == []


class TestAclAndService:
    def test_external_client_refused(self):
        bed, resolver, stub = build_bed()
        outsider = bed.make_host("outsider", "99.0.0.1")
        outsider_stub = StubResolver(outsider, "30.0.0.1")
        answer = outsider_stub.lookup("vict.im", "A")
        assert not answer.ok
        assert resolver.stats.client_refused >= 1

    def test_open_resolver_serves_everyone(self):
        bed, resolver, stub = build_bed(
            ResolverConfig(open_to_world=True))
        outsider = bed.make_host("outsider", "99.0.0.1")
        outsider_stub = StubResolver(outsider, "30.0.0.1")
        assert outsider_stub.lookup("vict.im", "A").ok

    def test_acl_follows_config_changes(self):
        # The ACL verdict is memoised; a config change between two
        # queries must still flip it, both ways.
        bed, resolver, stub = build_bed()
        outsider = bed.make_host("outsider", "99.0.0.1")
        outsider_stub = StubResolver(outsider, "30.0.0.1")
        config = resolver.config

        def served() -> bool:
            answer = outsider_stub.lookup("vict.im", "A")
            assert answer.ok or answer.rcode == RCODE_REFUSED
            return answer.ok

        assert not served()
        config.allowed_clients = ["30.0.0.0/24", "99.0.0.0/24"]
        assert served()
        config.allowed_clients = ["30.0.0.0/24"]
        assert not served()
        config.allowed_clients.append("99.0.0.0/8")
        assert served()
        config.allowed_clients.pop()
        assert not served()
        config.open_to_world = True
        assert served()
        config.open_to_world = False
        assert not served()
        assert resolver.stats.client_refused == 4


class TestCodecErrors:
    def test_codec_bug_propagates_instead_of_dropping(self, monkeypatch):
        # Only WireFormatError means "malformed packet, drop it"; any
        # other exception from the codec is a bug and must surface.
        bed, resolver, stub = build_bed()

        def broken_decode(data):
            raise RuntimeError("codec bug")

        monkeypatch.setattr("repro.dns.resolver.decode_message",
                            broken_decode)
        with pytest.raises(RuntimeError, match="codec bug"):
            stub.lookup("vict.im", "A")


class TestChallengeValidation:
    def test_wrong_source_ignored(self):
        """Responses from addresses we did not query are dropped."""
        bed, resolver, stub = build_bed()
        evil = bed.make_host("evil", "6.6.6.6", spoofing=True)

        from repro.netsim.wire import make_udp_packet

        def flood_wrong_source(datagram, src, dst):
            pass

        # Kick off a resolution, then inject a response from a wrong IP
        # with every txid; it must never be accepted.
        resolver_host = resolver.host
        results = []
        resolver.resolve("vict.im", TYPE_A, results.append)
        # The query socket opens synchronously; flood it before the
        # genuine root response (due at ~20ms) lands.
        open_ports = resolver_host.open_ports() - {53}
        assert open_ports
        port = next(iter(open_ports))
        from repro.attacks.base import OffPathAttacker

        attacker = OffPathAttacker(evil)
        for txid in range(0, 0x10000, 256):
            response = attacker.forge_response(
                "vict.im", TYPE_A, txid, [rr_a("vict.im", "6.6.6.6")])
            attacker.spoof_udp("9.9.9.9", 53, "30.0.0.1", port,
                               encode_message(response))
        bed.run()
        assert results and results[0].ok
        assert results[0].addresses() == ["123.0.0.80"]
        assert resolver.stats.rejected_responses > 0

    @staticmethod
    def _outstanding(bed, resolver):
        """Start a lookup; returns (results, query task, its port)."""
        results = []
        resolver.resolve("vict.im", TYPE_A, results.append)
        task = resolver._inflight[("vict.im", TYPE_A)]
        return results, task, task.socket.port

    def test_wrong_txid_ignored(self):
        """Forged answers from the queried server with every wrong TXID
        in a sample are rejected on the header; the genuine answer
        (due after them) still wins."""
        from repro.attacks.base import OffPathAttacker

        bed, resolver, _stub = build_bed()
        attacker = OffPathAttacker(
            bed.make_host("evil", "6.6.6.6", spoofing=True))
        results, task, port = self._outstanding(bed, resolver)
        wrong = [task.txid ^ (1 << bit) for bit in range(16)]
        for txid in wrong:
            forged = attacker.forge_response(
                "vict.im", TYPE_A, txid, [rr_a("vict.im", "6.6.6.6")])
            attacker.spoof_dns(task.current_server, "30.0.0.1", port,
                               forged)
        bed.run()
        assert results and results[0].addresses() == ["123.0.0.80"]
        stats = resolver.stats
        assert stats.rejected_txid == len(wrong)
        assert stats.rejected_responses == len(wrong)
        assert (stats.rejected_source, stats.rejected_question,
                stats.rejected_case) == (0, 0, 0)

    def test_short_datagrams_dropped_uncounted(self):
        """0-, 1- and 11-byte datagrams (the last one with the right
        TXID, so it gets past the header checks) are dropped without an
        exception and without counting a reject."""
        from repro.attacks.base import OffPathAttacker

        bed, resolver, _stub = build_bed()
        attacker = OffPathAttacker(
            bed.make_host("evil", "6.6.6.6", spoofing=True))
        results, task, port = self._outstanding(bed, resolver)
        eleven = task.txid.to_bytes(2, "big") + bytes(9)
        for payload in (b"", b"\x00", eleven):
            attacker.spoof_udp(task.current_server, 53, "30.0.0.1", port,
                               payload)
            attacker.spoof_udp("9.9.9.9", 53, "30.0.0.1", port, payload)
        bed.run()
        assert results and results[0].addresses() == ["123.0.0.80"]
        assert resolver.stats.rejected_responses == 0

    def test_0x20_case_mismatch_rejected(self):
        """With 0x20 on, a lowercase echo must be rejected."""
        bed, resolver, stub = build_bed(
            ResolverConfig(allowed_clients=["30.0.0.0/24"], use_0x20=True))
        answer = stub.lookup("vict.im", "A")
        # The genuine server echoes the exact case, so resolution works.
        assert answer.ok and answer.addresses() == ["123.0.0.80"]


class TestDeduplication:
    def test_inflight_queries_join(self):
        bed, resolver, _stub = build_bed()
        results = []
        resolver.resolve("vict.im", TYPE_A, results.append)
        resolver.resolve("vict.im", TYPE_A, results.append)
        assert resolver.inflight_count() == 1
        bed.run()
        assert len(results) == 2
        assert all(r.ok for r in results)


class TestPortPolicy:
    def test_random_ports_differ_across_resolutions(self):
        bed, resolver, stub = build_bed()
        ports = set()

        original_open = resolver.host.open_udp

        def spy_open(port=None, handler=None, local_ip=None):
            socket = original_open(port, handler, local_ip)
            if port is None:
                ports.add(socket.port)
            return socket

        resolver.host.open_udp = spy_open
        stub.lookup("vict.im", "A")
        stub.lookup("multi.vict.im", "A")
        assert len(ports) >= 2


class TestTruncation:
    """An answer too big for the UDP buffer is re-asked over TCP."""

    ADDRESSES = [f"123.0.1.{i}" for i in range(1, 41)]

    def lookup_big_apex(self, monkeypatch, edns_udp_size):
        bed = Testbed(seed="resolver-tests")
        # 40 A records: more than the 512 bytes plain DNS carries.
        bed.add_domain("big.im", "123.0.0.53", records=[
            rr_a("big.im", address) for address in self.ADDRESSES])
        resolver = bed.make_resolver("30.0.0.1", config=replace(
            default_resolver_config(), edns_udp_size=edns_udp_size))
        stub = StubResolver(bed.make_host("client", "30.0.0.50"),
                            "30.0.0.1")
        retries = []
        retry = _Resolution._retry_over_tcp

        def counted(resolution):
            retries.append(resolution.current_server)
            return retry(resolution)

        monkeypatch.setattr(_Resolution, "_retry_over_tcp", counted)
        return resolver, stub.lookup("big.im", "A"), retries

    def test_truncated_answer_retried_over_tcp(self, monkeypatch):
        resolver, answer, retries = self.lookup_big_apex(monkeypatch, None)
        assert retries == ["123.0.0.53"]
        assert answer.ok
        assert sorted(answer.addresses()) == sorted(self.ADDRESSES)
        # Root, TLD, the truncated UDP answer and the TCP retry.
        assert resolver.stats.upstream_queries == 4

    def test_edns_buffer_avoids_the_retry(self, monkeypatch):
        resolver, answer, retries = self.lookup_big_apex(monkeypatch, 4096)
        assert retries == []
        assert sorted(answer.addresses()) == sorted(self.ADDRESSES)
        assert resolver.stats.upstream_queries == 3


class TestDnssecValidation:
    def test_signed_domain_resolves_when_genuine(self):
        bed = Testbed(seed="dnssec-ok")
        bed.add_domain("signed.im", "123.0.1.53",
                       records=[rr_a("signed.im", "123.0.1.80")],
                       signed=True)
        resolver = bed.make_resolver("30.0.0.1", config=ResolverConfig(
            allowed_clients=["30.0.0.0/24"], validates_dnssec=True))
        client = bed.make_host("client", "30.0.0.50")
        stub = StubResolver(client, "30.0.0.1")
        answer = stub.lookup("signed.im", "A")
        assert answer.ok
        assert "123.0.1.80" in answer.addresses()
