"""Tests for the DNS message model, stub resolver, records and presets."""

import pytest

from repro.core.errors import ResolutionError
from repro.dns.impls import (
    ALL_IMPLEMENTATIONS,
    BIND_9_14,
    UNBOUND_1_9,
)
from repro.dns.message import DnsMessage, Question, make_query
from repro.dns.records import (
    ResourceRecord,
    TYPE_A,
    group_rrsets,
    rr_a,
    rr_mx,
    rrset_digest,
    type_code,
    type_name,
)
from repro.dns.stub import StubResolver
from repro.testbed import Testbed


class TestMessageModel:
    def test_reply_skeleton_echoes_challenges(self):
        query = make_query("WwW.vIcT.iM", TYPE_A, txid=0xBEEF,
                           edns_udp_size=1232)
        reply = query.reply_skeleton()
        assert reply.is_response
        assert reply.txid == 0xBEEF
        assert reply.question.name == "WwW.vIcT.iM"
        assert reply.edns_udp_size == 1232

    def test_with_txid_copies(self):
        message = make_query("vict.im", TYPE_A, txid=1)
        other = message.with_txid(2)
        assert other.txid == 2 and message.txid == 1
        other.questions.append(Question("x.im", TYPE_A))
        assert len(message.questions) == 1

    def test_txid_range_enforced(self):
        with pytest.raises(ValueError):
            DnsMessage(txid=0x10000)

    def test_describe_mentions_question(self):
        text = make_query("vict.im", TYPE_A, txid=3).describe()
        assert "vict.im/A" in text


class TestRecordHelpers:
    def test_type_name_roundtrip(self):
        for code in (1, 2, 5, 6, 15, 16, 33, 35, 255):
            assert type_code(type_name(code)) == code

    def test_unknown_type_notation(self):
        assert type_name(9999) == "TYPE9999"
        assert type_code("TYPE9999") == 9999
        with pytest.raises(ValueError):
            type_code("NOPE")

    def test_negative_ttl_rejected(self):
        with pytest.raises(ValueError):
            ResourceRecord("a.im", TYPE_A, -1, "1.2.3.4")

    def test_group_rrsets_preserves_order(self):
        records = [rr_a("a.im", "1.1.1.1"), rr_mx("a.im", 10, "m.a.im"),
                   rr_a("a.im", "1.1.1.2")]
        sets = group_rrsets(records)
        assert [s.rtype for s in sets] == [TYPE_A, 15]
        assert len(sets[0].records) == 2

    def test_rrset_digest_is_content_sensitive(self):
        a = [rr_a("a.im", "1.1.1.1")]
        b = [rr_a("a.im", "6.6.6.6")]
        assert rrset_digest(a) != rrset_digest(b)
        # ... but order-insensitive (canonical form).
        pair = [rr_a("a.im", "1.1.1.1"), rr_a("a.im", "2.2.2.2")]
        assert rrset_digest(pair) == rrset_digest(list(reversed(pair)))


class TestStubResolver:
    def build(self):
        bed = Testbed(seed="stub-tests")
        bed.add_domain("vict.im", "123.0.0.53",
                       records=[rr_a("vict.im", "123.0.0.80")])
        bed.make_resolver("30.0.0.1")
        client = bed.make_host("client", "30.0.0.50")
        return bed, StubResolver(client, "30.0.0.1")

    def test_lookup_with_string_qtype(self):
        _bed, stub = self.build()
        assert stub.lookup("vict.im", "A").first_address() == "123.0.0.80"

    def test_raise_on_error(self):
        _bed, stub = self.build()
        with pytest.raises(ResolutionError):
            stub.lookup("missing.vict.im", "A", raise_on_error=True)

    def test_timeout_against_dead_resolver(self):
        bed = Testbed(seed="stub-dead")
        client = bed.make_host("client", "30.0.0.50")
        stub = StubResolver(client, "30.0.0.99", timeout=0.5, attempts=1)
        answer = stub.lookup("vict.im", "A")
        assert not answer.ok

    def test_requires_a_resolver(self):
        bed = Testbed(seed="stub-none")
        client = bed.make_host("client", "30.0.0.50")
        with pytest.raises(ValueError):
            StubResolver(client, [])


class TestImplementationPresets:
    def test_all_presets_build_configs(self):
        for profile in ALL_IMPLEMENTATIONS:
            config = profile.make_config()
            assert config.any_caching == profile.any_caching

    def test_vulnerability_property(self):
        assert BIND_9_14.vulnerable_to_any_poisoning
        assert not UNBOUND_1_9.vulnerable_to_any_poisoning

    def test_config_overrides(self):
        config = BIND_9_14.make_config(open_to_world=True, timeout=9.0)
        assert config.open_to_world and config.timeout == 9.0

    def test_config_overrides_name_real_fields(self):
        config = BIND_9_14.make_config(edns_udp_size=512)
        assert config.edns_udp_size == 512
        with pytest.raises(TypeError):
            BIND_9_14.make_config(no_such_field=False)
