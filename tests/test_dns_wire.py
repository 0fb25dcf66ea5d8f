"""Round-trip and robustness tests for the DNS wire format."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.errors import WireFormatError
from repro.dns.message import DnsMessage, Question, make_query
from repro.dns.records import (
    QTYPE_ANY,
    TYPE_A,
    TYPE_CNAME,
    TYPE_MX,
    TYPE_NAPTR,
    TYPE_NS,
    TYPE_SOA,
    TYPE_SRV,
    TYPE_TXT,
    rr_a,
    rr_cname,
    rr_ipseckey,
    rr_mx,
    rr_naptr,
    rr_ns,
    rr_rrsig,
    rr_soa,
    rr_srv,
    rr_txt,
)
from repro.dns.wire import (
    decode_message,
    encode_message,
    response_size,
    well_formed,
)

label = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789",
                min_size=1, max_size=12)
hostname = st.lists(label, min_size=1, max_size=4).map(".".join)


def roundtrip(message: DnsMessage) -> DnsMessage:
    return decode_message(encode_message(message))


class TestHeaderRoundtrip:
    @given(st.integers(min_value=0, max_value=0xFFFF),
           st.booleans(), st.booleans(), st.booleans(),
           st.integers(min_value=0, max_value=5))
    def test_flags(self, txid, aa, tc, rd, rcode):
        message = DnsMessage(txid=txid, is_response=True, authoritative=aa,
                             truncated=tc, recursion_desired=rd,
                             rcode=rcode, edns_udp_size=None)
        decoded = roundtrip(message)
        assert decoded.txid == txid
        assert decoded.authoritative == aa
        assert decoded.truncated == tc
        assert decoded.recursion_desired == rd
        assert decoded.rcode == rcode

    def test_query_roundtrip(self):
        query = make_query("www.vict.im", TYPE_A, txid=0x1234)
        decoded = roundtrip(query)
        assert not decoded.is_response
        assert decoded.question == Question("www.vict.im", TYPE_A)
        assert decoded.edns_udp_size == 4096

    def test_question_case_preserved(self):
        """0x20 encoding depends on exact case round-tripping."""
        query = make_query("WwW.VicT.iM", TYPE_A, txid=1)
        assert roundtrip(query).question.name == "WwW.VicT.iM"


class TestRecordRoundtrip:
    @pytest.mark.parametrize("record", [
        rr_a("vict.im", "1.2.3.4"),
        rr_ns("vict.im", "ns1.vict.im"),
        rr_cname("www.vict.im", "vict.im"),
        rr_mx("vict.im", 10, "mail.vict.im"),
        rr_txt("vict.im", "v=spf1 ip4:1.2.3.4 -all"),
        rr_txt("vict.im", ""),
        rr_txt("vict.im", "x" * 600),
        rr_srv("_xmpp-server._tcp.vict.im", 0, 5, 5269, "xmpp.vict.im"),
        rr_naptr("vict.im", 100, 10, "s", "radsec+tls",
                 "", "_radsec._tcp.vict.im"),
        rr_soa("vict.im", "ns1.vict.im", "admin.vict.im"),
        rr_ipseckey("gw.vict.im", "9.9.9.9", "publickey123"),
        rr_rrsig("vict.im", TYPE_A, "vict.im", valid=True, digest="ab12"),
        rr_rrsig("vict.im", TYPE_A, "vict.im", valid=False),
    ])
    def test_single_record(self, record):
        message = DnsMessage(txid=1, is_response=True, answers=[record],
                             edns_udp_size=None)
        decoded = roundtrip(message)
        assert len(decoded.answers) == 1
        got = decoded.answers[0]
        assert got.name.lower() == record.name.lower()
        assert got.rtype == record.rtype
        assert got.ttl == record.ttl
        assert got.data == record.data

    def test_sections_preserved(self):
        message = DnsMessage(
            txid=9, is_response=True,
            questions=[Question("vict.im", TYPE_A)],
            answers=[rr_a("vict.im", "1.2.3.4")],
            authority=[rr_ns("vict.im", "ns1.vict.im")],
            additional=[rr_a("ns1.vict.im", "5.6.7.8")],
        )
        decoded = roundtrip(message)
        assert len(decoded.answers) == 1
        assert len(decoded.authority) == 1
        assert len(decoded.additional) == 1

    def test_compression_shrinks_message(self):
        """Repeated names must compress to pointers."""
        answers = [rr_a("a-very-long-owner-name.example", f"1.2.3.{i}")
                   for i in range(5)]
        compressed = encode_message(DnsMessage(
            txid=1, is_response=True, answers=answers, edns_udp_size=None))
        # 5 answers with a 31-byte name would be >200B uncompressed.
        assert len(compressed) < 140
        assert len(decode_message(compressed).answers) == 5

    def test_edns_roundtrip(self):
        message = DnsMessage(txid=1, edns_udp_size=1232, dnssec_ok=True)
        decoded = roundtrip(message)
        assert decoded.edns_udp_size == 1232
        assert decoded.dnssec_ok

    @given(hostname, st.integers(min_value=0, max_value=0xFFFF))
    @settings(max_examples=50)
    def test_property_roundtrip(self, name, txid):
        message = DnsMessage(
            txid=txid, is_response=True,
            questions=[Question(name, TYPE_A)],
            answers=[rr_a(name, "9.8.7.6", ttl=60)],
        )
        decoded = roundtrip(message)
        assert decoded.answers[0].data == "9.8.7.6"
        assert decoded.question.name == name


@st.composite
def mutated_messages(draw):
    """An encoded query or response with a few bytes overwritten, and
    perhaps cut short."""
    name = draw(hostname)
    txid = draw(st.integers(min_value=0, max_value=0xFFFF))
    message = make_query(name, TYPE_A, txid)
    if draw(st.booleans()):
        message = message.reply_skeleton()
        message.answers.append(rr_a(name, "9.8.7.6", ttl=60))
        message.authority.append(rr_ns(name, "ns1." + name))
    data = bytearray(encode_message(message))
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        index = draw(st.integers(min_value=0, max_value=len(data) - 1))
        data[index] = draw(st.integers(min_value=0, max_value=0xFF))
    cut = draw(st.integers(min_value=0, max_value=len(data)))
    return bytes(data[:cut]) if draw(st.booleans()) else bytes(data)


class TestRobustness:
    def test_truncated_header(self):
        with pytest.raises(WireFormatError):
            decode_message(b"\x00\x01\x00")

    def test_pointer_loop_detected(self):
        # Header + a name that points at itself.
        header = (1).to_bytes(2, "big") + b"\x00\x00" + \
            (1).to_bytes(2, "big") + b"\x00" * 6
        loop_name = b"\xc0\x0c"  # points at offset 12 = itself
        data = header + loop_name + TYPE_A.to_bytes(2, "big") + \
            (1).to_bytes(2, "big")
        with pytest.raises(WireFormatError):
            decode_message(data)

    @given(st.binary(max_size=120))
    @settings(max_examples=200)
    def test_fuzz_never_crashes_uncontrolled(self, blob):
        """Arbitrary bytes either parse or raise WireFormatError."""
        try:
            decode_message(blob)
        except WireFormatError:
            pass

    @given(st.one_of(st.binary(max_size=120), mutated_messages()))
    @settings(max_examples=300)
    def test_well_formed_matches_decode_and_header(self, blob):
        """``well_formed`` is true exactly when a decode succeeds, and a
        decoded message's QR bit and TXID are its header bytes, so a
        receiver that checks ``well_formed`` can read both from the
        bytes instead of decoding."""
        checked = well_formed(blob)
        try:
            message = decode_message(blob)
        except WireFormatError:
            assert not checked
            return
        assert checked and well_formed(blob)
        assert message.is_response == bool(blob[2] & 0x80)
        assert message.txid == (blob[0] << 8) | blob[1]

    def test_response_size_helper(self):
        query = make_query("vict.im", TYPE_A, txid=1)
        assert response_size(query) == len(encode_message(query))
