"""The tuple-backed value types built per query and per packet.

``Question``, ``ResourceRecord``, ``UdpDatagram``, ``UdpBurst`` and
``TraceQuery`` are ``typing.NamedTuple`` classes.  They must behave as
the frozen dataclasses they replaced did where that shows: the same
checks (in ``__new__`` and in ``_replace``), the same ``repr`` (records
reach digests and EXPERIMENTS.md), the same hash (sets of them iterate
in the same order), and pickling across process pools.
"""

from __future__ import annotations

import pickle
from array import array
from dataclasses import make_dataclass

import pytest

from repro.dns.message import DnsMessage, Question, make_query
from repro.dns.records import ResourceRecord, rr_a, rr_mx
from repro.netsim.packet import TxidSweep, UdpBurst, UdpDatagram
from repro.workload.trace import TraceQuery


def _datagram() -> UdpDatagram:
    return UdpDatagram(1024, 53, b"\x12\x34payload")


SAMPLES = {
    "question": lambda: Question("WwW.Example.COM", 1),
    "record": lambda: rr_a("www.example.com", "6.6.6.6", ttl=86400),
    "structured-record": lambda: rr_mx("example.com", 10, "mx.example.com"),
    "datagram": _datagram,
    "burst": lambda: UdpBurst("1.2.3.4", "5.6.7.8", (_datagram(),), (7,),
                              True),
    "trace-query": lambda: TraceQuery(0.3127, 2, "load-004.bg", "AAAA"),
}


def _dataclass_twin(value):
    """A frozen dataclass with ``value``'s name and fields, as the type
    was declared before it became a tuple."""
    twin = make_dataclass(type(value).__name__, value._fields, frozen=True)
    return twin(*value)


@pytest.mark.parametrize("name", sorted(SAMPLES))
class TestLikeTheDataclasses:
    def test_repr_is_the_dataclass_repr(self, name):
        value = SAMPLES[name]()
        assert repr(value) == repr(_dataclass_twin(value))

    def test_hash_is_the_dataclass_hash(self, name):
        value = SAMPLES[name]()
        assert hash(value) == hash(_dataclass_twin(value))

    def test_pickle_round_trip(self, name):
        value = SAMPLES[name]()
        for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
            copy = pickle.loads(pickle.dumps(value, protocol))
            assert type(copy) is type(value)
            assert copy == value

    def test_immutable(self, name):
        value = SAMPLES[name]()
        with pytest.raises(AttributeError):
            setattr(value, value._fields[0], None)


class TestChecks:
    def test_negative_ttl(self):
        with pytest.raises(ValueError, match="negative TTL"):
            ResourceRecord("a.example", 1, -1, "1.2.3.4")
        with pytest.raises(ValueError, match="negative TTL"):
            rr_a("a.example", "1.2.3.4", ttl=-5)

    @pytest.mark.parametrize("ports", [(-1, 53), (0x10000, 53), (53, -1),
                                       (53, 0x10000)])
    def test_datagram_ports(self, ports):
        with pytest.raises(ValueError, match="out of range"):
            UdpDatagram(*ports)

    @pytest.mark.parametrize("txid", [-1, 0x10000])
    def test_txid(self, txid):
        with pytest.raises(ValueError, match="TXID out of range"):
            DnsMessage(txid=txid)
        with pytest.raises(ValueError, match="TXID out of range"):
            make_query("a.example", 1, txid)
        with pytest.raises(ValueError, match="TXID out of range"):
            make_query("a.example", 1, 1).with_txid(txid)

    @pytest.mark.parametrize("idents", [(-1,), (0x10000,), [0x10000],
                                        array("l", [0x10000]),
                                        array("h", [-1])])
    def test_burst_ident_range_for_other_containers(self, idents):
        with pytest.raises(ValueError, match="ident out of range"):
            UdpBurst("a", "b", (_datagram(),), idents)

    def test_burst_takes_a_16_bit_array_as_it_is(self):
        idents = array("H", [0, 0xFFFF])
        burst = UdpBurst("a", "b", (_datagram(), _datagram()), idents)
        assert burst.idents is idents

    def test_burst_needs_one_ident_per_datagram(self):
        with pytest.raises(ValueError, match="one IP ident per datagram"):
            UdpBurst("a", "b", (_datagram(),), array("H", [1, 2]))
        with pytest.raises(ValueError, match="one IP ident per datagram"):
            UdpBurst("a", "b", TxidSweep(1, 2, range(3), b""), (1, 2))


class TestReplaceChecksAgain:
    def test_record(self):
        record = rr_a("a.example", "1.2.3.4")
        assert record._replace(ttl=7) == ResourceRecord(
            "a.example", 1, 7, "1.2.3.4")
        with pytest.raises(ValueError, match="negative TTL"):
            record._replace(ttl=-1)

    def test_datagram(self):
        datagram = _datagram()
        assert datagram._replace(dport=5353).dport == 5353
        with pytest.raises(ValueError, match="out of range"):
            datagram._replace(sport=0x10000)

    def test_burst(self):
        burst = SAMPLES["burst"]()
        assert burst._replace(df=False).df is False
        with pytest.raises(ValueError, match="ident out of range"):
            burst._replace(idents=(0x10000,))
        with pytest.raises(ValueError, match="one IP ident per datagram"):
            burst._replace(idents=())

    def test_zone_set_ttl_checks(self):
        from repro.dns.zones import Zone

        zone = Zone("example.com")
        zone.add(rr_a("www.example.com", "1.2.3.4"))
        zone.set_ttl("www.example.com", 1, 9)
        assert [r.ttl for r in zone.records_at("www.example.com")] == [9]
        with pytest.raises(ValueError, match="negative TTL"):
            zone.set_ttl("www.example.com", 1, -1)


class TestMessageCopies:
    """Copies built without the dataclass ``__init__`` equal the ones
    it builds, and own their section lists."""

    def test_make_query(self):
        query = make_query("WwW.example.com", 28, 0x1234, edns_udp_size=None,
                           recursion_desired=False)
        assert query == DnsMessage(
            txid=0x1234, recursion_desired=False,
            questions=[Question("WwW.example.com", 28)])
        assert list(vars(query)) == list(vars(DnsMessage()))

    def test_reply_skeleton(self):
        query = make_query("a.example", 1, 99)
        reply = query.reply_skeleton()
        assert reply == DnsMessage(txid=99, is_response=True,
                                   questions=list(query.questions),
                                   edns_udp_size=4096)
        assert reply.questions is not query.questions
        reply.answers.append(rr_a("a.example", "1.2.3.4"))
        assert not query.reply_skeleton().answers

    def test_with_txid(self):
        reply = make_query("a.example", 1, 99).reply_skeleton()
        reply.answers.append(rr_a("a.example", "1.2.3.4"))
        copy = reply.with_txid(7)
        assert copy.txid == 7 and reply.txid == 99
        assert copy.answers == reply.answers
        assert copy.answers is not reply.answers
        assert list(vars(copy)) == list(vars(reply))
