"""Tests for the simulation-kernel fast paths.

The perf work (allocation-free scheduler, zero-cost tracing, memoised
DNS wire codecs, streaming scan kernels) must be invisible: same
execution order, same statistics, same bytes.  These tests pin that
down with differential checks against straightforward reference
implementations.
"""

from __future__ import annotations

import heapq
import itertools
import json
import pickle
import random

import pytest

from repro.core.clock import Scheduler
from repro.core.eventlog import Event, EventLog, NullLog
from repro.core.rng import DeterministicRNG
from repro.dns.message import DnsMessage, Question, make_query
from repro.dns.records import TYPE_A, rr_a, rr_ns
from repro.dns.wire import decode_message, encode_message
from repro.measurements.population import IcmpBehaviour
from repro.measurements.scanner import scan_saddns, scan_saddns_verdict
from repro.netsim.host import Host
from repro.netsim.network import Network
from repro.netsim.packet import (
    PROTO_UDP,
    IcmpMessage,
    Ipv4Packet,
    UdpDatagram,
)


class ReferenceScheduler:
    """The pre-optimisation scheduler: object entries, O(n) pending.

    Kept verbatim (modulo names) as the executable specification the
    fast-path scheduler must match event for event.
    """

    class Entry:
        def __init__(self, when, seq, callback):
            self.when = when
            self.seq = seq
            self.callback = callback
            self.cancelled = False

        def __lt__(self, other):
            return (self.when, self.seq) < (other.when, other.seq)

        def cancel(self):
            self.cancelled = True

    def __init__(self):
        self.now = 0.0
        self._queue = []
        self._seq = itertools.count()

    def call_at(self, when, callback):
        entry = self.Entry(when, next(self._seq), callback)
        heapq.heappush(self._queue, entry)
        return entry

    def call_later(self, delay, callback):
        return self.call_at(self.now + delay, callback)

    def run_until_idle(self):
        while self._queue:
            entry = heapq.heappop(self._queue)
            if entry.cancelled:
                continue
            self.now = entry.when
            entry.callback()


def random_workload(seed: int):
    """A schedule/cancel script with heavy same-time collisions."""
    rng = random.Random(seed)
    script = []
    for i in range(400):
        # Few distinct times -> many exact ties, exercising seq order.
        when = rng.choice([0.0, 0.1, 0.1, 0.2, 0.5, 0.5, 1.0])
        script.append(("schedule", i, when))
        if rng.random() < 0.25:
            script.append(("cancel", rng.randrange(i + 1)))
    return script


class TestSchedulerDifferential:
    @pytest.mark.parametrize("seed", range(8))
    def test_execution_order_matches_reference(self, seed):
        script = random_workload(seed)

        def run(scheduler_cls):
            order = []
            scheduler = scheduler_cls()
            handles = {}
            for step in script:
                if step[0] == "schedule":
                    _, label, when = step
                    handles[label] = scheduler.call_later(
                        when, lambda label=label: order.append(label))
                else:
                    handles[step[1]].cancel()
            scheduler.run_until_idle()
            return order

        assert run(Scheduler) == run(ReferenceScheduler)

    def test_same_time_runs_in_scheduling_order(self):
        scheduler = Scheduler()
        order = []
        for i in range(20):
            scheduler.call_at(1.0, order.append, i)
        scheduler.run_until_idle()
        assert order == list(range(20))

    def test_callback_args_no_closure(self):
        scheduler = Scheduler()
        seen = []
        scheduler.call_later(0.5, seen.append, "a")
        scheduler.schedule(0.25, seen.append, "b")
        scheduler.run_until_idle()
        assert seen == ["b", "a"]

    def test_pending_is_live_counter(self):
        scheduler = Scheduler()
        handles = [scheduler.call_later(1.0, lambda: None)
                   for _ in range(10)]
        assert scheduler.pending == 10
        handles[3].cancel()
        handles[3].cancel()  # double-cancel must not double-decrement
        assert scheduler.pending == 9
        scheduler.run_next()
        assert scheduler.pending == 8
        scheduler.run_until_idle()
        assert scheduler.pending == 0

    def test_cancel_after_fire_keeps_pending_honest(self):
        # A resolver finishing on its last timeout cancels the handle of
        # the timer whose callback is running — that must not uncount.
        scheduler = Scheduler()
        handle = scheduler.call_later(1.0, lambda: None)
        scheduler.run_until_idle()
        assert scheduler.pending == 0
        handle.cancel()
        handle.cancel()
        assert scheduler.pending == 0
        scheduler.call_later(1.0, lambda: None)
        assert scheduler.pending == 1

    def test_cancel_own_handle_inside_callback(self):
        scheduler = Scheduler()
        handles = {}

        def self_cancel():
            handles["h"].cancel()

        handles["h"] = scheduler.call_later(0.5, self_cancel)
        scheduler.run_until_idle()
        assert scheduler.pending == 0

    def test_cancelled_handle_reports_state(self):
        scheduler = Scheduler()
        handle = scheduler.call_at(2.0, lambda: None)
        assert handle.when == 2.0
        assert not handle.cancelled
        handle.cancel()
        assert handle.cancelled
        assert scheduler.run_until_idle() == 0

    def test_past_scheduling_rejected(self):
        scheduler = Scheduler()
        scheduler.call_at(1.0, lambda: None)
        scheduler.run_until_idle()
        with pytest.raises(ValueError):
            scheduler.call_at(0.5, lambda: None)


class TestSlottedPackets:
    """__slots__ packets keep the behaviour the executors rely on."""

    def test_no_instance_dict(self):
        packet = Ipv4Packet(src="1.2.3.4", dst="5.6.7.8", proto=PROTO_UDP)
        assert not hasattr(packet, "__dict__")
        # Exact exception type differs across 3.10-3.12 dataclass
        # implementations; what matters is that writes are rejected.
        with pytest.raises((AttributeError, TypeError)):
            packet.extra = 1  # frozen + slots

    def test_equality_ignores_parsed_transport(self):
        datagram = UdpDatagram(sport=1000, dport=53, payload=b"q")
        a = Ipv4Packet(src="1.2.3.4", dst="5.6.7.8", proto=PROTO_UDP,
                       payload=b"raw", ident=7, udp=datagram)
        b = Ipv4Packet(src="1.2.3.4", dst="5.6.7.8", proto=PROTO_UDP,
                       payload=b"raw", ident=7, udp=None)
        assert a == b  # udp/icmp are compare=False riders

    def test_fragment_key(self):
        packet = Ipv4Packet(src="1.2.3.4", dst="5.6.7.8", proto=PROTO_UDP,
                            ident=0x1234)
        assert packet.fragment_key == ("1.2.3.4", "5.6.7.8", PROTO_UDP,
                                       0x1234)

    def test_pickle_round_trip(self):
        # Campaign process workers ship packets and events; slotted
        # frozen dataclasses must round-trip on every supported Python.
        datagram = UdpDatagram(sport=1000, dport=53, payload=b"q")
        icmp = IcmpMessage(icmp_type=3, code=4, mtu=552, embedded=b"e")
        packet = Ipv4Packet(src="1.2.3.4", dst="5.6.7.8", proto=PROTO_UDP,
                            payload=b"raw", ident=9, mf=True,
                            frag_offset=4, udp=datagram, icmp=None)
        for original in (datagram, icmp, packet,
                         Event(1.5, "actor", "kind", "detail", {"k": 1})):
            clone = pickle.loads(pickle.dumps(original))
            assert clone == original
        clone = pickle.loads(pickle.dumps(packet))
        assert clone.udp == datagram and clone.frag_offset == 4

    def test_validation_still_enforced(self):
        with pytest.raises(ValueError):
            Ipv4Packet(src="1.2.3.4", dst="5.6.7.8", proto=PROTO_UDP,
                       ident=0x1_0000)
        with pytest.raises(ValueError):
            UdpDatagram(sport=-1, dport=53)

    def test_evolve_matches_constructor(self):
        packet = Ipv4Packet(src="1.2.3.4", dst="5.6.7.8", proto=PROTO_UDP,
                            payload=b"abcdefgh", ident=3, mf=True)
        frag = packet.evolve(payload=b"abcd", frag_offset=1, mf=False)
        assert frag == Ipv4Packet(src="1.2.3.4", dst="5.6.7.8",
                                  proto=PROTO_UDP, payload=b"abcd",
                                  ident=3, frag_offset=1)
        assert frag.ttl == packet.ttl
        # the original is untouched (still frozen value semantics)
        assert packet.payload == b"abcdefgh" and packet.mf


class TestNullLog:
    def test_shares_interface_and_stores_nothing(self):
        log = NullLog()
        assert log.record(1.0, "a", "kind.sub", "detail", k=1) is None
        assert len(log) == 0
        assert log.of_kind("kind") == []
        assert log.count("kind") == 0
        assert log.render_sequence([]) is not None

    def test_enabled_flags(self):
        assert EventLog().enabled is True
        assert NullLog().enabled is False

    def test_untraced_testbed_records_nothing(self):
        from repro.netsim.host import HostConfig
        from repro.testbed import Testbed

        def drive_df_drop(bed):
            sender = bed.make_host(
                "probe", "9.9.9.9",
                host_config=HostConfig(mtu=100))
            bed.make_host("sink", "9.9.9.10")
            sender.send_udp("9.9.9.9", 5000, "9.9.9.10", 53,
                            b"x" * 400, df=True)
            bed.run()
            assert sender.stats.df_drops == 1
            return bed.log

        traced = drive_df_drop(Testbed(seed=0))
        assert traced.count("ip.df_drop") == 1
        untraced = drive_df_drop(Testbed(seed=0, trace=False))
        assert isinstance(untraced, NullLog)
        assert len(untraced) == 0

    def test_scenario_trace_flag_controls_log(self):
        from repro.scenario import AttackScenario

        untraced = AttackScenario(method="HijackDNS").build(seed=1)
        assert isinstance(untraced.testbed.log, NullLog)
        traced = AttackScenario(method="HijackDNS", trace=True).build(seed=1)
        assert isinstance(traced.testbed.log, EventLog)
        assert not isinstance(traced.testbed.log, NullLog)


class TestEventLogKindIndex:
    def test_count_matches_of_kind(self):
        log = EventLog()
        for i in range(50):
            log.record(float(i), "a", f"icmp.sub{i % 3}")
            log.record(float(i), "a", "icmp")
            log.record(float(i), "a", "icmpx")  # prefix trap: not icmp.*
        assert log.count("icmp") == len(log.of_kind("icmp")) == 100
        assert log.count("icmp.sub1") == len(log.of_kind("icmp.sub1"))
        assert log.count("missing") == 0

    def test_clear_resets_index(self):
        log = EventLog()
        log.record(0.0, "a", "k")
        log.clear()
        assert log.count("k") == 0
        log.record(0.0, "a", "k")
        assert log.count("k") == 1

    def test_capacity_bounds_index(self):
        log = EventLog(capacity=2)
        for _ in range(5):
            log.record(0.0, "a", "k")
        assert len(log) == 2
        assert log.count("k") == 2


class TestNetworkStatsCounters:
    def _world(self):
        network = Network()
        a = network.attach(Host("a", "10.0.0.1"))
        b = network.attach(Host("b", "10.0.0.2"))
        b.open_udp(7, lambda *args: None)
        return network, a, b

    def test_per_destination_is_counter(self):
        network, a, _ = self._world()
        for _ in range(3):
            a.send_udp("10.0.0.1", 5000, "10.0.0.2", 7, b"x")
        network.run()
        assert network.stats.per_destination["10.0.0.2"] == 3
        # Counter semantics: missing key reads as zero.
        assert network.stats.per_destination["10.9.9.9"] == 0

    def test_intercepted_by_breakdown(self):
        network, a, b = self._world()
        tap = network.attach(Host("middlebox", "10.0.0.9"))

        def claim_udp(packet, origin):
            return tap if packet.dst == "10.0.0.2" else None

        network.add_interceptor(claim_udp, name="dns-middlebox")
        a.send_udp("10.0.0.1", 5000, "10.0.0.2", 7, b"x")
        a.send_udp("10.0.0.1", 5000, "10.0.0.9", 7, b"y")
        network.run()
        assert network.stats.intercepted == 1
        assert network.stats.intercepted_by["dns-middlebox"] == 1
        assert sum(network.stats.intercepted_by.values()) \
            == network.stats.intercepted

    def test_unnamed_interceptor_gets_callable_label(self):
        network, a, b = self._world()

        def shadow(packet, origin):
            return b

        network.add_interceptor(shadow)
        a.send_udp("10.0.0.1", 5000, "10.0.0.2", 7, b"x")
        network.run()
        (label,) = network.stats.intercepted_by
        assert "shadow" in label

    def test_hijack_campaign_shows_up_in_breakdown(self):
        from repro.bgp.hijack import HijackCampaign

        network, a, b = self._world()
        attacker = network.attach(Host("attacker", "6.6.6.6"))
        campaign = HijackCampaign(network, attacker, "10.0.0.0/24")
        with campaign:
            a.send_udp("10.0.0.1", 5000, "10.0.0.2", 7, b"x")
            network.run()
        assert campaign.diverted == 1
        assert network.stats.intercepted_by["HijackCampaign"] == 1


class TestDnsWireCaches:
    def _response(self, txid=7):
        return DnsMessage(
            txid=txid, is_response=True, authoritative=True,
            questions=[Question(name="www.vict.im", qtype=TYPE_A)],
            answers=[rr_a("www.vict.im", "1.2.3.4", ttl=60)],
            authority=[rr_ns("vict.im", "ns1.vict.im", ttl=600)],
            edns_udp_size=4096,
        )

    def test_encode_memoisation_is_value_safe(self):
        message = self._response()
        first = encode_message(message)
        # Mutating a section must change the encoding (no stale cache).
        message.answers.append(rr_a("www.vict.im", "6.6.6.6", ttl=60))
        second = encode_message(message)
        assert first != second
        assert decode_message(second).answers[1].data == "6.6.6.6"

    def test_txid_split_encoding(self):
        low = self._response(txid=0)
        high = self._response(txid=0xBEEF)
        enc_low, enc_high = encode_message(low), encode_message(high)
        assert enc_low[2:] == enc_high[2:]
        assert enc_high[:2] == b"\xbe\xef"

    def test_decode_cache_returns_fresh_copies(self):
        wire = encode_message(self._response())
        first = decode_message(wire)
        first.answers.clear()  # caller mutates its copy...
        second = decode_message(wire)
        assert len(second.answers) == 1  # ...the cache is unaffected
        assert second.answers[0].data == "1.2.3.4"

    def test_decode_txid_flood_equivalence(self):
        template = bytearray(encode_message(self._response(txid=0)))
        for txid in (0, 1, 0x1234, 0xFFFF):
            template[0] = txid >> 8
            template[1] = txid & 0xFF
            message = decode_message(bytes(template))
            assert message.txid == txid
            assert message.answers[0].data == "1.2.3.4"
            assert message.question.name == "www.vict.im"

    def test_unhashable_rdata_falls_back_to_uncached_encode(self):
        # MX rdata as a list encodes fine (the codec unpacks any
        # sequence); the cache must degrade gracefully, not crash.
        from repro.dns.records import TYPE_MX, ResourceRecord

        message = self._response()
        message.additional.append(ResourceRecord(
            name="vict.im", rtype=TYPE_MX, ttl=300,
            data=[10, "mail.vict.im"]))
        wire = encode_message(message)
        decoded = decode_message(wire)
        assert decoded.additional[0].data == (10, "mail.vict.im")

    def test_round_trip_query(self):
        query = make_query("ABCdef.Vict.IM", TYPE_A, txid=99)
        decoded = decode_message(encode_message(query))
        assert decoded.question.name == "ABCdef.Vict.IM"  # 0x20 case kept
        assert decoded.txid == 99


class TestRngFastPaths:
    def test_uniform_draws_match_randint(self):
        for seed in range(20):
            a, b = DeterministicRNG(seed), DeterministicRNG(seed)
            ours = ([a.pick_txid() for _ in range(50)]
                    + [a.pick_port() for _ in range(50)]
                    + [a.uniform_int(1, 60_000) for _ in range(50)])
            stock = ([b.randint(0, 0xFFFF) for _ in range(50)]
                     + [b.randint(1024, 65535) for _ in range(50)]
                     + [b.randint(1, 60_000) for _ in range(50)])
            assert ours == stock

    def test_empty_range_raises_like_randint(self):
        rng = DeterministicRNG(0)
        with pytest.raises(ValueError):
            rng.uniform_int(5, 4)
        with pytest.raises(ValueError):
            rng.pick_port(40050, 40049)

    def test_rederive_matches_fresh_derive(self):
        root = DeterministicRNG("root")
        scratch = DeterministicRNG(42)
        scratch.gauss(0, 1)  # dirty gauss state must not leak through
        for label in ("0", "1", "icmp-0", "long-label-123456"):
            fresh = root.derive(label)
            scratch.rederive(root, label)
            assert [fresh.random() for _ in range(3)] \
                == [scratch.random() for _ in range(3)]
            assert fresh.gauss(10, 2) == scratch.gauss(10, 2)
            # chained derivation from the re-derived generator
            assert fresh.derive("x").random() == scratch.derive("x").random()


class TestSaddnsVerdict:
    def _pair(self, label, randomized=True, burst=50.0):
        root = DeterministicRNG("verdict-fuzz")
        make = lambda: IcmpBehaviour(rate_limited=True,
                                     randomized=randomized,
                                     rng=root.derive(label), burst=burst)
        return make(), make()

    class _Resolver:
        def __init__(self, icmp, reachable=True):
            self.icmp = icmp
            self.reachable = reachable

    def test_verdict_equals_full_scan(self):
        for i in range(2000):
            full, pruned = self._pair(f"case-{i}")
            assert scan_saddns(self._Resolver(full)) \
                == scan_saddns_verdict(self._Resolver(pruned))

    def test_verdict_on_deterministic_limit(self):
        full, pruned = self._pair("det", randomized=False)
        assert scan_saddns(self._Resolver(full)) is True
        assert scan_saddns_verdict(self._Resolver(pruned)) is True

    def test_verdict_unreachable(self):
        _, pruned = self._pair("dead")
        assert scan_saddns_verdict(self._Resolver(pruned,
                                                  reachable=False)) is False

    def test_streaming_scan_matches_entity_scan(self):
        # The aggregate's single_use fast path must produce the same
        # aggregate as the full-consumption path.
        from repro.atlas.aggregate import ScanAggregate
        from repro.atlas.synth import iter_entities
        from repro.measurements.population import RESOLVER_DATASETS

        spec = next(s for s in RESOLVER_DATASETS if s.key == "open")
        fast = ScanAggregate(kind="resolver")
        for entity in iter_entities(spec, seed=5, lo=0, hi=400,
                                    reuse_rng=True):
            fast.observe_front_end(entity, single_use=True)
        slow = ScanAggregate(kind="resolver")
        for entity in iter_entities(spec, seed=5, lo=0, hi=400):
            slow.observe_front_end(entity)
        assert fast.to_json() == slow.to_json()


class TestPerfHarness:
    def _load(self):
        import importlib.util
        from pathlib import Path

        path = Path(__file__).resolve().parent.parent / "benchmarks" \
            / "run_all.py"
        spec = importlib.util.spec_from_file_location("run_all", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_check_flags_rate_regression(self):
        run_all = self._load()
        baseline = {"mode": "quick", "benches": {
            "scheduler": {"rate": 1000.0, "unit": "events/s", "n": 10},
        }}
        ok = {"mode": "quick",
              "benches": {"scheduler": {"rate": 800.0, "n": 10}}}
        bad = {"mode": "quick",
               "benches": {"scheduler": {"rate": 700.0, "n": 10}}}
        assert run_all.check_against(ok, baseline, 0.25) == []
        assert run_all.check_against(bad, baseline, 0.25)

    def test_check_flags_checksum_change_at_same_size(self):
        run_all = self._load()
        baseline = {"mode": "full", "benches": {
            "campaign_serial": {"rate": 10.0, "n": 96, "checksum": "aaa"},
        }}
        drift = {"mode": "full", "benches": {
            "campaign_serial": {"rate": 12.0, "n": 96, "checksum": "bbb"},
        }}
        resized = {"mode": "full", "benches": {
            "campaign_serial": {"rate": 12.0, "n": 24, "checksum": "bbb"},
        }}
        assert any("bit-identical" in f for f in
                   run_all.check_against(drift, baseline, 0.25))
        assert run_all.check_against(resized, baseline, 0.25) == []

    def test_check_reads_baseline_before_writing_record(
            self, tmp_path, monkeypatch):
        run_all = self._load()
        path = tmp_path / "BENCH_core.json"
        path.write_text(json.dumps({"runs": {"quick": {
            "mode": "quick", "benches": {
                "scheduler": {"rate": 1000.0, "unit": "events/s",
                              "n": 10}}}}}))
        slow = {"generated_by": "test", "python": "3", "mode": "quick",
                "benches": {"scheduler": {"rate": 10.0, "n": 10}}}
        monkeypatch.setattr(run_all, "run_all",
                            lambda sizes, mode, repeats: slow)
        # The same file as output and baseline: the 99% drop must fail
        # against the committed rate, not pass against itself.
        assert run_all.main(["--quick", "--json", str(path),
                             "--check", str(path)]) == 1

    def test_check_requires_matching_mode(self):
        run_all = self._load()
        baseline = {"runs": {"full": {"benches": {}}}}
        current = {"mode": "quick", "benches": {}}
        assert run_all.check_against(current, baseline, 0.25)
