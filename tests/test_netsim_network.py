"""Tests for the network fabric: delivery, interception, streams."""

import pytest
from hypothesis import given, strategies as st

from repro.netsim.addresses import (
    int_to_ip,
    ip_in_prefix,
    ip_to_int,
    normalise_prefix,
    prefix_mask,
)
from repro.netsim.host import Host, HostConfig
from repro.netsim.network import Network
from repro.netsim.ipid import (
    GlobalCounterIPID,
    PerDestinationIPID,
    RandomIPID,
    make_allocator,
)
from repro.netsim.ratelimit import TokenBucket
from repro.netsim.wire import make_udp_packet
from repro.core.rng import DeterministicRNG
from tests.conftest import drop_packets


class TestAddresses:
    def test_ip_roundtrip(self):
        for address in ("0.0.0.0", "10.1.2.3", "255.255.255.255"):
            assert int_to_ip(ip_to_int(address)) == address

    def test_bad_addresses_rejected(self):
        for bad in ("1.2.3", "1.2.3.4.5", "256.0.0.1", "a.b.c.d"):
            with pytest.raises(ValueError):
                ip_to_int(bad)

    def test_prefix_mask(self):
        assert prefix_mask(0) == 0
        assert prefix_mask(24) == 0xFFFFFF00
        assert prefix_mask(32) == 0xFFFFFFFF

    def test_ip_in_prefix(self):
        assert ip_in_prefix("192.0.2.7", "192.0.2.0/24")
        assert not ip_in_prefix("192.0.3.7", "192.0.2.0/24")
        assert ip_in_prefix("10.20.30.40", "10.0.0.0/8")

    def test_normalise_prefix(self):
        assert normalise_prefix("192.0.2.77/24") == "192.0.2.0/24"


class TestIpid:
    def test_global_counter_increments(self):
        alloc = GlobalCounterIPID(start=10)
        assert [alloc.next_id("a"), alloc.next_id("b")] == [10, 11]
        assert alloc.observe() == 12

    def test_global_counter_wraps(self):
        alloc = GlobalCounterIPID(start=0xFFFF)
        assert alloc.next_id("a") == 0xFFFF
        assert alloc.next_id("a") == 0

    @pytest.mark.parametrize("count", [0, 1, 319, 0x10000 + 5])
    def test_global_counter_advance_matches_next_id_calls(self, count):
        """The FragDNS cross-traffic advance: one call, the state of
        ``count`` allocations, wrap-around included."""
        bulk, single = GlobalCounterIPID(start=0xFF00), \
            GlobalCounterIPID(start=0xFF00)
        bulk.advance(count)
        for _ in range(count):
            single.next_id("world")
        assert bulk.observe() == single.observe()
        assert bulk.next_id("a") == single.next_id("a")

    def test_per_destination_isolated(self):
        alloc = PerDestinationIPID(DeterministicRNG(1))
        first_a = alloc.next_id("a")
        alloc.next_id("b")
        assert alloc.next_id("a") == (first_a + 1) & 0xFFFF
        assert alloc.observe() is None

    def test_random_not_observable(self):
        alloc = RandomIPID(DeterministicRNG(1))
        assert alloc.observe() is None
        values = {alloc.next_id("a") for _ in range(50)}
        assert len(values) > 30

    def test_factory(self):
        rng = DeterministicRNG(0)
        assert make_allocator("global", rng).name == "global"
        assert make_allocator("per-destination", rng).name \
            == "per-destination"
        assert make_allocator("random", rng).name == "random"
        with pytest.raises(ValueError):
            make_allocator("bogus", rng)


class TestTokenBucket:
    def test_burst_then_deny(self):
        bucket = TokenBucket(rate=10, burst=3)
        assert all(bucket.allow(0.0) for _ in range(3))
        assert not bucket.allow(0.0)

    def test_refill(self):
        bucket = TokenBucket(rate=10, burst=3)
        bucket.drain(0.0)
        assert not bucket.allow(0.0)
        assert bucket.allow(0.2)  # 2 tokens refilled

    def test_peek_does_not_consume(self):
        bucket = TokenBucket(rate=1, burst=5)
        assert bucket.peek(0.0) == 5.0
        assert bucket.peek(0.0) == 5.0

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=-1, burst=1)
        with pytest.raises(ValueError):
            TokenBucket(rate=1, burst=0)

    def test_non_positive_cost_rejected(self):
        bucket = TokenBucket(rate=10, burst=3)
        with pytest.raises(ValueError, match="cost"):
            bucket.allow(0.0, cost=0)
        with pytest.raises(ValueError, match="cost"):
            bucket.allow(0.0, cost=-2.5)
        # The failed calls consumed nothing and counted nothing.
        assert bucket.allowed == 0 and bucket.denied == 0
        assert bucket.peek(0.0) == 3.0

    def test_backwards_time_raises(self):
        bucket = TokenBucket(rate=10, burst=3)
        assert bucket.allow(1.0)
        with pytest.raises(ValueError, match="backwards"):
            bucket.allow(0.5)
        # Equal timestamps are fine (same-instant bursts).
        assert bucket.allow(1.0)

    @given(st.sampled_from([0.0, 0.3, 7.0, 1000.0, 1e6]),
           st.sampled_from([0.5, 1.0, 3.7, 50.0, 1000.0]),
           st.lists(st.tuples(
               st.one_of(st.just(0.0), st.floats(0.0, 0.05)),
               st.integers(0, 60), st.booleans()), max_size=12))
    def test_allow_run_is_n_unit_allow_calls(self, rate, burst, steps):
        """Over fractional, drained and refilled buckets, ``n = 0``
        included: the same verdicts, tokens, clock and counters."""
        bulk, single = TokenBucket(rate, burst), TokenBucket(rate, burst)
        now = 0.0
        for advance, n, drain in steps:
            now += advance
            if drain:
                bulk.drain(now)
                single.drain(now)
            passed = [single.allow(now) for _ in range(n)]
            allowed = bulk.allow_run(now, n)
            assert passed == [True] * allowed + [False] * (n - allowed)
            assert (bulk._tokens, bulk._last, bulk.allowed, bulk.denied) \
                == (single._tokens, single._last, single.allowed,
                    single.denied)

    def test_empty_run_does_not_refill(self):
        bucket = TokenBucket(rate=10, burst=3)
        assert bucket.allow(0.0)
        assert bucket.allow_run(0.25, 0) == 0
        assert bucket._last == 0.0 and bucket.allowed == 1
        assert bucket.denied == 0
        with pytest.raises(ValueError, match="non-negative"):
            bucket.allow_run(0.25, -1)

    @given(st.sampled_from([0.5, 10.0, 1000.0]),
           st.sampled_from([1.0, 3.0, 50.0]),
           st.lists(st.tuples(st.floats(0.0, 2.0),
                              st.sampled_from([0.01, 0.09, 0.25]),
                              st.integers(0, 24)), min_size=1, max_size=3),
           st.lists(st.tuples(
               # An instant: a drain instant (round, step), off-cadence
               # steps included, or any time.
               st.one_of(st.tuples(st.integers(0, 2), st.integers(0, 26)),
                         st.floats(0.0, 5.0)),
               st.sampled_from(["allow", "allow_run", "peek"]),
               st.integers(0, 60)), max_size=25))
    def test_drain_every_is_scheduled_drain_events(self, rate, burst,
                                                   rounds, queries):
        """Lazy drains against one ``drain`` event per step, scheduled
        before the queries: the same verdicts, tokens and counters, a
        query at a drain instant included (the drain goes first)."""
        from repro.core.clock import Scheduler

        lazy, evented = TokenBucket(rate, burst), TokenBucket(rate, burst)
        scheduler = Scheduler()
        for start, interval, steps in rounds:
            lazy.drain_every(start, interval, steps)
            for step in range(1, steps + 1):
                when = start + step * interval
                scheduler.call_at(when, evented.drain, when)
        instants = []
        for at, op, n in queries:
            if isinstance(at, tuple):
                start, interval, _ = rounds[at[0] % len(rounds)]
                at = start + at[1] * interval
            instants.append((at, op, n))
        instants.sort(key=lambda query: query[0])
        instants.append((10.0, "peek", 0))  # after every drain

        def ask(bucket, at, op, n):
            if op == "allow":
                return bucket.allow(at)
            if op == "allow_run":
                return bucket.allow_run(at, n)
            return bucket.peek(at)

        evented_answers = []
        for at, op, n in instants:
            scheduler.call_at(at, lambda *query: evented_answers.append(
                ask(evented, *query)), at, op, n)
        scheduler.run_until_idle()
        assert [ask(lazy, *query) for query in instants] == evented_answers
        assert (lazy._tokens, lazy._last, lazy.allowed, lazy.denied) \
            == (evented._tokens, evented._last, evented.allowed,
                evented.denied)
        assert lazy._drains == []

    def test_denied_counter_increments(self):
        bucket = TokenBucket(rate=1, burst=2)
        assert all(bucket.allow(0.0) for _ in range(2))
        assert not bucket.allow(0.0)
        assert not bucket.allow(0.0)
        assert bucket.allowed == 2
        assert bucket.denied == 2


class TestNetworkFabric:
    def test_duplicate_address_rejected(self):
        net = Network()
        net.attach(Host("a", "10.0.0.1"))
        with pytest.raises(ValueError):
            net.attach(Host("b", "10.0.0.1"))

    def test_no_route_counted(self):
        net = Network()
        a = net.attach(Host("a", "10.0.0.1",
                            config=HostConfig(egress_spoofing_allowed=True)))
        a.raw_send(make_udp_packet("10.0.0.1", "10.9.9.9", 1, 2, b""))
        net.run()
        assert net.stats.dropped_no_route == 1

    def test_latency_override_orders_arrivals(self):
        net = Network(default_latency=0.05)
        a = net.attach(Host("a", "10.0.0.1"))
        b = net.attach(Host("b", "10.0.0.2"))
        c = net.attach(Host("c", "10.0.0.3"))
        net.set_latency("10.0.0.3", "10.0.0.2", 0.001)
        got = []
        b.open_udp(53, lambda d, src, dst: got.append(src))
        a.open_udp().sendto("10.0.0.2", 53, b"slow")
        c.open_udp().sendto("10.0.0.2", 53, b"fast")
        net.run()
        assert got == ["10.0.0.3", "10.0.0.1"]

    def test_interceptor_diverts_packets(self):
        net = Network()
        a = net.attach(Host("a", "10.0.0.1"))
        b = net.attach(Host("b", "10.0.0.2"))
        spy = net.attach(Host("spy", "10.0.0.3"))
        seen = []
        spy.packet_tap = lambda packet: seen.append(packet.describe())
        net.add_interceptor(
            lambda packet, origin:
            spy if packet.dst == "10.0.0.2" else None
        )
        a.open_udp().sendto("10.0.0.2", 53, b"secret")
        net.run()
        assert len(seen) == 1
        assert b.stats.received == 0
        assert net.stats.intercepted == 1

    def test_interceptor_removal(self):
        net = Network()
        a = net.attach(Host("a", "10.0.0.1"))
        b = net.attach(Host("b", "10.0.0.2"))
        interceptor = lambda packet, origin: None  # noqa: E731
        net.add_interceptor(interceptor)
        net.remove_interceptor(interceptor)
        a.open_udp().sendto("10.0.0.2", 53, b"x")
        net.run()
        assert b.stats.received == 1

    def test_loss_model_drops(self):
        net = Network()
        a = net.attach(Host("a", "10.0.0.1"))
        b = net.attach(Host("b", "10.0.0.2"))
        drop_packets(net, lambda packet: True)
        a.open_udp().sendto("10.0.0.2", 53, b"x")
        net.run()
        assert b.stats.received == 0

    def test_stream_request_response(self):
        net = Network()
        a = net.attach(Host("a", "10.0.0.1"))
        b = net.attach(Host("b", "10.0.0.2"))
        b.stream_handlers[80] = lambda payload, src: b"pong:" + payload
        got = []
        net.stream_request(a, "10.0.0.2", 80, b"ping",
                           lambda data: got.append(data))
        net.run()
        assert got == [b"pong:ping"]

    def test_stream_to_missing_listener_refused(self):
        net = Network()
        a = net.attach(Host("a", "10.0.0.1"))
        net.attach(Host("b", "10.0.0.2"))
        got = []
        net.stream_request(a, "10.0.0.2", 80, b"ping",
                           lambda data: got.append(data))
        net.run()
        assert got == [None]

    def test_per_destination_accounting(self):
        net = Network()
        a = net.attach(Host("a", "10.0.0.1"))
        b = net.attach(Host("b", "10.0.0.2"))
        b.open_udp(53, None)
        for _ in range(3):
            a.open_udp().sendto("10.0.0.2", 53, b"x")
        net.run()
        assert net.stats.per_destination["10.0.0.2"] == 3
