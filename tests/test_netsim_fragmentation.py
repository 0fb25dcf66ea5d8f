"""Tests for IP fragmentation and the defragmentation cache."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.netsim.fragmentation import (
    LINUX_FRAG_CAPACITY,
    ReassemblyCache,
    _PartialDatagram,
    fragment_packet,
)
from repro.netsim.packet import FragmentSpray, Ipv4Packet, PROTO_UDP


def make_packet(payload: bytes, ident: int = 1,
                df: bool = False) -> Ipv4Packet:
    return Ipv4Packet(src="1.1.1.1", dst="2.2.2.2", proto=PROTO_UDP,
                      payload=payload, ident=ident, df=df)


class TestFragmentation:
    def test_small_packet_unfragmented(self):
        packet = make_packet(b"tiny")
        assert fragment_packet(packet, 1500) == [packet]

    def test_fragment_sizes_fit_mtu(self):
        packet = make_packet(bytes(1000))
        for fragment in fragment_packet(packet, 300):
            assert fragment.total_length <= 300

    def test_non_final_fragments_8_byte_aligned(self):
        fragments = fragment_packet(make_packet(bytes(500)), 120)
        for fragment in fragments[:-1]:
            assert len(fragment.payload) % 8 == 0

    def test_offsets_are_contiguous(self):
        fragments = fragment_packet(make_packet(bytes(500)), 120)
        offset = 0
        for fragment in fragments:
            assert fragment.frag_offset * 8 == offset
            offset += len(fragment.payload)

    def test_mf_flags(self):
        fragments = fragment_packet(make_packet(bytes(500)), 120)
        assert all(f.mf for f in fragments[:-1])
        assert not fragments[-1].mf

    def test_df_prevents_fragmentation(self):
        with pytest.raises(ValueError):
            fragment_packet(make_packet(bytes(500), df=True), 120)

    def test_mtu_below_minimum_rejected(self):
        with pytest.raises(ValueError):
            fragment_packet(make_packet(bytes(500)), 40)

    @given(st.binary(min_size=1, max_size=3000),
           st.integers(min_value=68, max_value=1500))
    @settings(max_examples=60)
    def test_roundtrip_property(self, payload, mtu):
        """fragment + reassemble == identity, for any payload and MTU."""
        packet = make_packet(payload)
        fragments = fragment_packet(packet, mtu)
        if len(fragments) == 1:
            assert fragments[0].payload == payload
            return
        cache = ReassemblyCache()
        result = None
        for fragment in fragments:
            result = cache.add(fragment, now=0.0)
        assert result is not None
        assert result.payload == payload
        assert not result.is_fragment


class TestReassemblyCache:
    def test_out_of_order_reassembly(self):
        fragments = fragment_packet(make_packet(bytes(range(200)) * 2), 120)
        cache = ReassemblyCache()
        result = None
        for fragment in reversed(fragments):
            result = cache.add(fragment, now=0.0)
        assert result is not None
        assert result.payload == bytes(range(200)) * 2

    def test_first_arrival_wins_on_overlap(self):
        """The property FragDNS exploits: planted fragments persist."""
        packet = make_packet(bytes(100))
        fragments = fragment_packet(packet, 68)
        planted = fragments[1].with_payload(b"\xE1" * len(
            fragments[1].payload))
        cache = ReassemblyCache()
        assert cache.add(planted, now=0.0) is None
        result = cache.add(fragments[0], now=0.1)
        if result is None:
            # More than two fragments: feed the rest.
            for fragment in fragments[2:]:
                result = cache.add(fragment, now=0.1)
        assert result is not None
        offset = fragments[1].frag_offset * 8
        assert result.payload[offset:offset + 8] == b"\xE1" * 8

    def test_distinct_idents_do_not_mix(self):
        f_a = fragment_packet(make_packet(bytes(100), ident=1), 68)
        f_b = fragment_packet(make_packet(bytes(100), ident=2), 68)
        cache = ReassemblyCache()
        assert cache.add(f_a[0], 0.0) is None
        assert cache.add(f_b[1], 0.0) is None
        # Completing ident=1 requires ident=1 fragments only.
        result = None
        for fragment in f_a[1:]:
            result = cache.add(fragment, 0.0)
        assert result is not None

    def test_timeout_expires_partials(self):
        fragments = fragment_packet(make_packet(bytes(100)), 68)
        cache = ReassemblyCache(timeout=5.0)
        cache.add(fragments[0], now=0.0)
        cache.expire(now=10.0)
        assert len(cache) == 0
        assert cache.timeouts == 1

    def test_capacity_evicts_oldest(self):
        cache = ReassemblyCache(capacity=4)
        for ident in range(6):
            fragment = fragment_packet(
                make_packet(bytes(100), ident=ident), 68)[0]
            cache.add(fragment, now=float(ident))
        assert len(cache) == 4
        assert cache.evictions == 2

    def test_default_capacity_is_linux_like(self):
        assert ReassemblyCache().capacity == LINUX_FRAG_CAPACITY == 64

    def test_non_fragment_rejected(self):
        with pytest.raises(ValueError):
            ReassemblyCache().add(make_packet(b"whole"), 0.0)

    def test_reassembled_counter(self):
        cache = ReassemblyCache()
        for fragment in fragment_packet(make_packet(bytes(100)), 68):
            cache.add(fragment, 0.0)
        assert cache.reassembled == 1

    def test_time_going_backwards_raises(self):
        fragments = fragment_packet(make_packet(bytes(100), ident=1), 68)
        cache = ReassemblyCache()
        cache.add(fragments[0], now=2.0)
        cache.add(fragments[1], now=2.0)
        with pytest.raises(ValueError, match="backwards"):
            cache.add(fragments[2], now=1.0)


# -- the full scans the O(1) expiry and eviction replaced -------------------


def ref_expire(cache, now):
    stale = [
        key for key, partial in cache._partials.items()
        if now - partial.first_seen > cache.timeout
    ]
    for key in stale:
        del cache._partials[key]
        cache.timeouts += 1


def ref_add(cache, fragment, now):
    ref_expire(cache, now)
    key = fragment.fragment_key
    partial = cache._partials.get(key)
    if partial is None:
        if len(cache._partials) >= cache.capacity:
            oldest = min(cache._partials,
                         key=lambda k: cache._partials[k].first_seen)
            del cache._partials[oldest]
            cache.evictions += 1
        partial = _PartialDatagram(first_seen=now)
        cache._partials[key] = partial
    partial.add(fragment)
    payload = partial.try_reassemble()
    if payload is None:
        return None
    del cache._partials[key]
    cache.reassembled += 1
    return partial.template.evolve(
        payload=payload, mf=False, frag_offset=0, udp=None, icmp=None)


_DATAGRAMS = [fragment_packet(make_packet(bytes([ident]) * (100 + 24 * ident),
                                          ident=ident), 68)
              for ident in range(6)]


class TestReassemblyCacheScans:
    @given(capacity=st.integers(min_value=1, max_value=4),
           steps=st.lists(st.tuples(
               st.integers(min_value=0, max_value=5),
               st.integers(min_value=0, max_value=5),
               st.sampled_from([0.0, 0.0, 0.5, 1.0, 2.5, 6.0])),
               max_size=80))
    @settings(max_examples=150, deadline=None)
    def test_matches_the_full_scans(self, capacity, steps):
        """Prefix expiry and first-key eviction keep every counter, every
        returned packet and the cache contents of the old scans, ties in
        ``first_seen`` included."""
        fast = ReassemblyCache(capacity=capacity, timeout=5.0)
        ref = ReassemblyCache(capacity=capacity, timeout=5.0)
        now = 0.0
        for ident, index, step in steps:
            now += step
            fragments = _DATAGRAMS[ident]
            fragment = fragments[index % len(fragments)]
            assert fast.add(fragment, now) == ref_add(ref, fragment, now)
            assert (fast.evictions, fast.timeouts, fast.reassembled) \
                == (ref.evictions, ref.timeouts, ref.reassembled)
            assert [(key, partial.first_seen, partial.spans)
                    for key, partial in fast._partials.items()] \
                == [(key, partial.first_seen, partial.spans)
                    for key, partial in ref._partials.items()]
        fast.expire(now + 5.5)
        ref_expire(ref, now + 5.5)
        assert fast.timeouts == ref.timeouts
        assert list(fast._partials) == list(ref._partials)


# -- a spray planted in one call against one add per fragment ---------------

# Two fragments per datagram at MTU 68: 48 payload bytes at offset 0
# (MF set), then the last 32 at byte offset 48.
_PAIRS = [fragment_packet(make_packet(bytes([ident]) * 80, ident=ident), 68)
          for ident in range(6)]

# Spray shapes as (byte offset, payload, MF): a forged last fragment,
# which completes a waiting first fragment; a middle piece, which never
# completes one; and a forged first fragment, whose header a genuine
# last fragment reassembles with.
_SPRAYS = [(48, b"\xee" * 32, False), (48, b"\xdd" * 16, True),
           (0, b"\xcc" * 48, True)]


def _spray(shape, idents):
    offset, payload, mf = _SPRAYS[shape]
    return FragmentSpray("1.1.1.1", "2.2.2.2", offset, payload, mf,
                         tuple(idents))


def _contents(cache):
    return ([(key, partial.first_seen, partial.total_length, partial.spans,
              partial.template)
             for key, partial in cache._partials.items()],
            cache.evictions, cache.timeouts, cache.reassembled)


class TestReassemblyCachePlant:
    @given(capacity=st.integers(min_value=1, max_value=4),
           steps=st.lists(st.tuples(
               st.sampled_from([0.0, 0.0, 0.5, 2.5, 6.0]),
               st.one_of(
                   # one genuine fragment: (ident, first or last)
                   st.tuples(st.integers(min_value=0, max_value=5),
                             st.integers(min_value=0, max_value=1)),
                   # a spray: (shape, idents), repeats and all (never
                   # empty: a host sends no empty burst)
                   st.tuples(st.integers(min_value=0, max_value=2),
                             st.lists(st.integers(min_value=0, max_value=5),
                                      min_size=1, max_size=8)).map(
                       lambda spray: _spray(*spray)))),
               max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_plant_matches_one_add_per_fragment(self, capacity, steps):
        """Returned datagrams, counters, partial contents and their
        order, for sprays longer than the cache, repeated idents, ties
        and expiries in time, and genuine fragments in between."""
        bulk = ReassemblyCache(capacity=capacity, timeout=5.0)
        single = ReassemblyCache(capacity=capacity, timeout=5.0)
        now = 0.0
        for step, item in steps:
            now += step
            if type(item) is FragmentSpray:
                got = bulk.plant(item, now)
                expected = [packet for packet in (
                    single.add(fragment, now) for fragment in item.packets())
                    if packet is not None]
            else:
                ident, index = item
                got = [bulk.add(_PAIRS[ident][index], now)]
                expected = [single.add(_PAIRS[ident][index], now)]
            assert got == expected
            assert [packet.payload for packet in got if packet] \
                == [packet.payload for packet in expected if packet]
            assert _contents(bulk) == _contents(single)

    def test_plant_completes_a_waiting_first_fragment(self):
        """An ident whose genuine first fragment waits in the cache is
        not skipped: the forged last fragment completes the datagram,
        in spray order, between fragments that start new partials."""
        cache = ReassemblyCache(capacity=3)
        first, _last = _PAIRS[2]
        assert cache.add(first, 0.0) is None
        (poisoned,) = cache.plant(_spray(0, [4, 2, 5]), 0.5)
        assert poisoned.ident == 2
        assert poisoned.payload == first.payload + b"\xee" * 32
        assert not poisoned.is_fragment
        assert cache.reassembled == 1
        assert [key[3] for key in cache._partials] == [4, 5]
        assert cache.evictions == 0

    def test_plant_evicts_its_own_oldest_fragments(self):
        cache = ReassemblyCache(capacity=2)
        assert cache.plant(_spray(1, range(5)), 0.0) == []
        assert [key[3] for key in cache._partials] == [3, 4]
        assert cache.evictions == 3

    def test_plant_refuses_a_backwards_clock(self):
        cache = ReassemblyCache()
        cache.plant(_spray(0, [1]), 2.0)
        with pytest.raises(ValueError, match="backwards"):
            cache.plant(_spray(0, [2]), 1.0)
        assert len(cache) == 1
