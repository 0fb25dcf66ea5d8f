"""Tests for the structured event log and sequence rendering."""

from repro.core.eventlog import Event, EventLog


class TestEventLog:
    def test_record_and_query(self):
        log = EventLog()
        log.record(0.0, "attacker", "probe.sent", "x")
        log.record(1.0, "resolver", "probe.received", "y")
        log.record(2.0, "attacker", "probe.sent", "z")
        assert len(log) == 3
        assert log.count("probe") == 3

    def test_kind_prefix_matching(self):
        log = EventLog()
        log.record(0.0, "a", "icmp.rate_limited")
        log.record(0.0, "a", "icmp")
        log.record(0.0, "a", "icmpx")
        assert log.count("icmp") == 2  # prefix 'icmpx' must not match

    def test_capacity_bound(self):
        log = EventLog(capacity=2)
        for index in range(5):
            log.record(float(index), "a", "k")
        assert len(log) == 2

    def test_subscribers_notified(self):
        log = EventLog()
        seen = []
        log.subscribe(seen.append)
        event = log.record(0.0, "a", "k", "detail", foo=1)
        assert seen == [event]
        assert event.data["foo"] == 1

    def test_clear_keeps_subscribers(self):
        log = EventLog()
        seen = []
        log.subscribe(seen.append)
        log.record(0.0, "a", "k")
        log.clear()
        assert len(log) == 0
        log.record(1.0, "a", "k")
        assert len(seen) == 2

    def test_render_sequence_includes_arrows(self):
        log = EventLog()
        log.record(0.0, "attacker", "send", "spoofed probe",
                   src_actor="attacker", dst_actor="resolver")
        log.record(0.1, "resolver", "note", "thinking")
        text = log.render_sequence(["attacker", "resolver"])
        assert "attacker" in text and "resolver" in text
        assert ">" in text
        assert "spoofed probe" in text
        assert "thinking" in text

    def test_events_are_immutable(self):
        event = Event(time=0.0, actor="a", kind="k")
        try:
            event.time = 5.0
            raised = False
        except Exception:
            raised = True
        assert raised
