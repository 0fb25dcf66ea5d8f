"""Tests for triggers and the Table 1 applicability planner."""

from repro.attacks.planner import (
    AttackPlanner,
    TargetProfile,
)
from repro.attacks.trigger import (
    CallableTrigger,
    OpenResolverTrigger,
    SpoofedClientTrigger,
)
from repro.core.rng import DeterministicRNG
from repro.testbed import RESOLVER_IP, SERVICE_IP, standard_testbed


def profile(**overrides) -> TargetProfile:
    base = dict(
        app_name="test", query_name_known=True, query_name_choosable=True,
        trigger_style="direct",
    )
    base.update(overrides)
    return TargetProfile(**base)


class TestPlanner:
    def setup_method(self):
        self.planner = AttackPlanner()

    def test_fully_triggerable_target_all_methods(self):
        verdict = self.planner.assess(profile())
        assert all(c.applicable for c in verdict.choices.values())
        assert verdict.best().method == "HijackDNS"

    def test_timer_only_blocks_saddns(self):
        verdict = self.planner.assess(profile(
            query_name_choosable=False, trigger_style="waiting"))
        assert not verdict.choices["SadDNS"].applicable
        assert verdict.choices["FragDNS"].applicable
        assert verdict.choices["FragDNS"].needs_third_party

    def test_unknown_unchoosable_name(self):
        verdict = self.planner.assess(profile(
            query_name_known=False, query_name_choosable=False,
            trigger_style="direct", third_party_trigger=False))
        assert not verdict.choices["SadDNS"].applicable
        assert not verdict.choices["FragDNS"].applicable
        assert verdict.choices["HijackDNS"].applicable  # waits it out

    def test_third_party_trigger_marks_footnote(self):
        verdict = self.planner.assess(profile(
            query_name_known=False, query_name_choosable=False,
            third_party_trigger=True))
        assert verdict.choices["SadDNS"].symbol == "v2"
        assert verdict.choices["FragDNS"].symbol == "v2"
        assert verdict.choices["HijackDNS"].symbol == "v"

    def test_dnssec_blocks_everything(self):
        verdict = self.planner.assess(profile(dnssec_validated=True))
        assert all(not c.applicable for c in verdict.choices.values())
        assert verdict.best() is None

    def test_saddns_requires_icmp_limit_and_rrl(self):
        no_limit = self.planner.assess(profile(
            resolver_global_icmp_limit=False))
        assert not no_limit.choices["SadDNS"].applicable
        no_rrl = self.planner.assess(profile(ns_rate_limited=False))
        assert not no_rrl.choices["SadDNS"].applicable

    def test_fragdns_requirements(self):
        for switch in ("ns_honours_ptb", "response_can_exceed_frag_limit",
                       "resolver_edns_at_least_response",
                       "resolver_accepts_fragments"):
            verdict = self.planner.assess(profile(**{switch: False}))
            assert not verdict.choices["FragDNS"].applicable, switch

    def test_best_falls_back_when_hijack_impossible(self):
        verdict = self.planner.assess(profile())
        verdict.choices["HijackDNS"].applicable = False
        assert verdict.best().method == "FragDNS"


class TestTriggers:
    def test_spoofed_client_trigger_causes_resolution(self):
        world = standard_testbed(seed="trigger-1")
        trigger = SpoofedClientTrigger(world["attacker"], RESOLVER_IP,
                                       SERVICE_IP)
        trigger.fire("vict.im", "A")
        world["testbed"].run()
        assert world["resolver"].stats.client_queries == 1
        assert world["resolver"].stats.upstream_queries >= 1
        assert trigger.fired == 1

    def test_open_resolver_trigger(self):
        world = standard_testbed(seed="trigger-2")
        world["resolver"].config.open_to_world = True
        trigger = OpenResolverTrigger(world["attacker"], RESOLVER_IP)
        trigger.fire("vict.im", "A")
        world["testbed"].run()
        assert world["resolver"].stats.client_queries == 1

    def test_callable_trigger_adapts_functions(self):
        calls = []
        trigger = CallableTrigger(lambda q, t: calls.append((q, t)),
                                  style="bounce", cadence_seconds=60.0)
        trigger.fire("vict.im", "A")
        assert calls == [("vict.im", "A")]
        assert trigger.cadence() == 60.0
        assert trigger.style == "bounce"
