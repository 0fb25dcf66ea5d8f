"""Simulation-plane fault injection: specs, injector, scenario wiring.

The determinism contract under test: fault draws live on their own
derived RNG stream, so a no-op plan reproduces the clean run bit for
bit, and the same (seed, plan) always degrades the same packets.
"""

import pickle
from dataclasses import replace

import pytest

from repro.core.rng import DeterministicRNG
from repro.faults import (
    FaultError,
    FaultInjector,
    FaultPlan,
    ImpairmentSpec,
    install_plan,
    parse_impairment,
)
from repro.netsim.packet import PROTO_UDP, Ipv4Packet
from repro.scenario.spec import AttackScenario
from repro.store.schema import scenario_spec_hash
from repro.testbed import RESOLVER_IP, TARGET_NS_IP


def packet(src="10.0.0.1", dst="10.0.0.2"):
    return Ipv4Packet(src=src, dst=dst, proto=PROTO_UDP, payload=b"x")


class TestImpairmentSpec:
    def test_defaults_are_inactive(self):
        spec = ImpairmentSpec()
        assert not spec.active
        assert spec.matches("1.2.3.4", "5.6.7.8")

    def test_single_knob_activates(self):
        assert ImpairmentSpec(loss=0.01).active
        assert ImpairmentSpec(extra_latency=0.04).active
        assert ImpairmentSpec(jitter=0.01).active
        assert ImpairmentSpec(reorder=0.1).active
        assert ImpairmentSpec(duplicate=0.1).active

    @pytest.mark.parametrize("kwargs", [
        {"loss": 1.5},
        {"loss": -0.1},
        {"reorder": 2.0},
        {"duplicate": -1.0},
        {"extra_latency": -0.01},
        {"jitter": -1.0},
        {"src": ""},
        {"dst": ""},
    ])
    def test_validation_rejects(self, kwargs):
        with pytest.raises(FaultError):
            ImpairmentSpec(**kwargs)

    def test_matches_patterns(self):
        spec = ImpairmentSpec(src="30.0.0.*", dst="123.0.0.53")
        assert spec.matches("30.0.0.1", "123.0.0.53")
        assert not spec.matches("30.0.0.1", "123.0.0.80")
        assert not spec.matches("6.6.6.6", "123.0.0.53")

    def test_describe_names_the_knobs(self):
        text = ImpairmentSpec(dst="123.0.0.53", loss=0.02,
                              extra_latency=0.04).describe()
        assert "loss=0.02" in text
        assert "+40ms" in text
        assert "*->123.0.0.53" in text

    def test_pickle_roundtrip(self):
        spec = ImpairmentSpec(src="a", dst="b", loss=0.1, jitter=0.02)
        assert pickle.loads(pickle.dumps(spec)) == spec


class TestParseImpairment:
    def test_full_spec(self):
        spec = parse_impairment(
            "src=30.0.0.1, dst=123.0.0.53, loss=0.02, latency=0.04")
        assert spec == ImpairmentSpec(src="30.0.0.1", dst="123.0.0.53",
                                      loss=0.02, extra_latency=0.04)

    def test_aliases(self):
        spec = parse_impairment("latency=0.1,dup=0.5")
        assert spec.extra_latency == 0.1
        assert spec.duplicate == 0.5

    def test_unknown_key_rejected(self):
        with pytest.raises(FaultError, match="unknown impairment key"):
            parse_impairment("bandwidth=56k")

    def test_bad_token_rejected(self):
        with pytest.raises(FaultError, match="key=value"):
            parse_impairment("loss")


class TestFaultPlan:
    def test_empty_plan_is_falsy_noop(self):
        plan = FaultPlan()
        assert not plan
        assert plan.active_impairments == ()
        assert plan.describe() == "no-op fault plan"

    def test_inactive_impairments_stay_noop(self):
        plan = FaultPlan.of(ImpairmentSpec(dst="123.0.0.53"))
        assert not plan

    def test_link_is_symmetric_by_default(self):
        plan = FaultPlan.link("a", "b", loss=0.5)
        assert len(plan.impairments) == 2
        assert plan.impairments[0].matches("a", "b")
        assert plan.impairments[1].matches("b", "a")

    def test_link_asymmetric(self):
        plan = FaultPlan.link("a", "b", symmetric=False, loss=0.5)
        assert len(plan.impairments) == 1

    def test_chaos_seeds_make_the_plan_truthy(self):
        assert FaultPlan(crash_seeds=(3,))
        assert FaultPlan(flaky_seeds=(3,))
        assert "crash@seeds=[3]" in FaultPlan(crash_seeds=(3,)).describe()

    def test_flaky_failures_validated(self):
        with pytest.raises(FaultError):
            FaultPlan(flaky_seeds=(1,), flaky_failures=0)

    def test_non_spec_impairment_rejected(self):
        with pytest.raises(FaultError):
            FaultPlan(impairments=("loss=0.1",))

    def test_pickle_roundtrip(self):
        plan = FaultPlan.link("a", "b", loss=0.1, label="lossy")
        clone = pickle.loads(pickle.dumps(plan))
        assert clone == plan
        assert clone.label == "lossy"


class TestFaultInjector:
    def make(self, *specs):
        return FaultInjector(FaultPlan.of(*specs),
                             DeterministicRNG("test-faults"))

    def test_certain_loss_drops(self):
        injector = self.make(ImpairmentSpec(loss=1.0))
        assert injector.delays(packet(), 0.01) == ()

    def test_certain_duplicate_delivers_twice(self):
        injector = self.make(ImpairmentSpec(duplicate=1.0))
        assert injector.delays(packet(), 0.01) == (0.01, 0.01)

    def test_latency_adds_to_base(self):
        injector = self.make(ImpairmentSpec(extra_latency=0.04))
        assert injector.delays(packet(), 0.01) == pytest.approx((0.05,))

    def test_certain_reorder_pushes_late(self):
        injector = self.make(ImpairmentSpec(reorder=1.0,
                                            reorder_extra=0.2))
        (delay,) = injector.delays(packet(), 0.01)
        assert delay == pytest.approx(0.21)

    def test_non_matching_packet_draws_nothing(self):
        injector = self.make(ImpairmentSpec(dst="99.99.99.99", loss=1.0))
        state = injector.rng.getstate()
        assert injector.delays(packet(), 0.01) == (0.01,)
        # Zero RNG draws for unimpaired links: the stream position is
        # untouched, so adding a scoped impairment cannot shift the
        # degradation of other links.
        assert injector.rng.getstate() == state

    def test_spoofed_src_does_not_match_the_impaired_link(self):
        # The impairment is on the link out of 10.0.0.1; a spoofed
        # packet claiming that src but physically sent from elsewhere
        # never crossed it, so it passes clean (and draws nothing).
        injector = self.make(ImpairmentSpec(src="10.0.0.1", loss=1.0))
        state = injector.rng.getstate()
        assert injector.delays(packet(src="10.0.0.1"), 0.01,
                               origin="66.0.0.9") == (0.01,)
        assert injector.rng.getstate() == state
        # The genuine sender still suffers the loss.
        assert injector.delays(packet(src="10.0.0.1"), 0.01,
                               origin="10.0.0.1") == ()

    def test_same_stream_same_degradation(self):
        spec = ImpairmentSpec(loss=0.3, jitter=0.02)
        first = FaultInjector(FaultPlan.of(spec),
                              DeterministicRNG("stream"))
        second = FaultInjector(FaultPlan.of(spec),
                               DeterministicRNG("stream"))
        for _ in range(200):
            assert first.delays(packet(), 0.01) == \
                second.delays(packet(), 0.01)

    def test_install_plan_noop_for_empty_plan(self):
        assert install_plan(None, {}) is None
        assert install_plan(FaultPlan(), {}) is None
        assert install_plan(FaultPlan(crash_seeds=(1,)), {}) is None


class TestScenarioFaults:
    def test_noop_plan_is_bit_identical_to_clean(self):
        clean = AttackScenario(method="HijackDNS").run(seed=7)
        noop = AttackScenario(method="HijackDNS",
                              faults=FaultPlan()).run(seed=7)
        assert noop.result == clean.result
        assert "faults" not in noop.result.detail

    def test_unmatched_plan_leaves_statistics_clean(self):
        clean = AttackScenario(method="HijackDNS").run(seed=7)
        scoped = AttackScenario(
            method="HijackDNS",
            faults=FaultPlan.link("99.0.0.1", "99.0.0.2", loss=1.0),
        ).run(seed=7)
        # The injector is installed but never matches, so the attack
        # statistics are untouched and the counters prove it.
        assert scoped.result.detail["faults"] == {
            "dropped": 0, "delayed": 0, "duplicated": 0}
        assert scoped.success == clean.success
        assert scoped.packets_sent == clean.packets_sent
        assert scoped.duration == clean.duration

    def test_impaired_run_is_deterministic(self):
        scenario = AttackScenario(
            method="HijackDNS",
            faults=FaultPlan.link(RESOLVER_IP, TARGET_NS_IP,
                                  loss=0.2, extra_latency=0.04))
        first = scenario.run(seed=3)
        second = scenario.run(seed=3)
        assert first.result == second.result
        assert first.result.detail["faults"] == \
            second.result.detail["faults"]

    def test_latency_plan_counts_delayed_packets(self):
        scenario = AttackScenario(
            method="HijackDNS",
            faults=FaultPlan.link(RESOLVER_IP, TARGET_NS_IP,
                                  extra_latency=0.04))
        run = scenario.run(seed=0)
        faults = run.result.detail["faults"]
        assert faults["delayed"] > 0
        assert faults["dropped"] == 0

    def test_plan_is_part_of_the_spec_hash(self):
        clean = AttackScenario(method="HijackDNS")
        lossy = replace(clean, faults=FaultPlan.link(
            RESOLVER_IP, TARGET_NS_IP, loss=0.02))
        worse = replace(clean, faults=FaultPlan.link(
            RESOLVER_IP, TARGET_NS_IP, loss=0.05))
        hashes = {scenario_spec_hash(clean), scenario_spec_hash(lossy),
                  scenario_spec_hash(worse)}
        assert len(hashes) == 3
        assert scenario_spec_hash(lossy) == scenario_spec_hash(
            replace(clean, faults=FaultPlan.link(
                RESOLVER_IP, TARGET_NS_IP, loss=0.02)))

    def test_scenario_with_plan_pickles(self):
        scenario = AttackScenario(
            method="HijackDNS",
            faults=FaultPlan.link(RESOLVER_IP, TARGET_NS_IP, loss=0.1))
        clone = pickle.loads(pickle.dumps(scenario))
        assert clone.faults == scenario.faults


class TestFaultsCli:
    def test_impaired_sweep_exits_zero(self, capsys):
        from repro.faults.cli import main

        rc = main(["--method", "hijack", "--seeds", "2",
                   "--impair", "dst=123.0.0.53,loss=0.02,latency=0.04"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "fault plan:" in out
        assert "Campaign summary" in out

    def test_crash_seed_still_exits_zero(self, capsys, tmp_path):
        from repro.faults.cli import main
        from repro.store import RunStore

        db = tmp_path / "cli.db"
        rc = main(["--method", "hijack", "--seeds", "3",
                   "--crash-seed", "1", "--store", str(db)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "degraded gracefully" in out
        assert RunStore(db).count(status="failed") == 1

    def test_workers_auto_parses_and_runs(self, capsys):
        from repro.faults.cli import build_parser, main

        assert build_parser().parse_args(["--workers", "auto"]).workers \
            == "auto"
        rc = main(["--method", "hijack", "--seeds", "1",
                   "--workers", "auto"])
        assert rc == 0
        assert "1 runs in" in capsys.readouterr().out

    def test_bad_impairment_is_an_error(self, capsys):
        from repro.faults.cli import main

        assert main(["--impair", "bandwidth=56k"]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", [["--seeds", "0"], ["--seeds", "-1"],
                                     ["--retries", "-1"],
                                     ["--max-events", "0"]])
    def test_bad_counts_are_usage_errors(self, capsys, bad):
        from repro.faults.cli import main

        with pytest.raises(SystemExit) as exit_info:
            main(["--method", "hijack", *bad])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and bad[0] in err
