"""Tests for the composable defense-stack API (repro.defenses).

Covers the stack value rules (canonical ordering, knob conflicts,
pickling), the purity of ``apply`` (no caller config is ever mutated),
ROV through real RPKI validation, planner defense-awareness, defended
campaigns (executor bit-identity), spot ablation verdicts, and the
atlas deployment projection.
"""

import pickle
from dataclasses import replace

import pytest

from repro.atlas.aggregate import ScanAggregate
from repro.atlas.calibrate import calibrate_population, project_deployment
from repro.attacks.planner import AttackPlanner, TargetProfile
from repro.bgp.prefix import Prefix
from repro.bgp.rpki import Roa
from repro.core.errors import NotApplicableError
from repro.defenses import (
    ALL_DEFENSES,
    DEFENSE_DNSSEC,
    DEFENSE_ROV,
    Defense,
    DefenseError,
    DefenseStack,
    LAYERS,
    RovDeployment,
    WorldConfig,
    available_defenses,
    pairwise_stacks,
    resolve_defense,
)
from repro.defenses.ablation import (
    classify_pair,
    defended_scenario,
    evaluate_defense_matrix,
)
from repro.defenses.catalog import PmtuClamp
from repro.dns.nameserver import NameserverConfig
from repro.dns.resolver import ResolverConfig
from repro.netsim.host import HostConfig
from repro.scenario import (
    AttackScenario,
    Campaign,
    scenario_from_profile,
    sweep_scenarios,
)


def http_profile(**overrides) -> TargetProfile:
    facts = dict(app_name="HTTP", query_name_known=True,
                 query_name_choosable=True, trigger_style="direct")
    facts.update(overrides)
    return TargetProfile(**facts)


class TestDefenseCatalog:
    def test_eight_section6_defenses_registered(self):
        assert len(ALL_DEFENSES) == 8
        assert len(available_defenses()) == 8

    def test_aliases_resolve_to_the_same_defense(self):
        assert resolve_defense("0x20") is resolve_defense("0x20-encoding")
        assert resolve_defense("rov") is DEFENSE_ROV
        assert resolve_defense("ROV") is DEFENSE_ROV

    def test_instances_pass_through(self):
        assert resolve_defense(DEFENSE_DNSSEC) is DEFENSE_DNSSEC

    def test_unknown_defense_fails_loudly(self):
        with pytest.raises(DefenseError, match="unknown defense"):
            resolve_defense("tinfoil-hat")

    def test_every_defense_declares_spec(self):
        for defense in ALL_DEFENSES:
            assert defense.layer in LAYERS
            assert defense.defeats
            assert defense.writes
            assert defense.paper_section
            assert defense.describe().startswith(f"[{defense.layer}]")


class TestDefenseStack:
    def test_canonical_ordering_is_declaration_insensitive(self):
        forward = DefenseStack.of("dnssec", "rpki-rov", "block-fragments")
        backward = DefenseStack.of("block-fragments", "rpki-rov", "dnssec")
        assert forward == backward
        assert forward.key == "block-fragments+dnssec+rpki-rov"
        # ip before dns before bgp: the packet's own traversal order.
        assert forward.layers == ("ip", "dns", "bgp")

    def test_empty_stack_is_falsy_none(self):
        stack = DefenseStack()
        assert not stack
        assert stack.key == "none"
        assert stack.defeats == ()

    def test_parse_round_trips_key(self):
        stack = DefenseStack.of("0x20-encoding", "pmtu-clamp")
        assert DefenseStack.parse(stack.key) == stack
        assert DefenseStack.parse("none") == DefenseStack()

    def test_defeats_is_member_union(self):
        stack = DefenseStack.of("no-icmp-errors", "randomize-records")
        assert stack.defeats == ("FragDNS", "SadDNS")

    def test_duplicate_defense_conflicts(self):
        with pytest.raises(DefenseError):
            DefenseStack.of("dnssec", "dnssec")

    def test_same_defense_different_tunables_is_a_duplicate(self):
        with pytest.raises(DefenseError, match="duplicate defense"):
            DefenseStack((PmtuClamp(min_mtu=552), PmtuClamp(min_mtu=1280)))

    def test_distinct_defenses_writing_one_knob_conflict(self):
        from dataclasses import dataclass

        @dataclass(frozen=True, slots=True)
        class RivalClamp(Defense):
            key = "rival-clamp"
            layer = "ip"
            paper_section = "test"
            description = "writes the same knob as pmtu-clamp"
            defeats = ("FragDNS",)
            writes = ("ns_host.min_accepted_mtu",)

            def apply(self, config):
                return config.with_ns_host(min_accepted_mtu=1280)

        with pytest.raises(DefenseError, match="min_accepted_mtu"):
            DefenseStack((PmtuClamp(), RivalClamp()))

    def test_non_defense_member_rejected(self):
        with pytest.raises(DefenseError, match="not a Defense"):
            DefenseStack(("dnssec",))  # names go through .of()

    def test_stacks_and_defenses_pickle(self):
        for defense in ALL_DEFENSES:
            assert pickle.loads(pickle.dumps(defense)) == defense
        stack = DefenseStack.of("pmtu-clamp", "rpki-rov", "dnssec")
        clone = pickle.loads(pickle.dumps(stack))
        assert clone == stack
        assert clone.key == stack.key

    def test_defended_scenarios_pickle(self):
        scenario = AttackScenario(
            method="hijack", defenses=DefenseStack.of("rpki-rov"))
        clone = pickle.loads(pickle.dumps(scenario))
        assert clone.defense_key == "rpki-rov"


class TestApplyPurity:
    def test_apply_never_mutates_caller_configs(self):
        resolver = ResolverConfig(allowed_clients=["30.0.0.0/24"])
        ns = NameserverConfig()
        resolver_host = HostConfig()
        ns_host = HostConfig()
        config = WorldConfig(resolver_config=resolver, ns_config=ns,
                             resolver_host_config=resolver_host,
                             ns_host_config=ns_host)
        defended = DefenseStack(tuple(ALL_DEFENSES)).apply(config)
        # Every knob the stack writes landed on copies...
        assert defended.resolver_config.use_0x20
        assert defended.resolver_config.validates_dnssec
        assert defended.ns_config.randomize_record_order
        assert not defended.resolver_host_config.accept_fragments
        assert defended.ns_host_config.min_accepted_mtu == 552
        assert defended.signed_target
        assert defended.rov is not None
        # ...and the originals are untouched.
        assert not resolver.use_0x20
        assert not resolver.validates_dnssec
        assert not ns.randomize_record_order
        assert resolver_host.accept_fragments
        assert ns_host.min_accepted_mtu != 552

    def test_scenario_world_build_keeps_scenario_configs_clean(self):
        host_config = HostConfig(ephemeral_low=20000, ephemeral_high=20999)
        scenario = AttackScenario(
            method="hijack", resolver_host_config=host_config,
            defenses=DefenseStack.of("block-fragments"))
        world = scenario.make_world(seed=0)
        assert not world["resolver"].host.config.accept_fragments
        assert host_config.accept_fragments  # caller's object untouched

    def test_defaults_materialise_before_rewrite(self):
        defended = DefenseStack.of("0x20-encoding").apply(WorldConfig())
        assert defended.resolver_config.use_0x20
        # The materialised default mirrors the standard testbed's ACL.
        assert defended.resolver_config.allowed_clients == ["30.0.0.0/24"]


class TestRovDefense:
    def test_default_deployment_protects_target_prefix(self):
        world = AttackScenario(
            method="hijack",
            defenses=DefenseStack.of("rpki-rov")).make_world(seed=0)
        rov = world["rov"]
        assert rov.validate("123.0.0.0/24", 123) == "valid"
        assert rov.validate("123.0.0.0/24", 666) == "invalid"
        assert rov.filters("123.0.0.0/24", 666)

    def test_uncovered_prefix_is_unknown_and_not_filtered(self):
        # The paper's headline caveat: ROV drops only invalid routes.
        deployment = RovDeployment(roas=(
            Roa(prefix=Prefix.parse("10.0.0.0/8"), max_length=24,
                origin=10),
        ))
        filter_ = deployment.deploy({})  # explicit ROAs: no world lookup
        assert filter_.validate("123.0.0.0/24", 666) == "unknown"
        assert not filter_.filters("123.0.0.0/24", 666)

    def test_rov_blocks_hijack_through_validation(self):
        run = AttackScenario(
            method="hijack",
            defenses=DefenseStack.of("rpki-rov")).run(seed=3)
        assert not run.success
        assert run.result.detail["rov_state"] == "invalid"
        assert "filtered" in run.result.detail["reason"]
        assert run.result.packets_sent == 1  # the filtered announcement

    def test_unknown_verdict_lets_hijack_through(self):
        # ROAs that do not cover the hijacked prefix leave it unknown —
        # the hijack proceeds even though ROV is "deployed".
        stack = DefenseStack((replace(
            DEFENSE_ROV, deployment=RovDeployment(roas=(
                Roa(prefix=Prefix.parse("10.0.0.0/8"), max_length=24,
                    origin=10),
            ))),))
        run = AttackScenario(method="hijack", defenses=stack).run(seed=3)
        assert run.success
        assert run.result.detail["rov_state"] == "unknown"


class TestPlannerDefenseAwareness:
    def test_plan_without_defenses_equals_assess(self):
        planner = AttackPlanner()
        profile = http_profile()
        planned = planner.plan(profile)
        assessed = planner.assess(profile)
        assert {m: c.applicable for m, c in planned.choices.items()} \
            == {m: c.applicable for m, c in assessed.choices.items()}

    def test_each_defense_kills_exactly_its_methods(self):
        planner = AttackPlanner()
        profile = http_profile()
        baseline = {m: c.applicable
                    for m, c in planner.assess(profile).choices.items()}
        assert all(baseline.values())
        for defense in ALL_DEFENSES:
            verdict = planner.plan(profile, DefenseStack.of(defense))
            for method, choice in verdict.choices.items():
                expected = baseline[method] \
                    and method not in defense.defeats
                assert choice.applicable == expected, \
                    (defense.key, method)

    def test_stack_union_kills_union(self):
        planner = AttackPlanner()
        stack = DefenseStack.of("rpki-rov", "0x20-encoding",
                                "block-fragments")
        verdict = planner.plan(http_profile(), stack)
        assert not verdict.choices["HijackDNS"].applicable
        assert not verdict.choices["SadDNS"].applicable
        assert not verdict.choices["FragDNS"].applicable

    def test_bridge_picks_residual_method_under_rov(self):
        scenario = scenario_from_profile(
            http_profile(), defenses=DefenseStack.of("rpki-rov"))
        assert scenario.canonical_method == "FragDNS"
        assert scenario.defense_key == "rpki-rov"

    def test_bridge_raises_when_stack_kills_everything(self):
        with pytest.raises(NotApplicableError):
            scenario_from_profile(http_profile(),
                                  defenses=DefenseStack.of("dnssec"))

    def test_explicit_method_respects_defenses(self):
        with pytest.raises(NotApplicableError, match="ROV"):
            scenario_from_profile(http_profile(), method="hijack",
                                  defenses=DefenseStack.of("rpki-rov"))


class TestDefendedCampaigns:
    STACKS = ("rpki-rov", "dnssec")

    def flatten(self, result):
        return [(run.label, run.seed, run.defense, run.success,
                 run.packets_sent, run.queries_triggered, run.duration)
                for run in result.runs]

    def defended(self, executor, workers=None):
        scenarios = [s for s in sweep_scenarios()
                     if s.method in ("HijackDNS", "FragDNS")]
        return Campaign(executor=executor, workers=workers).run_defended(
            scenarios, stacks=self.STACKS, seeds=range(3))

    def test_grid_shape_and_matrix(self):
        result = self.defended("serial")
        # 2 scenarios x (undefended + 2 stacks) x 3 seeds.
        assert len(result.runs) == 18
        assert result.defended
        matrix = result.defense_matrix()
        assert matrix[("none", "HijackDNS")].success_rate == 1.0
        assert matrix[("rpki-rov", "HijackDNS")].success_rate == 0.0
        assert matrix[("rpki-rov", "FragDNS")].success_rate \
            == matrix[("none", "FragDNS")].success_rate
        assert matrix[("dnssec", "FragDNS")].success_rate == 0.0
        assert set(result.by_defense()) == {"none", "rpki-rov", "dnssec"}

    def test_describe_renders_residual_table(self):
        text = self.defended("serial").describe()
        assert "Defense residuals" in text
        assert "rpki-rov" in text

    def test_thread_executor_bit_identical(self):
        serial = self.defended("serial")
        threaded = self.defended("thread", workers=4)
        assert self.flatten(serial) == self.flatten(threaded)

    def test_process_executor_bit_identical(self):
        serial = self.defended("serial")
        pooled = self.defended("process", workers=2)
        assert pooled.executor == "process"
        assert self.flatten(serial) == self.flatten(pooled)

    def test_composite_stack_keys_round_trip(self):
        # A key read off defense_matrix()/ScenarioRun.defense (or the
        # CLI --defend spelling) feeds straight back in.
        result = Campaign(executor="serial").run_defended(
            AttackScenario(method="hijack"),
            stacks=["dnssec+rpki-rov"], seeds=range(2))
        assert ("dnssec+rpki-rov", "HijackDNS") in result.defense_matrix()

    def test_empty_stack_list_rejected(self):
        from repro.core.errors import ScenarioError

        with pytest.raises(ScenarioError, match="no defense stacks"):
            Campaign(executor="serial").run_defended(
                AttackScenario(method="hijack"), stacks=[],
                seeds=range(1))

    def test_undefended_campaign_has_no_residual_table(self):
        result = Campaign(executor="serial").run(
            AttackScenario(method="hijack"), seeds=range(2))
        assert not result.defended
        assert "Defense residuals" not in result.describe()

    def test_defended_campaign_residuals(self):
        """A (method x stack) sweep reports the expected residuals."""
        pair = DefenseStack.of("0x20-encoding", "block-fragments")
        result = Campaign(executor="serial").run_defended(
            sweep_scenarios(),
            stacks=[DefenseStack.of("rpki-rov"), DefenseStack.of("dnssec"),
                    pair],
            seeds=range(4))
        matrix = result.defense_matrix()
        # The undefended baseline keeps the paper's effectiveness ordering.
        assert matrix[("none", "HijackDNS")].success_rate == 1.0
        # ROV removes only the hijack; DNSSEC zeroes every method.
        assert matrix[("rpki-rov", "HijackDNS")].success_rate == 0.0
        assert matrix[("rpki-rov", "FragDNS")].success_rate \
            == matrix[("none", "FragDNS")].success_rate
        for method in ("HijackDNS", "SadDNS", "FragDNS"):
            assert matrix[("dnssec", method)].success_rate == 0.0
        # The 0x20+block-fragments pair is complementary: SadDNS and
        # FragDNS both die while the hijack sails on.
        assert matrix[(pair.key, "HijackDNS")].success_rate == 1.0
        assert matrix[(pair.key, "FragDNS")].success_rate == 0.0


class TestAblationGrid:
    @pytest.mark.parametrize(
        "attack,defenses,seed,budgets,succeeds",
        [("HijackDNS", (), "spot-1-HijackDNS-none", {}, True),
         ("HijackDNS", ("dnssec",), "spot-2-HijackDNS-dnssec", {}, False),
         ("SadDNS", ("randomized-icmp-limit",),
          "spot-3-SadDNS-randomized-icmp-limit",
          {"saddns_iterations": 25}, False),
         ("FragDNS", ("block-fragments",),
          "spot-4-FragDNS-block-fragments", {"frag_attempts": 25}, False)],
        ids=["baseline-hijack", "dnssec-hijack", "randomized-icmp-saddns",
             "block-fragments-fragdns"])
    def test_spot_cell_verdicts(self, attack, defenses, seed, budgets,
                                succeeds):
        """Single cells of the Section 6 grid (the full grid runs in
        bench_ablation): the baseline succeeds, each defense blocks."""
        scenario = defended_scenario(attack, DefenseStack.of(*defenses),
                                     **budgets)
        assert scenario.run(seed=seed).success is succeeds

    def test_0x20_cell_rejects_the_flood_by_case(self):
        """The SadDNS-vs-0x20 cell is blocked by the 0x20 check itself:
        the one forged response per flood with the right TXID fails on
        its letter case, every other one on its TXID."""
        from repro.attacks.base import cache_poisoned
        from repro.testbed import ATTACKER_IP, FRAG_TARGET_NAME

        scenario = defended_scenario("SadDNS",
                                     DefenseStack.of("0x20-encoding"),
                                     saddns_iterations=6)
        built = scenario.build(seed="spot-5-3")
        run = built.execute()
        stats = built.resolver.stats
        assert not run.success
        assert stats.rejected_case > 0
        assert stats.rejected_txid >= 0xFFFF * stats.rejected_case
        assert stats.rejected_source + stats.rejected_txid \
            + stats.rejected_question + stats.rejected_case \
            == stats.rejected_responses
        assert not cache_poisoned(built.resolver, FRAG_TARGET_NAME,
                                  ATTACKER_IP, mark=False)
        assert not built.resolver.cache.contains_poison(built.network.now)

    def test_rov_cell_goes_through_real_rpki(self):
        scenario = defended_scenario("HijackDNS",
                                     DefenseStack.of("rpki-rov"))
        run = scenario.run(seed="rov-cell")
        assert not run.success
        assert run.result.detail["rov_state"] == "invalid"

    def test_matrix_runs_parallel_bit_identically(self):
        stacks = [DefenseStack(), DefenseStack.of("dnssec")]
        serial = evaluate_defense_matrix(
            stacks, attacks=("HijackDNS", "FragDNS"), seed="par",
            frag_attempts=25, executor="serial")
        pooled = evaluate_defense_matrix(
            stacks, attacks=("HijackDNS", "FragDNS"), seed="par",
            frag_attempts=25, executor="process", workers=2)
        assert [(c.attack, c.defense, c.attack_succeeded)
                for c in serial] \
            == [(c.attack, c.defense, c.attack_succeeded)
                for c in pooled]

    def test_pairwise_stacks_and_classification(self):
        pairs = pairwise_stacks()
        assert len(pairs) == 28
        assert classify_pair(
            DefenseStack.of("block-fragments", "pmtu-clamp")) \
            == "redundant"
        assert classify_pair(
            DefenseStack.of("dnssec", "rpki-rov")) == "redundant"
        assert classify_pair(
            DefenseStack.of("no-icmp-errors", "randomize-records")) \
            == "complementary"
        with pytest.raises(ValueError):
            classify_pair(DefenseStack.of("dnssec"))


class TestDeploymentProjection:
    def aggregate(self) -> ScanAggregate:
        aggregate = ScanAggregate(kind="resolver")
        aggregate.count = 1000
        aggregate.strata.update({
            "hijack": 500, "hijack+frag": 200, "frag": 100,
            "saddns": 50, "none": 150,
        })
        return aggregate

    def test_weights_sum_to_one_hundred_percent(self):
        projection = project_deployment(
            self.aggregate(), "unit",
            [DefenseStack.of("rpki-rov"), DefenseStack.of("dnssec")])
        assert sum(s.weight for s in projection.strata) \
            == pytest.approx(1.0)
        assert "100.0%" in projection.describe()

    def test_dnssec_neutralizes_the_attackable_surface(self):
        projection = project_deployment(
            self.aggregate(), "unit", [DefenseStack.of("dnssec")])
        assert projection.attackable_weight == pytest.approx(0.85)
        assert projection.neutralized_weight("dnssec") \
            == pytest.approx(0.85)
        assert projection.neutralized_surface("dnssec") \
            == pytest.approx(1.0)

    def test_rov_leaves_fallback_methods_alive(self):
        projection = project_deployment(
            self.aggregate(), "unit", [DefenseStack.of("rpki-rov")])
        by_stratum = {s.stratum: s for s in projection.strata}
        # Pure hijack stratum is neutralized...
        assert by_stratum["hijack"].neutralized_by("rpki-rov")
        # ...but the combined stratum falls back to FragDNS.
        assert by_stratum["hijack+frag"].residual["rpki-rov"] == "FragDNS"
        assert projection.neutralized_weight("rpki-rov") \
            == pytest.approx(0.5)

    def test_unknown_stack_key_raises_instead_of_neutralized(self):
        projection = project_deployment(
            self.aggregate(), "unit", [DefenseStack.of("rpki-rov")])
        with pytest.raises(KeyError, match="not projected"):
            projection.neutralized_weight("dnsec")  # typo'd key

    def test_defended_calibration_validates_and_runs_residuals(self):
        report = calibrate_population(
            self.aggregate(), dataset="unit", sample_budget=6,
            defenses=DefenseStack.of("rpki-rov"))
        assert report.defenses == "rpki-rov"
        assert report.validated_fraction == 1.0
        by_stratum = {s.stratum: s for s in report.strata}
        assert by_stratum["hijack"].runs == 0       # neutralized
        assert by_stratum["hijack+frag"].chosen_method == "FragDNS"
        assert "defended by rpki-rov" in report.describe()

    def test_undefended_calibration_unchanged(self):
        report = calibrate_population(self.aggregate(), dataset="unit",
                                      sample_budget=6)
        assert report.defenses == "none"
        assert report.validated_fraction == 1.0
