"""End-to-end kill-chain tests: attack -> poisoned cache -> app impact.

Covers the application stage of the scenario API: every Table 1
application under every methodology its driver can execute, the
declarative app trigger, campaign impact aggregation, executor parity
for app campaigns, the dynamic impact experiment, and the atlas
impact-projection bridge.
"""

import pickle

import pytest

from collections import Counter

from repro.apps import (
    ALL_APPLICATIONS,
    AppOutcome,
    AppSpec,
    AppStageResult,
    available_apps,
    driver_for,
    impact_class,
    resolve_driver,
)
from repro.atlas.aggregate import ScanAggregate
from repro.atlas.calibrate import calibrate_population
from repro.attacks.planner import AttackPlanner, TargetProfile
from repro.core.errors import ScenarioError
from repro.experiments import impact
from repro.experiments.table1 import INFRASTRUCTURE_OVERRIDES, application_key
from repro.scenario import (
    AttackScenario,
    Campaign,
    TriggerSpec,
    killchain_scenarios,
)
from repro.scenario.cli import main as scenario_cli

ALL_APP_NAMES = sorted(available_apps())


def killchain(app: str, method: str = "hijack",
              **overrides) -> AttackScenario:
    from repro.scenario.presets import budget_capped_overrides
    from repro.scenario.registry import resolve_method

    kwargs = dict(budget_capped_overrides(resolve_method(method).name))
    kwargs.update(overrides)
    return AttackScenario(
        method=method, app_spec=AppSpec(app=app),
        trigger=TriggerSpec(kind="app"), **kwargs)


def applicable_cells() -> list[tuple[str, str]]:
    """(app, method) cells: planner-applicable AND driver-executable."""
    planner = AttackPlanner()
    cells = []
    for app_class in ALL_APPLICATIONS:
        key = application_key(app_class)
        overrides = INFRASTRUCTURE_OVERRIDES.get(key, {})
        instance = app_class.__new__(app_class)
        verdict = planner.assess(instance.target_profile(**overrides))
        driver = driver_for(app_class)
        for method, choice in verdict.choices.items():
            if choice.applicable and method in driver.methods:
                cells.append((driver.name, method))
    return cells


class TestAppSpecValueObjects:
    def test_app_spec_frozen_slots_picklable(self):
        spec = AppSpec.of("dv", tries=3)
        assert spec.params == (("tries", 3),)
        assert spec.kwargs() == {"tries": 3}
        with pytest.raises(AttributeError):
            spec.app = "other"
        assert not hasattr(spec, "__dict__")
        assert pickle.loads(pickle.dumps(spec)) == spec

    def test_app_outcome_frozen_slots_picklable(self):
        outcome = AppOutcome(app="http", action="fetch", ok=True,
                             used_address="6.6.6.6",
                             detail={"body": "x"})
        with pytest.raises(AttributeError):
            outcome.ok = False
        assert not hasattr(outcome, "__dict__")
        assert pickle.loads(pickle.dumps(outcome)) == outcome

    def test_app_stage_result_picklable(self):
        stage = AppStageResult(
            app="dv", impact="Hijack: fraud. certificate",
            impact_class="Hijack", realized=True,
            outcomes=(AppOutcome(app="ca", action="issue", ok=True),),
        )
        clone = pickle.loads(pickle.dumps(stage))
        assert clone == stage
        assert clone.fraud_certificate
        assert not clone.takeover

    def test_impact_class_parses_table1_cells(self):
        assert impact_class("Hijack: eavesdropping") == "Hijack"
        assert impact_class("Downgrade: no ROV") == "Downgrade"
        assert impact_class("DoS: no VPN aceess") == "DoS"
        with pytest.raises(ValueError):
            impact_class("Mystery: outcome")


class TestDriverRegistry:
    def test_every_table1_application_has_a_driver(self):
        assert len(ALL_APP_NAMES) == len(ALL_APPLICATIONS) == 20
        for app_class in ALL_APPLICATIONS:
            driver = driver_for(app_class)
            assert driver.application is app_class
            assert driver.impact == app_class.row.impact

    def test_unknown_driver_raises(self):
        with pytest.raises(ScenarioError, match="unknown application"):
            resolve_driver("quantum-banking")

    def test_hijack_executable_for_every_driver(self):
        for name in ALL_APP_NAMES:
            assert "HijackDNS" in resolve_driver(name).methods


class TestKillChainHijack:
    """Every Table 1 row realizes its impact cell under HijackDNS."""

    @pytest.mark.parametrize("app", ALL_APP_NAMES)
    def test_impact_realized(self, app):
        run = killchain(app).run(seed=f"kc-{app}")
        assert run.success
        assert run.app_result is not None
        assert run.impact_realized
        assert run.app_result.impact == resolve_driver(app).impact

    @pytest.mark.parametrize("app", ALL_APP_NAMES)
    def test_failed_attack_realizes_nothing(self, app):
        run = killchain(app, capture_possible=False).run(
            seed=f"kc-clean-{app}")
        assert not run.success
        assert run.app_result is not None
        assert not run.impact_realized


class TestKillChainAllMethods:
    """Planner-applicable cells execute; impact tracks attack success."""

    @pytest.mark.parametrize("app,method", sorted(set(applicable_cells())))
    def test_cell_parity(self, app, method):
        seeds = [f"cell-{app}-{method}-{i}" for i in range(2)]
        for seed in seeds:
            run = killchain(app, method=method).run(seed=seed)
            # The app stage always runs; its impact is realized exactly
            # when the attack phase actually poisoned the cache.
            assert run.app_result is not None
            assert run.impact_realized == run.success

    def test_incompatible_method_raises(self):
        # FragDNS can only rewrite A rdata; the SPF workload needs a
        # planted TXT record.
        with pytest.raises(ScenarioError, match="cannot observe"):
            killchain("spf", method="frag").build(seed=0)

    def test_app_trigger_requires_app_spec(self):
        scenario = AttackScenario(method="hijack",
                                  trigger=TriggerSpec(kind="app"))
        with pytest.raises(ScenarioError, match="app_spec"):
            scenario.build(seed=0)

    def test_app_trigger_fires_in_app_style(self):
        built = killchain("smtp").build(seed="trigger-style")
        assert built.trigger.style == "direct/bounce"
        run = built.execute()
        assert built.trigger.fired == run.queries_triggered == 1

    def test_custom_malicious_record_with_noncanonical_name(self):
        # The planted address drives the counterfeit endpoint and the
        # attack's own success check, through name normalisation: an
        # upper-cased, dot-terminated record must behave identically.
        from repro.dns.records import rr_a

        run = killchain(
            "http",
            malicious_records=(rr_a("VICT.IM.", "6.6.6.7"),),
        ).run(seed="custom-record")
        assert run.success and run.impact_realized
        assert run.app_result.outcomes[0].used_address == "6.6.6.7"


class TestCampaignImpactAggregation:
    def test_by_app_and_rates(self):
        scenarios = killchain_scenarios(apps=["dv", "recovery", "ocsp"],
                                        methods=("hijack",))
        result = Campaign(executor="serial").run(scenarios, seeds=range(3))
        assert result.app_runs == 9
        assert result.impacts_realized == 9
        assert result.impact_rate == 1.0
        by_app = result.by_app()
        assert set(by_app) == {"dv", "recovery", "ocsp"}
        assert by_app["dv"].fraud_certs == 3
        assert by_app["recovery"].takeovers == 3
        assert by_app["ocsp"].downgrades == 3
        rendered = result.describe()
        assert "Application impact" in rendered
        assert "Hijack: fraud. certificate" in rendered

    def test_attack_only_campaign_reports_no_app_runs(self):
        result = Campaign(executor="serial").run(
            AttackScenario(method="hijack"), seeds=range(2))
        assert result.app_runs == 0
        assert result.impact_rate == 0.0
        assert "Application impact" not in result.describe()

    def test_killchain_scenarios_skip_inexecutable_cells(self):
        scenarios = killchain_scenarios(apps=["spf"],
                                        methods=("hijack", "frag",
                                                 "saddns"))
        methods = {s.canonical_method for s in scenarios}
        assert methods == {"HijackDNS", "SadDNS"}
        with pytest.raises(ScenarioError, match="no .* cell"):
            killchain_scenarios(apps=["spf"], methods=("frag",))


class TestExecutorParity:
    """App campaigns are bit-identical across every executor."""

    def flatten(self, result):
        return [
            (run.label, run.seed, run.success, run.packets_sent,
             run.queries_triggered, run.duration,
             run.app_result.realized, run.app_result.impact,
             run.app_result.outcomes)
            for run in result.runs
        ]

    def test_serial_thread_process_identical(self):
        scenarios = killchain_scenarios(apps=["dv", "http"],
                                        methods=("hijack", "frag"))
        seeds = range(3)
        serial = Campaign(executor="serial").run(scenarios, seeds=seeds)
        thread = Campaign(executor="thread", workers=4).run(scenarios,
                                                            seeds=seeds)
        process = Campaign(executor="process", workers=4).run(scenarios,
                                                              seeds=seeds)
        # No CallableTrigger fallback on the app path: the process pool
        # must accept the scenarios as-is.
        assert thread.notes == [] and process.notes == []
        reference = self.flatten(serial)
        assert self.flatten(thread) == reference
        assert self.flatten(process) == reference


class TestImpactExperiment:
    def test_dynamic_table_matches_static_metadata(self):
        result = impact.run(seed=0)
        assert result.data["matches"] == result.data["total"] == 20
        for row in result.rows:
            assert row[-1] == "yes"
            assert row[-3] == row[-2]  # measured == Table 1 cell


class TestTargetProfileDefaults:
    def test_defaults_are_canonical(self):
        defaults = TargetProfile.defaults()
        assert defaults["ns_prefix_longer_than_24"] is True
        assert defaults["dnssec_validated"] is False
        # _base_profile consumes the same dict: a profile built with no
        # overrides carries exactly the canonical assumption.
        instance = ALL_APPLICATIONS[0].__new__(ALL_APPLICATIONS[0])
        profile = instance.target_profile()
        for flag, value in defaults.items():
            assert getattr(profile, flag) == value

    def test_overrides_still_win(self):
        instance = ALL_APPLICATIONS[0].__new__(ALL_APPLICATIONS[0])
        profile = instance.target_profile(ns_rate_limited=False)
        assert profile.ns_rate_limited is False


class TestAtlasImpactProjection:
    def make_aggregate(self) -> ScanAggregate:
        return ScanAggregate(
            kind="resolver", count=100,
            strata=Counter({"hijack": 60, "none": 30, "frag": 10}),
        )

    def test_projection_weights_population(self):
        report = calibrate_population(self.make_aggregate(),
                                      dataset="unit", seed=0,
                                      sample_budget=6, app="dv")
        assert report.app == "dv"
        # hijack stratum realizes deterministically; the 30% clean
        # stratum contributes zero; frag is probabilistic but bounded.
        assert 0.6 <= report.impact_projection <= 0.7 + 0.1
        hijack = next(s for s in report.strata if s.stratum == "hijack")
        assert hijack.app == "dv"
        assert hijack.impact_rate == 1.0
        assert "impact projection" in report.describe()

    def test_app_restricted_to_executable_methods(self):
        aggregate = ScanAggregate(kind="resolver", count=10,
                                  strata=Counter({"frag": 10}))
        report = calibrate_population(aggregate, dataset="unit", seed=0,
                                      sample_budget=2, app="spf")
        stratum = report.strata[0]
        # SPF needs a planted TXT, which FragDNS cannot provide: the
        # attack still validates the stratum, without an app stage.
        assert stratum.app is None
        assert stratum.app_runs == 0
        assert "not executable" in stratum.app_note
        assert "not executable" in report.describe()

    def test_no_app_keeps_legacy_shape(self):
        report = calibrate_population(self.make_aggregate(),
                                      dataset="unit", seed=0,
                                      sample_budget=6)
        assert report.app is None
        assert report.impact_projection == 0.0
        assert "impact projection" not in report.describe()


class TestScenarioCli:
    def test_run_killchain(self, capsys):
        assert scenario_cli(["run", "--app", "dv", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "IMPACT REALIZED" in out
        assert "fraud. certificate" in out

    def test_run_rejects_incompatible_app_method(self, capsys):
        assert scenario_cli(["run", "--app", "spf",
                             "--method", "frag"]) == 2

    def test_sweep_and_report_roundtrip(self, tmp_path, capsys):
        record = tmp_path / "sweep.json"
        assert scenario_cli([
            "sweep", "--apps", "dv,ocsp", "--methods", "hijack",
            "--seeds", "2", "--executor", "serial",
            "--json", str(record),
        ]) == 0
        sweep_out = capsys.readouterr().out
        assert "Application impact" in sweep_out
        assert record.exists()
        assert scenario_cli(["report", "--json", str(record)]) == 0
        report_out = capsys.readouterr().out
        assert "Application impact (from record)" in report_out
        assert "dv" in report_out

    @pytest.mark.parametrize("seeds", ["0", "-2"])
    def test_sweep_bad_seed_count_is_a_usage_error(self, capsys, seeds):
        with pytest.raises(SystemExit) as exit_info:
            scenario_cli(["sweep", "--seeds", seeds])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "--seeds" in err

    def test_report_rejects_garbage(self, tmp_path):
        bogus = tmp_path / "bogus.json"
        bogus.write_text("{}")
        assert scenario_cli(["report", "--json", str(bogus)]) == 1
        assert scenario_cli(["report", "--json",
                             str(tmp_path / "missing.json")]) == 1
