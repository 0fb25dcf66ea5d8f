"""Tests for the experiment registry (structure + key outcomes).

These tests check that every experiment runs, produces well-formed
output, and reproduces its headline qualitative result; the survey
tests also assert the shape of the paper's distributions at seed 0 and
scale 0.01.
"""

from collections import Counter

import pytest

import repro.parallel.kernel as kernel
from repro.atlas.aggregate import stratum_key
from repro.experiments import (
    ALL_EXPERIMENTS,
    degraded,
    figure1,
    figure2,
    figure3,
    figure4,
    figure5,
    section4,
    section5,
    table1,
    table2,
    table3,
    table4,
    table5,
    table6,
    underload,
)
from repro.scenario import table6_scenarios


class TestRegistry:
    def test_all_experiments_registered(self):
        assert set(ALL_EXPERIMENTS) == {
            "table1", "table2", "table3", "table4", "table5", "table6",
            "figure1", "figure2", "figure3", "figure4", "figure5",
            "section4", "section5", "ablation", "impact", "underload",
            "degraded",
        }

    def test_every_module_has_run(self):
        for module in ALL_EXPERIMENTS.values():
            assert callable(module.run)


class TestTable1:
    def test_all_cells_match_paper(self):
        result = table1.run()
        assert result.data["cell_matches"] == \
            result.data["cell_comparisons"] == 60
        assert len(result.rows) == 20

    def test_rendered_contains_categories(self):
        rendered = table1.run().rendered
        for category in ("Authentication", "Email", "PKI",
                         "Intermediate devices"):
            assert category in rendered


class TestTable2:
    def test_trigger_verdicts(self):
        result = table2.run()
        assert result.data["trigger_verdict_matches"] == 12
        # Timer products report their period; on-demand report TTL.
        rows = {(row[0], row[1]): row for row in result.rows}
        assert rows[("Firewall", "pfSense")][2] == "timer"
        assert rows[("Firewall", "pfSense")][3] == "500s"
        assert rows[("CDN", "Cloudflare")][2] == "on-demand"
        assert rows[("CDN", "Cloudflare")][3] == "TTL"


class TestSurveys:
    def test_table3_structure(self):
        result = table3.run(scale=0.005)
        assert len(result.rows) == 9
        assert result.row_by_key("Open resolvers") is not None

    def test_table4_structure(self):
        result = table4.run(scale=0.005)
        assert len(result.rows) == 10

    def test_table5_full_match(self):
        result = table5.run()
        assert result.data["matches"] == 5

    def test_figure3_has_three_series(self):
        result = figure3.run(seed=0, scale=0.01)
        series = result.data["series"]
        slash24 = result.data["slash24"]
        assert len(series) == 3
        # Shape: the Alexa nameserver population has the largest /24 mass
        # (least sub-prefix hijackable), matching the paper's 53% vs 70-74%.
        assert slash24["Nameservers: Alexa"] > \
            slash24["Resolvers: Open resolver"]
        assert slash24["Nameservers: Alexa"] > slash24["Resolvers: Adnet"]
        # The implied hijackable fractions match the calibration targets.
        for label, expected in result.paper_reference["slash24_mass"].items():
            assert abs(slash24[label] - expected) < 0.06
        # All mass lies within /11../24.
        for mix in series.values():
            assert abs(sum(mix.values()) - 1.0) < 1e-6
            assert all(11 <= length <= 24 for length in mix)

    @pytest.mark.parametrize("label, key", [
        ("Resolvers: Open resolver", "open"),
        ("Resolvers: Adnet", "ad-net"),
    ])
    def test_figure3_agrees_with_table3(self, label, key):
        """Figure 3 histograms the very sample Table 3 scans: with one
        resolver per front end, the sub-/24 mass is the hijack rate."""
        slash24 = figure3.run(seed=0, scale=0.01).data["slash24"][label]
        summary = table3.run(seed=0, scale=0.01).data["summaries"][key]
        # One entity moves either figure by 1/size (1/58 for ad-net),
        # so 1e-12 leaves room for float rounding only.
        assert 1 - slash24 == pytest.approx(summary.pct("hijack") / 100,
                                            rel=0, abs=1e-12)

    def test_figure4_cdf_endpoints(self):
        result = figure4.run(seed=0, scale=0.01)
        values = [y for _x, y in result.data["edns_cdf"]]
        assert values == sorted(values)  # a CDF is monotone
        # Most of the population is covered by the 4096-byte point
        # (sizes above it, e.g. 8192, fall outside the plotted range).
        assert values[-1] >= 0.7
        frag_values = [y for _x, y in result.data["frag_cdf"]]
        assert frag_values[-1] == 1.0
        edns_cdf = dict(result.data["edns_cdf"])
        frag_cdf = dict(result.data["frag_cdf"])
        # Shape: the resolver population splits into two groups — ~40% at
        # 512 bytes and ~50% above 4000 bytes (the paper's partition).
        assert 0.28 <= edns_cdf[548] <= 0.52       # the 512-byte group
        assert edns_cdf[2048] - edns_cdf[548] <= 0.2   # the thin middle
        assert 1.0 - edns_cdf[3072] >= 0.35        # the >=4000 group
        # Most fragmenting nameservers go down to 548 bytes; a small
        # fraction reaches the 292-byte floor.
        assert frag_cdf[548] >= 0.75
        assert 0.02 <= frag_cdf[292] <= 0.15

    def test_figure5_regions_are_the_survey_strata(self):
        """Figure 5's sampled regions are the summed strata of the
        aggregates Tables 3 and 4 return at the same scale."""
        result = figure5.run(seed=0, scale=0.005)
        regions = [(True, False, False), (False, True, False),
                   (False, False, True), (True, True, False),
                   (True, False, True), (False, True, True),
                   (True, True, True)]
        for table, key in ((table3, "resolver_venn_sampled"),
                           (table4, "domain_venn_sampled")):
            strata = Counter()
            for aggregate in table.run(seed=0, scale=0.005) \
                    .data["aggregates"].values():
                strata.update(aggregate.strata)
            venn = result.data[key]
            assert [venn.only_a, venn.only_b, venn.only_c, venn.ab,
                    venn.ac, venn.bc, venn.abc] == \
                [strata[stratum_key(*flags)] for flags in regions]
            assert venn.total > 0

    @pytest.mark.parametrize("module", [figure3, figure4, figure5],
                             ids=["figure3", "figure4", "figure5"])
    def test_figures_match_the_scalar_kernel(self, monkeypatch, module):
        """Without numpy the survey folds run the scalar reference scan;
        every figure must render the same bytes."""
        vector = module.run(seed=0, scale=0.005)
        monkeypatch.setattr(kernel, "HAVE_NUMPY", False)
        scalar = module.run(seed=0, scale=0.005)
        assert scalar.rendered == vector.rendered
        assert scalar.rows == vector.rows
        assert repr(scalar.data) == repr(vector.data)

    def test_section4_rates(self):
        result = section4.run(seed=0, scale=0.01)
        # ~69% of open resolvers cache two or more applications.
        assert abs(result.data["shared"] - 0.69) < 0.08
        # ~79% of client resolvers are reachable through open forwarders.
        assert abs(result.data["coverage"] - 0.79) < 0.08

    def test_section5_measurements(self):
        result = section5.run(seed=0, trials=120)
        same = result.data["same"]
        sub = result.data["sub"]
        rates = result.data["rates"]
        # Same-prefix hijacks succeed in roughly 80% of evaluations.
        assert 0.65 <= same.success_rate <= 0.95
        # Sub-prefix hijacks are the stronger variant.
        assert sub.success_rate >= same.success_rate
        # Record-type ordering: ANY >> bloated > MX >= A, with ANY around
        # the paper's 19.5% and A well under 1%.
        assert rates.any_rate > rates.bloated_rate > rates.a_rate
        assert 0.12 <= rates.any_rate <= 0.30
        assert rates.a_rate < 0.01
        assert rates.mx_rate < 0.02
        assert rates.bloated_rate > 0.10
        # Nameserver hosting is heavily concentrated.
        assert result.data["concentration"] > 0.5


class TestTable6:
    @pytest.fixture(scope="class")
    def result(self):
        # The hijack and global-IP-ID FragDNS trials only: the SadDNS
        # and random-IP-ID columns are the slow ones, and stay empty.
        return table6.run(saddns_runs=0, frag_random_runs=0)

    def test_columns_are_the_presets(self, result):
        scenarios = table6_scenarios()
        stats = result.data["stats"]
        assert list(stats) == list(scenarios) == \
            ["hijack", "saddns", "frag_global", "frag_random"]
        assert [summary.key for summary in stats.values()] == \
            [scenario.label for scenario in scenarios.values()]

    def test_trial_shapes(self, result):
        hijack = result.data["stats"]["hijack"]
        frag_global = result.data["stats"]["frag_global"]
        # HijackDNS is deterministic: 1 query, 2 packets, 100%.
        assert hijack.runs == 3
        assert hijack.hitrate == 1.0
        assert hijack.mean_queries == 1
        assert hijack.mean_packets == 2
        # Global-IP-ID FragDNS: a handful of queries, a few hundred
        # packets, and every run succeeds.
        assert frag_global.runs == 6
        assert frag_global.successes == frag_global.runs
        assert frag_global.mean_queries < 40
        assert frag_global.mean_packets < 3000

    def test_empty_columns_render_as_zeros(self, result):
        # Columns 2 and 3 are SadDNS and random-IP-ID FragDNS.
        zeros = {"Hitrate": "0.00%", "Queries needed": "0",
                 "Total traffic (pkts)": "0", "Attack duration (s)": "0"}
        for metric, zero in zeros.items():
            row = result.row_by_key(metric)
            assert row[2] == row[3] == zero, row
        assert "saddns=0" in result.notes[0]
        assert "frag-random=0" in result.notes[0]


class TestFigureTraces:
    def test_figure1_end_to_end(self):
        result = figure1.run(seed=1)
        assert result.data["poisoned"]
        assert [row[0] for row in result.rows] == \
            result.paper_reference["steps"]

    def test_figure2_end_to_end(self):
        result = figure2.run(seed=1)
        assert result.data["poisoned"]
        assert result.data["effective_mtu"] == 68

    def test_figure_runs_are_seed_stable(self):
        first = figure2.run(seed=3)
        second = figure2.run(seed=3)
        assert [r[1] for r in first.rows] == [r[1] for r in second.rows]


class TestUnderload:
    def test_shape_claims_hold(self):
        # The default 8 seeds: the window-narrowing comparison needs
        # more than a couple of samples per (method, qps) cell.
        result = underload.run()
        # One row per (method, qps level), populated load columns for
        # the loaded levels only.
        assert len(result.rows) == 3 * len(underload.QPS_LEVELS)
        assert result.data["ordering_holds"]
        assert result.data["windows_narrow"]
        # HijackDNS stays deterministic at every load level.
        for qps in underload.QPS_LEVELS:
            cell = result.data["cells"][f"HijackDNS@{qps:g}qps"]
            assert cell["success_rate"] == 1.0
        # 0-qps cells carry no load report; loaded cells do.
        assert result.data["cells"]["HijackDNS@0qps"]["load_checksum"] \
            is None
        assert result.data["cells"]["HijackDNS@40qps"]["load_checksum"] \
            is not None


class TestDegraded:
    def test_shape_claims_hold(self):
        # 3 seeds keeps the 3-method x 4-fault-level grid affordable;
        # the claims are shape comparisons, not tight statistics.
        result = degraded.run(seeds=range(3), executor="thread",
                              workers=4)
        assert len(result.rows) == 3 * len(degraded.FAULT_LEVELS)
        assert result.data["ordering_holds"]
        assert result.data["latency_visible"]
        assert result.data["loss_observed"]
        # The clean column really is clean: no fault counters.
        clean = result.data["cells"]["HijackDNS@clean"]
        assert clean["faults_dropped"] == 0
        lossy = result.data["cells"]["HijackDNS@loss2%"]
        assert lossy["faults_dropped"] > 0
