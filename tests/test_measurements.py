"""Tests for populations, scanners and the measurement helpers."""

from collections import Counter

import pytest

from repro.atlas.aggregate import ScanAggregate, stratum_key
from repro.atlas.shards import find_dataset
from repro.atlas.synth import iter_entities, stream_checksum
from repro.core.rng import DeterministicRNG
from repro.measurements.misc import (
    assign_cached_apps,
    assign_forwarders,
    measure_forwarder_coverage,
    measure_record_type_rates,
    probe_shared_caches,
)
from repro.measurements.population import (
    DOMAIN_DATASETS,
    IcmpBehaviour,
    RESOLVER_DATASETS,
    _per_item_rate,
    alexa_nameserver_population,
    sample_size,
)
from repro.measurements.report import (
    VennCounts,
    cdf_series,
    histogram,
    render_table,
    scale_count,
)
from repro.measurements.scanner import scan_saddns
from repro.measurements.simulate_hijack import (
    nameserver_concentration,
    simulate_sameprefix_hijacks,
)
from repro.parallel.kernel import scan_range


def sample(key: str, size: int, seed: int = 77) -> list:
    """The first ``size`` entities of one dataset's atlas stream."""
    return list(iter_entities(find_dataset(key), seed=seed, hi=size))


class TestPopulationGeneration:
    def test_sample_size_scaling(self):
        assert sample_size(1_000_000, 0.01) == 10_000
        assert sample_size(10, 0.01) == 10
        assert sample_size(3000, 0.01) >= 30
        with pytest.raises(ValueError):
            sample_size(10, 0.0)

    def test_deterministic_populations(self):
        key = RESOLVER_DATASETS[7].key
        a = stream_checksum(sample(key, 50, seed=5))
        assert a == stream_checksum(sample(key, 50, seed=5))
        assert a != stream_checksum(sample(key, 50, seed=6))

    def test_per_item_rate_inverts_any_of_n(self):
        rate = _per_item_rate(0.5, 2)
        assert abs((1 - (1 - rate) ** 2) - 0.5) < 1e-9
        assert _per_item_rate(0.3, 1) == 0.3

    def test_calibration_recovered_by_scan(self):
        """The scanner must re-measure the calibrated rates."""
        spec = next(s for s in RESOLVER_DATASETS if s.key == "open")
        summary = scan_range(spec, 77, 0, 4000).to_summary(
            spec.label, spec.full_size)
        assert abs(summary.pct("hijack") - spec.expected_hijack) < 5
        assert abs(summary.pct("saddns") - spec.expected_saddns) < 4
        assert abs(summary.pct("frag") - spec.expected_frag) < 5

    def test_domain_calibration_recovered(self):
        spec = next(s for s in DOMAIN_DATASETS if s.key == "alexa")
        summary = scan_range(spec, 77, 0, 4000).to_summary(
            spec.label, spec.full_size)
        assert abs(summary.pct("hijack") - spec.expected_hijack) < 6
        assert abs(summary.pct("frag_any") - spec.expected_frag_any) < 4


class TestIcmpBehaviourScan:
    def test_vulnerable_host_returns_exact_burst(self):
        behaviour = IcmpBehaviour(rate_limited=True, randomized=False,
                                  rng=DeterministicRNG(1))
        assert behaviour.errors_for_burst(51) == 50

    def test_randomized_host_differs(self):
        behaviour = IcmpBehaviour(rate_limited=True, randomized=True,
                                  rng=DeterministicRNG(1))
        assert behaviour.errors_for_burst(51) < 50

    def test_unlimited_host_answers_all(self):
        behaviour = IcmpBehaviour(rate_limited=False, randomized=False,
                                  rng=DeterministicRNG(1))
        assert behaviour.errors_for_burst(51) == 51

    def test_scan_skips_unreachable(self):
        population = sample("open", 300)
        dead = [
            r for f in population for r in f.resolvers if not r.reachable
        ]
        assert dead  # the open dataset models stale Censys entries
        assert all(not scan_saddns(r) for r in dead)


class TestMiscMeasurements:
    def test_shared_cache_probe(self):
        population = sample("open", 2000)
        assign_cached_apps(population, seed=3, share_rate=0.69)
        measured = probe_shared_caches(population)
        assert abs(measured - 0.69) < 0.05

    def test_forwarder_coverage(self):
        open_population = sample("open", 1500)
        clients = sample("ad-net", 800)
        assign_forwarders(open_population, clients, seed=4, coverage=0.79)
        measured = measure_forwarder_coverage(open_population, clients)
        assert abs(measured - 0.79) < 0.05

    def test_record_type_rates_ordering(self):
        domains = alexa_nameserver_population(77, count=3000)
        rates = measure_record_type_rates(domains)
        assert rates.any_rate > rates.bloated_rate
        assert rates.bloated_rate > rates.mx_rate >= 0
        assert rates.a_rate < 0.02

    def test_concentration_statistic(self):
        assert nameserver_concentration({1: 90, 2: 5, 3: 3, 4: 1, 5: 1}) \
            >= 0.9
        assert nameserver_concentration({}) == 0.0


class TestHijackSimulation:
    def test_sameprefix_success_rate_near_80(self):
        result = simulate_sameprefix_hijacks(trials=120, seed=9)
        assert 0.6 <= result.success_rate <= 0.95
        assert 0 < result.mean_capture_rate < 1


class TestReportHelpers:
    def test_render_table_aligns(self):
        text = render_table(["a", "bb"], [["1", "2"], ["333", "4"]])
        lines = text.splitlines()
        assert len({line.index("|") for line in lines
                    if "|" in line}) == 1

    def test_cdf_series_monotone(self):
        series = cdf_series(Counter([1, 2, 2, 3, 10]),
                            points=[1, 2, 5, 10])
        values = [y for _x, y in series]
        assert values == sorted(values)
        assert values[-1] == 1.0
        assert series[1] == (2.0, 0.6)

    def test_histogram_sums_to_one(self):
        mix = histogram(Counter([1, 1, 2, 3]))
        assert abs(sum(mix.values()) - 1.0) < 1e-9
        assert mix[1] == 0.5

    def test_venn_regions(self):
        strata = Counter(stratum_key(*flags) for flags in [
            (True, False, False), (True, True, False),
            (True, True, True), (False, False, True),
            (False, False, False),
        ])
        venn = VennCounts.from_strata(strata)
        assert venn.only_a == 1 and venn.ab == 1 and venn.abc == 1
        assert venn.only_c == 1
        assert venn.total == 4
        assert venn.set_total("HijackDNS") == 3

    def test_scale_count(self):
        assert scale_count(5, 100, 1000) == 50
        assert scale_count(5, 0, 1000) == 0

    def test_harvests(self):
        aggregate = ScanAggregate(kind="resolver")
        for front_end in sample("open", 300):
            aggregate.observe(front_end)
        sizes = aggregate.histograms["edns_size"]
        assert sizes and all(s >= 512 for s in sizes)
        lengths = aggregate.histograms["prefix_length"]
        assert lengths and all(11 <= length <= 24 for length in lengths)
        assert sum(lengths.values()) == sum(
            len(f.resolvers) for f in sample("open", 300))
