"""Tests for the attack-surface atlas: synthesis determinism, shard
algebra, the persistent store, resume, and the calibration bridge."""

import pytest

from repro.atlas.aggregate import ScanAggregate, stratum_key
from repro.atlas.calibrate import calibrate_population, profile_for_stratum
from repro.atlas.cli import main as atlas_main
from repro.atlas.pipeline import scan_dataset
from repro.atlas.shards import (
    dataset_kind,
    find_dataset,
    population_spec_hash,
    shard_ranges,
)
from repro.atlas.store import AtlasStore
from repro.atlas.synth import (
    atlas_address,
    iter_domains,
    iter_entities,
    iter_front_ends,
    stream_checksum,
)
from repro.measurements.population import (
    DOMAIN_DATASETS,
    RESOLVER_DATASETS,
    sample_size,
)
from repro.parallel.taskmap import run_map

OPEN = find_dataset("open")
ALEXA = find_dataset("alexa")


class TestShardGeometry:
    def test_ranges_partition_index_space(self):
        ranges = shard_ranges(1003, 7)
        assert ranges[0].lo == 0
        assert ranges[-1].hi == 1003
        for left, right in zip(ranges, ranges[1:]):
            assert left.hi == right.lo
        assert sum(r.size for r in ranges) == 1003
        assert max(r.size for r in ranges) - min(r.size for r in ranges) <= 1

    def test_more_shards_than_entities_collapses(self):
        ranges = shard_ranges(3, 16)
        assert len(ranges) == 3
        assert [r.size for r in ranges] == [1, 1, 1]

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            shard_ranges(-1, 4)
        with pytest.raises(ValueError):
            shard_ranges(10, 0)

    def test_spec_hash_sensitivity(self):
        base = population_spec_hash(OPEN, seed=0, entities=1000)
        assert population_spec_hash(OPEN, seed=0, entities=1000) == base
        assert population_spec_hash(OPEN, seed=1, entities=1000) != base
        assert population_spec_hash(OPEN, seed=0, entities=1001) != base
        assert population_spec_hash(ALEXA, seed=0, entities=1000) != base

    def test_dataset_lookup(self):
        assert dataset_kind(OPEN) == "resolver"
        assert dataset_kind(ALEXA) == "domain"
        with pytest.raises(KeyError):
            find_dataset("nope")


class TestSynthDeterminism:
    def test_same_seed_identical_stream(self):
        first = stream_checksum(iter_front_ends(OPEN, seed=9, hi=300))
        second = stream_checksum(iter_front_ends(OPEN, seed=9, hi=300))
        assert first == second

    def test_different_seed_differs(self):
        first = stream_checksum(iter_front_ends(OPEN, seed=9, hi=300))
        other = stream_checksum(iter_front_ends(OPEN, seed=10, hi=300))
        assert first != other

    @pytest.mark.parametrize("shards", [2, 5, 16])
    def test_shard_merge_equals_monolithic(self, shards):
        total = 700
        monolithic = stream_checksum(iter_entities(OPEN, seed=4, hi=total))

        def sharded():
            for shard in shard_ranges(total, shards):
                yield from iter_entities(OPEN, seed=4,
                                         lo=shard.lo, hi=shard.hi)

        assert stream_checksum(sharded()) == monolithic

    def test_domain_shard_merge_equals_monolithic(self):
        total = 400
        monolithic = stream_checksum(iter_domains(ALEXA, seed=4, hi=total))

        def sharded():
            for shard in shard_ranges(total, 3):
                yield from iter_domains(ALEXA, seed=4,
                                        lo=shard.lo, hi=shard.hi)

        assert stream_checksum(sharded()) == monolithic

    def test_streams_are_seekable(self):
        """Entity N alone equals entity N inside a longer stream."""
        window = list(iter_front_ends(OPEN, seed=2, lo=0, hi=20))
        solo = next(iter_front_ends(OPEN, seed=2, lo=13, hi=14))
        assert stream_checksum([solo]) == stream_checksum([window[13]])

    def test_addresses_are_index_deterministic(self):
        assert atlas_address(5) == atlas_address(5)
        assert atlas_address(5) != atlas_address(6)


class TestAggregateAlgebra:
    def _aggregates(self, n_parts):
        parts = []
        for shard in shard_ranges(600, n_parts):
            aggregate = ScanAggregate(kind="resolver")
            for entity in iter_front_ends(OPEN, seed=1,
                                          lo=shard.lo, hi=shard.hi):
                aggregate.observe(entity)
            parts.append(aggregate)
        return parts

    def test_merge_equals_monolithic(self):
        monolithic = self._aggregates(1)[0]
        merged = ScanAggregate.merged("resolver", self._aggregates(4))
        assert merged.to_json() == monolithic.to_json()

    def test_merge_is_order_independent(self):
        parts = self._aggregates(5)
        forward = ScanAggregate.merged("resolver", parts)
        backward = ScanAggregate.merged("resolver", parts[::-1])
        assert forward.to_json() == backward.to_json()

    def test_merge_rejects_kind_mismatch(self):
        with pytest.raises(ValueError):
            ScanAggregate(kind="resolver").merge(ScanAggregate(kind="domain"))

    def test_json_roundtrip(self):
        aggregate = self._aggregates(1)[0]
        clone = ScanAggregate.from_json(aggregate.to_json())
        assert clone.to_json() == aggregate.to_json()
        assert clone.pct("hijack") == aggregate.pct("hijack")

    def test_stratum_key(self):
        assert stratum_key(True, False, True) == "hijack+frag"
        assert stratum_key(False, False, False) == "none"


class TestScanPipeline:
    def test_rates_recover_calibration(self):
        report = scan_dataset(OPEN, seed=7, entities=4000, shards=4,
                              executor="serial")
        assert abs(report.summary.pct("hijack") - OPEN.expected_hijack) < 5
        assert abs(report.summary.pct("saddns") - OPEN.expected_saddns) < 4
        assert abs(report.summary.pct("frag") - OPEN.expected_frag) < 5

    def test_rates_stable_across_scale(self):
        """Bigger samples move the measured rates by sampling noise only."""
        small = scan_dataset(OPEN, seed=7, entities=2000, shards=2,
                             executor="serial")
        large = scan_dataset(OPEN, seed=7, entities=8000, shards=4,
                             executor="serial")
        for flag in ("hijack", "saddns", "frag"):
            assert abs(small.summary.pct(flag)
                       - large.summary.pct(flag)) < 4

    def test_shard_count_invariant(self):
        one = scan_dataset(OPEN, seed=3, entities=1500, shards=1,
                           executor="serial")
        many = scan_dataset(OPEN, seed=3, entities=1500, shards=6,
                            executor="serial")
        assert one.aggregate.to_json() == many.aggregate.to_json()

    def test_process_matches_serial(self):
        serial = scan_dataset(OPEN, seed=5, entities=1200, shards=4,
                              executor="serial")
        pooled = scan_dataset(OPEN, seed=5, entities=1200, shards=4,
                              executor="process", workers=2)
        assert pooled.aggregate.to_json() == serial.aggregate.to_json()

    def test_domain_scan_summary_shape(self):
        report = scan_dataset(ALEXA, seed=1, entities=1500, shards=3,
                              executor="serial")
        for flag in ("hijack", "saddns", "frag_any", "frag_global",
                     "dnssec"):
            assert flag in report.summary.percentages
        assert abs(report.summary.pct("hijack") - ALEXA.expected_hijack) < 7

    def test_negative_entities_rejected(self):
        with pytest.raises(ValueError, match="entities"):
            scan_dataset(OPEN, entities=-5)

    def test_task_map_validates(self):
        def plan(missing, _workers):
            return None, [[task] for task in missing]

        def run_batch(_world, batch):
            return [str(task) for task in batch]

        with pytest.raises(ValueError, match="executor"):
            run_map([1], plan, run_batch, executor="carrier-pigeon")
        with pytest.raises(ValueError, match="workers"):
            run_map([1], plan, run_batch, workers=0)


class TestStoreAndResume:
    def test_append_load_roundtrip(self, tmp_path):
        store = AtlasStore(tmp_path / "atlas")
        report = scan_dataset(OPEN, seed=2, entities=900, shards=3,
                              executor="serial", store=store)
        assert report.computed_shards == [0, 1, 2]
        records = store.load(report.spec_hash)
        assert sorted(records) == [0, 1, 2]
        assert sum(r.aggregate.count for r in records.values()) == 900

    def test_rerun_recomputes_nothing(self, tmp_path):
        store = AtlasStore(tmp_path / "atlas")
        first = scan_dataset(OPEN, seed=2, entities=900, shards=3,
                             executor="serial", store=store)
        second = scan_dataset(OPEN, seed=2, entities=900, shards=3,
                              executor="serial", store=store)
        assert second.computed_shards == []
        assert second.cached_shards == [0, 1, 2]
        assert second.aggregate.to_json() == first.aggregate.to_json()

    def test_killed_scan_resumes_missing_shards_only(self, tmp_path):
        store = AtlasStore(tmp_path / "atlas")
        full = scan_dataset(OPEN, seed=2, entities=1000, shards=5,
                            executor="serial", store=store)
        # Simulate a kill: drop the last two shards and truncate the
        # final line mid-record (an interrupted append).
        path = store.path_for(full.spec_hash)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:3]) + "\n" + lines[3][:25])
        resumed = scan_dataset(OPEN, seed=2, entities=1000, shards=5,
                               executor="serial", store=store)
        assert resumed.cached_shards == [0, 1, 2]
        assert resumed.computed_shards == [3, 4]
        assert resumed.aggregate.to_json() == full.aggregate.to_json()

    def test_resume_scans_non_adjacent_missing_shards(self, tmp_path):
        full = scan_dataset(OPEN, seed=2, entities=1000, shards=5,
                            executor="serial")
        store = AtlasStore(tmp_path / "atlas")
        scan_dataset(OPEN, seed=2, entities=1000, shards=5,
                     executor="serial", store=store)
        path = store.path_for(full.spec_hash)
        lines = path.read_text().splitlines()
        # Keep shards 0, 2 and 4: the missing shards are two runs.
        path.write_text("\n".join(lines[index] for index in (0, 2, 4))
                        + "\n")
        resumed = scan_dataset(OPEN, seed=2, entities=1000, shards=5,
                               executor="serial", store=store)
        assert resumed.cached_shards == [0, 2, 4]
        assert resumed.computed_shards == [1, 3]
        assert resumed.aggregate.to_json() == full.aggregate.to_json()

    def test_different_shard_layout_recomputes(self, tmp_path):
        store = AtlasStore(tmp_path / "atlas")
        scan_dataset(OPEN, seed=2, entities=900, shards=3,
                     executor="serial", store=store)
        relaid = scan_dataset(OPEN, seed=2, entities=900, shards=4,
                              executor="serial", store=store)
        # Same population hash, incompatible ranges: nothing merged in
        # from the old layout.
        assert len(relaid.computed_shards) == 4

    def test_seed_partitions_store(self, tmp_path):
        store = AtlasStore(tmp_path / "atlas")
        a = scan_dataset(OPEN, seed=1, entities=500, shards=2,
                         executor="serial", store=store)
        b = scan_dataset(OPEN, seed=2, entities=500, shards=2,
                         executor="serial", store=store)
        assert a.spec_hash != b.spec_hash
        assert set(store.spec_hashes()) == {a.spec_hash, b.spec_hash}


class TestCalibrationBridge:
    def test_profile_mirrors_stratum(self):
        profile = profile_for_stratum("hijack+frag")
        assert profile.resolver_prefix_longer_than_24
        assert profile.ns_honours_ptb
        assert profile.resolver_accepts_fragments
        assert not profile.resolver_global_icmp_limit
        assert not profile.ns_rate_limited

    def test_unknown_flags_rejected(self):
        with pytest.raises(ValueError):
            profile_for_stratum("hijack+teleport")

    def test_calibration_validates_all_strata(self):
        report = scan_dataset(OPEN, seed=11, entities=3000, shards=3,
                              executor="serial")
        calibration = calibrate_population(report.aggregate, "open",
                                           seed=11, sample_budget=12)
        assert calibration.entities == 3000
        assert calibration.strata
        assert calibration.validated_fraction == 1.0
        hijack_strata = [s for s in calibration.strata
                         if "hijack" in s.stratum]
        assert hijack_strata
        for stratum in hijack_strata:
            assert stratum.chosen_method == "HijackDNS"
            assert stratum.success_rate == 1.0
        none_stratum = next(s for s in calibration.strata
                            if s.stratum == "none")
        assert none_stratum.runs == 0 and none_stratum.validated

    def test_budget_allocation_tracks_weights(self):
        report = scan_dataset(OPEN, seed=11, entities=3000, shards=3,
                              executor="serial")
        calibration = calibrate_population(report.aggregate, "open",
                                           seed=11, sample_budget=20)
        runs = {s.stratum: s.runs for s in calibration.strata if s.runs}
        # The dominant stratum gets the lion's share, every attackable
        # stratum gets at least one run.
        assert max(runs.values()) == runs[max(
            runs, key=lambda k: next(s.count for s in calibration.strata
                                     if s.stratum == k))]
        assert min(runs.values()) >= 1

    def test_calibration_is_deterministic(self):
        report = scan_dataset(OPEN, seed=11, entities=2000, shards=2,
                              executor="serial")
        first = calibrate_population(report.aggregate, "open", seed=11,
                                     sample_budget=8)
        second = calibrate_population(report.aggregate, "open", seed=11,
                                      sample_budget=8)
        assert [(s.stratum, s.runs, s.successes) for s in first.strata] \
            == [(s.stratum, s.runs, s.successes) for s in second.strata]


class TestAtlasCli:
    @pytest.mark.parametrize("command", ["synth", "scan", "calibrate"])
    @pytest.mark.parametrize("bad", [["--entities", "-3"],
                                     ["--shards", "0"]])
    def test_bad_counts_are_usage_errors(self, capsys, command, bad):
        with pytest.raises(SystemExit) as exit_info:
            atlas_main([command, "--dataset", "open", *bad])
        assert exit_info.value.code == 2
        assert bad[0] in capsys.readouterr().err

    @pytest.mark.parametrize("command, bad", [
        ("calibrate", ["--sample-budget", "0"]),
    ])
    def test_bad_budgets_are_usage_errors(self, capsys, command, bad):
        with pytest.raises(SystemExit) as exit_info:
            atlas_main([command, "--dataset", "open", *bad])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and bad[0] in err

    def test_synth_zero_entities_streams_none(self, capsys):
        status = atlas_main(["synth", "--dataset", "eduroam-domains",
                             "--entities", "0"])
        assert status == 0
        assert "0 entities in 1 shards" in capsys.readouterr().out

    def test_serial_and_pooled_scans_share_one_checksum(self, capsys):
        population = ["--dataset", "open", "--entities", "6000",
                      "--shards", "8"]

        def checksum_lines(argv):
            assert atlas_main(argv) == 0
            out = capsys.readouterr().out
            return [line for line in out.splitlines()
                    if "aggregate checksum:" in line]

        serial = checksum_lines(["scan", *population, "--executor",
                                 "serial", "--no-table5"])
        pooled = checksum_lines(["scan", *population, "--workers", "2",
                                 "--no-table5"])
        assert len(serial) == 1
        assert serial == pooled

    def test_synth_verify(self, capsys):
        status = atlas_main(["synth", "--dataset", "open",
                             "--entities", "500", "--shards", "4",
                             "--verify"])
        assert status == 0
        out = capsys.readouterr().out
        assert "shard-merge == monolithic" in out

    def test_scan_writes_bench_json(self, tmp_path, capsys):
        json_path = tmp_path / "BENCH_atlas.json"
        status = atlas_main([
            "scan", "--dataset", "open", "--entities", "1500",
            "--shards", "3", "--executor", "serial", "--no-table5",
            "--store", str(tmp_path / "store"),
            "--json", str(json_path),
        ])
        assert status == 0
        import json

        payload = json.loads(json_path.read_text())
        assert payload["benchmark"] == "atlas-scan"
        assert payload["entities_total"] == 1500
        assert payload["shard_count"] == 3
        assert payload["datasets"][0]["dataset"] == "open"
        assert payload["entities_per_second"] > 0

    def test_scan_then_report_from_store(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        atlas_main(["scan", "--dataset", "open", "--entities", "800",
                    "--shards", "2", "--executor", "serial",
                    "--no-table5", "--store", store])
        capsys.readouterr()
        status = atlas_main(["report", "--store", store])
        assert status == 0
        out = capsys.readouterr().out
        assert "Open resolvers" in out
        assert "800" in out

    def test_report_empty_store_fails(self, tmp_path, capsys):
        status = atlas_main(["report", "--store", str(tmp_path / "empty")])
        assert status == 1

    def test_report_skips_mixed_shard_layouts(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        base = ["--dataset", "open", "--entities", "800",
                "--executor", "serial", "--no-table5", "--store", store]
        atlas_main(["scan", *base, "--shards", "4"])
        atlas_main(["scan", *base, "--shards", "3"])
        capsys.readouterr()
        status = atlas_main(["report", "--store", store])
        captured = capsys.readouterr()
        # Last-wins across the two layouts no longer tiles [0, 800):
        # the population is skipped loudly, never double-counted.
        assert status == 1
        assert "incompatible layouts" in captured.err


class TestExperimentIntegration:
    def test_table3_sampled_runs_on_atlas(self):
        from repro.experiments import table3

        result = table3.run(scale=0.005)
        assert len(result.rows) == 9
        aggregates = result.data["aggregates"]
        assert set(aggregates) == {spec.key for spec in RESOLVER_DATASETS}
        # One aggregate per dataset, over exactly the sampled entities.
        for spec in RESOLVER_DATASETS:
            assert aggregates[spec.key].count == \
                sample_size(spec.full_size, 0.005)

    def test_table3_full_small_cap(self):
        from repro.experiments import table3

        result = table3.run_full(entities=300, shards=2,
                                 executor="serial")
        assert len(result.rows) == 9
        assert "full-population scan" in result.notes[0] or \
            any("repro.atlas" in note for note in result.notes)

    def test_table4_full_small_cap(self):
        from repro.experiments import table4

        result = table4.run_full(entities=300, shards=2,
                                 executor="serial")
        assert len(result.rows) == 10
        assert set(result.data["reports"]) == \
            {spec.key for spec in DOMAIN_DATASETS}

    def test_table5_parallel_matches_serial(self):
        from repro.experiments import table5

        serial = table5.run()
        pooled = table5.run(workers=2)
        assert serial.rows == pooled.rows
        assert serial.data["matches"] == pooled.data["matches"] == 5
