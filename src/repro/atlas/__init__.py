"""``repro.atlas`` — the Internet-scale attack-surface atlas.

The paper's measurement study (Section 5) runs against populations of
up to 1.58M open resolvers and 1M domains.  The sampled experiment path
(:mod:`repro.experiments.table3`/``table4`` at ``scale=0.01``) keeps
those numbers honest statistically; the atlas makes them *computable*:

* **sharded synthesis** (:mod:`repro.atlas.synth`) — every entity is
  seeded by ``(seed, dataset, index)`` and produced by the per-entity
  draw kernels of :mod:`repro.measurements.population`, so shard
  producers are seekable, stream in constant memory, and a shard-merge
  equals the one-range stream bit-for-bit; the sampled experiments
  draw from these same streams;
* **parallel scan pipeline** (:mod:`repro.atlas.pipeline`) — shards run
  on ``concurrent.futures`` process workers and return mergeable
  :class:`repro.atlas.aggregate.ScanAggregate` counters/histograms,
  scaling Tables 3 and 4 to the paper's full dataset sizes;
* **persistent result store** (:mod:`repro.atlas.store`) — an
  append-only JSON-lines store keyed by ``(population_spec_hash,
  shard_id)``; rerunning an interrupted scan recomputes only missing
  shards;
* **campaign calibration bridge** (:mod:`repro.atlas.calibrate`) —
  scanned entities are stratified by vulnerability profile, mapped onto
  planner profiles and validated with a stratified
  :class:`repro.scenario.Campaign` sub-sample of end-to-end attacks.

Quickstart::

    from repro.atlas import scan_dataset, find_dataset, AtlasStore

    spec = find_dataset("open")               # 1.58M open resolvers
    store = AtlasStore(".atlas-store")        # enables resume
    report = scan_dataset(spec, entities=200_000, shards=16, store=store)
    print(report.summary.percentages)         # Table 3 'open' row
    print(f"{report.entities_per_second:,.0f} entities/s")

    from repro.atlas.calibrate import calibrate_population
    calibration = calibrate_population(report.aggregate, "open",
                                       sample_budget=12)
    print(calibration.describe())             # planner vs. simulation

or from the shell::

    python -m repro.atlas scan --entities 1580000 --shards 16 \
        --store .atlas-store
    python -m repro.atlas synth --dataset open --entities 100000 --verify
    python -m repro.atlas calibrate --dataset open --entities 50000
    python -m repro.atlas report --store .atlas-store
"""

from repro import _lazy_exports

#: The public names, each imported on first use from the module named
#: here, so importing one atlas module (as the scan kernel imports
#: ``repro.atlas.aggregate``) does not load the pipeline.
_EXPORTS = {
    "AtlasScanReport": "repro.atlas.pipeline",
    "AtlasStore": "repro.atlas.store",
    "ScanAggregate": "repro.atlas.aggregate",
    "ShardRange": "repro.atlas.shards",
    "ShardRecord": "repro.atlas.store",
    "all_dataset_specs": "repro.atlas.pipeline",
    "dataset_kind": "repro.atlas.shards",
    "find_dataset": "repro.atlas.shards",
    "iter_domains": "repro.atlas.synth",
    "iter_entities": "repro.atlas.synth",
    "iter_front_ends": "repro.atlas.synth",
    "population_spec_hash": "repro.atlas.shards",
    "scan_dataset": "repro.atlas.pipeline",
    "shard_ranges": "repro.atlas.shards",
    "stratum_key": "repro.atlas.aggregate",
    "stream_checksum": "repro.atlas.synth",
}

__all__ = sorted(_EXPORTS)

__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
