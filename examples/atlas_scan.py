#!/usr/bin/env python3
"""Attack-surface atlas walkthrough: shard, scan, resume, calibrate.

Four acts on one synthetic population (default: a slice of the paper's
1.58M open resolvers):

1. **determinism** — stream the population twice, once monolithically
   and once shard-by-shard, and show the checksums agree bit-for-bit;
2. **sharded scan** — run the Section 5 scanners over the shards
   (process workers where cores exist) and print the measured
   vulnerable fractions next to the paper's Table 3 row;
3. **resume** — rerun the same scan against the on-disk store and show
   it computes zero shards the second time;
4. **calibration** — stratify the scanned entities by vulnerability
   profile and validate the planner's verdicts with a stratified
   campaign of end-to-end attacks.

Run:  python examples/atlas_scan.py [--entities 50000] [--shards 8]
      [--workers 4] [--store .atlas-example-store]
"""

import argparse
import shutil

from repro.atlas import (
    AtlasStore,
    find_dataset,
    iter_entities,
    scan_dataset,
    shard_ranges,
    stream_checksum,
)
from repro.atlas.calibrate import calibrate_population
from repro.atlas.cli import parse_seed


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dataset", default="open")
    parser.add_argument("--entities", type=int, default=50_000)
    parser.add_argument("--shards", type=int, default=8)
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--seed", type=parse_seed, default=0)
    parser.add_argument("--store", default=".atlas-example-store")
    parser.add_argument("--keep-store", action="store_true",
                        help="leave the store directory behind")
    arguments = parser.parse_args()

    spec = find_dataset(arguments.dataset)
    entities = min(arguments.entities, spec.full_size)

    # Act 1: shard-merge == monolithic generation, proven on a slice.
    probe = min(entities, 2_000)
    monolithic = stream_checksum(
        iter_entities(spec, seed=arguments.seed, hi=probe))

    def sharded():
        for shard in shard_ranges(probe, arguments.shards):
            yield from iter_entities(spec, seed=arguments.seed,
                                     lo=shard.lo, hi=shard.hi)

    assert stream_checksum(sharded()) == monolithic
    print(f"[1] shard-merge == monolithic over {probe:,} entities "
          f"(checksum {monolithic[:16]}...)")

    # Act 2: the sharded scan.
    store = AtlasStore(arguments.store)
    report = scan_dataset(spec, seed=arguments.seed, entities=entities,
                          shards=arguments.shards,
                          workers=arguments.workers, store=store)
    measured = report.summary
    print(f"[2] scanned {report.entities:,} of {spec.full_size:,} "
          f"{spec.label!r} entities in {report.wall_clock:.1f}s "
          f"({report.entities_per_second:,.0f}/s, {report.executor}, "
          f"workers={report.workers})")
    print(f"    hijack {measured.pct('hijack'):.1f}% "
          f"(paper {spec.expected_hijack:.0f}%), "
          f"saddns {measured.pct('saddns'):.1f}% "
          f"(paper {spec.expected_saddns:.0f}%), "
          f"frag {measured.pct('frag'):.1f}% "
          f"(paper {spec.expected_frag:.0f}%)")

    # Act 3: resume from the store.
    again = scan_dataset(spec, seed=arguments.seed, entities=entities,
                         shards=arguments.shards,
                         workers=arguments.workers, store=store)
    assert again.computed_shards == []
    assert again.aggregate.to_json() == report.aggregate.to_json()
    print(f"[3] rerun loaded {len(again.cached_shards)} shards from "
          f"{arguments.store}, computed 0 — kill it mid-scan and only "
          "missing shards recompute")

    # Act 4: stratified campaign validation.
    calibration = calibrate_population(report.aggregate, spec.key,
                                       seed=arguments.seed,
                                       sample_budget=16,
                                       workers=arguments.workers)
    print("[4] " + calibration.describe().replace("\n", "\n    "))

    if not arguments.keep_store:
        shutil.rmtree(arguments.store, ignore_errors=True)


if __name__ == "__main__":
    main()
