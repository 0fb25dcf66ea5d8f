"""Table 3: vulnerable resolvers per dataset.

Both paths run on :mod:`repro.atlas`:

* :func:`run` — the sampled survey: the first ``scale`` of each
  population, folded into one
  :class:`~repro.atlas.aggregate.ScanAggregate` per dataset (Figure 5
  reads its Venn regions from their strata);
* :func:`run_full` — the population-scale scan at the paper's full
  dataset sizes (1.58M open resolvers), streaming in constant memory,
  optionally sharded across process workers and resumable via an
  :class:`repro.atlas.store.AtlasStore`.
"""

from __future__ import annotations

from repro.atlas.pipeline import AtlasScanReport, scan_dataset
from repro.experiments.base import ExperimentResult
from repro.measurements.population import (
    RESOLVER_DATASETS,
    sample_size,
)
from repro.measurements.report import render_table
from repro.parallel.kernel import scan_range

HEADERS = ["Dataset", "Protocol", "BGP hijack sub-prefix %",
           "SadDNS %", "Fragment %", "Dataset size"]


def _full_scan_note(reports: dict[str, AtlasScanReport], wall: float,
                    shards: int, noun: str) -> str:
    """Resume-aware provenance note: cached shards are not 'scanned'."""
    computed = sum(r.computed_entities for r in reports.values())
    cached = sum(r.entities - r.computed_entities for r in reports.values())
    note = (f"full-population scan via repro.atlas: {computed:,} {noun} "
            f"computed in {wall:.1f}s across {shards} shards per dataset")
    if cached:
        note += f" (+{cached:,} loaded from the shard store)"
    return note


def _sampled_scan(spec, seed, scale: float):
    """``(summary, aggregate)`` of a ``scale`` sample of one dataset."""
    aggregate = scan_range(spec, seed, 0,
                           sample_size(spec.full_size, scale))
    return aggregate.to_summary(spec.label, spec.full_size), aggregate


def _row(spec, summary) -> list[str]:
    return [
        spec.label, spec.protocols,
        f"{summary.pct('hijack'):.0f}%",
        f"{summary.pct('saddns'):.0f}%",
        f"{summary.pct('frag'):.0f}%",
        f"{spec.full_size:,}",
    ]


def _result(rows, summaries, extra_data, notes) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="table3",
        title="Table 3: vulnerable resolvers",
        headers=HEADERS,
        rows=rows,
        paper_reference={
            spec.key: (spec.expected_hijack, spec.expected_saddns,
                       spec.expected_frag)
            for spec in RESOLVER_DATASETS
        },
        data={"summaries": summaries, **extra_data},
    )
    result.rendered = render_table(HEADERS, rows, title=result.title)
    result.notes.extend(notes)
    return result


def run(seed: int = 0, scale: float = 0.01) -> ExperimentResult:
    """Scan a ``scale`` sample of all nine resolver datasets."""
    rows = []
    summaries = {}
    aggregates = {}
    for spec in RESOLVER_DATASETS:
        summary, aggregates[spec.key] = _sampled_scan(spec, seed, scale)
        summaries[spec.key] = summary
        rows.append(_row(spec, summary))
    return _result(
        rows, summaries,
        {"aggregates": aggregates,
         "sampled_sizes": {key: summary.size
                           for key, summary in summaries.items()}},
        [f"populations sampled at scale={scale} via the repro.atlas "
         "pipeline; dataset sizes shown are the paper's full populations"],
    )


def run_full(seed: int = 0, entities: int | None = None, shards: int = 16,
             workers: int | None = None, executor: str = "process",
             store=None) -> ExperimentResult:
    """Scan every resolver dataset at the paper's full size.

    Streams all 2.1M resolvers through the sharded pipeline — the
    percentages in the rendered table are computed over the *entire*
    population, not extrapolated from a sample.
    """
    rows = []
    summaries = {}
    reports: dict[str, AtlasScanReport] = {}
    total_wall = 0.0
    for spec in RESOLVER_DATASETS:
        report = scan_dataset(spec, seed=seed, entities=entities,
                              shards=shards, workers=workers,
                              executor=executor, store=store)
        reports[spec.key] = report
        summaries[spec.key] = report.summary
        rows.append(_row(spec, report.summary))
        total_wall += report.wall_clock
    return _result(rows, summaries, {"reports": reports},
                   [_full_scan_note(reports, total_wall, shards,
                                    "entities")])
