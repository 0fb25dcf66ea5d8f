"""Table 4: vulnerable domains per dataset.

Runs on :mod:`repro.atlas`; see
:mod:`repro.experiments.table3` for the sampled vs. full-population
split.
"""

from __future__ import annotations

from repro.atlas.pipeline import AtlasScanReport, scan_dataset
from repro.experiments.base import ExperimentResult
from repro.experiments.table3 import _full_scan_note, _sampled_scan
from repro.measurements.population import (
    DOMAIN_DATASETS,
)
from repro.measurements.report import render_table

HEADERS = ["Dataset", "Protocol", "BGP hijack sub-prefix %",
           "SadDNS %", "Fragment any %", "Fragment global %",
           "DNSSEC %", "Total"]

SEMANTICS_NOTE = (
    "'Fragment any/global' follow the paper's Table 4 semantics: "
    "attack feasible with any (unpredictable) IP-ID vs. with a "
    "predictable global counter"
)


def _row(spec, summary) -> list[str]:
    return [
        spec.label, spec.protocols,
        f"{summary.pct('hijack'):.0f}%",
        f"{summary.pct('saddns'):.0f}%",
        f"{summary.pct('frag_any'):.0f}%",
        f"{summary.pct('frag_global'):.0f}%",
        f"{summary.pct('dnssec'):.0f}%",
        f"{spec.full_size:,}",
    ]


def _result(rows, summaries, extra_data, notes) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="table4",
        title="Table 4: vulnerable domains",
        headers=HEADERS,
        rows=rows,
        paper_reference={
            spec.key: (spec.expected_hijack, spec.expected_saddns,
                       spec.expected_frag_any, spec.expected_frag_global,
                       spec.expected_dnssec)
            for spec in DOMAIN_DATASETS
        },
        data={"summaries": summaries, **extra_data},
    )
    result.rendered = render_table(HEADERS, rows, title=result.title)
    result.notes.extend(notes)
    return result


def run(seed: int = 0, scale: float = 0.01) -> ExperimentResult:
    """Scan a ``scale`` sample of all ten domain datasets."""
    rows = []
    summaries = {}
    aggregates = {}
    for spec in DOMAIN_DATASETS:
        summary, aggregates[spec.key] = _sampled_scan(spec, seed, scale)
        summaries[spec.key] = summary
        rows.append(_row(spec, summary))
    return _result(rows, summaries, {"aggregates": aggregates},
                   [SEMANTICS_NOTE])


def run_full(seed: int = 0, entities: int | None = None, shards: int = 16,
             workers: int | None = None, executor: str = "process",
             store=None) -> ExperimentResult:
    """Scan every domain dataset at the paper's full size (1M+ domains)."""
    rows = []
    summaries = {}
    reports: dict[str, AtlasScanReport] = {}
    total_wall = 0.0
    for spec in DOMAIN_DATASETS:
        report = scan_dataset(spec, seed=seed, entities=entities,
                              shards=shards, workers=workers,
                              executor=executor, store=store)
        reports[spec.key] = report
        summaries[spec.key] = report.summary
        rows.append(_row(spec, report.summary))
        total_wall += report.wall_clock
    return _result(
        rows, summaries, {"reports": reports},
        [SEMANTICS_NOTE,
         _full_scan_note(reports, total_wall, shards, "domains")],
    )
