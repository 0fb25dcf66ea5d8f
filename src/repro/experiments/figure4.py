"""Figure 4: resolver EDNS sizes vs nameserver minimum fragment sizes."""

from __future__ import annotations

from repro.atlas.aggregate import ScanAggregate
from repro.atlas.shards import find_dataset
from repro.experiments.base import ExperimentResult
from repro.measurements.population import (
    alexa_nameserver_population,
    sample_size,
)
from repro.measurements.report import cdf_series, render_table
from repro.parallel.kernel import scan_range

CDF_POINTS = [68, 292, 548, 1500, 2048, 3072, 4096]


def run(seed: int = 0, scale: float = 0.01) -> ExperimentResult:
    """Compute both CDFs of the paper's Figure 4.

    EDNS sizes are the open-resolver sample's scan histogram (reachable
    resolvers only); minimum fragment sizes are the §5.2.2 Alexa
    nameservers' (PMTUD-honouring servers only).
    """
    open_spec = find_dataset("open")
    edns_sizes = scan_range(
        open_spec, seed, 0, sample_size(open_spec.full_size, scale)
    ).histograms.get("edns_size", {})
    alexa = ScanAggregate(kind="domain")
    for domain in alexa_nameserver_population(
            seed, count=max(500, int(4000 * scale * 25))):
        alexa.observe_domain(domain)
    frag_sizes = alexa.histograms.get("min_frag_size", {})
    edns_cdf = cdf_series(edns_sizes, CDF_POINTS)
    frag_cdf = cdf_series(frag_sizes, CDF_POINTS)
    headers = ["size (bytes)", "EDNS size of resolvers (CDF)",
               "min fragment size of nameservers (CDF)"]
    rows = []
    for index, point in enumerate(CDF_POINTS):
        rows.append([
            str(point),
            f"{edns_cdf[index][1] * 100:.1f}%",
            f"{frag_cdf[index][1] * 100:.1f}%",
        ])
    result = ExperimentResult(
        experiment_id="figure4",
        title="Figure 4: CDF of resolver EDNS UDP size vs minimum "
              "fragment size of nameservers",
        headers=headers,
        rows=rows,
        paper_reference={
            "edns": {"<=512": 0.40, "1232-2048": 0.10, ">=4000": 0.50},
            "min_frag": {"<=292": 0.0705, "<=548": 0.832 + 0.0705},
        },
        data={"edns_cdf": edns_cdf, "frag_cdf": frag_cdf,
              "edns_sizes": sum(edns_sizes.values()),
              "frag_sizes": sum(frag_sizes.values())},
    )
    result.rendered = render_table(headers, rows, title=result.title)
    result.notes.append(
        "the two-group EDNS split (40% at 512B vs 50%+ above 4000B) "
        "partitions resolvers into fragmentation-immune and exposed"
    )
    return result
