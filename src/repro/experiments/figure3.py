"""Figure 3: announced prefix lengths of resolvers and nameservers."""

from __future__ import annotations

from repro.atlas.shards import find_dataset
from repro.experiments.base import ExperimentResult
from repro.measurements.population import sample_size
from repro.measurements.report import histogram, render_table
from repro.parallel.kernel import scan_range

POPULATIONS = [
    ("Resolvers: Open resolver", "open"),
    ("Resolvers: Adnet", "ad-net"),
    ("Nameservers: Alexa", "alexa"),
]


def run(seed: int = 0, scale: float = 0.01) -> ExperimentResult:
    """Histogram announced prefix lengths for the three populations.

    Each population is the ``scale`` sample Table 3/4 scans: the first
    :func:`sample_size` entities of the dataset's atlas stream, read
    from its scan aggregate's ``prefix_length`` histogram.
    """
    series: dict[str, dict[int, float]] = {}
    for label, key in POPULATIONS:
        spec = find_dataset(key)
        aggregate = scan_range(spec, seed, 0,
                               sample_size(spec.full_size, scale))
        series[label] = histogram(
            aggregate.histograms.get("prefix_length", {}))
    headers = ["Prefix length"] + [label for label, _key in POPULATIONS]
    rows = []
    for length in range(11, 25):
        rows.append([f"/{length}"] + [
            f"{series[label].get(length, 0.0) * 100:.1f}%"
            for label, _key in POPULATIONS
        ])
    slash24 = {label: series[label].get(24, 0.0) for label, _ in POPULATIONS}
    result = ExperimentResult(
        experiment_id="figure3",
        title="Figure 3: announced prefixes (fraction per prefix length)",
        headers=headers,
        rows=rows,
        paper_reference={
            # /24 mass implied by the paper's hijackability results: 74%
            # of open resolvers and 70% of ad-net resolvers sit in
            # announcements shorter than /24.  For Alexa the 53% figure
            # is per *domain* (any of ~2 nameservers), which derates to
            # a ~31% per-nameserver rate, i.e. a /24 mass near 0.69.
            "slash24_mass": {"Resolvers: Open resolver": 0.26,
                             "Resolvers: Adnet": 0.30,
                             "Nameservers: Alexa": 0.69},
        },
        data={"series": series, "slash24": slash24},
    )
    result.rendered = render_table(headers, rows, title=result.title)
    result.notes.append(
        "the /24 bar is the non-hijackable mass; everything left of it "
        "is sub-prefix hijackable"
    )
    return result
