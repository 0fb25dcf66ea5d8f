"""Internet-scale measurement harness (paper Section 5)."""

from repro.measurements.misc import (
    RecordTypeFragRates,
    assign_cached_apps,
    assign_forwarders,
    measure_forwarder_coverage,
    measure_record_type_rates,
    probe_shared_caches,
)
from repro.measurements.population import (
    DOMAIN_DATASETS,
    DomainDatasetSpec,
    DomainProfile,
    FrontEnd,
    IcmpBehaviour,
    NameserverProfile,
    RESOLVER_DATASETS,
    ResolverDatasetSpec,
    ResolverProfile,
    alexa_nameserver_population,
)
from repro.measurements.report import (
    VennCounts,
    cdf_series,
    render_table,
    scale_count,
)
from repro.measurements.scanner import SurveySummary
from repro.measurements.simulate_hijack import (
    HijackSimulationResult,
    nameserver_concentration,
    simulate_sameprefix_hijacks,
    simulate_subprefix_hijacks,
)

__all__ = [
    "DOMAIN_DATASETS",
    "DomainDatasetSpec",
    "DomainProfile",
    "FrontEnd",
    "HijackSimulationResult",
    "IcmpBehaviour",
    "NameserverProfile",
    "RESOLVER_DATASETS",
    "RecordTypeFragRates",
    "ResolverDatasetSpec",
    "ResolverProfile",
    "SurveySummary",
    "VennCounts",
    "alexa_nameserver_population",
    "assign_cached_apps",
    "assign_forwarders",
    "cdf_series",
    "measure_forwarder_coverage",
    "measure_record_type_rates",
    "nameserver_concentration",
    "probe_shared_caches",
    "render_table",
    "scale_count",
    "simulate_sameprefix_hijacks",
    "simulate_subprefix_hijacks",
]
