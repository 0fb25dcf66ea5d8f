"""In-text §5 measurements: same-prefix simulation, record-type rates,
nameserver concentration."""

from __future__ import annotations

from repro.core.rng import DeterministicRNG
from repro.experiments.base import ExperimentResult
from repro.measurements.misc import measure_record_type_rates
from repro.measurements.population import alexa_nameserver_population
from repro.measurements.report import render_table
from repro.measurements.simulate_hijack import (
    nameserver_concentration,
    simulate_sameprefix_hijacks,
    simulate_subprefix_hijacks,
)


def run(seed: int = 0, trials: int = 120) -> ExperimentResult:
    """Same-prefix hijack success, record-type fragmentation, hosting."""
    same = simulate_sameprefix_hijacks(trials=trials, seed=seed)
    sub = simulate_subprefix_hijacks(trials=max(30, trials // 3), seed=seed)
    alexa_ns = alexa_nameserver_population(seed, count=4000)
    rates = measure_record_type_rates(alexa_ns)
    # Hosting concentration: assign nameservers to ASes with a heavy
    # tail, then compute the top-20% share.
    rng = DeterministicRNG(seed).derive("hosting")
    hosting: dict[int, int] = {}
    for domain in alexa_ns:
        for nameserver in domain.nameservers:
            # A few big CDN/hosting ASes carry most nameservers.
            asn = rng.choice([1, 2, 3, 4, 5]) if rng.chance(0.7) \
                else nameserver.asn
            hosting[asn] = hosting.get(asn, 0) + 1
    concentration = nameserver_concentration(hosting)
    headers = ["Measurement", "Measured", "Paper"]
    rows = [
        ["same-prefix hijack success (random pairs)",
         f"{same.success_rate * 100:.0f}%", "80%"],
        ["sub-prefix hijack success (control)",
         f"{sub.success_rate * 100:.0f}%", "~100%"],
        ["Alexa domains fragmentable via ANY",
         f"{rates.any_rate * 100:.2f}%", "19.50%"],
        ["Alexa domains fragmentable via A",
         f"{rates.a_rate * 100:.2f}%", "0.29%"],
        ["Alexa domains fragmentable via MX",
         f"{rates.mx_rate * 100:.2f}%", "0.44%"],
        ["Alexa domains fragmentable with bloated qnames",
         f"{rates.bloated_rate * 100:.2f}%", ">10%"],
        ["nameservers hosted by top-20% of ASes",
         f"{concentration * 100:.0f}%", ">90% (80% of ASes host <10%)"],
    ]
    result = ExperimentResult(
        experiment_id="section5",
        title="Section 5 in-text measurements",
        headers=headers,
        rows=rows,
        paper_reference={
            "same_prefix_success": 0.80,
            "any_rate": 0.195, "a_rate": 0.0029, "mx_rate": 0.0044,
            "bloated_rate_floor": 0.10,
        },
        data={"same": same, "sub": sub, "rates": rates,
              "concentration": concentration},
    )
    result.rendered = render_table(headers, rows, title=result.title)
    return result
