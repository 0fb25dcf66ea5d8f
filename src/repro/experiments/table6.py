"""Table 6: comparison of the cache poisoning methods.

The quantitative rows (hitrate, queries needed, total packets) come from
end-to-end attack trials; the applicability rows come from the Table 3/4
surveys (ad-net resolvers, Alexa-1M domains); stealth is qualitative.
"""

from __future__ import annotations

from repro.experiments import table3, table4
from repro.experiments.base import ExperimentResult
from repro.measurements.report import render_table
from repro.scenario.campaign import Campaign, MethodSummary
from repro.scenario.presets import table6_scenarios

PAPER_REFERENCE = {
    "hitrate": {"hijack": 1.0, "saddns": 0.002, "frag_random": 0.001,
                "frag_global": 0.20},
    "queries": {"hijack": 1, "saddns": 497, "frag_random": 1024,
                "frag_global": 5},
    "packets": {"hijack": 2, "saddns": 987_000, "frag_random": 65_000,
                "frag_global": 325},
    "vuln_resolvers": {"hijack": 70.0, "saddns": 11.0, "frag": 91.0},
    "vuln_domains": {"hijack": 53.0, "saddns": 12.0, "frag_any": 4.0,
                     "frag_global": 1.0},
}


#: Trial seed of run ``i`` in each column, as formatted with ``seed``.
TRIAL_SEEDS = {
    "hijack": "hijack-{seed}-{i}",
    "saddns": "saddns-{seed}-{i}",
    "frag_global": "frag-{seed}-global-{i}",
    "frag_random": "frag-{seed}-random-{i}",
}


def run(seed: int = 0, saddns_runs: int = 2, frag_runs: int = 6,
        frag_random_runs: int = 2,
        workers: int | None = None) -> ExperimentResult:
    """Assemble the full Table 6 from live trials and survey numbers.

    The trials are :func:`repro.scenario.table6_scenarios`, swept by
    one campaign and folded per column by
    :meth:`CampaignResult.by_label`.  ``workers`` > 1 fans them out
    over a process pool; the statistics are identical either way.
    """
    scenarios = table6_scenarios()
    counts = {"hijack": 3, "saddns": saddns_runs,
              "frag_global": frag_runs, "frag_random": frag_random_runs}
    pairs = [(scenario, TRIAL_SEEDS[key].format(seed=seed, i=i))
             for key, scenario in scenarios.items()
             for i in range(counts[key])]
    campaign = Campaign(
        workers=workers,
        executor="process" if workers is not None and workers > 1
        else "serial",
    )
    by_label = campaign.run_pairs(pairs).by_label()
    stats = {key: by_label.get(scenario.label,
                               MethodSummary(key=scenario.label))
             for key, scenario in scenarios.items()}
    hijack, saddns = stats["hijack"], stats["saddns"]
    frag_global, frag_random = stats["frag_global"], stats["frag_random"]
    adnet = table3.run(seed=seed).data["summaries"]["ad-net"]
    alexa = table4.run(seed=seed).data["summaries"]["alexa"]
    headers = ["Metric", "BGP hijack", "SadDNS", "Frag (any IPID)",
               "Frag (global IPID)"]
    rows = [
        ["Vuln. resolvers",
         f"{adnet.pct('hijack'):.0f}%",
         f"{adnet.pct('saddns'):.0f}%",
         f"{adnet.pct('frag'):.0f}%",
         f"{adnet.pct('frag'):.0f}%"],
        ["Vuln. domains",
         f"{alexa.pct('hijack'):.0f}%",
         f"{alexa.pct('saddns'):.0f}%",
         f"{alexa.pct('frag_any'):.0f}%",
         f"{alexa.pct('frag_global'):.0f}%"],
        ["Hitrate",
         f"{hijack.hitrate * 100:.0f}%",
         f"{saddns.hitrate * 100:.2f}%",
         f"{frag_random.hitrate * 100:.2f}%",
         f"{frag_global.hitrate * 100:.0f}%"],
        ["Queries needed",
         f"{hijack.mean_queries:.0f}",
         f"{saddns.mean_queries:.0f}",
         f"{frag_random.mean_queries:.0f}",
         f"{frag_global.mean_queries:.0f}"],
        ["Total traffic (pkts)",
         f"{hijack.mean_packets:.0f}",
         f"{saddns.mean_packets:,.0f}",
         f"{frag_random.mean_packets:,.0f}",
         f"{frag_global.mean_packets:.0f}"],
        ["Attack duration (s)",
         f"{hijack.mean_duration:.1f}",
         f"{saddns.mean_duration:.0f}",
         f"{frag_random.mean_duration:.0f}",
         f"{frag_global.mean_duration:.1f}"],
        ["Stealthiness",
         "very visible (control plane)",
         "stealthy, locally detectable",
         "stealthy, locally detectable",
         "very stealthy"],
    ]
    result = ExperimentResult(
        experiment_id="table6",
        title="Table 6: comparison of the cache poisoning methods",
        headers=headers,
        rows=rows,
        paper_reference=PAPER_REFERENCE,
        data={"stats": stats},
    )
    result.rendered = render_table(headers, rows, title=result.title)
    result.notes.append(
        f"trials: hijack={hijack.runs}, saddns={saddns.runs},"
        f" frag-global={frag_global.runs},"
        f" frag-random={frag_random.runs}"
    )
    return result
