"""Canonical scenario presets for the paper's comparisons.

Two families:

* :func:`table6_scenarios` — the Table 6 trials, declared here and
  nowhere else: :mod:`repro.experiments.table6` runs these four
  columns (full attack budgets; minutes of virtual time for the
  probabilistic methods) and folds them through the campaign's
  :class:`~repro.scenario.campaign.MethodSummary`.
* :func:`sweep_scenarios` — budget-capped variants for multi-seed
  campaigns: each run finishes in well under a second of wall time, and
  the per-seed *success rates* across a sweep reproduce the paper's
  effectiveness ordering (HijackDNS > FragDNS > SadDNS), mirroring the
  Table 6 per-query hitrates (100% / ~20% per attempt / ~ a few percent
  per iteration).
"""

from __future__ import annotations

from typing import Iterable

from repro.apps.driver import AppSpec, available_apps, resolve_driver
from repro.attacks.fragdns import FragDnsConfig
from repro.attacks.saddns import SadDnsConfig
from repro.core.errors import ScenarioError
from repro.netsim.host import HostConfig
from repro.scenario.spec import AttackScenario, TriggerSpec

#: Ephemeral-port window used by the fast SadDNS variants: 1,000
#: candidate ports keep the side-channel scan inside a test budget
#: without changing the mechanics (same batches, same ICMP bucket).
FAST_SADDNS_PORTS = (30000, 30999)


def table6_scenarios() -> dict[str, AttackScenario]:
    """The Table 6 trial configurations, one scenario per column.

    Keyed like the table's columns: HijackDNS, SadDNS with 3,000
    iterations, and FragDNS with a global (4,000 attempts) or random
    (6,000 attempts) IP-ID nameserver.
    """
    def fragdns(ipid_policy: str, max_attempts: int) -> AttackScenario:
        return AttackScenario(
            method="FragDNS", label=f"FragDNS ({ipid_policy} IPID)",
            ns_host_config=HostConfig(ipid_policy=ipid_policy,
                                      min_accepted_mtu=68),
            attack_config=FragDnsConfig(max_attempts=max_attempts,
                                        attempt_spacing=0.2),
        )

    return {
        "hijack": AttackScenario(method="HijackDNS", label="HijackDNS"),
        "saddns": AttackScenario(
            method="SadDNS", label="SadDNS",
            attack_config=SadDnsConfig(max_iterations=3000),
        ),
        "frag_global": fragdns("global", 4000),
        "frag_random": fragdns("random", 6000),
    }


def sweep_scenarios() -> list[AttackScenario]:
    """Budget-capped scenarios for fast multi-seed campaigns.

    HijackDNS keeps its deterministic two-packet success.  FragDNS gets
    three attempts at ~20% each (global IP-ID), SadDNS one iteration of
    two scan batches over the narrowed port window (~10% to even find
    the port) — so a sweep's success rates land in the strict order
    hijack > frag > saddns with comfortable margins.
    """
    return [AttackScenario(method=method, label=method,
                           **budget_capped_overrides(method))
            for method in ("HijackDNS", "FragDNS", "SadDNS")]


def budget_capped_overrides(method: str) -> dict:
    """The sweep-style budget caps for one methodology (see above)."""
    if method == "FragDNS":
        return {"attack_config": FragDnsConfig(max_attempts=3,
                                               attempt_spacing=0.2)}
    if method == "SadDNS":
        return {
            "resolver_host_config": HostConfig(
                ephemeral_low=FAST_SADDNS_PORTS[0],
                ephemeral_high=FAST_SADDNS_PORTS[1],
            ),
            "attack_config": SadDnsConfig(max_iterations=1,
                                          scan_batches_per_iteration=2),
        }
    return {}


def killchain_scenarios(apps: Iterable[str] | None = None,
                        methods: Iterable[str] = ("hijack",),
                        ) -> list[AttackScenario]:
    """Budget-capped end-to-end kill chains: attack + application stage.

    One scenario per (application, methodology) cell the driver can
    execute — the query is triggered by the application itself
    (``TriggerSpec(kind="app")``), the attack plants whatever records
    the app's workload consumes, and the run reports the Table 1 impact
    alongside the attack statistics.  Probabilistic methods get the
    same budget caps as :func:`sweep_scenarios`.
    """
    from repro.scenario.registry import resolve_method

    names = list(apps) if apps is not None else available_apps()
    canonical = [resolve_method(m).name for m in methods]
    scenarios = []
    for name in names:
        driver = resolve_driver(name)
        for method in canonical:
            if method not in driver.methods:
                continue
            scenarios.append(AttackScenario(
                method=method,
                app_spec=AppSpec(app=name),
                trigger=TriggerSpec(kind="app"),
                label=f"killchain/{name}/{method}",
                **budget_capped_overrides(method),
            ))
    if not scenarios:
        raise ScenarioError(
            f"no (app, method) cell is executable for apps={names} "
            f"methods={canonical}")
    return scenarios
