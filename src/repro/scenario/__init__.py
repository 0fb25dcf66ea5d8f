"""Unified scenario/campaign API: the single entry point for attacks.

Three layers, one surface:

* **Declare** — :class:`AttackScenario` and :class:`TriggerSpec` turn an
  attack into plain data; the method registry
  (:func:`register_method` / :func:`available_methods`) maps methodology
  names to the attack classes behind one factory.
* **Plan** — :func:`scenario_from_profile` and :func:`plan_and_run`
  bridge the Table 1 planner's verdicts to executable scenarios.
* **Sweep** — :class:`Campaign` runs scenarios across seeds and config
  grids on worker processes and aggregates a :class:`CampaignResult`.
* **Impact** — an :class:`AppSpec` stage turns any scenario into a full
  kill chain: after the attack, the named Table 1 application runs its
  workload against the poisoned world and the run reports whether the
  paper's impact (fraudulent certificate, downgrade, takeover, ...)
  was actually realized.

Quickstart::

    from repro.scenario import AppSpec, AttackScenario, Campaign, TriggerSpec

    result = AttackScenario(method="hijack").run(seed=1)
    chain = AttackScenario(method="hijack", app_spec=AppSpec(app="dv"),
                           trigger=TriggerSpec(kind="app")).run(seed=1)
    print(chain.app_result.describe())   # fraud. certificate issued?
    sweep = Campaign(workers=8).run(AttackScenario(method="frag"),
                                    seeds=range(32))
    print(sweep.describe())

There is also a command line: ``python -m repro.scenario run|sweep|report``.
"""

from repro.scenario.bridge import (
    METHOD_PREFERENCE,
    choose_method,
    plan_and_run,
    profile_world_kwargs,
    scenario_from_profile,
)
from repro.scenario.campaign import (
    Campaign,
    CampaignResult,
    MethodSummary,
    percentile,
)
from repro.apps.driver import AppSpec, AppStageResult
from repro.scenario.presets import (
    killchain_scenarios,
    sweep_scenarios,
    table6_scenarios,
)
from repro.scenario.registry import (
    MethodSpec,
    available_methods,
    register_method,
    resolve_method,
)
from repro.scenario.spec import (
    AttackScenario,
    BuiltScenario,
    ScenarioRun,
    TriggerSpec,
)

__all__ = [
    "AppSpec",
    "AppStageResult",
    "AttackScenario",
    "BuiltScenario",
    "Campaign",
    "CampaignResult",
    "METHOD_PREFERENCE",
    "MethodSpec",
    "MethodSummary",
    "ScenarioRun",
    "TriggerSpec",
    "available_methods",
    "choose_method",
    "killchain_scenarios",
    "percentile",
    "plan_and_run",
    "profile_world_kwargs",
    "register_method",
    "resolve_method",
    "scenario_from_profile",
    "sweep_scenarios",
    "table6_scenarios",
]
