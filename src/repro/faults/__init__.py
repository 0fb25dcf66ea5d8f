"""repro.faults — deterministic fault injection and graceful degradation.

Two planes, one subsystem:

* **Simulation plane** — :class:`ImpairmentSpec` / :class:`FaultPlan`
  describe degraded links (loss, added latency + jitter, reordering,
  duplication) as frozen picklable data; ``AttackScenario(faults=...)``
  compiles them onto the network with a seed-derived RNG stream, so an
  impairment never shifts the attack's own draws and a no-op plan
  reproduces the clean run bit for bit.
* **Execution plane** — :class:`RunPolicy` gives each campaign cell a
  scheduler watchdog, bounded retry for transient failures, and
  record-don't-crash semantics; :mod:`repro.faults.chaos` injects
  deterministic harness failures (poisoned cells, locked stores) to
  prove it all works.

Quickstart::

    from repro.faults import FaultPlan, RunPolicy
    from repro.scenario import AttackScenario, Campaign
    from repro.testbed import RESOLVER_IP, TARGET_NS_IP

    lossy = FaultPlan.link(RESOLVER_IP, TARGET_NS_IP,
                           loss=0.02, extra_latency=0.04)
    scenario = AttackScenario("saddns", faults=lossy)
    result = Campaign(policy=RunPolicy(retries=2)).run(scenario)
"""

from repro.faults.chaos import (
    ChaosError,
    ChaosStore,
    FlakyError,
    maybe_crash,
    reset_flaky_attempts,
)
from repro.faults.inject import FAULT_STREAM, FaultInjector, install_plan
from repro.faults.policy import (
    RunPolicy,
    error_summary,
    execute_cell,
    failed_run,
)
from repro.faults.spec import (
    FaultError,
    FaultPlan,
    ImpairmentSpec,
    parse_impairment,
)

__all__ = [
    "ChaosError",
    "ChaosStore",
    "FAULT_STREAM",
    "FaultError",
    "FaultInjector",
    "FaultPlan",
    "FlakyError",
    "ImpairmentSpec",
    "RunPolicy",
    "error_summary",
    "execute_cell",
    "failed_run",
    "install_plan",
    "maybe_crash",
    "parse_impairment",
    "reset_flaky_attempts",
]
