"""Graceful degradation for campaign cells: watchdog, retry, record.

A :class:`RunPolicy` is the execution plane's answer to a misbehaving
cell.  Without one, a raising scenario kills the whole grid; with one,
the cell gets a scheduler watchdog (event / wall budgets), transient
failures retry with bounded backoff, and anything terminal becomes a
*recorded failed run* — a :class:`~repro.scenario.spec.ScenarioRun`
with ``error`` set and all-zero attack statistics — so the sweep
finishes, the store keeps the failure, and a resumed run re-executes
only the failed/missing cells.
"""

from __future__ import annotations

import dataclasses
import time
import traceback
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.attacks.base import AttackResult
from repro.core.errors import TransientError
from repro.obs import OBS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.scenario.spec import AttackScenario, ScenarioRun


@dataclass(frozen=True, slots=True)
class RunPolicy:
    """How a campaign executes (and survives) one cell.

    * ``max_events`` / ``max_wall`` arm the scheduler watchdog per cell
      (see :meth:`repro.core.clock.Scheduler.arm_budget`); a cell that
      blows either budget raises
      :class:`~repro.core.errors.BudgetExceededError`.  Events are
      scheduler callbacks: a UDP burst delivered as one entry (a SadDNS
      scan batch or flood chunk on a clean fabric) counts as one event.
    * ``retries`` / ``backoff`` bound the retry loop for
      :class:`~repro.core.errors.TransientError` failures — attempt *n*
      sleeps ``backoff * n`` seconds first.

    Under a policy any terminal exception becomes a failed
    :class:`~repro.scenario.spec.ScenarioRun` instead of propagating;
    running a cell with no policy at all is the fail-fast path.
    """

    max_events: int | None = None
    max_wall: float | None = None
    retries: int = 0
    backoff: float = 0.05

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if self.backoff < 0:
            raise ValueError(f"backoff must be >= 0, got {self.backoff}")

    # Frozen+slots dataclasses only pickle out of the box from Python
    # 3.11; policies ship to process-pool workers on 3.10 too.
    def __getstate__(self):
        return tuple(getattr(self, f.name)
                     for f in dataclasses.fields(self))

    def __setstate__(self, state):
        for f, value in zip(dataclasses.fields(self), state):
            object.__setattr__(self, f.name, value)


#: The guardrail long sweeps (and every serve job) run under: generous
#: budgets that no legitimate cell approaches (the heaviest bench cell
#: stays well under ten million events), two retries for transient
#: failures, and failures recorded rather than fatal.  Campaigns built
#: without a policy keep the old fail-fast behaviour.
DEFAULT_POLICY = RunPolicy(max_events=50_000_000, max_wall=600.0,
                           retries=2, backoff=0.05)


def error_summary(exc: BaseException, frames: int = 3) -> dict[str, str]:
    """A compact, storable description of an exception.

    ``error`` is the one-line ``Type: message`` form; ``traceback`` the
    innermost ``frames`` entries, enough to locate the failure without
    persisting a full stack dump per cell.
    """
    tb = traceback.extract_tb(exc.__traceback__)[-frames:]
    return {
        "error": f"{type(exc).__name__}: {exc}",
        "traceback": "".join(traceback.format_list(tb)).rstrip(),
    }


def failed_run(scenario: "AttackScenario", seed: Any,
               exc: BaseException) -> "ScenarioRun":
    """Synthesize the recorded form of a cell that could not run.

    All attack statistics are zero and ``error`` carries the one-line
    failure, so failed cells aggregate as non-successes and serialize
    through the run store like any other run — deterministically, since
    nothing here depends on executor or timing.
    """
    from repro.scenario.spec import ScenarioRun

    summary = error_summary(exc)
    result = AttackResult(
        method=scenario.canonical_method, success=False,
        detail=dict(summary))
    return ScenarioRun(
        label=scenario.display_label,
        method=scenario.canonical_method,
        seed=seed,
        result=result,
        defense=scenario.defense_key,
        error=summary["error"],
    )


def execute_cell(scenario: "AttackScenario", seed: Any,
                 policy: RunPolicy | None) -> "ScenarioRun":
    """Run one (scenario, seed) cell under ``policy``.

    ``policy=None`` is the bare ``scenario.run(seed)`` — exceptions
    propagate and kill the caller, exactly the pre-policy behaviour.

    Every executor path (serial loop, thread batch, process batch)
    funnels through here, so this is also the one place the obs plane
    counts cells and opens per-cell spans — gated on ``OBS.enabled``
    so the disabled path is exactly the un-instrumented call.
    """
    if not OBS.enabled:
        return _run_cell(scenario, seed, policy)
    method = scenario.canonical_method
    with OBS.span("campaign.cell", method=method, seed=str(seed),
                  defense=scenario.defense_key or ""):
        run = _run_cell(scenario, seed, policy)
    OBS.counter("campaign.cells_total", method=method).inc()
    if run.success:
        OBS.counter("campaign.successes_total", method=method).inc()
    if run.error:
        OBS.counter("campaign.failed_cells_total", method=method).inc()
    OBS.histogram("campaign.cell_wall_ms").observe(
        run.wall_time * 1000.0)
    return run


def _run_cell(scenario: "AttackScenario", seed: Any,
              policy: RunPolicy | None) -> "ScenarioRun":
    if policy is None:
        return scenario.run(seed=seed)
    attempt = 0
    while True:
        attempt += 1
        try:
            built = scenario.build(seed=seed)
            if policy.max_events is not None or policy.max_wall is not None:
                built.network.scheduler.arm_budget(
                    max_events=policy.max_events, max_wall=policy.max_wall)
            return built.execute()
        except Exception as exc:
            if isinstance(exc, TransientError) \
                    and attempt <= policy.retries:
                if OBS.enabled:
                    OBS.counter("campaign.retries_total").inc()
                if policy.backoff:
                    time.sleep(policy.backoff * attempt)
                continue
            return failed_run(scenario, seed, exc)
