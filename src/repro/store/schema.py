"""Canonical run identity and serialization for the run store.

A stored run is keyed by ``(spec_hash, seed, defense)``:

* ``spec_hash`` — a stable digest of *everything* that determines the
  scenario's statistical outcome: the method, qname, trigger, attack
  config, testbed overrides, defense stack, app stage and workload
  spec.  Two scenarios with the same hash produce bit-identical
  :class:`repro.scenario.spec.ScenarioRun` objects for the same seed,
  so a cached record can stand in for a re-execution.
* ``seed`` — JSON-encoded, so the int ``0`` and the string ``"0"``
  (both legal campaign seeds) name different cells.
* ``defense`` — the deployed stack's canonical key, kept out of the
  opaque hash so store queries can pivot on it (``spec_hash`` covers
  the stack too; the explicit column is the queryable projection).

The scenario digest is computed over a canonical JSON rendering of the
scenario's dataclass tree — no ``repr`` addresses, no pickle opcodes —
so it is stable across processes, machines and Python versions.
Scenarios holding live callables (``TriggerSpec(kind="callable")``)
have no canonical rendering and are rejected: the declarative trigger
kinds cover every storable path.

:func:`run_to_json` / :func:`run_from_json` round-trip a
:class:`ScenarioRun` through plain JSON *exactly* for every field that
campaign aggregation and the perf checksums consume (floats round-trip
via ``repr``), so aggregates reconstructed from the store are
bit-identical to the live run's.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from typing import Any

from repro.apps.base import AppOutcome
from repro.apps.driver import AppStageResult
from repro.attacks.base import AttackResult
from repro.core.errors import ScenarioError
from repro.scenario.spec import AttackScenario, ScenarioRun
from repro.workload.population import WorkloadSpec
from repro.workload.report import LoadReport

#: Bump when the canonical rendering (or the simulation semantics any
#: hash covers) changes incompatibly: old records then miss on hash and
#: are recomputed instead of being silently merged across formats.
#: Format 2: scenarios hash their fault plan, runs carry a
#: status/error column pair (recorded failures, repro.faults).
STORE_FORMAT_VERSION = 2


# -- canonical rendering -------------------------------------------------------


def canonical_value(value: Any) -> Any:
    """A JSON-safe, deterministic rendering of a scenario field.

    Dataclasses and NamedTuples render as ``{"__kind__": <class>,
    <field>: ...}`` so two config classes with identical field values
    still hash apart;
    anything without a canonical rendering (live callables, arbitrary
    objects) raises — a run key must never depend on a memory address.
    """
    fields = None
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = [spec_field.name for spec_field in dataclasses.fields(value)]
    elif isinstance(value, tuple) and hasattr(value, "_fields"):
        # A NamedTuple (a ResourceRecord) renders like a dataclass, as
        # the record types did when they were dataclasses.
        fields = value._fields
    if fields is not None:
        payload: dict[str, Any] = {"__kind__": type(value).__name__}
        for name in fields:
            payload[name] = canonical_value(getattr(value, name))
        return payload
    if isinstance(value, (list, tuple)):
        return [canonical_value(item) for item in value]
    if isinstance(value, dict):
        return {str(key): canonical_value(item)
                for key, item in value.items()}
    if isinstance(value, bytes):
        return {"__bytes__": value.hex()}
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    raise ScenarioError(
        f"no canonical rendering for {type(value).__name__!r} "
        f"({value!r}); scenarios with live callables cannot be stored — "
        "use a declarative TriggerSpec kind")


def _digest(payload: dict) -> str:
    canonical = json.dumps(payload, sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def scenario_spec_hash(scenario: AttackScenario) -> str:
    """Stable identity of one scenario's statistical behaviour."""
    return _digest({
        "store_format": STORE_FORMAT_VERSION,
        "scenario": canonical_value(scenario),
    })


def workload_spec_hash(spec: WorkloadSpec | None) -> str:
    """Stable identity of the attached workload (``""`` when idle).

    Replay specs (``trace_path``) hash the *path*, not the trace bytes;
    a store shared across hosts should ship the trace alongside it.
    """
    if spec is None:
        return ""
    return _digest({
        "store_format": STORE_FORMAT_VERSION,
        "workload": canonical_value(spec),
    })


def seed_key(seed: Any) -> str:
    """JSON-encode a campaign seed so ``0`` and ``"0"`` stay distinct."""
    try:
        return json.dumps(seed, sort_keys=True, separators=(",", ":"))
    except TypeError as exc:
        raise ScenarioError(f"unstorable seed {seed!r}: {exc}") from exc


def run_key(scenario: AttackScenario, seed: Any,
            spec_hash: str | None = None) -> tuple[str, str, str]:
    """The store's ``(spec_hash, seed, defense)`` cell key."""
    if spec_hash is None:
        spec_hash = scenario_spec_hash(scenario)
    return (spec_hash, seed_key(seed), scenario.defense_key)


# -- run serialization ---------------------------------------------------------


def _jsonable(detail: dict) -> dict:
    """A JSON-round-trippable copy of a free-form detail dict.

    Detail dicts never feed aggregates or checksums, so lossy
    stringification of exotic values is acceptable here (and only
    here).
    """
    return json.loads(json.dumps(detail, default=str))


def run_to_json(run: ScenarioRun) -> dict:
    """The full-stats JSON payload of one executed run."""
    result = run.result
    payload: dict[str, Any] = {
        "label": run.label,
        "method": run.method,
        "seed": run.seed,
        "defense": run.defense,
        "wall_time": run.wall_time,
        "error": run.error,
        "result": {
            "method": result.method,
            "success": result.success,
            "iterations": result.iterations,
            "packets_sent": result.packets_sent,
            "queries_triggered": result.queries_triggered,
            "duration": result.duration,
            "detail": _jsonable(result.detail),
        },
    }
    if run.app_result is not None:
        stage = run.app_result
        payload["app"] = {
            "app": stage.app,
            "impact": stage.impact,
            "impact_class": stage.impact_class,
            "realized": stage.realized,
            "outcomes": [
                {
                    "app": outcome.app,
                    "action": outcome.action,
                    "ok": outcome.ok,
                    "security_degraded": outcome.security_degraded,
                    "used_address": outcome.used_address,
                    "detail": _jsonable(outcome.detail),
                }
                for outcome in stage.outcomes
            ],
        }
    if run.load_report is not None:
        payload["load"] = run.load_report.to_json()
    return payload


def run_from_json(payload: dict) -> ScenarioRun:
    """Rebuild the genuine :class:`ScenarioRun` a payload captured.

    The reconstruction returns real :class:`AttackResult` /
    :class:`AppStageResult` / :class:`LoadReport` objects, so every
    aggregation path (``MethodSummary``, ``CampaignResult``, the bench
    checksums) treats a stored run exactly like a fresh one.
    """
    result_payload = payload["result"]
    result = AttackResult(
        method=result_payload["method"],
        success=bool(result_payload["success"]),
        iterations=int(result_payload["iterations"]),
        packets_sent=int(result_payload["packets_sent"]),
        queries_triggered=int(result_payload["queries_triggered"]),
        duration=float(result_payload["duration"]),
        detail=dict(result_payload.get("detail", {})),
    )
    app_result = None
    app_payload = payload.get("app")
    if app_payload is not None:
        app_result = AppStageResult(
            app=app_payload["app"],
            impact=app_payload["impact"],
            impact_class=app_payload["impact_class"],
            realized=bool(app_payload["realized"]),
            outcomes=tuple(
                AppOutcome(
                    app=outcome["app"],
                    action=outcome["action"],
                    ok=bool(outcome["ok"]),
                    security_degraded=bool(outcome["security_degraded"]),
                    used_address=outcome["used_address"],
                    detail=dict(outcome.get("detail", {})),
                )
                for outcome in app_payload.get("outcomes", [])
            ),
        )
    load_report = None
    if payload.get("load") is not None:
        load_report = LoadReport.from_json(payload["load"])
    return ScenarioRun(
        label=payload["label"],
        method=payload["method"],
        seed=payload["seed"],
        result=result,
        wall_time=float(payload.get("wall_time", 0.0)),
        app_result=app_result,
        defense=payload.get("defense", "none"),
        load_report=load_report,
        error=payload.get("error", ""),
    )


# -- the persisted record ------------------------------------------------------


@dataclass
class RunRecord:
    """One campaign cell as persisted: queryable columns + full stats.

    The flat columns (method, defense, success, packets, ...) are the
    queryable projection the store indexes; ``stats`` is the complete
    :func:`run_to_json` payload the cell reconstructs from.
    """

    spec_hash: str
    seed: str                    # JSON-encoded (see :func:`seed_key`)
    defense: str
    method: str
    label: str
    workload_hash: str
    app: str | None
    success: bool
    packets_sent: int
    queries_triggered: int
    duration: float
    impact_realized: bool | None
    load_checksum: str | None
    wall_time: float
    stats: dict
    created: float = 0.0
    # "ok" for executed cells, "failed" for failures a RunPolicy
    # recorded in place of a result; ``error`` then carries the
    # one-line failure.  Failed records are the one exception to
    # first-wins: a later ok record for the same key heals them.
    status: str = "ok"
    error: str = ""

    @property
    def key(self) -> tuple[str, str, str]:
        return (self.spec_hash, self.seed, self.defense)

    @property
    def failed(self) -> bool:
        return self.status == "failed"

    @classmethod
    def from_run(cls, run: ScenarioRun, spec_hash: str,
                 workload_hash: str = "",
                 created: float = 0.0) -> "RunRecord":
        return cls(
            spec_hash=spec_hash,
            seed=seed_key(run.seed),
            defense=run.defense,
            method=run.method,
            label=run.label,
            workload_hash=workload_hash,
            app=run.app_result.app if run.app_result is not None else None,
            success=run.success,
            packets_sent=run.packets_sent,
            queries_triggered=run.queries_triggered,
            duration=run.duration,
            impact_realized=run.app_result.realized
            if run.app_result is not None else None,
            load_checksum=run.load_report.checksum()
            if run.load_report is not None else None,
            wall_time=run.wall_time,
            stats=run_to_json(run),
            created=created,
            status=run.status,
            error=run.error,
        )

    def to_run(self) -> ScenarioRun:
        return run_from_json(self.stats)

    def to_json(self) -> dict:
        """The export rendering (``python -m repro.store export``)."""
        return {
            "spec_hash": self.spec_hash,
            "seed": self.seed,
            "defense": self.defense,
            "method": self.method,
            "label": self.label,
            "workload_hash": self.workload_hash,
            "app": self.app,
            "success": self.success,
            "packets_sent": self.packets_sent,
            "queries_triggered": self.queries_triggered,
            "duration": self.duration,
            "impact_realized": self.impact_realized,
            "load_checksum": self.load_checksum,
            "wall_time": self.wall_time,
            "created": self.created,
            "status": self.status,
            "error": self.error,
            "stats": self.stats,
        }
