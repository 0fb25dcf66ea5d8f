"""Durable, queryable run store for campaign sweeps.

The subsystem has three layers:

* :mod:`repro.store.schema` — canonical run identity.  Every campaign
  cell is keyed ``(spec_hash, seed, defense)``, where the spec hash
  digests the full scenario dataclass tree (method, trigger, configs,
  defense stack, app stage, workload), and the stored stats JSON
  round-trips the :class:`ScenarioRun` exactly.
* :mod:`repro.store.db` — :class:`RunStore`, the append-only SQLite
  file (WAL mode, concurrent writers, first-wins ``INSERT OR
  IGNORE``).  ``Campaign.run(..., store=...)`` records every cell and
  skips cells already present, so a killed sweep resumes idempotently
  and recomputes only what is missing.
* :mod:`repro.store.aggregate` — reconstruction without re-running:
  :func:`campaign_from_store` rebuilds a bit-identical
  :class:`CampaignResult` from stored cells, and :class:`RunTotals`
  gives mergeable counters for the CLI's aggregation.

``python -m repro.store`` (see :mod:`repro.store.cli`) inspects,
queries, exports and vacuums a store file.
"""

from repro.store.aggregate import (RunTotals, campaign_from_store,
                                   merge_totals, summaries_from_store,
                                   totals_from_store)
from repro.store.db import RunStore, StoreError
from repro.store.schema import (STORE_FORMAT_VERSION, RunRecord,
                                run_from_json, run_key, run_to_json,
                                scenario_spec_hash, seed_key,
                                workload_spec_hash)

__all__ = [
    "STORE_FORMAT_VERSION",
    "RunRecord",
    "RunStore",
    "RunTotals",
    "StoreError",
    "campaign_from_store",
    "merge_totals",
    "run_from_json",
    "run_key",
    "run_to_json",
    "scenario_spec_hash",
    "seed_key",
    "summaries_from_store",
    "totals_from_store",
    "workload_spec_hash",
]
