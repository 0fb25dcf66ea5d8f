"""Multi-host shard claims: lease files over the atlas JSONL store.

Independent worker processes — including processes on different hosts
sharing a filesystem — cooperate on one population scan without any
coordinator process: each worker repeatedly *claims* a shard the store
does not yet hold, scans it, appends the result, and releases the
claim.  A claim is a lease file created with ``O_CREAT | O_EXCL`` (the
only portable atomic "first writer wins" primitive on shared
filesystems) next to the population's JSONL file; its mtime is the
heartbeat.  A worker killed mid-shard leaves a lease that stops
heartbeating, so after ``ttl`` seconds any other worker breaks it and
re-claims the shard.  The race where two workers briefly hold the same
expired shard is benign by construction: the scan is deterministic and
the store keeps the last complete record per shard id, so duplicate
appends carry identical aggregates.

When every shard is stored, :func:`merge_claimed` (or a plain
``scan_dataset`` against the same store) assembles the report — bit-
identical to an uninterrupted serial scan regardless of how many
workers died along the way.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from pathlib import Path

from repro.atlas.shards import (
    DatasetSpec,
    population_spec_hash,
    shard_ranges,
)
from repro.atlas.store import AtlasStore, records_in_layout
from repro.obs import OBS

#: Default lease time-to-live.  Heartbeats refresh the lease after
#: every shard batch, so the TTL only needs to exceed one shard's scan
#: time plus filesystem mtime granularity.
DEFAULT_TTL = 60.0


def _lease_dir(store: AtlasStore, spec_hash: str) -> Path:
    return store.root / f"{spec_hash}.leases"


def _lease_path(store: AtlasStore, spec_hash: str, shard_id: int) -> Path:
    return _lease_dir(store, spec_hash) / f"{shard_id}.lease"


def _write_exclusive(path: Path, payload: str) -> bool:
    try:
        handle = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    try:
        os.write(handle, payload.encode("utf-8"))
    finally:
        os.close(handle)
    return True


def _lease_age(path: Path) -> float | None:
    try:
        return time.time() - path.stat().st_mtime
    except OSError:
        return None


@dataclass
class ClaimOutcome:
    """What one worker's claim loop accomplished."""

    worker: str
    scanned: list[int]
    skipped: list[int]
    broken: list[int]

    def to_json(self) -> dict:
        return {"worker": self.worker, "scanned": self.scanned,
                "skipped": self.skipped, "broken": self.broken}


def claim_shard(store: AtlasStore, spec_hash: str, shard_id: int,
                worker: str, ttl: float = DEFAULT_TTL,
                broken: list[int] | None = None) -> bool:
    """Try to lease one shard; breaks an expired lease first."""
    lease = _lease_path(store, spec_hash, shard_id)
    lease.parent.mkdir(parents=True, exist_ok=True)
    payload = json.dumps({"worker": worker, "claimed_at": time.time()})
    if _write_exclusive(lease, payload):
        return True
    age = _lease_age(lease)
    if age is None:
        # The holder released between our two checks; try once more.
        return _write_exclusive(lease, payload)
    if age <= ttl:
        return False
    # Expired: the holder died (or lost the filesystem).  Take the
    # lease over atomically; losers of the replace race scan the shard
    # anyway and the duplicate append is identical, so takeover races
    # cost duplicated work, never correctness.
    takeover = lease.with_suffix(f".takeover.{worker}.{os.getpid()}")
    if not _write_exclusive(takeover, payload):
        return False
    os.replace(takeover, lease)
    if broken is not None:
        broken.append(shard_id)
    return True


def release_shard(store: AtlasStore, spec_hash: str,
                  shard_id: int) -> None:
    lease = _lease_path(store, spec_hash, shard_id)
    try:
        lease.unlink()
    except OSError:
        pass


def claim_worker(spec: DatasetSpec, seed: int | str = 0,
                 entities: int | None = None, shards: int = 16,
                 store: AtlasStore | None = None, worker: str = "",
                 ttl: float = DEFAULT_TTL, kernel: str = "auto",
                 max_shards: int | None = None) -> ClaimOutcome:
    """Run one claim-mode worker until no shard is left to claim.

    Loops over the population's shard layout: shards the store already
    holds for this layout are skipped, currently-leased shards are left to their
    holders, and everything else is claimed, scanned and appended.  The
    loop passes over the layout repeatedly so shards freed by expired
    leases are picked up; it exits when a pass finds nothing claimable.
    """
    if store is None:
        raise ValueError("claim mode requires a store")
    # Imported here: the pipeline imports the task map from this
    # package, so a module-level import would be circular.
    from repro.atlas.pipeline import scan_shards

    worker = worker or f"{os.uname().nodename}-{os.getpid()}"
    total = min(entities, spec.full_size) if entities is not None \
        else spec.full_size
    spec_hash = population_spec_hash(spec, seed, total)
    ranges = shard_ranges(total, shards)
    outcome = ClaimOutcome(worker=worker, scanned=[], skipped=[],
                           broken=[])
    while True:
        done = records_in_layout(store.load(spec_hash), ranges)
        todo = [r for r in ranges if r.shard_id not in done]
        if not todo:
            break
        claimed_any = False
        for shard in todo:
            if max_shards is not None \
                    and len(outcome.scanned) >= max_shards:
                return outcome
            if not claim_shard(store, spec_hash, shard.shard_id, worker,
                               ttl=ttl, broken=outcome.broken):
                outcome.skipped.append(shard.shard_id)
                if OBS.enabled:
                    OBS.counter("claim.shards_skipped_total",
                                worker=worker).inc()
                continue
            claimed_any = True
            record, = scan_shards((spec, seed, spec_hash, kernel), [shard])
            store.append(record)
            release_shard(store, spec_hash, shard.shard_id)
            outcome.scanned.append(shard.shard_id)
            if OBS.enabled:
                OBS.counter("claim.shards_scanned_total",
                            worker=worker).inc()
        if not claimed_any:
            # Everything left is leased by live workers; let them
            # finish (or their leases expire) before the next pass.
            done = records_in_layout(store.load(spec_hash), ranges)
            if len(done) == len(ranges):
                break
            time.sleep(min(1.0, ttl / 4))
    return outcome


def merge_claimed(spec: DatasetSpec, seed: int | str = 0,
                  entities: int | None = None, shards: int = 16,
                  store: AtlasStore | None = None,
                  kernel: str = "auto"):
    """Coordinator merge: assemble the report from the claimed store.

    Any shard still missing (every worker died before finishing it) is
    scanned locally — the coordinator is just another claimant with
    merge duties, so the result is always complete and bit-identical to
    a serial scan.
    """
    if store is None:
        raise ValueError("claim mode requires a store")
    from repro.atlas.pipeline import scan_dataset

    return scan_dataset(spec, seed=seed, entities=entities,
                        shards=shards, executor="serial", store=store,
                        kernel=kernel)
