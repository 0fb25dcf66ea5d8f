"""Persistent, append-only shard-result store.

One JSON-lines file per population (named by its spec hash); each line
is one completed shard's aggregate keyed by ``(spec_hash, shard_id)``.
Appending is the only write operation, so a killed scan leaves at worst
one truncated final line — which the loader skips — and every earlier
shard stays durable.  Rerunning the scan then recomputes *only* the
missing shards (see :mod:`repro.atlas.pipeline`).

When the same shard appears twice (e.g. a scan raced its own retry),
the last complete record wins.  Records are keyed by population, not by
shard layout, so every reader filters them through
:func:`records_in_layout`: a store written under a different
``--shards`` value is recomputed rather than mis-merged.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from repro.atlas.aggregate import ScanAggregate
from repro.atlas.shards import ShardRange


@dataclass
class ShardRecord:
    """One shard's scan outcome, as persisted."""

    spec_hash: str
    shard_id: int
    dataset: str
    kind: str
    lo: int
    hi: int
    wall_time: float
    aggregate: ScanAggregate

    def to_json(self) -> dict:
        return {
            "spec_hash": self.spec_hash,
            "shard_id": self.shard_id,
            "dataset": self.dataset,
            "kind": self.kind,
            "lo": self.lo,
            "hi": self.hi,
            "wall_time": self.wall_time,
            "aggregate": self.aggregate.to_json(),
        }

    @classmethod
    def from_json(cls, payload: dict) -> "ShardRecord":
        return cls(
            spec_hash=payload["spec_hash"],
            shard_id=payload["shard_id"],
            dataset=payload["dataset"],
            kind=payload["kind"],
            lo=payload["lo"],
            hi=payload["hi"],
            wall_time=payload["wall_time"],
            aggregate=ScanAggregate.from_json(payload["aggregate"]),
        )


class AtlasStore:
    """Append-only JSONL store of shard aggregates under one directory."""

    def __init__(self, root: str | os.PathLike):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def path_for(self, spec_hash: str) -> Path:
        return self.root / f"{spec_hash}.jsonl"

    def append(self, record: ShardRecord) -> None:
        """Durably append one completed shard."""
        path = self.path_for(record.spec_hash)
        line = json.dumps(record.to_json(), sort_keys=True)
        with path.open("a", encoding="utf-8") as handle:
            handle.write(line + "\n")
            handle.flush()
            os.fsync(handle.fileno())

    def load(self, spec_hash: str) -> dict[int, ShardRecord]:
        """All complete shard records for one population (last wins)."""
        path = self.path_for(spec_hash)
        records: dict[int, ShardRecord] = {}
        if not path.exists():
            return records
        with path.open("r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    payload = json.loads(line)
                    record = ShardRecord.from_json(payload)
                except (json.JSONDecodeError, KeyError):
                    # A scan killed mid-append leaves one partial final
                    # line; treat it as a missing shard, not corruption.
                    continue
                if record.spec_hash == spec_hash:
                    records[record.shard_id] = record
        return records

    def spec_hashes(self) -> list[str]:
        """Every population with at least one stored shard."""
        return sorted(path.stem for path in self.root.glob("*.jsonl"))


def records_in_layout(records: dict[int, ShardRecord],
                      ranges: Iterable[ShardRange]
                      ) -> dict[int, ShardRecord]:
    """The stored records that belong to the shard layout ``ranges``.

    A record counts only when both its shard id and its ``[lo, hi)``
    match a range: under another shard count the same ids cover other
    slices of the population.
    """
    bounds = {shard.shard_id: (shard.lo, shard.hi) for shard in ranges}
    return {shard_id: record for shard_id, record in records.items()
            if bounds.get(shard_id) == (record.lo, record.hi)}
