"""Query traces: the concrete workload a population compiles to.

A :class:`QueryTrace` is an ordered list of ``(at, client, qname,
qtype)`` arrivals — either synthesized from a :class:`WorkloadSpec`'s
client population or ingested from a JSONL query log, so a real
resolver's traffic can become a campaign workload.  The JSONL format is
one object per line::

    {"at": 0.3127, "client": 2, "qname": "load-004.bg", "qtype": "A"}

Floats round-trip exactly through ``json`` (``repr``-based shortest
representation), so write → read → write is byte-stable and the trace
checksum is a fair determinism witness.
"""

from __future__ import annotations

import hashlib
import heapq
import io
import json
import os
from typing import IO, Iterable, Iterator, NamedTuple

from repro.core.errors import ScenarioError
from repro.core.rng import DeterministicRNG
from repro.workload.population import WorkloadSpec


class TraceQuery(NamedTuple):
    """One client arrival: at virtual second ``at``, ``client`` asks.

    A tuple: a loaded run builds one per arrival.
    """

    at: float
    client: int
    qname: str
    qtype: str = "A"

    def to_json(self) -> dict:
        return {"at": self.at, "client": self.client,
                "qname": self.qname, "qtype": self.qtype}

    @classmethod
    def from_json(cls, payload: dict) -> "TraceQuery":
        try:
            return cls(at=float(payload["at"]),
                       client=int(payload["client"]),
                       qname=str(payload["qname"]),
                       qtype=str(payload.get("qtype", "A")))
        except (KeyError, TypeError, ValueError) as exc:
            raise ScenarioError(f"malformed trace record: {payload!r}") \
                from exc


class QueryTrace:
    """An ordered query log with JSONL persistence.

    Queries are kept sorted by ``(at, client)`` — the order the engine
    schedules them — regardless of the order they were appended or read
    in, so a hand-edited or merged log replays identically to a
    synthesized one.
    """

    def __init__(self, queries: Iterable[TraceQuery] = ()):
        self.queries: list[TraceQuery] = sorted(
            queries, key=lambda q: (q.at, q.client))

    def __len__(self) -> int:
        return len(self.queries)

    def __iter__(self) -> Iterator[TraceQuery]:
        return iter(self.queries)

    def __bool__(self) -> bool:
        return bool(self.queries)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QueryTrace):
            return NotImplemented
        return self.queries == other.queries

    @property
    def horizon(self) -> float:
        """Virtual second of the last arrival (0.0 when empty)."""
        return self.queries[-1].at if self.queries else 0.0

    def clients(self) -> list[int]:
        """Distinct client ids, ascending."""
        return sorted({query.client for query in self.queries})

    def qnames(self) -> list[str]:
        """Distinct queried names, ascending."""
        return sorted({query.qname for query in self.queries})

    def checksum(self) -> str:
        """SHA-256 over the canonical JSONL rendering."""
        digest = hashlib.sha256()
        for query in self.queries:
            digest.update(_dump_line(query).encode("utf-8"))
        return digest.hexdigest()

    # -- JSONL persistence -----------------------------------------------------

    def write(self, target: str | os.PathLike | IO[str]) -> None:
        """Write the trace as JSONL to a path or open text stream."""
        if isinstance(target, io.IOBase) or hasattr(target, "write"):
            self._write_stream(target)  # type: ignore[arg-type]
        else:
            with open(target, "w", encoding="utf-8") as stream:
                self._write_stream(stream)

    def _write_stream(self, stream: IO[str]) -> None:
        for query in self.queries:
            stream.write(_dump_line(query))

    @classmethod
    def read(cls, source: str | os.PathLike | IO[str]) -> "QueryTrace":
        """Read a JSONL trace from a path or open text stream."""
        if isinstance(source, io.IOBase) or hasattr(source, "read"):
            return cls._read_stream(source)  # type: ignore[arg-type]
        with open(source, "r", encoding="utf-8") as stream:
            return cls._read_stream(stream)

    @classmethod
    def _read_stream(cls, stream: IO[str]) -> "QueryTrace":
        queries = []
        for lineno, line in enumerate(stream, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                payload = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ScenarioError(
                    f"trace line {lineno} is not JSON: {line[:80]!r}") \
                    from exc
            queries.append(TraceQuery.from_json(payload))
        return cls(queries)


def _dump_line(query: TraceQuery) -> str:
    return json.dumps(query.to_json(), separators=(", ", ": ")) + "\n"


def synthesize_trace(spec: WorkloadSpec, rng: DeterministicRNG,
                     victim_qname: str) -> QueryTrace:
    """Compile a client population into a concrete query trace.

    Each client draws from its own ``rng.derive(f"client-{i}")`` stream
    — arrival times first, then one (domain, qtype) pair per arrival —
    so adding a client or reordering the loop never shifts another
    client's draws.  Per-client streams are merged by arrival time into
    one log.  ``rng`` itself is never advanced (``derive`` is
    stateless), which is what lets a qps=0 workload leave the world's
    randomness untouched.
    """
    catalog = spec.catalog(victim_qname)
    domain_sampler = spec.domain_sampler()
    qtype_sampler, qtype_names = spec.qtype_sampler()
    streams: list[list[TraceQuery]] = []
    for client in range(spec.clients):
        client_rng = rng.derive(f"client-{client}")
        arrivals = spec.arrival_times(client, client_rng)
        queries = []
        for at in arrivals:
            entry = catalog[domain_sampler.sample(client_rng)]
            qtype = qtype_names[qtype_sampler.sample(client_rng)]
            queries.append(TraceQuery(at=at, client=client,
                                      qname=entry.qname, qtype=qtype))
        streams.append(queries)
    merged = list(heapq.merge(*streams, key=lambda q: (q.at, q.client)))
    return QueryTrace(merged)


def load_or_synthesize(spec: WorkloadSpec, rng: DeterministicRNG,
                       victim_qname: str) -> QueryTrace:
    """The trace a spec stands for: replay when ``trace_path`` is set."""
    if spec.trace_path is not None:
        return QueryTrace.read(spec.trace_path)
    return synthesize_trace(spec, rng, victim_qname)
