"""The append-only SQLite run store.

One database file holds every executed campaign cell, keyed by
``(spec_hash, seed, defense)`` (see :mod:`repro.store.schema`).  Design
constraints, in order:

* **append-only** — :meth:`RunStore.record` is first-wins: a replayed
  cell is a no-op and nothing rewrites a stored *result*.  The single
  exception is healing: an ``ok`` record replaces a ``failed`` one for
  the same key (a failure is an absence of a result, not a result), so
  resuming a sweep that recorded poisoned cells re-executes exactly the
  failed/missing keys and upgrades them in place.
* **retrying** — writes that lose a lock race beyond SQLite's own
  ``busy_timeout`` retry with bounded backoff (see :func:`retry_locked`)
  instead of surfacing ``OperationalError`` to the campaign; the
  cumulative retry count persists in the ``meta`` table so ``inspect``
  can report contention after the fact.
* **concurrent writers** — the database runs in WAL mode with a busy
  timeout, so campaign workers (and independent processes sharing
  one store file) append simultaneously without serialising whole
  sweeps.  Connections are per-thread; the
  :class:`RunStore` object itself may be shared across threads freely.
* **queryable** — the flat record columns are indexed for the CLI
  filters (method, defense, label, app, success) and for the
  incremental aggregates in :mod:`repro.store.aggregate`.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
import time
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

from repro.obs import OBS
from repro.store.schema import STORE_FORMAT_VERSION, RunRecord

#: Columns a query filter may constrain (whitelist: filters come from
#: CLI flags and HTTP query strings, never interpolated raw).
FILTER_COLUMNS = ("spec_hash", "seed", "defense", "method", "label",
                  "workload_hash", "app", "success", "status")

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS runs (
    spec_hash TEXT NOT NULL,
    seed TEXT NOT NULL,
    defense TEXT NOT NULL,
    method TEXT NOT NULL,
    label TEXT NOT NULL,
    workload_hash TEXT NOT NULL DEFAULT '',
    app TEXT,
    success INTEGER NOT NULL,
    packets_sent INTEGER NOT NULL,
    queries_triggered INTEGER NOT NULL,
    duration REAL NOT NULL,
    impact_realized INTEGER,
    load_checksum TEXT,
    wall_time REAL NOT NULL,
    stats TEXT NOT NULL,
    created REAL NOT NULL,
    status TEXT NOT NULL DEFAULT 'ok',
    error TEXT NOT NULL DEFAULT '',
    PRIMARY KEY (spec_hash, seed, defense)
);
CREATE INDEX IF NOT EXISTS runs_method ON runs (method);
CREATE INDEX IF NOT EXISTS runs_defense ON runs (defense);
CREATE INDEX IF NOT EXISTS runs_label ON runs (label);
"""

_COLUMNS = ("spec_hash", "seed", "defense", "method", "label",
            "workload_hash", "app", "success", "packets_sent",
            "queries_triggered", "duration", "impact_realized",
            "load_checksum", "wall_time", "stats", "created",
            "status", "error")

# First-wins upsert with the one healing exception: only an ok record
# may replace a failed one.  A conflicting insert that fails the WHERE
# changes no rows, so record() still reports replays as ignored.
_UPSERT = (
    f"INSERT INTO runs ({', '.join(_COLUMNS)}) "
    f"VALUES ({', '.join('?' * len(_COLUMNS))}) "
    "ON CONFLICT (spec_hash, seed, defense) DO UPDATE SET "
    + ", ".join(f"{column} = excluded.{column}"
                for column in _COLUMNS[3:])
    + " WHERE runs.status = 'failed' AND excluded.status = 'ok'"
)

#: Bounded-backoff retry for writes that stay locked beyond SQLite's
#: busy_timeout: attempt n sleeps ``RETRY_BACKOFF * n`` first.
RETRY_ATTEMPTS = 6
RETRY_BACKOFF = 0.05


def retry_locked(fn: Callable[[], Any],
                 attempts: int = RETRY_ATTEMPTS,
                 backoff: float = RETRY_BACKOFF,
                 on_retry: Callable[[], None] | None = None) -> Any:
    """Run ``fn``, retrying busy/locked ``sqlite3.OperationalError``.

    Any other ``OperationalError`` (corrupt file, bad SQL) propagates
    immediately, as does a lock held past the last attempt.
    """
    attempt = 0
    while True:
        attempt += 1
        try:
            return fn()
        except sqlite3.OperationalError as exc:
            message = str(exc).lower()
            if ("locked" not in message and "busy" not in message) \
                    or attempt >= attempts:
                raise
            if on_retry is not None:
                on_retry()
            time.sleep(backoff * attempt)


class StoreError(Exception):
    """A run-store operation failed (bad path, format mismatch, ...)."""


def _row_to_record(row: sqlite3.Row) -> RunRecord:
    return RunRecord(
        spec_hash=row["spec_hash"],
        seed=row["seed"],
        defense=row["defense"],
        method=row["method"],
        label=row["label"],
        workload_hash=row["workload_hash"],
        app=row["app"],
        success=bool(row["success"]),
        packets_sent=row["packets_sent"],
        queries_triggered=row["queries_triggered"],
        duration=row["duration"],
        impact_realized=None if row["impact_realized"] is None
        else bool(row["impact_realized"]),
        load_checksum=row["load_checksum"],
        wall_time=row["wall_time"],
        stats=json.loads(row["stats"]),
        created=row["created"],
        status=row["status"],
        error=row["error"],
    )


class RunStore:
    """Append-only store of executed campaign cells in one SQLite file.

    ``RunStore("runs.db")`` creates the file (and parent directories)
    on first use.  The object is cheap and thread-safe: each thread
    lazily opens its own WAL-mode connection to the same file.
    """

    def __init__(self, path: str | os.PathLike,
                 busy_timeout: float = 30.0):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.busy_timeout = busy_timeout
        self._local = threading.local()
        # Lock-contention accounting: busy_retries counts this object's
        # retried writes; the cumulative total also persists into the
        # meta table (flushed opportunistically) so a later `inspect`
        # process sees contention it never experienced itself.
        self._retry_lock = threading.Lock()
        self.busy_retries = 0
        self._unflushed_retries = 0
        self._init_schema()

    @classmethod
    def open(cls, store: "RunStore | str | os.PathLike | None"
             ) -> "RunStore | None":
        """Normalise the ``store=`` convenience: path or instance."""
        if store is None or isinstance(store, RunStore):
            return store
        return cls(store)

    # -- connection management -------------------------------------------------

    def _connect(self) -> sqlite3.Connection:
        connection = getattr(self._local, "connection", None)
        if connection is None:
            connection = sqlite3.connect(self.path,
                                         timeout=self.busy_timeout)
            connection.row_factory = sqlite3.Row
            connection.execute("PRAGMA journal_mode=WAL")
            connection.execute("PRAGMA synchronous=NORMAL")
            connection.execute(
                f"PRAGMA busy_timeout={int(self.busy_timeout * 1000)}")
            self._local.connection = connection
        return connection

    def _init_schema(self) -> None:
        connection = self._connect()
        with connection:
            connection.executescript(_SCHEMA)
            connection.execute(
                "INSERT OR IGNORE INTO meta (key, value) VALUES (?, ?)",
                ("store_format", str(STORE_FORMAT_VERSION)))
        stored = connection.execute(
            "SELECT value FROM meta WHERE key = 'store_format'"
        ).fetchone()
        if stored is not None and int(stored["value"]) != \
                STORE_FORMAT_VERSION:
            raise StoreError(
                f"{self.path} is a format-{stored['value']} store; this "
                f"build writes format {STORE_FORMAT_VERSION} — use a "
                "fresh path (records do not migrate across formats)")

    def close(self) -> None:
        """Close this thread's connection (others close on GC/exit)."""
        connection = getattr(self._local, "connection", None)
        if connection is not None:
            connection.close()
            self._local.connection = None

    # -- writes ----------------------------------------------------------------

    def _note_busy_retry(self) -> None:
        with self._retry_lock:
            self.busy_retries += 1
            self._unflushed_retries += 1
        if OBS.enabled:
            OBS.counter("store.busy_retries_total").inc()

    def _flush_busy_retries(self, connection: sqlite3.Connection) -> None:
        """Fold pending retry counts into the meta table (best-effort:
        a store that is still contended keeps them for the next write)."""
        with self._retry_lock:
            pending = self._unflushed_retries
            self._unflushed_retries = 0
        if not pending:
            return
        try:
            with connection:
                connection.execute(
                    "INSERT INTO meta (key, value) VALUES "
                    "('busy_retries', ?) ON CONFLICT (key) DO UPDATE SET"
                    " value = CAST(value AS INTEGER) + ?",
                    (str(pending), pending))
        except sqlite3.OperationalError:
            with self._retry_lock:
                self._unflushed_retries += pending

    def total_busy_retries(self) -> int:
        """Cumulative retried writes across every process that shared
        this store file (plus any not yet flushed by this object)."""
        row = self._connect().execute(
            "SELECT value FROM meta WHERE key = 'busy_retries'"
        ).fetchone()
        persisted = int(row["value"]) if row is not None else 0
        with self._retry_lock:
            return persisted + self._unflushed_retries

    @staticmethod
    def _row_values(record: RunRecord) -> tuple:
        return (record.spec_hash, record.seed, record.defense,
                record.method, record.label, record.workload_hash,
                record.app, int(record.success), record.packets_sent,
                record.queries_triggered, record.duration,
                None if record.impact_realized is None
                else int(record.impact_realized),
                record.load_checksum, record.wall_time,
                json.dumps(record.stats, sort_keys=True,
                           separators=(",", ":")),
                record.created, record.status, record.error)

    def record(self, record: RunRecord) -> bool:
        """Durably append one cell; ``False`` when the key existed.

        Append-only, first-wins: replaying a cell (a resumed sweep, a
        raced retry, two service workers on one grid) never rewrites a
        stored result — except that an ``ok`` record heals a ``failed``
        one, so resumed sweeps upgrade recorded failures in place.
        Writes that stay locked beyond the busy timeout retry with
        bounded backoff before surfacing the error.
        """
        if not record.created:
            record.created = time.time()
        connection = self._connect()

        def _write() -> bool:
            with connection:
                cursor = connection.execute(
                    _UPSERT, self._row_values(record))
            return cursor.rowcount > 0

        written = retry_locked(_write, on_retry=self._note_busy_retry)
        self._flush_busy_retries(connection)
        if OBS.enabled:
            OBS.counter("store.writes_total"
                        if written else "store.replays_total").inc()
        return written

    def record_many(self, records: Iterable[RunRecord]) -> int:
        """Durably append a batch; returns how many actually wrote.

        Delegates to :meth:`record` per item (each write individually
        retried), so store wrappers that intercept ``record`` — chaos
        stores, counting test doubles — see batch writes too, and a
        wrapper that dies mid-batch still leaves the earlier records
        durable for the resume path.
        """
        return sum(1 for record in records if self.record(record))

    # -- point reads -----------------------------------------------------------

    def get(self, key: tuple[str, str, str]) -> RunRecord | None:
        row = self._connect().execute(
            "SELECT * FROM runs WHERE spec_hash = ? AND seed = ? "
            "AND defense = ?", key).fetchone()
        return _row_to_record(row) if row is not None else None

    def __contains__(self, key: tuple[str, str, str]) -> bool:
        return self._connect().execute(
            "SELECT 1 FROM runs WHERE spec_hash = ? AND seed = ? "
            "AND defense = ?", key).fetchone() is not None

    def load_cells(self, spec_hashes: Iterable[str]
                   ) -> dict[tuple[str, str, str], RunRecord]:
        """Every stored record for the given scenario hashes, keyed.

        The campaign resume path uses this to resolve a whole sweep's
        cached cells in one query instead of one lookup per cell.
        """
        hashes = sorted(set(spec_hashes))
        cells: dict[tuple[str, str, str], RunRecord] = {}
        if not hashes:
            return cells
        connection = self._connect()
        for start in range(0, len(hashes), 500):
            chunk = hashes[start:start + 500]
            rows = connection.execute(
                f"SELECT * FROM runs WHERE spec_hash IN "
                f"({', '.join('?' * len(chunk))})", chunk)
            for row in rows:
                record = _row_to_record(row)
                cells[record.key] = record
        return cells

    # -- queries ---------------------------------------------------------------

    def _where(self, filters: dict[str, Any]
               ) -> tuple[str, list[Any]]:
        clauses: list[str] = []
        params: list[Any] = []
        for column, value in filters.items():
            if value is None:
                continue
            if column not in FILTER_COLUMNS:
                raise StoreError(
                    f"unknown filter column {column!r}; filterable: "
                    f"{', '.join(FILTER_COLUMNS)}")
            clauses.append(f"{column} = ?")
            params.append(int(value) if column == "success" else value)
        where = f" WHERE {' AND '.join(clauses)}" if clauses else ""
        return where, params

    def iter_records(self, limit: int | None = None,
                     **filters: Any) -> Iterator[RunRecord]:
        """Stream matching records in deterministic key order."""
        where, params = self._where(filters)
        sql = (f"SELECT * FROM runs{where} "
               "ORDER BY spec_hash, seed, defense")
        if limit is not None:
            sql += " LIMIT ?"
            params.append(limit)
        for row in self._connect().execute(sql, params):
            yield _row_to_record(row)

    def count(self, **filters: Any) -> int:
        where, params = self._where(filters)
        return self._connect().execute(
            f"SELECT COUNT(*) AS n FROM runs{where}", params
        ).fetchone()["n"]

    def distinct(self, column: str) -> list[str]:
        """Distinct non-null values of one queryable column, sorted."""
        if column not in FILTER_COLUMNS:
            raise StoreError(f"unknown column {column!r}")
        rows = self._connect().execute(
            f"SELECT DISTINCT {column} AS v FROM runs "
            f"WHERE {column} IS NOT NULL ORDER BY v")
        return [row["v"] for row in rows]

    # -- maintenance -----------------------------------------------------------

    def export_jsonl(self, path: str | os.PathLike,
                     **filters: Any) -> int:
        """Write matching records as JSON lines; returns the count."""
        written = 0
        with Path(path).open("w", encoding="utf-8") as handle:
            for record in self.iter_records(**filters):
                handle.write(json.dumps(record.to_json(), sort_keys=True)
                             + "\n")
                written += 1
        return written

    def vacuum(self) -> None:
        """Compact the database file (checkpoints the WAL first)."""
        connection = self._connect()
        connection.execute("PRAGMA wal_checkpoint(TRUNCATE)")
        connection.execute("VACUUM")
