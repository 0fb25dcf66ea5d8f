"""Structured event logging for attack traces and measurements.

The experiments in the paper are narrated as message sequence charts
(Figures 1 and 2).  To regenerate those, every component records
:class:`Event` entries into a shared :class:`EventLog`; the figure benches
then render the log as an ASCII sequence diagram and the tests assert on
the event structure instead of scraping stdout.

Statistical runs — campaigns over thousands of seeds, atlas scans over
millions of entities — never look at a trace, so they attach a
:class:`NullLog` instead: it shares the :class:`EventLog` interface but
``record()`` is a no-op and its ``enabled`` flag lets hot call sites
skip even the *argument construction* (f-string details, data dicts)
of a record call.  Tracing therefore costs nothing when it is off.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterator


@dataclass(frozen=True, slots=True)
class Event:
    """One timestamped occurrence inside the simulation.

    Attributes:
        time: virtual time in seconds.
        actor: the component that recorded the event (e.g. ``"attacker"``).
        kind: machine-readable event type (e.g. ``"icmp.rate_limited"``).
        detail: human-readable one-liner for rendered traces.
        data: structured payload for assertions in tests.
    """

    time: float
    actor: str
    kind: str
    detail: str = ""
    data: dict[str, Any] = field(default_factory=dict)

    # Explicit state protocol: frozen+slots dataclasses only gained
    # working default pickling in Python 3.11, and events cross process
    # boundaries in campaign workers on 3.10 too.
    def __getstate__(self):
        return (self.time, self.actor, self.kind, self.detail, self.data)

    def __setstate__(self, state):
        for name, value in zip(("time", "actor", "kind", "detail", "data"),
                               state):
            object.__setattr__(self, name, value)


class EventLog:
    """Append-only list of :class:`Event` with query helpers.

    ``count()`` and ``of_kind()`` match an exact kind or any dotted
    sub-kind (``"ip"`` matches ``"ip.df_drop"``).  A per-kind index is
    maintained on record, so ``count()`` costs O(distinct kinds) no
    matter how many events the log holds.
    """

    #: Hot call sites check this before building record() arguments.
    enabled = True

    def __init__(self, capacity: int | None = None):
        self._events: list[Event] = []
        self._capacity = capacity
        self._subscribers: list[Callable[[Event], None]] = []
        # kind -> number of *stored* events with exactly that kind.
        self._kind_counts: dict[str, int] = {}

    def record(
        self,
        time: float,
        actor: str,
        kind: str,
        detail: str = "",
        **data: Any,
    ) -> Event:
        """Append an event and notify subscribers; returns the event."""
        event = Event(time=time, actor=actor, kind=kind, detail=detail,
                      data=data)
        if self._capacity is None or len(self._events) < self._capacity:
            self._events.append(event)
            counts = self._kind_counts
            counts[kind] = counts.get(kind, 0) + 1
        for subscriber in self._subscribers:
            subscriber(event)
        return event

    def subscribe(self, callback: Callable[[Event], None]) -> None:
        """Invoke ``callback`` for every subsequently recorded event."""
        self._subscribers.append(callback)

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self._events)

    def __getitem__(self, index: int) -> Event:
        return self._events[index]

    def of_kind(self, kind: str) -> list[Event]:
        """All events whose kind equals or starts with ``kind``."""
        prefix = kind + "."
        return [
            e for e in self._events
            if e.kind == kind or e.kind.startswith(prefix)
        ]

    def count(self, kind: str) -> int:
        """Number of events matching :meth:`of_kind` (via the kind index)."""
        prefix = kind + "."
        return sum(
            n for stored, n in self._kind_counts.items()
            if stored == kind or stored.startswith(prefix)
        )

    def clear(self) -> None:
        """Drop all stored events (subscribers stay registered)."""
        self._events.clear()
        self._kind_counts.clear()

    def render_sequence(self, actors: list[str] | None = None) -> str:
        """Render the log as an ASCII message-sequence chart.

        Only events carrying ``src``/``dst`` data become arrows; other
        events render as annotations on their actor's lifeline.
        """
        if actors is None:
            seen: list[str] = []
            for event in self._events:
                for name in (event.data.get("src_actor"), event.actor,
                             event.data.get("dst_actor")):
                    if name and name not in seen:
                        seen.append(name)
            actors = seen
        width = 24
        header = "".join(a.center(width) for a in actors)
        lines = [header, "".join("|".center(width) for _ in actors)]
        for event in self._events:
            src = event.data.get("src_actor")
            dst = event.data.get("dst_actor")
            label = f"[{event.time:9.3f}s] {event.detail or event.kind}"
            if src in actors and dst in actors and src != dst:
                i, j = actors.index(src), actors.index(dst)
                lo, hi = min(i, j), max(i, j)
                row = []
                for k, _ in enumerate(actors):
                    if lo <= k < hi:
                        row.append("-" * width)
                    else:
                        row.append("|".center(width))
                arrow = "".join(row)
                point = ">" if j > i else "<"
                pos = (hi * width) - 1 if j > i else lo * width
                arrow = arrow[:pos] + point + arrow[pos + 1:]
                lines.append(arrow)
                lines.append(f"    {label}")
            else:
                lines.append(f"    {label}  ({event.actor})")
        return "\n".join(lines)


class NullLog(EventLog):
    """An :class:`EventLog` that stores nothing — the untraced fast path.

    Campaign and atlas runs attach one of these so per-packet code pays
    no :class:`Event` construction and no append.  The interface is the
    full :class:`EventLog` one (queries return empty results) so code
    holding a log never needs to branch — except hot paths, which check
    ``log.enabled`` first and skip building the record arguments too.
    """

    enabled = False

    def record(self, time: float, actor: str, kind: str, detail: str = "",
               **data: Any) -> None:
        """Drop the event without constructing it (returns ``None``)."""
        return None
