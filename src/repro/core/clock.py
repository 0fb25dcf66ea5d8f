"""Simulated time and event scheduling.

The whole library runs on virtual time: a :class:`Clock` owns the current
timestamp and a :class:`Scheduler` drives callbacks ordered by (time,
sequence number).  Nothing ever sleeps; advancing time is explicit, which
keeps attack experiments that "take 471 seconds" finishing in milliseconds
of wall-clock.

The scheduler is the single hottest object in the simulator — every
packet delivery, retransmission timer and rate-limit drain goes through
it, and the volume attacks push millions of events per campaign.  Its
queue therefore holds plain lists ``[when, seq, callback, args,
cancelled]`` rather than objects: list comparison runs in C (the unique
``(when, seq)`` prefix decides every heap comparison before the
callback is ever looked at), and ``call_later(delay, fn, *args)``
carries arguments without a closure, so the per-packet cost is one list
and zero lambdas.
"""

from __future__ import annotations

import heapq
import time
from typing import Callable

from repro.core.errors import BudgetExceededError

# Heap entry layout (plain list so heapq compares in C and the
# cancellation flag stays mutable): [when, seq, callback, args, cancelled]
_WHEN = 0
_SEQ = 1
_CALLBACK = 2
_ARGS = 3
_CANCELLED = 4


class Clock:
    """Monotonic virtual clock measured in seconds (float)."""

    __slots__ = ("_now",)

    def __init__(self, start: float = 0.0):
        self._now = float(start)

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    def advance_to(self, when: float) -> None:
        """Move the clock forward to ``when``.  Going backwards is an error."""
        if when < self._now:
            raise ValueError(
                f"clock cannot run backwards: now={self._now}, requested={when}"
            )
        self._now = when

    def advance(self, delta: float) -> None:
        """Move the clock forward by ``delta`` seconds."""
        if delta < 0:
            raise ValueError(f"negative clock delta: {delta}")
        self._now += delta


class TimerHandle:
    """Handle returned by :meth:`Scheduler.call_at`; allows cancellation."""

    __slots__ = ("_entry", "_scheduler")

    def __init__(self, entry: list, scheduler: "Scheduler"):
        self._entry = entry
        self._scheduler = scheduler

    def cancel(self) -> None:
        """Prevent the callback from running if it has not run yet."""
        entry = self._entry
        if entry[_CANCELLED]:
            return
        entry[_CANCELLED] = True
        if entry[_CALLBACK] is not None:
            # Still queued: release it and keep the live counter honest.
            # A callback of None means the entry already executed (the
            # run loops clear it), so there is nothing left to uncount —
            # timers routinely get cancelled by their own callback's
            # cleanup path (e.g. a resolver finishing on its last
            # timeout).
            entry[_CALLBACK] = None
            entry[_ARGS] = None
            self._scheduler._pending -= 1

    @property
    def when(self) -> float:
        """Virtual time at which the callback is due."""
        return self._entry[_WHEN]

    @property
    def cancelled(self) -> bool:
        """Whether :meth:`cancel` was called."""
        return self._entry[_CANCELLED]


class Scheduler:
    """Priority-queue event loop over a :class:`Clock`.

    Events scheduled for the same instant run in scheduling order, which
    gives the simulation deterministic tie-breaking.  ``call_at`` /
    ``call_later`` accept positional arguments for the callback so hot
    paths never build closures::

        scheduler.call_later(latency, host.receive, packet)
    """

    __slots__ = ("clock", "_queue", "_seq", "_pending", "executed",
                 "event_budget", "wall_deadline")

    def __init__(self, clock: Clock | None = None):
        self.clock = clock if clock is not None else Clock()
        self._queue: list[list] = []
        self._seq = 0
        self._pending = 0
        # Lifetime event counter plus the optional per-run watchdog (see
        # :meth:`arm_budget`).  Both budgets default to unarmed: the
        # clean fast path pays one boolean test per drained loop, never
        # per event.
        self.executed = 0
        self.event_budget: int | None = None
        self.wall_deadline: float | None = None

    # -- watchdog ----------------------------------------------------------

    def arm_budget(self, max_events: int | None = None,
                   max_wall: float | None = None) -> None:
        """Arm the watchdog: budgets count from *now*.

        ``max_events`` bounds further events executed;  ``max_wall``
        bounds real elapsed seconds (checked every 256 events, so a slow
        callback overshoots by at most one check window).  Exceeding
        either raises :class:`repro.core.errors.BudgetExceededError`
        from the run loop; ``arm_budget()`` with no arguments disarms.

        An event is one scheduled callback, so a SadDNS scan batch or
        flood chunk, delivered as one :class:`~repro.netsim.packet.UdpBurst`,
        counts as one event however many datagrams it carries.
        """
        self.event_budget = None if max_events is None \
            else self.executed + max_events
        self.wall_deadline = None if max_wall is None \
            else time.perf_counter() + max_wall

    def _check_budget(self, extra: int) -> None:
        """Raise if the armed budget is exhausted (``extra`` = events
        executed by the current loop, not yet folded into the total)."""
        budget = self.event_budget
        if budget is not None and self.executed + extra > budget:
            raise BudgetExceededError(
                f"scheduler event budget exhausted: "
                f"{self.executed + extra} events exceed the armed budget"
                f" of {budget}")
        deadline = self.wall_deadline
        if deadline is not None and not (extra & 255) \
                and time.perf_counter() > deadline:
            raise BudgetExceededError(
                f"scheduler wall budget exhausted after "
                f"{self.executed + extra} events")

    def call_at(self, when: float, callback: Callable[..., None],
                *args) -> TimerHandle:
        """Schedule ``callback(*args)`` to run at absolute time ``when``."""
        if when < self.clock._now:
            raise ValueError(
                f"cannot schedule in the past: now={self.clock._now},"
                f" when={when}"
            )
        self._seq = seq = self._seq + 1
        entry = [when, seq, callback, args, False]
        heapq.heappush(self._queue, entry)
        self._pending += 1
        return TimerHandle(entry, self)

    def call_later(self, delay: float, callback: Callable[..., None],
                   *args) -> TimerHandle:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        return self.call_at(self.clock._now + delay, callback, *args)

    def schedule(self, delay: float, callback: Callable[..., None],
                 *args) -> None:
        """Fire-and-forget :meth:`call_later` without a handle.

        The per-packet fast path: delivery events are never cancelled,
        so skipping the :class:`TimerHandle` saves one allocation per
        scheduled packet.
        """
        now = self.clock._now
        when = now + delay
        if when < now:
            raise ValueError(
                f"cannot schedule in the past: now={now}, when={when}")
        self._seq = seq = self._seq + 1
        heapq.heappush(self._queue, [when, seq, callback, args, False])
        self._pending += 1

    @property
    def pending(self) -> int:
        """Number of not-yet-cancelled events still queued (O(1))."""
        return self._pending

    def run_next(self) -> bool:
        """Run the earliest pending event.  Returns False if queue is empty."""
        queue = self._queue
        pop = heapq.heappop
        while queue:
            entry = pop(queue)
            if entry[_CANCELLED]:
                continue
            # Mark the entry consumed before invoking, so a handle
            # cancelled from inside its own callback is a no-op.
            callback = entry[_CALLBACK]
            args = entry[_ARGS]
            entry[_CALLBACK] = None
            entry[_ARGS] = None
            self._pending -= 1
            # The heap pops in (when, seq) order and call_at refuses the
            # past, so time is monotone here by construction.
            self.clock._now = entry[_WHEN]
            self.executed += 1
            callback(*args)
            if self.event_budget is not None \
                    or self.wall_deadline is not None:
                self._check_budget(0)
            return True
        return False

    def run_until(self, deadline: float) -> None:
        """Run all events due at or before ``deadline``, then set time to it."""
        queue = self._queue
        pop = heapq.heappop
        clock = self.clock
        guarded = self.event_budget is not None \
            or self.wall_deadline is not None
        executed = 0
        try:
            while queue:
                entry = queue[0]
                if entry[_CANCELLED]:
                    pop(queue)
                    continue
                if entry[_WHEN] > deadline:
                    break
                pop(queue)
                callback = entry[_CALLBACK]
                args = entry[_ARGS]
                entry[_CALLBACK] = None
                entry[_ARGS] = None
                self._pending -= 1
                clock._now = entry[_WHEN]
                callback(*args)
                executed += 1
                if guarded:
                    self._check_budget(executed)
        finally:
            self.executed += executed
        if deadline > clock._now:
            clock._now = deadline

    def run_until_idle(self, max_events: int = 1_000_000) -> int:
        """Run events until the queue drains.  Returns events executed.

        ``max_events`` bounds runaway feedback loops (e.g. two hosts
        ping-ponging retransmissions forever); exceeding it raises.
        """
        executed = 0
        queue = self._queue
        pop = heapq.heappop
        clock = self.clock
        guarded = self.event_budget is not None \
            or self.wall_deadline is not None
        try:
            while queue:
                entry = pop(queue)
                if entry[_CANCELLED]:
                    continue
                callback = entry[_CALLBACK]
                args = entry[_ARGS]
                entry[_CALLBACK] = None
                entry[_ARGS] = None
                self._pending -= 1
                clock._now = entry[_WHEN]
                callback(*args)
                executed += 1
                if executed > max_events:
                    raise RuntimeError(
                        f"scheduler did not go idle after {max_events}"
                        " events"
                    )
                if guarded:
                    self._check_budget(executed)
        finally:
            self.executed += executed
        return executed
