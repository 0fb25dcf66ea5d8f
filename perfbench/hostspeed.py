"""How fast the host ran during a timed block, to normalise its times.

The build host is shared: the same pass ran 1.45x slower at one time
than a few minutes later, all of it in user CPU time, so neither more
passes a run nor CPU time can steady a figure.  :class:`HostSpeed`
measures the host's speed while the block runs.  A ``SIGALRM`` timer
interrupts the block every ``interval`` seconds of wall time and times
a fixed pure-Python probe (:func:`probe`), which shares no code with
the simulator, so a change to ``src/`` cannot move it.  The mean probe
time over the block, against :data:`REFERENCE_PROBE_S`, says how much
slower than the reference the host ran, averaged the way the block
experienced it.

:meth:`HostSpeed.scale` turns a wall time measured in the block into
seconds at the reference speed, net of the probes' own time;
:meth:`HostSpeed.scale_between` does the same for one stretch of it,
such as one cell of a campaign, from the probes taken nearby.  On
consecutive passes of one workload it cut the spread between quartiles
from 11% to 3% (``loaded_defended``) and from 11% to 1.5%
(``atlas_full``, whose numpy work the probe tracks as well).
"""

from __future__ import annotations

import heapq
import signal
import statistics
import time

_clock = time.perf_counter

#: The probe's time on the 2-vCPU build host at its faster speed; a
#: normalised second is a second on that host at that speed.
REFERENCE_PROBE_S = 0.0005

#: Wall seconds between two probes; each costs about 0.5% of that.
INTERVAL_S = 0.1


class _Item:
    __slots__ = ("key", "value")


def probe(turns: int = 500) -> int:
    """Fixed interpreter work: object, heap, dict and bytes operations,
    about 0.5 ms on the build host."""
    heap: list = []
    table: dict = {}
    for turn in range(turns):
        item = _Item()
        item.key = turn * 7 % 97
        item.value = turn
        heapq.heappush(heap, (item.key, turn))
        table[turn & 255] = table.get(turn & 255, 0) + item.value
        if len(heap) > 64:
            heapq.heappop(heap)
        b"%d" % turn
    return len(table)


def _timed_probe() -> float:
    started = _clock()
    probe()
    return _clock() - started


class HostSpeed:
    """Context manager sampling the host's speed during its block.

    One probe runs on entry and one on exit, outside the block's own
    timing, so even a block shorter than ``interval`` has samples; the
    probes inside the block are ``ticks``, as ``(start, seconds)``.
    """

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.samples: list[float] = []
        self.ticks: list[tuple[float, float]] = []
        self.inside_s = 0.0
        self.elapsed = 0.0

    def _tick(self, signum, frame) -> None:
        started = _clock()
        probe()
        spent = _clock() - started
        self.samples.append(spent)
        self.ticks.append((started, spent))
        self.inside_s += spent

    def __enter__(self) -> "HostSpeed":
        self.samples.append(_timed_probe())
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._started = _clock()
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        self.elapsed = _clock() - self._started
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(_timed_probe())

    def scale(self) -> float:
        """Multiplier from wall seconds measured in the block to seconds
        at the reference speed: the probes' share of the block is taken
        out, then the host's slowness divided out."""
        return self._scale(self.samples)

    def scale_between(self, start: float, end: float,
                      span: float = 1.0) -> float:
        """:meth:`scale` for the stretch of the block from ``start`` to
        ``end`` (``perf_counter`` readings), from the probes within it.

        The host's speed flips within seconds, so a cell of a few
        seconds is scaled by the probes taken while it ran.  A shorter
        stretch is widened about its middle to ``span`` seconds, and
        one with fewer than 5 probes even so takes the whole block's.
        """
        widen = max(0.0, span - (end - start)) / 2
        near = [spent for at, spent in self.ticks
                if start - widen <= at <= end + widen]
        return self._scale(near) if len(near) >= 5 else self.scale()

    def _scale(self, samples: list[float]) -> float:
        overhead = self.inside_s / self.elapsed if self.elapsed else 0.0
        slowness = statistics.fmean(samples) / REFERENCE_PROBE_S
        return (1.0 - overhead) / slowness
