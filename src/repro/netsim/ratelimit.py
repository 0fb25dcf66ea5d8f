"""Token-bucket rate limiting.

Two limiters in the paper are attack surface:

* the kernel's *global* ICMP error rate limit — SadDNS turns it into a
  side channel (Section 3.2): 50 tokens refilled per second, shared over
  all peers, so an attacker can burn the budget with spoofed probes and
  then test whether one of its own probes still earns an error;
* authoritative nameserver response-rate-limiting (RRL) — SadDNS uses it
  to mute the genuine nameserver and stretch the race window.

Both are instances of :class:`TokenBucket` running on virtual time.
A run of datagrams that find their ports closed at one instant (a
single datagram, or part of a SadDNS scan batch or flood chunk) asks the
ICMP limiter for its unit-cost errors at once through
:meth:`TokenBucket.allow_run`, which counts exactly what that many
:meth:`TokenBucket.allow` calls would.

The SadDNS mute's re-drain cadence is recorded once
(:meth:`TokenBucket.drain_every`); each drain due applies when the bucket
is next asked, before an ``allow``, ``allow_run`` or ``peek`` at the same
instant: refill to the drain, empty, then refill to the asking instant.
"""

from __future__ import annotations

from heapq import heappop, heappush


class TokenBucket:
    """Classic token bucket on virtual time.

    ``allow(now)`` consumes a token if available.  Refill is continuous at
    ``rate`` tokens/second up to ``burst``.
    """

    def __init__(self, rate: float, burst: float):
        if rate < 0 or burst <= 0:
            raise ValueError(f"invalid token bucket: rate={rate} burst={burst}")
        self.rate = rate
        self.burst = float(burst)
        self._tokens = float(burst)
        self._last = 0.0
        self.allowed = 0
        self.denied = 0
        self._drains: list[float] = []

    def _refill(self, now: float) -> None:
        drains = self._drains
        while drains and drains[0] <= now:
            # Refills only (no drain is pending before this one).
            self._refill(heappop(drains))
            self._tokens = 0.0
        if now < self._last:
            # Virtual time is monotone everywhere in the simulator; a
            # backwards clock would silently skip refills (and hide a
            # scheduling bug), so fail loudly instead.
            raise ValueError(
                f"time went backwards: now={now} < last={self._last}")
        if now > self._last:
            self._tokens = min(self.burst,
                               self._tokens + (now - self._last) * self.rate)
            self._last = now

    def allow(self, now: float, cost: float = 1.0) -> bool:
        """Try to consume ``cost`` tokens at virtual time ``now``."""
        if cost <= 0:
            raise ValueError(f"cost must be positive, got {cost}")
        self._refill(now)
        if self._tokens >= cost:
            self._tokens -= cost
            self.allowed += 1
            return True
        self.denied += 1
        return False

    def allow_run(self, now: float, n: int) -> int:
        """``n`` unit-cost :meth:`allow` calls at virtual time ``now``.

        Returns how many of them pass: the first ``k = min(n,
        floor(tokens))``.  Exact, token for token: ``t - 1`` taken ``k``
        times is ``t - k`` in floating point for any ``k <= t < 2**53``.
        ``n == 0`` does nothing, not even the refill, because refilling
        at an extra instant can round differently.
        """
        if n < 0:
            raise ValueError(f"run length must be non-negative, got {n}")
        if n == 0:
            return 0
        self._refill(now)
        tokens = self._tokens
        allowed = n if tokens >= n else int(tokens)
        self._tokens = tokens - allowed
        self.allowed += allowed
        self.denied += n - allowed
        return allowed

    def peek(self, now: float) -> float:
        """Tokens that would be available at ``now`` (no consumption)."""
        self._refill(now)
        return self._tokens

    def drain(self, now: float) -> None:
        """Consume every available token (used by flooding attackers)."""
        self._refill(now)
        self._tokens = 0.0

    def drain_every(self, start: float, interval: float, steps: int) -> None:
        """:meth:`drain` at ``start + k * interval`` for ``k`` in
        ``1..steps``, applied lazily (see the module docstring)."""
        for step in range(1, steps + 1):
            heappush(self._drains, start + step * interval)
