"""IP identification field allocation policies.

FragDNS effectiveness hinges on whether the victim nameserver's IP-ID can
be predicted (paper Section 4.4.3 / 5.3.2): a single global counter makes
the attack nearly deterministic (the paper measures a 20% median hitrate),
per-destination counters are invisible off-path but predictable once
sampled, and random IP-IDs push the attacker to a ~0.1% hitrate.  All
three policies that real stacks use are implemented.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro.core.rng import DeterministicRNG


class IPIDAllocator(ABC):
    """Strategy interface: produce the IP-ID for an outgoing packet."""

    name: str = "abstract"

    @abstractmethod
    def next_id(self, dst: str) -> int:
        """IP-ID for the next packet sent to ``dst``."""

    def observe(self) -> int | None:
        """What an off-path attacker sampling our traffic would learn.

        Returns the current counter value for globally-counted policies,
        None when sampling tells the attacker nothing (random, and
        per-destination counters for destinations the attacker does not
        share).
        """
        return None


class GlobalCounterIPID(IPIDAllocator):
    """One 16-bit counter shared across all destinations (old stacks).

    This is the "slowly incremental global IPID counter" the paper calls
    out as enabling *deterministic* fragmentation attacks: the attacker
    samples the counter by eliciting any packet, then predicts the ID of
    the packet that will carry the DNS response.
    """

    name = "global"

    def __init__(self, start: int = 0):
        self._counter = start & 0xFFFF

    def next_id(self, dst: str) -> int:
        value = self._counter
        self._counter = (self._counter + 1) & 0xFFFF
        return value

    def observe(self) -> int | None:
        return self._counter

    def advance(self, count: int) -> None:
        """Skip ``count`` IDs, as ``count`` :meth:`next_id` calls would:
        packets the simulation does not send (other clients' traffic)."""
        self._counter = (self._counter + count) & 0xFFFF


class PerDestinationIPID(IPIDAllocator):
    """A counter per destination with a randomised start (modern Linux)."""

    name = "per-destination"

    def __init__(self, rng: DeterministicRNG):
        self._rng = rng
        self._counters: dict[str, int] = {}

    def next_id(self, dst: str) -> int:
        if dst not in self._counters:
            self._counters[dst] = self._rng.randint(0, 0xFFFF)
        value = self._counters[dst]
        self._counters[dst] = (value + 1) & 0xFFFF
        return value


class RandomIPID(IPIDAllocator):
    """Uniformly random IP-ID for every packet (e.g. OpenBSD)."""

    name = "random"

    def __init__(self, rng: DeterministicRNG):
        self._rng = rng

    def next_id(self, dst: str) -> int:
        return self._rng.randint(0, 0xFFFF)


def make_allocator(policy: str, rng: DeterministicRNG,
                   start: int = 0) -> IPIDAllocator:
    """Factory keyed by policy name: 'global', 'per-destination', 'random'."""
    if policy == "global":
        return GlobalCounterIPID(start=start)
    if policy == "per-destination":
        return PerDestinationIPID(rng)
    if policy == "random":
        return RandomIPID(rng)
    raise ValueError(f"unknown IP-ID policy: {policy!r}")
