"""Deterministic client-population model: who asks the resolver what.

Real resolvers serve thousands of clients whose query mix — Zipf-ranked
domain popularity, per-client arrival processes, TTL-driven cache churn
— decides whether a poisoning window ever opens (the victim name is
only attackable while it is absent from the cache).  This module is the
*model* half of the workload subsystem: a picklable
:class:`WorkloadSpec` describing a client population, compiled by
:func:`repro.workload.trace.synthesize_trace` into a concrete
:class:`~repro.workload.trace.QueryTrace` for a seed.

Everything is driven by :class:`repro.core.rng.DeterministicRNG` child
streams (one per client), so the same spec and seed produce the same
trace bit-for-bit on every executor — the property the loaded-campaign
determinism tests pin down.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field, replace
from typing import Iterable

from repro.core.errors import ScenarioError
from repro.core.rng import DeterministicRNG

#: Hard cap on distinct simulated client hosts: the victim /24 has to
#: hold them alongside the resolver (.1) and the service host (.25).
MAX_CLIENTS = 100

#: TTLs cycled across the background catalog (seconds).  A mix of
#: short and long lifetimes is what produces realistic cache churn:
#: popular names flap in and out while the long tail stays resident.
DEFAULT_TTLS = (5, 15, 30, 60, 300)

#: Query-type mix of a typical stub population: mostly A, some AAAA
#: dual-stack probing, a little TXT (SPF/verification lookups).
DEFAULT_QTYPE_MIX = (("A", 0.85), ("AAAA", 0.10), ("TXT", 0.05))


@dataclass(frozen=True)
class CatalogEntry:
    """One name the client population queries."""

    qname: str
    rank: int            # popularity rank, 0 = most popular
    ttl: int             # TTL its zone serves for the A record
    victim: bool = False  # the name the attack races


class MixSampler:
    """Draw from a discrete weighted distribution via one bisect.

    The cumulative table is built once; each draw costs a single
    ``random()`` plus a binary search, and consumes exactly one value
    from the RNG stream regardless of the outcome — which keeps
    per-client streams aligned and the whole trace bit-stable.
    """

    def __init__(self, weights: Iterable[float]):
        cumulative: list[float] = []
        total = 0.0
        for weight in weights:
            if weight < 0:
                raise ScenarioError(f"negative weight: {weight}")
            total += weight
        if total <= 0:
            raise ScenarioError("mix needs at least one positive weight")
        acc = 0.0
        for weight in weights:
            acc += weight / total
            cumulative.append(acc)
        cumulative[-1] = 1.0
        self._cumulative = cumulative

    def sample(self, rng: DeterministicRNG) -> int:
        """Index of the drawn element."""
        return bisect_right(self._cumulative, rng.random())


def zipf_weights(count: int, s: float) -> list[float]:
    """Unnormalised Zipf popularity weights ``1/(rank+1)^s``."""
    if count < 1:
        raise ScenarioError(f"catalog needs at least one name: {count}")
    return [1.0 / float(rank + 1) ** s for rank in range(count)]


@dataclass(frozen=True)
class WorkloadSpec:
    """A client population as plain, picklable data.

    ``clients`` stub clients inside the resolver's ACL each run an
    independent Poisson arrival process at ``qps / clients`` queries
    per second for ``warmup + duration`` virtual seconds.  Each arrival
    draws a name from a Zipf-ranked catalog of ``domains`` background
    names plus the victim name spliced in at ``victim_rank``, and a
    query type from ``qtype_mix``.  ``qps=0`` is the degenerate idle
    workload: it compiles to an empty trace and a loaded scenario
    reproduces the idle-world attack bit-for-bit.

    ``trace_path`` switches the spec from synthesis to replay: the
    JSONL query log at that path becomes the workload verbatim (the
    model knobs are ignored except ``warmup``, which still splits the
    trace into cache-priming and measured phases).
    """

    clients: int = 8
    qps: float = 50.0
    duration: float = 20.0
    warmup: float = 5.0
    domains: int = 20
    zipf_s: float = 1.1
    victim_rank: int = 3
    # When set, the engine rewrites the victim name's zone TTL so the
    # cache entry churns on the workload's timescale (the standard
    # testbed's 300s TTL would pin the name cached for any whole run).
    victim_ttl: int | None = None
    qtype_mix: tuple[tuple[str, float], ...] = DEFAULT_QTYPE_MIX
    ttls: tuple[int, ...] = DEFAULT_TTLS
    client_timeout: float = 6.0
    trace_path: str | None = None
    label: str = "synthetic"

    def __post_init__(self) -> None:
        if not 1 <= self.clients <= MAX_CLIENTS:
            raise ScenarioError(
                f"clients must be in [1, {MAX_CLIENTS}]: {self.clients}")
        if self.qps < 0:
            raise ScenarioError(f"negative qps: {self.qps}")
        if self.duration <= 0:
            raise ScenarioError(f"duration must be positive: {self.duration}")
        if self.warmup < 0:
            raise ScenarioError(f"negative warmup: {self.warmup}")
        if self.domains < 1:
            raise ScenarioError(f"domains must be >= 1: {self.domains}")
        if not 0 <= self.victim_rank <= self.domains:
            raise ScenarioError(
                f"victim_rank must be in [0, {self.domains}]: "
                f"{self.victim_rank}")
        if self.victim_ttl is not None and self.victim_ttl < 0:
            raise ScenarioError(f"negative victim_ttl: {self.victim_ttl}")
        if not self.ttls:
            raise ScenarioError("ttls must not be empty")
        if not self.qtype_mix:
            raise ScenarioError("qtype_mix must not be empty")

    # -- derived ---------------------------------------------------------------

    @property
    def horizon(self) -> float:
        """Total seconds of offered load (warmup + measured window)."""
        return self.warmup + self.duration

    def with_qps(self, qps: float) -> "WorkloadSpec":
        """A copy at a different offered rate (sweep convenience)."""
        return replace(self, qps=qps, label=f"{self.label}@{qps:g}qps")

    def catalog(self, victim_qname: str) -> list[CatalogEntry]:
        """The ranked name catalog with the victim name spliced in.

        Background names live under their own ``.bg`` TLD so the
        engine can create their zones without touching the victim
        domain's delegation; TTLs cycle through :attr:`ttls` by rank.
        """
        entries: list[CatalogEntry] = []
        rank = 0
        background = 0
        while rank < self.domains + 1:
            if rank == self.victim_rank:
                entries.append(CatalogEntry(
                    qname=victim_qname, rank=rank,
                    ttl=self.victim_ttl if self.victim_ttl is not None
                    else 300,
                    victim=True,
                ))
            else:
                entries.append(CatalogEntry(
                    qname=f"load-{background:03d}.bg", rank=rank,
                    ttl=self.ttls[background % len(self.ttls)],
                ))
                background += 1
            rank += 1
        return entries

    def domain_sampler(self) -> MixSampler:
        """Sampler over the catalog's Zipf popularity ranks."""
        return MixSampler(zipf_weights(self.domains + 1, self.zipf_s))

    def qtype_sampler(self) -> tuple[MixSampler, list[str]]:
        """Sampler over the query-type mix, plus the type names."""
        names = [name for name, _weight in self.qtype_mix]
        return MixSampler([weight for _name, weight in self.qtype_mix]), \
            names

    def arrival_times(self, client: int,
                      rng: DeterministicRNG) -> list[float]:
        """Poisson arrival instants for one client over the horizon.

        ``rng`` must be the client's *own* derived stream; the draws
        here are the only randomness the client consumes for timing,
        so client streams never perturb each other.
        """
        rate = self.qps / self.clients
        if rate <= 0:
            return []
        times: list[float] = []
        now = rng.expovariate(rate)
        while now < self.horizon:
            times.append(now)
            now += rng.expovariate(rate)
        return times
