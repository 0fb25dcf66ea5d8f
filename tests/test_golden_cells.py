"""Golden fingerprints of four small simulator cells.

The benchmark checks only each workload's verdicts and counts; these
digests pin everything else a cell leaves behind, so a change to the
per-packet path that keeps every verdict but shifts one RNG draw, one
counter or one cached record fails here.  Each digest covers:

* the :class:`ScenarioRun` with its wall time zeroed;
* every ``*Stats`` dataclass reachable from the built scenario;
* the state of every :class:`DeterministicRNG` reachable from it;
* the resolver cache's entries, in insertion order.

The digests were taken from the code before the per-packet value types
became tuples, and must not move when the simulator is made faster.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import replace

import pytest

from repro.attacks.fragdns import FragDnsConfig
from repro.core.rng import DeterministicRNG
from repro.defenses.ablation import defended_scenario
from repro.defenses.catalog import DefenseStack
from repro.scenario import sweep_scenarios, table6_scenarios
from repro.workload import WorkloadSpec

# The perfbench ``loaded_defended`` client population.
_BENCH_LOAD = WorkloadSpec(clients=8, qps=40.0, duration=10.0, warmup=2.0,
                           domains=20, victim_ttl=6, label="bench")


def _cells():
    return {
        "saddns-vs-0x20": (
            defended_scenario("SadDNS", DefenseStack.of("0x20"),
                              saddns_iterations=40),
            "golden-saddns-0x20"),
        "saddns-vs-none": (
            defended_scenario("SadDNS", saddns_iterations=40),
            "golden-saddns-none"),
        "fragdns-random-ipid": (
            replace(table6_scenarios()["frag_random"],
                    attack_config=FragDnsConfig(max_attempts=30,
                                                attempt_spacing=0.2)),
            "golden-frag-random"),
        "hijackdns-under-load": (
            replace(sweep_scenarios()[0], workload=_BENCH_LOAD),
            "golden-hijack-load"),
    }


GOLDEN = {
    "saddns-vs-0x20":
        "ca540046a3dc68658a58c5490b9ef170b4fa8aaf2ea7c77d055c006f442a90bd",
    "saddns-vs-none":
        "1589cc64d7a90b0666b85e61b3107ee637de10f6deca321ae97846c64dc9f089",
    "fragdns-random-ipid":
        "b52f6152b8a3fbb0bb6ff61d4ce9fa7ae4b22dbe365965972910463c065fa4a7",
    "hijackdns-under-load":
        "99ac57f141aa93bc9d204d661a1e083022a6f21991743705bbf56fb79b3342c0",
}


def _children(value):
    """``(key, child)`` pairs of a container or a ``repro`` object, in
    a deterministic order (sets are skipped: they iterate in hash
    order)."""
    if isinstance(value, dict):
        return [(repr(key), child) for key, child in value.items()]
    if isinstance(value, (list, tuple)):
        return list(enumerate(value))
    if not type(value).__module__.startswith("repro."):
        return []
    state = dict(getattr(value, "__dict__", {}))
    for klass in type(value).__mro__:
        for name in getattr(klass, "__slots__", ()):
            if hasattr(value, name):
                state.setdefault(name, getattr(value, name))
    return sorted(state.items())


def _worth_walking(value) -> bool:
    return isinstance(value, (dict, list, tuple)) \
        or type(value).__module__.startswith("repro.")


def fingerprint(built, run) -> str:
    """SHA-256 of what one executed cell left behind (see module doc)."""
    stats, rngs = [], []
    seen = set()
    stack = [("built", built)]
    while stack:
        path, value = stack.pop()
        if id(value) in seen:
            continue
        seen.add(id(value))
        if isinstance(value, DeterministicRNG):
            rngs.append((path, value.getstate()))
            continue
        if dataclasses.is_dataclass(value) \
                and type(value).__name__.endswith("Stats"):
            stats.append((path, repr(value)))
            continue
        for key, child in reversed(_children(value)):
            if _worth_walking(child):
                stack.append((f"{path}.{key}", child))
    cache = list(built.resolver.cache._entries.items())
    payload = repr((replace(run, wall_time=0.0), stats, rngs, cache))
    return hashlib.sha256(payload.encode()).hexdigest()


def run_cell(name: str) -> str:
    scenario, seed = _cells()[name]
    built = scenario.build(seed=seed)
    return fingerprint(built, built.execute())


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_cell_fingerprint_is_golden(name):
    assert run_cell(name) == GOLDEN[name]


if __name__ == "__main__":
    for cell in sorted(GOLDEN):
        print(f'    "{cell}": "{run_cell(cell)}",')
