"""The (attack x defense-stack) ablation grid, on the campaign runner.

Generalises the old single-mitigation ablation: every cell is one
methodology run against one :class:`repro.defenses.DefenseStack` on a
fresh attack-friendly testbed, and the outcome is compared against the
stack's combined Section 6 expectation (the union of its members'
``defeats`` claims).  Cells execute through
:class:`repro.scenario.Campaign`, so a grid parallelises across worker
processes exactly like any other sweep — bit-identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Sequence

from repro.attacks.fragdns import FragDnsConfig
from repro.attacks.saddns import SadDnsConfig
from repro.defenses.base import DefenseStack
from repro.dns.nameserver import NameserverConfig
from repro.dns.records import rr_a
from repro.netsim.host import HostConfig
from repro.scenario.campaign import Campaign
from repro.scenario.spec import AttackScenario
from repro.testbed import ATTACKER_IP, FRAG_TARGET_NAME

ATTACK_NAMES = ("HijackDNS", "SadDNS", "FragDNS")


@dataclass
class AblationCell:
    """Outcome of one (attack, defense-stack) pair."""

    attack: str
    defense: str
    attack_succeeded: bool
    expected_defeated: bool

    @property
    def matches_expectation(self) -> bool:
        """True when reality agrees with the Section 6 claim."""
        return self.attack_succeeded != self.expected_defeated


def _attack_friendly_overrides(attack: str) -> dict[str, Any]:
    """Scenario overrides that make ``attack`` succeed un-defended.

    The resolver's ephemeral port range is narrowed so the probabilistic
    attacks converge in seconds: the defenses under test are categorical
    (they reduce the success probability to zero), so the smaller search
    space does not change any verdict.
    """
    resolver_host = HostConfig(ephemeral_low=20000, ephemeral_high=24095)
    if attack == "SadDNS":
        return {"ns_config": NameserverConfig(rrl_enabled=True),
                "resolver_host_config": resolver_host}
    if attack == "FragDNS":
        return {"ns_host_config": HostConfig(ipid_policy="global",
                                             min_accepted_mtu=68),
                "resolver_host_config": resolver_host}
    if attack == "HijackDNS":
        return {"resolver_host_config": resolver_host}
    raise ValueError(f"unknown attack {attack!r}")


def defended_scenario(attack: str, stack: DefenseStack | None = None,
                      label: str | None = None,
                      saddns_iterations: int = 400,
                      frag_attempts: int = 120) -> AttackScenario:
    """Declare one (attack, defense-stack) cell as a scenario.

    The stack is applied declaratively (``AttackScenario.defenses``);
    ROV in particular deploys real RPKI validation into the world
    instead of flipping the old ``capture_possible`` switch.
    """
    stack = stack if stack is not None else DefenseStack()
    overrides = _attack_friendly_overrides(attack)
    label = label if label is not None else stack.key
    defenses = stack if stack else None
    if attack == "HijackDNS":
        return AttackScenario(
            method="HijackDNS", label=f"HijackDNS vs {label}",
            defenses=defenses, **overrides,
        )
    if attack == "SadDNS":
        # Race the long testbed name: its 16 case-able letters make the
        # 0x20 challenge categorical within any realistic budget
        # (2^-16 per forged flood) — racing the 6-letter apex would
        # turn the 0x20 cells into per-seed coin flips.
        return AttackScenario(
            method="SadDNS", label=f"SadDNS vs {label}",
            qname=FRAG_TARGET_NAME,
            malicious_records=(rr_a(FRAG_TARGET_NAME, ATTACKER_IP,
                                    ttl=86400),),
            attack_config=SadDnsConfig(max_iterations=saddns_iterations),
            defenses=defenses, **overrides,
        )
    # A multi-address answer (a multi-homed service) gives the
    # record-order randomisation defense something to shuffle: with six
    # records there are 720 possible second fragments, taking the
    # per-attempt checksum-match probability far below the attempt
    # budget.
    return AttackScenario(
        method="FragDNS", label=f"FragDNS vs {label}",
        qname=FRAG_TARGET_NAME,
        extra_target_records=tuple(
            rr_a(FRAG_TARGET_NAME, f"123.0.0.{81 + index}", ttl=300)
            for index in range(5)
        ),
        attack_config=FragDnsConfig(max_attempts=frag_attempts,
                                    attempt_spacing=0.2),
        defenses=defenses, **overrides,
    )


def evaluate_defense_matrix(stacks: Sequence[DefenseStack],
                            attacks: Iterable[str] = ATTACK_NAMES,
                            seed: str = "ablation",
                            saddns_iterations: int = 400,
                            frag_attempts: int = 120,
                            workers: int | str | None = None,
                            executor: str = "process",
                            store: Any = None) -> list[AblationCell]:
    """Run the full (attack x stack) grid on one campaign pool.

    Cell seeds derive from ``(seed, attack, stack.key)`` — the same
    strings the old mitigation grid used for single-defense stacks, so
    old-vs-new runs are bit-comparable.  ``store`` forwards to the
    campaign: grid cells already stored are loaded instead of re-run.

    The grid defaults to the shared-world process executor: every cell
    is a distinct scenario, so the old per-batch pickling shipped the
    whole world per cell, while the initializer path ships the table
    once per worker and steals cells as workers go idle.  Single-CPU
    hosts downgrade to the bit-identical serial loop automatically.
    """
    cells: list[tuple[str, DefenseStack]] = []
    pairs: list[tuple[AttackScenario, Any]] = []
    for attack in attacks:
        for stack in stacks:
            scenario = defended_scenario(
                attack, stack,
                saddns_iterations=saddns_iterations,
                frag_attempts=frag_attempts,
            )
            cells.append((attack, stack))
            pairs.append((scenario, f"{seed}-{attack}-{stack.key}"))
    runs = Campaign(workers=workers, executor=executor).run_pairs(
        pairs, store=store).runs
    return [
        AblationCell(
            attack=attack, defense=stack.key,
            attack_succeeded=run.success,
            expected_defeated=attack in stack.defeats,
        )
        for (attack, stack), run in zip(cells, runs)
    ]


def classify_pair(stack: DefenseStack) -> str:
    """Redundant or complementary, from the members' defeat claims.

    A pair is *complementary* when it defeats strictly more than either
    member alone, and *redundant* when one member already covers the
    pair's whole defeat set.  The pairwise ablation verifies the
    classification empirically: complementary pairs block attacks in
    the grid that neither member's single-defense row blocked alone.
    """
    if len(stack) != 2:
        raise ValueError(f"not a pair: {stack.key}")
    combined = set(stack.defeats)
    first, second = stack.defenses
    if combined == set(first.defeats) or combined == set(second.defeats):
        return "redundant"
    return "complementary"
