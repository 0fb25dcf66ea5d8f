"""Composable defense stacks: Section 6 mitigations as scenario citizens.

Three layers, mirroring the scenario API:

* **Declare** — a :class:`Defense` is a frozen, picklable spec whose
  ``apply(world_config)`` is a pure transform; the catalog holds
  all eight Section 6 defenses (:func:`resolve_defense`,
  :func:`available_defenses`).
* **Compose** — a :class:`DefenseStack` stacks defenses across layers
  (``ip``/``transport``/``dns``/``bgp``/``app``) with canonical
  ordering and knob-conflict checking; ``harden_profile`` makes the
  Table 1 planner defense-aware.
* **Evaluate** — :func:`evaluate_defense_matrix` runs any (attack x
  stack) grid through the campaign runner;
  ``AttackScenario(defenses=...)``, ``Campaign.run_defended`` and
  ``atlas calibrate --defend`` consume the same stacks end to end.

Quickstart::

    from repro.defenses import DefenseStack
    from repro.scenario import AttackScenario

    stack = DefenseStack.of("0x20-encoding", "rpki-rov")
    run = AttackScenario(method="hijack", defenses=stack).run(seed=1)
    assert not run.success      # ROV filtered the announcement
"""

from repro.defenses.base import (
    LAYERS,
    Defense,
    DefenseError,
    DefenseStack,
    WorldConfig,
)
from repro.defenses.catalog import (
    ALL_DEFENSES,
    DEFENSE_0X20,
    DEFENSE_BLOCK_FRAGMENTS,
    DEFENSE_DNSSEC,
    DEFENSE_NO_ICMP,
    DEFENSE_PMTU_CLAMP,
    DEFENSE_RANDOMIZED_ICMP_LIMIT,
    DEFENSE_RANDOMIZE_RECORDS,
    DEFENSE_ROV,
    available_defenses,
    pairwise_stacks,
    resolve_defense,
    single_stacks,
)
from repro.defenses.rov import (
    HIJACKER_ASN,
    TARGET_ORIGIN_ASN,
    RovDeployment,
    RovFilter,
)

#: Grid names re-exported lazily: the ablation module sits *above* the
#: scenario API (it runs grids on Campaign), while this package's core
#: sits *below* it (AttackScenario holds a DefenseStack) — eager import
#: here would cycle through repro.scenario.
_ABLATION_EXPORTS = ("ATTACK_NAMES", "AblationCell", "classify_pair",
                     "defended_scenario", "evaluate_defense_matrix")


def __getattr__(name: str):
    if name in _ABLATION_EXPORTS:
        from repro.defenses import ablation

        return getattr(ablation, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "ALL_DEFENSES",
    "ATTACK_NAMES",
    "AblationCell",
    "DEFENSE_0X20",
    "DEFENSE_BLOCK_FRAGMENTS",
    "DEFENSE_DNSSEC",
    "DEFENSE_NO_ICMP",
    "DEFENSE_PMTU_CLAMP",
    "DEFENSE_RANDOMIZED_ICMP_LIMIT",
    "DEFENSE_RANDOMIZE_RECORDS",
    "DEFENSE_ROV",
    "Defense",
    "DefenseError",
    "DefenseStack",
    "HIJACKER_ASN",
    "LAYERS",
    "RovDeployment",
    "RovFilter",
    "TARGET_ORIGIN_ASN",
    "WorldConfig",
    "available_defenses",
    "classify_pair",
    "defended_scenario",
    "evaluate_defense_matrix",
    "pairwise_stacks",
    "resolve_defense",
    "single_stacks",
]
