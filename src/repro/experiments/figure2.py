"""Figure 2: the FragDNS message sequence, regenerated from a live run.

Steps of the paper's Figure 2:

1. spoofed ICMP PTB (MTU=68) shrinks the nameserver's path MTU;
2. the attacker plants its spoofed second fragment (FragAtk) in the
   resolver's defragmentation cache;
3. a query is triggered;
4. the nameserver's genuine response fragments;
5-6. the genuine first fragment reassembles with the planted fragment;
7-8. the forged record enters the cache and is served to the victim.
"""

from __future__ import annotations

from repro.attacks import FragDnsConfig, cache_poisoned
from repro.core.eventlog import EventLog
from repro.experiments.base import ExperimentResult
from repro.scenario import AttackScenario
from repro.testbed import FRAG_TARGET_NAME, RESOLVER_IP

ACTORS = ["attacker", "resolver", "nameserver", "service"]


def run(seed: int = 0) -> ExperimentResult:
    """One instrumented FragDNS run, rendered as a sequence chart."""
    scenario = AttackScenario(
        method="FragDNS",
        # Zero cross-traffic makes the single scripted attempt land.
        attack_config=FragDnsConfig(cross_traffic_advance=(0, 1)),
    )
    built = scenario.build(seed=f"figure2-{seed}")
    bed = built.testbed
    resolver = built.resolver
    attacker = built.attacker
    trigger = built.trigger
    attack = built.attack
    log = EventLog()

    def note(actor: str, kind: str, detail: str, **data) -> None:
        log.record(bed.now, actor, kind, detail, **data)

    note("attacker", "ptb", "ICMP PTB, MTU=68, spoofed src=30.0.0.1",
         src_actor="attacker", dst_actor="nameserver")
    attack.force_fragmentation()
    note("nameserver", "pmtu",
         f"path MTU to resolver now {attack.effective_mtu()} bytes",
         mtu=attack.effective_mtu())
    tail = attack.craft_second_fragment(FRAG_TARGET_NAME)
    boundary = attack.fragment_boundary()
    note("attacker", "craft",
         f"malicious 2nd fragment crafted ({len(tail)}B at offset "
         f"{boundary}), UDP checksum compensated via TTL",
         src_actor="attacker", dst_actor="resolver")
    idents = attack.predict_ipids()
    attacker.spoof_fragments(
        src=attack.nameserver.address, dst=RESOLVER_IP, idents=idents,
        frag_offset_bytes=boundary, payload=tail,
    )
    note("attacker", "plant",
         f"FragAtk planted in defrag cache for {len(idents)} predicted "
         f"IP-IDs (sampled global counter)",
         src_actor="attacker", dst_actor="resolver",
         planted=len(idents))
    note("attacker", "trigger",
         f"Trigger query to {FRAG_TARGET_NAME} (via service)",
         src_actor="attacker", dst_actor="resolver")
    trigger.fire(FRAG_TARGET_NAME, "A")
    bed.run(0.5)
    note("nameserver", "respond",
         "response fragments: FragNS1 (chksum, txid, Q) + FragNS2",
         src_actor="nameserver", dst_actor="resolver")
    poisoned = cache_poisoned(resolver, FRAG_TARGET_NAME, attacker.address)
    note("resolver", "reassemble",
         "FragNS1 reassembled with FragAtk; checksum and TXID verify",
         reassembled=resolver.host.stats.reassembled)
    note("resolver", "poisoned",
         f"cache now maps {FRAG_TARGET_NAME} -> {attacker.address}",
         src_actor="resolver", dst_actor="service", poisoned=poisoned)
    steps = [[event.kind, event.detail] for event in log]
    result = ExperimentResult(
        experiment_id="figure2",
        title="Figure 2: fragmentation-based DNS poisoning (FragDNS)",
        headers=["step", "detail"],
        rows=steps,
        paper_reference={"steps": [
            "ptb", "pmtu", "craft", "plant", "trigger", "respond",
            "reassemble", "poisoned",
        ]},
        data={"poisoned": poisoned,
              "effective_mtu": attack.effective_mtu(),
              "fragment_boundary": boundary,
              "planted": len(idents)},
    )
    result.rendered = log.render_sequence(ACTORS)
    result.notes.append(f"attack outcome: poisoned={poisoned}")
    return result
