"""Bench: regenerate Table 6 (methodology comparison).

This is the heavyweight bench: it runs real end-to-end attack trials
for all three methodologies, declared as scenarios and swept by the
campaign runner (pass ``workers`` to ``table6.run`` to fan them out
over processes).  Budgets are chosen so the whole bench stays under a
couple of minutes while the statistics remain in the paper's regime.
"""

from _helpers import publish

from repro.experiments import table6


def test_table6_method_comparison(benchmark):
    result = benchmark.pedantic(
        lambda: table6.run(seed=0, saddns_runs=2, frag_runs=6,
                           frag_random_runs=2),
        rounds=1, iterations=1,
    )
    publish(benchmark, result)
    hijack, saddns, frag_global, frag_random = (
        result.data["stats"][key]
        for key in ("hijack", "saddns", "frag_global", "frag_random"))
    # Shape: HijackDNS is deterministic — 1 query, 2 packets, 100%.
    assert hijack.hitrate == 1.0
    assert hijack.mean_queries == 1
    assert hijack.mean_packets == 2
    # SadDNS needs hundreds of queries and about a million packets.
    assert saddns.successes == saddns.runs
    assert 50 <= saddns.mean_queries <= 2500
    assert saddns.mean_packets > 100_000
    # FragDNS with a global IP-ID is the cheap, stealthy variant:
    # a handful of queries and a few hundred packets.
    assert frag_global.successes == frag_global.runs
    assert frag_global.mean_queries < 40
    assert frag_global.mean_packets < 3000
    # Ordering of costs matches the paper's comparison exactly.
    assert hijack.mean_packets < frag_global.mean_packets \
        < saddns.mean_packets
    # Random IP-ID pushes FragDNS into the ~0.1% hitrate regime: far
    # more attempts than the global-counter variant.
    assert frag_random.mean_queries > 5 * frag_global.mean_queries
