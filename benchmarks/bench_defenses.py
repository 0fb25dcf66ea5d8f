"""Bench: defense stacks — the pairwise ablation."""

from _helpers import publish

from repro.experiments import ablation


def test_pairwise_defense_ablation(benchmark):
    """The showcase pairwise stacks reproduce their combined claims."""
    result = benchmark.pedantic(
        lambda: ablation.run(seed=0, pairs=len(ablation.SHOWCASE_PAIRS)),
        rounds=1, iterations=1,
    )
    publish(benchmark, result)
    assert result.data["agreement"] == result.data["total"] \
        == 24 + 3 * len(ablation.SHOWCASE_PAIRS)
    classes = result.data["pair_classes"]
    assert classes["block-fragments+pmtu-clamp"] == "redundant"
    assert classes["dnssec+rpki-rov"] == "redundant"
    assert classes["no-icmp-errors+randomize-records"] == "complementary"
    assert classes["block-fragments+randomized-icmp-limit"] \
        == "complementary"

