"""Table 5: ANY-response caching across resolver implementations.

For each implementation preset, a live testbed resolver is configured
with the preset's behaviour; a client issues an ANY query and then an A
query, and the experiment observes whether the A query was answered
from cache (no new upstream query) — exactly the paper's test.

The five implementation cells are independent seeded testbeds, so they
run through the same :func:`repro.parallel.taskmap.run_map` the
population scans and campaigns use — ``run(workers=4)`` fans them out
across processes with bit-identical verdicts.
"""

from __future__ import annotations

from repro.dns.impls import ALL_IMPLEMENTATIONS, TABLE5_EXPECTED
from repro.dns.records import QTYPE_ANY, TYPE_A, rr_a, rr_mx, rr_txt
from repro.dns.stub import StubResolver
from repro.experiments.base import ExperimentResult
from repro.measurements.report import render_table
from repro.parallel.taskmap import run_map
from repro.testbed import Testbed


def _test_implementation(profile, seed: str) -> tuple[bool, str]:
    """Returns (vulnerable, note) for one implementation."""
    bed = Testbed(seed=seed)
    bed.add_domain("any-test.example", "123.2.0.53", records=[
        rr_a("any-test.example", "123.2.0.80"),
        rr_mx("any-test.example", 10, "mail.any-test.example"),
        rr_txt("any-test.example", "v=spf1 -all"),
    ])
    config = profile.make_config(open_to_world=True)
    resolver = bed.make_resolver("30.0.0.1", config=config)
    client = bed.make_host("client", "30.0.0.50")
    stub = StubResolver(client, "30.0.0.1")
    any_answer = stub.lookup("any-test.example", QTYPE_ANY)
    if not any_answer.ok or not any_answer.records:
        # ANY refused outright (Unbound's RFC 8482 behaviour).
        return False, "doesn't support ANY at all"
    upstream_before = resolver.stats.upstream_queries
    a_answer = stub.lookup("any-test.example", TYPE_A)
    upstream_after = resolver.stats.upstream_queries
    answered_from_cache = (
        a_answer.ok and a_answer.addresses()
        and upstream_after == upstream_before
    )
    if answered_from_cache:
        return True, "cached"
    return False, "not cached"


def _run_cells(_world, batch) -> list[tuple[str, bool, str]]:
    """Task-map ``run_batch``: each implementation's caching test."""
    cells = []
    for profile, seed in batch:
        vulnerable, note = _test_implementation(profile, seed=seed)
        cells.append((f"{profile.name} {profile.version}", vulnerable, note))
    return cells


def run(seed: int = 0, workers: int | None = None) -> ExperimentResult:
    """Test all five implementation presets (optionally in parallel).

    Each cell's verdict depends only on its seed, so the process pool
    and the serial loop produce identical tables; the default stays
    serial because five sub-second testbeds don't repay pool startup.
    """
    headers = ["Implementation", "Vulnerable", "Note"]
    rows = []
    matches = 0
    tasks = [(profile, f"table5-{seed}-{profile.name}")
             for profile in ALL_IMPLEMENTATIONS]
    mapped = run_map(
        tasks, lambda missing, _workers: (None, [[task] for task in missing]),
        _run_cells, workers=workers if workers is not None else 1,
        name="table5.run")
    for label, vulnerable, note in mapped.results:
        rows.append([label, "yes" if vulnerable else "no", note])
        expected = TABLE5_EXPECTED.get(label)
        if expected is not None \
                and expected[0] == ("yes" if vulnerable else "no"):
            matches += 1
    result = ExperimentResult(
        experiment_id="table5",
        title="Table 5: ANY caching results of popular resolvers",
        headers=headers,
        rows=rows,
        paper_reference=TABLE5_EXPECTED,
        data={"matches": matches, "total": len(ALL_IMPLEMENTATIONS),
              "executor": mapped.executor},
    )
    result.rendered = render_table(headers, rows, title=result.title)
    result.notes.append(
        f"verdicts matching the paper: {matches}/{len(ALL_IMPLEMENTATIONS)}"
    )
    return result
