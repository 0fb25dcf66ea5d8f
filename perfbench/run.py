"""Run one benchmark workload and print its metrics as JSON.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload ablation_singles --seed 1 \
        --seconds 10 --trace 0

``--trace 0`` times whole passes with nothing instrumented and prints
the end-to-end metrics.  ``--trace 1`` runs one untraced reference pass,
then traced passes with the layer shims of ``tracing.py`` installed, and
prints the per-layer metrics (including the tracing overhead).

Every time is normalised to a reference host speed (``hostspeed.py``):
the build host is shared and its speed drifts by up to half within
minutes.  The record keeps each pass's measured wall time and scale.

Every pass checks its outputs: the workload's own checks, the output
checksum and exact counts in ``expected.json``, and the counts recorded
by earlier runs of the same workload in this checkout.  A failed check
fails every cell of the run.  The last line of standard output is the
result; the line before it records the environment, the counts and the
per-pass figures, and is also appended to ``perfbench/.work/runs.jsonl``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Fresh-process set-up samples per run; ``setup_s`` is their median.
SETUP_PROBES = 5


def tail_quantile(cells_per_pass: int, beyond: int = 10) -> float:
    """The highest quantile of one pass's cells that leaves ``beyond``
    cells above it (p90 needs 100 cells; 24 cells allow about p58)."""
    return min(0.9, 1.0 - beyond / cells_per_pass)


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolated quantile of ``values`` (``q`` in [0, 1])."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * q
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def timed_pass(workload, rng: random.Random, tracer=None):
    """Run one pass (traced when given a tracer); returns it as measured
    and the ``HostSpeed`` sampled while it ran."""
    from hostspeed import HostSpeed

    if tracer is not None:
        import tracing

        remove = tracing.install(tracer)
    try:
        with HostSpeed() as speed:
            result = workload.run_pass(rng)
    finally:
        if tracer is not None:
            remove()
    return result, speed


def normalised(result, speed):
    """``result`` with its times at the reference host speed: seconds
    are multiplied by the pass's scale, per-second rates divided by it.
    A campaign cell takes the scale of the probes taken while it ran."""
    scale = speed.scale()
    if result.cell_started:
        cells = [seconds * speed.scale_between(start, start + seconds)
                 for start, seconds in zip(result.cell_started,
                                           result.cell_s)]
    else:
        cells = [seconds * scale for seconds in result.cell_s]
    return dataclasses.replace(
        result, wall_s=result.wall_s * scale, cell_s=cells,
        timings={name: value / scale if "per_s" in name else value * scale
                 for name, value in result.timings.items()})


def end_to_end(passes, setup_s: float, peak_rss_mb: float,
               problems: list[str]) -> dict[str, tuple[float, str]]:
    """The user-visible metrics: medians over the run's passes."""
    def median(fn):
        return statistics.median(fn(p) for p in passes)

    attempted = sum(len(p.cell_s) for p in passes)
    failed = attempted if problems else sum(p.failed for p in passes)
    return {
        "setup_s": (setup_s, "s"),
        "cells_per_s": (median(lambda p: len(p.cell_s) / p.wall_s),
                        "cells/s"),
        "entities_per_s": (median(lambda p: p.entities / p.wall_s),
                           "entities/s"),
        "cell_max_s": (median(lambda p: max(p.cell_s)), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
    }


def per_layer(tracer, traced, traced_scale: float,
              reference) -> dict[str, tuple[float, str]]:
    """Layer metrics of one traced pass (rates from the untraced one).

    ``traced`` is as measured, ``reference`` normalised.  Times have the
    shims' own cost discounted (``Tracer.discounted``) and are scaled to
    the untraced pass, so they are at the reference host speed too; the
    ratio of the two normalised walls is the tracing overhead.
    """
    counts = {**traced.counts, **tracer.counts}
    own, key_self, inclusive = tracer.discounted(traced.wall_s,
                                                 reference.wall_s)
    own = defaultdict(float, own)
    key_self = defaultdict(float, key_self)
    inclusive = defaultdict(float, inclusive)
    packets = counts.get("netsim.packets", 0)
    lookups = counts.get("dns.cache_hits", 0) \
        + counts.get("dns.cache_misses", 0)
    metrics = {
        "core.events": (counts.get("core.events", 0), "count"),
        "core.self_s": (own["core"], "s"),
        "netsim.packets": (packets, "count"),
        "netsim.self_s": (own["netsim"], "s"),
        "netsim.us_per_packet": (1e6 * own["netsim"] / packets
                                 if packets else 0.0, "us"),
        "dns.decodes": (tracer.calls["dns.decode_message"], "count"),
        "dns.encodes": (tracer.calls["dns.encode_message"], "count"),
        "dns.rejected": (counts.get("dns.rejected", 0), "count"),
        "dns.self_s": (own["dns"], "s"),
        "dns.cache_hit_ratio": (counts.get("dns.cache_hits", 0) / lookups
                                if lookups else 0.0, "ratio"),
        "attacks.flood_s": (inclusive["attacks.flood_txids"], "s"),
        "attacks.self_s": (own["attacks"], "s"),
        "attacks.forged_packets": (counts.get("attacks.forged_packets", 0),
                                   "count"),
        "scenario.build_s": (inclusive["scenario.build"]
                             / len(traced.cell_s), "s"),
        "workload.self_s": (own["workload"], "s"),
        "workload.queries": (counts.get("workload.queries", 0), "count"),
        "store.write_s": (inclusive["store.write"], "s"),
        "store.rows": (counts.get("store.rows", 0), "count"),
        "store.load_s": (inclusive["store.load"], "s"),
        "atlas.store_write_s": (inclusive["atlas.store_write"], "s"),
        "atlas.store_load_s": (inclusive["atlas.store_load"], "s"),
        "atlas.merge_s": (inclusive["atlas.merge"], "s"),
        "parallel.mt_s": (inclusive["parallel.mt"], "s"),
        "parallel.kernel_s": (key_self["parallel.scan_spans"], "s"),
        "parallel.mt_words": (counts.get("parallel.mt_words", 0), "count"),
        "trace.overhead_ratio": (traced.wall_s * traced_scale
                                 / reference.wall_s, "ratio"),
    }
    for kind in ("resolver", "domain"):
        metrics[f"parallel.entities_per_s.{kind}"] = (
            reference.timings.get(f"entities_per_s.{kind}", 0.0),
            "entities/s")
    return metrics


def measure_setup(workload: str) -> float:
    """Median set-up time over fresh processes: imports plus the first
    world build (or scanner construction)."""
    samples = []
    for _ in range(SETUP_PROBES):
        probe = subprocess.run(
            [sys.executable, str(HERE / "run.py"),
             "--workload", workload, "--setup-probe"],
            capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(probe.stdout.split()[-1]))
    return statistics.median(samples)


def environment() -> dict:
    """What an outlier run needs to be tied to its machine state."""
    try:
        from importlib.metadata import version

        numpy = version("numpy")
    except Exception:   # absent or unreadable metadata: record nothing
        numpy = None
    source = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        source.update(path.relative_to(SRC).as_posix().encode())
        source.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy,
        "loadavg": os.getloadavg(),
        "commit": git_commit(),
        "source_sha256": source.hexdigest(),
    }


def git_commit() -> str | None:
    """HEAD's commit, read from ``.git`` (None outside a repository)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def check_counts(workload: str, source: str, counts: dict, expected: dict,
                 ledger_path: Path) -> list[str]:
    """Counts must match expected.json, and every earlier run of the
    same sources here.

    The invariant counts of expected.json hold for every version of the
    simulator.  The others (``core.events``, ``dns.decodes``, ...) may
    legitimately change with the code, so the ledger keeps them per
    ``source`` digest: they must repeat exactly only between runs of
    identical sources.
    """
    problems = []
    for name, value in expected.get("counts", {}).items():
        if counts.get(name) != value:
            problems.append(f"count {name} = {counts.get(name)}, "
                            f"expected {value}")
    ledger = json.loads(ledger_path.read_text()) \
        if ledger_path.is_file() else {}
    seen = ledger.setdefault(workload, {}).setdefault(source, {})
    for name, value in counts.items():
        if seen.setdefault(name, value) != value:
            problems.append(f"count {name} = {value} drifted from "
                            f"{seen[name]} in an earlier run")
    if not problems:
        ledger_path.parent.mkdir(parents=True, exist_ok=True)
        ledger_path.write_text(json.dumps(ledger, indent=1,
                                          sort_keys=True))
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no simulator sources at {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    from hostspeed import HostSpeed

    # Set-up is short, so its host speed is sampled every 10 ms.
    with HostSpeed(interval=0.01) as setup_speed:
        from workloads import WORK_DIR, WORKLOADS

        if args.workload not in WORKLOADS:
            parser.error(f"unknown workload {args.workload!r}; pick one "
                         f"of {sorted(WORKLOADS)}")
        workload = WORKLOADS[args.workload]()
        workload.setup()
    if args.setup_probe:
        print(setup_speed.elapsed * setup_speed.scale())
        return 0

    env = environment()
    setup_s = None if args.trace else measure_setup(args.workload)
    rng = random.Random(args.seed)
    reference = tracer = None
    if args.trace:
        import tracing

        reference = normalised(*timed_pass(workload, rng))
    passes = []
    peak_rss_mb = None
    deadline = time.perf_counter() + args.seconds
    while not passes or time.perf_counter() < deadline:
        tracer = tracing.calibrated() if args.trace else None
        passes.append((*timed_pass(workload, rng, tracer), tracer))
        if peak_rss_mb is None:
            # High water of set-up and one pass: later passes can only
            # add fragmentation, and how many run depends on host speed.
            peak_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0

    expected = json.loads((HERE / "expected.json").read_text()) \
        .get(args.workload, {})
    problems = []
    for result, _, tracer in passes + ([(reference, 1.0, None)]
                                       if reference else []):
        problems.extend(result.problems)
        if result.checksum != expected.get("checksum"):
            problems.append(f"output checksum {result.checksum} is not "
                            f"{expected.get('checksum')}")
        counts = dict(result.counts)
        if tracer is not None:
            counts.update(tracer.counts)
            counts["dns.decodes"] = tracer.calls["dns.decode_message"]
            counts["dns.encodes"] = tracer.calls["dns.encode_message"]
        problems.extend(check_counts(args.workload, env["source_sha256"],
                                     counts, expected,
                                     WORK_DIR / "counts.json"))
    results = [normalised(result, speed) for result, speed, _ in passes]
    attempted = sum(len(r.cell_s) for r in results)
    failed = attempted if problems else sum(r.failed for r in results)
    if args.trace:
        # One layer split per traced pass; the median pass by normalised
        # wall time reports (its counts equal every other pass's).
        ranked = sorted(passes,
                        key=lambda item: item[0].wall_s * item[1].scale())
        traced, speed, tracer = ranked[len(ranked) // 2]
        metrics = per_layer(tracer, traced, speed.scale(), reference)
    else:
        metrics = end_to_end(results, setup_s, peak_rss_mb, problems)
    # The median cell and the tail by the percentile rule, reported with
    # its quantile and the cell count; neither is steady enough to gate.
    q = tail_quantile(len(results[0].cell_s))
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "env": env, "problems": sorted(set(problems)),
        "counts": results[0].counts, "tail_quantile": q,
        "passes": [{"wall_s": r.wall_s, "cells": len(r.cell_s),
                    "cell_p50_ms": 1e3 * quantile(r.cell_s, 0.5),
                    "cell_tail_ms": 1e3 * quantile(r.cell_s, q),
                    "raw_wall_s": raw.wall_s, "host_scale": speed.scale(),
                    **r.timings}
                   for r, (raw, speed, _) in zip(results, passes)],
    }
    line = json.dumps(record, sort_keys=True)
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    with open(WORK_DIR / "runs.jsonl", "a", encoding="utf-8") as handle:
        handle.write(line + "\n")
    print(line)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
