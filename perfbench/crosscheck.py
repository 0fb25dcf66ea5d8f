"""Cross-check the traced layer split against two profilers.

Usage, from the root of a checkout::

    python3 perfbench/crosscheck.py --workload loaded_defended

Runs an untraced pass, one with the ``tracing.py`` shims installed, one
under cProfile and one under a statistical profiler, then prints each
layer's share of the pass in the three.  Both profilers bill every
function to its ``repro.<package>``; time in functions outside
``repro`` (builtins, the standard library, numpy) bills to the
``repro`` package that called them, since that is where a shim's span
would have counted it.

cProfile adds a fixed cost to every call, which a layer of many short
calls (``netsim`` on the flood path) absorbs most; the fold takes a
calibrated estimate of it back out, but not all of it.  The sampler
adds nothing per call, so it is the reference the exit status uses:
exits 1 when a layer holding more than 10% of the traced or sampled
split differs between them by more than 5 points.  The cProfile gap is
printed alongside.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import random
import sys
import time
from collections import defaultdict
from pathlib import Path

from run import SRC

HERE = Path(__file__).resolve().parent

#: A layer above this share of either split must agree within POINTS.
SHARE_FLOOR = 0.10
POINTS = 0.05

#: CPU seconds between two samples of the statistical profiler.
SAMPLE_INTERVAL = 0.0005


def layer_of_file(filename: str) -> str | None:
    """The package a profiled function belongs to; None outside repro."""
    path = Path(filename)
    try:
        parts = path.resolve().relative_to(SRC / "repro").parts
    except ValueError:
        return "harness" if HERE in path.resolve().parents else None
    return parts[0] if len(parts) > 1 else path.stem


def _kind(func) -> str:
    """cProfile names C functions (builtins, numpy) with file ``~``."""
    return "c" if func[0] == "~" else "py"


def profiler_cost(calls: int = 200_000) -> dict[str, tuple[float, float]]:
    """cProfile's own cost per profiled call, ``{kind: (callee, caller)}``
    for Python and C calls.

    cProfile adds time to every call it records, partly to the called
    function's self time and partly to its caller's.  Layers made of
    many small calls (``netsim``) would otherwise read larger than they
    are, and a loop calling many builtins (the SadDNS flood) smaller.
    Timed like ``tracing.calibrated``.
    """
    def noop():
        return None

    def python_calls(turns):
        for _ in turns:
            noop()

    def c_calls(turns, _len=len, _item=()):
        for _ in turns:
            _len(_item)

    turns = range(calls)
    started = time.perf_counter()
    for _ in turns:
        pass
    loop = time.perf_counter() - started
    costs = {}
    for kind, caller, callee in (("py", python_calls, "noop"),
                                 ("c", c_calls, "builtins.len")):
        started = time.perf_counter()
        caller(turns)
        direct = time.perf_counter() - started
        profiler = cProfile.Profile()
        profiler.enable()
        caller(turns)
        profiler.disable()
        own = {func[2]: entry[2]
               for func, entry in pstats.Stats(profiler).stats.items()}
        callee_time = next(seconds for name, seconds in own.items()
                           if callee in name)
        costs[kind] = (max((callee_time - (direct - loop)) / calls, 0.0),
                       max((own[caller.__name__] - loop) / calls, 0.0))
    return costs


def fold(stats: pstats.Stats, costs: dict[str, tuple[float, float]],
         slowdown: float) -> dict[str, float]:
    """Self time per layer, non-repro time billed to repro callers.

    Each function's self time first loses the profiler's cost for the
    calls it received and made, by kind, with ``costs`` scaled so the
    total taken out equals ``slowdown`` (profiled minus untraced wall).
    """
    raw = stats.stats
    memo: dict = {}
    overhead: defaultdict[tuple, float] = defaultdict(float)
    for func, (_, received, _, _, callers) in raw.items():
        callee_cost, caller_cost = costs[_kind(func)]
        overhead[func] += received * callee_cost
        for caller, edge in callers.items():
            overhead[caller] += edge[1] * caller_cost
    total = sum(overhead.values())
    scale = max(slowdown, 0.0) / total if total else 0.0

    def owners(func, weight_index: int, visiting: frozenset):
        layer = layer_of_file(func[0])
        if layer is not None:
            return {layer: 1.0}
        memo_key = (func, weight_index)
        if memo_key in memo:
            return memo[memo_key]
        callers = raw.get(func, (0, 0, 0.0, 0.0, {}))[4]
        # A function's own time splits over its callers by the self time
        # each call edge carried; further up, by cumulative time.
        weights = {caller: edge[weight_index]
                   for caller, edge in callers.items()
                   if caller not in visiting}
        total = sum(weights.values())
        if not total:
            return {"harness": 1.0}
        share: defaultdict[str, float] = defaultdict(float)
        for caller, weight in weights.items():
            for layer, part in owners(caller, 3,
                                      visiting | {func}).items():
                share[layer] += part * weight / total
        memo[memo_key] = share
        return share

    folded: defaultdict[str, float] = defaultdict(float)
    for func, (_, _, self_time, _, _) in raw.items():
        self_time = max(0.0, self_time - scale * overhead[func])
        for layer, part in owners(func, 2, frozenset()).items():
            folded[layer] += self_time * part
    return folded


def sampled(workload, seed: int, interval: float = SAMPLE_INTERVAL):
    """Run an untraced pass under a statistical profiler; returns the
    pass and the CPU seconds sampled per layer.

    Every ``interval`` of process CPU time a ``SIGPROF`` handler looks
    at the interrupted frame and bills the CPU time since the previous
    sample to the innermost ``repro`` package on the stack (the rule of
    :func:`fold`: builtins and library code bill to their ``repro``
    caller).  Nothing is wrapped, so unlike cProfile it does not slow
    short calls more than long ones; its cost is one handler call per
    sample.
    """
    import signal

    billed: defaultdict[str, float] = defaultdict(float)
    layers: dict[str, str | None] = {}
    last = [time.process_time()]

    def sample(signum, frame):
        now = time.process_time()
        layer = None
        while frame is not None:
            filename = frame.f_code.co_filename
            if filename not in layers:
                layers[filename] = layer_of_file(filename)
            layer = layers[filename]
            if layer is not None:
                break
            frame = frame.f_back
        billed[layer or "harness"] += now - last[0]
        last[0] = now

    previous = signal.signal(signal.SIGPROF, sample)
    signal.setitimer(signal.ITIMER_PROF, interval, interval)
    try:
        result = workload.run_pass(random.Random(seed))
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0.0)
        signal.signal(signal.SIGPROF, previous)
    return result, billed


def shares(times: dict[str, float], total: float) -> dict[str, float]:
    return {layer: seconds / total for layer, seconds in times.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    import tracing
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    workload.setup()
    reference = workload.run_pass(random.Random(args.seed))

    tracer = tracing.calibrated()
    remove = tracing.install(tracer)
    try:
        traced = workload.run_pass(random.Random(args.seed))
    finally:
        remove()
    # Both instruments slow the pass down by their own cost per event
    # (span or profiled call).  The tracer measures most of its cost and
    # discounts a calibrated estimate of the rest; the cProfile fold
    # discounts a calibrated estimate scaled to its measured slowdown.
    attributed, _, _ = tracer.discounted(traced.wall_s, reference.wall_s)
    attributed["harness"] = attributed.get("harness", 0.0) \
        + reference.wall_s - sum(attributed.values())
    trace_split = shares(attributed, reference.wall_s)

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        profiled = workload.run_pass(random.Random(args.seed))
    finally:
        profiler.disable()
    stats = pstats.Stats(profiler)
    calls = sum(entry[1] for entry in stats.stats.values())
    folded = fold(stats, profiler_cost(),
                  profiled.wall_s - reference.wall_s)
    profile_split = shares(folded, sum(folded.values()))
    raw_folded = fold(stats, {"py": (0.0, 0.0), "c": (0.0, 0.0)}, 0.0)
    raw_split = shares(raw_folded, sum(raw_folded.values()))

    sampled_pass, billed = sampled(workload, args.seed)
    sample_split = shares(billed, sum(billed.values()))

    references = {"sampled": sample_split, "cProfile": profile_split}
    worst = dict.fromkeys(references, 0.0)
    print(f"untraced pass {reference.wall_s:.2f}s, traced pass "
          f"{traced.wall_s:.2f}s ({tracer.spans} spans, {tracer.lost:.2f}s "
          f"measured shim time), profiled pass "
          f"{profiled.wall_s:.2f}s ({calls} calls), sampled pass "
          f"{sampled_pass.wall_s:.2f}s")
    print(f"{'layer':<12}{'traced':>8}{'sampled':>9}{'points':>8}"
          f"{'cProfile':>10}{'points':>8}{'uncorrected':>13}")
    layers = set(trace_split).union(*references.values())
    for layer in sorted(layers, key=lambda name: -trace_split.get(name, 0)):
        a = trace_split.get(layer, 0.0)
        row = f"{layer:<12}{100 * a:>7.1f}%"
        note = "  (<10%)"
        for name, split in references.items():
            b = split.get(layer, 0.0)
            if max(a, b) > SHARE_FLOOR:
                worst[name] = max(worst[name], abs(a - b))
                note = ""
            row += f"{100 * b:>{len(name) + 1}.1f}%{100 * (a - b):>+8.1f}"
        if max(a, *(split.get(layer, 0.0)
                    for split in references.values())) < 0.001:
            continue
        print(f"{row}{100 * raw_split.get(layer, 0):>12.1f}%{note}")
    for name, gap in worst.items():
        print(f"worst gap to {name} on layers above "
              f"{100 * SHARE_FLOOR:.0f}%: {100 * gap:.1f} points"
              + (f" (limit {100 * POINTS:.0f})" if name == "sampled"
                 else ""))
    return 0 if worst["sampled"] <= POINTS else 1


if __name__ == "__main__":
    sys.exit(main())
