"""Shared worker-count resolution for every parallel entry point.

One resolver replaces the ad-hoc ``min(8, os.cpu_count())`` defaults
scattered through the CLI, pipeline, campaign runner and benchmarks:

* an explicit integer (or numeric string from argparse) wins,
* ``"auto"`` means all schedulable CPUs,
* ``None`` keeps the historical capped default,
* the ``REPRO_WORKERS`` environment variable overrides the *defaults*
  (``auto``/``None``) without touching explicit requests — handy for
  CI runners and shared hosts.

:func:`parse_workers`, :func:`parse_seed` and :func:`at_least` are the
argparse types every CLI shares for ``--workers``, ``--seed`` and its
count flags.
"""

from __future__ import annotations

import argparse
import os

#: Cap applied to the implicit (``workers=None``) default, matching the
#: historical behaviour; ``auto`` and explicit counts are uncapped.
DEFAULT_CAP = 8

ENV_VAR = "REPRO_WORKERS"


def cpu_count() -> int:
    """Schedulable CPUs: ``os.process_cpu_count`` honours affinity
    masks (cgroup-pinned CI runners); older Pythons fall back."""
    counter = getattr(os, "process_cpu_count", None)
    count = counter() if counter is not None else None
    return count or os.cpu_count() or 1


def parse_workers(value: str) -> int | str:
    """argparse type for ``--workers``: a count or ``auto``.

    Every CLI (atlas, scenario, faults, serve, the bench harness)
    funnels through this one parser so ``--workers auto`` means the
    same thing everywhere; resolution to a concrete count happens
    later, in :func:`resolve_workers`.
    """
    if value.strip().lower() == "auto":
        return "auto"
    return int(value)


def parse_seed(value: str) -> int | str:
    """argparse type for ``--seed``, shared by every CLI: numeric seeds
    become ints so ``--seed 0`` names the same population or cell as the
    API's ``seed=0`` (the spec hashes cover the seed)."""
    try:
        return int(value)
    except ValueError:
        return value


def at_least(minimum: int):
    """argparse type for a count flag: an int no smaller than
    ``minimum``, so a bad count is a usage error, not a traceback."""
    def parse(value: str) -> int:
        try:
            count = int(value)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid int value: {value!r}") from None
        if count < minimum:
            raise argparse.ArgumentTypeError(
                f"must be >= {minimum}, got {count}")
        return count
    return parse


def resolve_workers(workers: int | str | None = None,
                    cap: int | None = DEFAULT_CAP) -> int:
    """Resolve a worker-count request to a concrete positive integer."""
    if isinstance(workers, str):
        text = workers.strip().lower()
        workers = "auto" if text == "auto" else int(text)
    if workers is None or workers == "auto":
        env = os.environ.get(ENV_VAR)
        if env is not None and env.strip():
            workers = int(env)
        elif workers == "auto":
            return cpu_count()
        else:
            count = cpu_count()
            return min(cap, count) if cap is not None else count
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return int(workers)
