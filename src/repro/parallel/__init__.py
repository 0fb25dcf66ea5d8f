"""repro.parallel — the parallel execution plane.

Four pillars, all bit-identical to the serial reference paths:

* :mod:`repro.parallel.taskmap` — the one durable task map every
  campaign and atlas scan runs through: store lookup, executor choice,
  work-stealing dispatch (:mod:`repro.parallel.scheduler`), persistence
  in completion order, and the in-order splice,
* :mod:`repro.parallel.kernel` — batch-vectorised columnar atlas scan
  (lockstep MT19937 over numpy, the per-entity scalar scan as the
  reference),
* :mod:`repro.parallel.workers` — the shared ``--workers auto``
  resolver and the ``--seed``/``--workers`` argparse types,
* :mod:`repro.parallel.claim` — multi-process/multi-host shard leasing
  over the atlas JSONL store with TTL expiry and idempotent re-claims.

Quickstart::

    from repro.atlas import AtlasStore, find_dataset, scan_dataset
    from repro.parallel.claim import claim_worker, merge_claimed

    spec = find_dataset("open")
    # Vectorised scan on every schedulable CPU:
    report = scan_dataset(spec, entities=200_000, workers="auto")

    # Claim mode: run this in as many processes/hosts as you like —
    # each claims shards via store leases; any of them may die.
    store = AtlasStore("runs/atlas")
    claim_worker(spec, entities=200_000, shards=64, store=store)
    # Coordinator merge (scans any shards every worker left behind):
    report = merge_claimed(spec, entities=200_000, shards=64, store=store)

Command line (the atlas CLI drives this plane)::

    python -m repro.atlas scan  --dataset open --entities 200000 --workers auto
    python -m repro.atlas claim --dataset open --entities 200000 --store runs/atlas
    python -m repro.atlas merge --dataset open --entities 200000 --store runs/atlas
"""
