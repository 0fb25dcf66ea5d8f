"""repro.parallel — the parallel execution plane.

Three pillars, all bit-identical to the serial reference paths:

* :mod:`repro.parallel.taskmap` — the one durable task map every
  campaign and atlas scan runs through: store lookup, executor choice,
  work-stealing dispatch (:mod:`repro.parallel.scheduler`), persistence
  in completion order, and the in-order splice,
* :mod:`repro.parallel.kernel` — batch-vectorised columnar atlas scan
  (lockstep MT19937 over numpy, the per-entity scalar scan as the
  reference),
* :mod:`repro.parallel.workers` — the shared ``--workers auto``
  resolver and the ``--seed``/``--workers``/count argparse types.

Quickstart::

    from repro.atlas import AtlasStore, find_dataset, scan_dataset

    spec = find_dataset("open")
    # Vectorised scan on every schedulable CPU; with a store, a killed
    # scan re-run computes only the shards it had not stored:
    report = scan_dataset(spec, entities=200_000, workers="auto",
                          store=AtlasStore("runs/atlas"))

Command line (the atlas CLI drives this plane)::

    python -m repro.atlas scan --dataset open --entities 200000 \
        --workers auto --store runs/atlas
"""
