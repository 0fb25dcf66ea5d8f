"""Experiment registry: one module per paper table/figure.

Every module exposes ``run(seed=..., ...) -> ExperimentResult``;
``scripts/generate_experiments_md.py`` renders them into EXPERIMENTS.md
and ``tests/test_experiments.py`` asserts their shapes.  The sampled
surveys (Tables 3-4, Figures 3-5, §4.3) all draw from the
:mod:`repro.atlas.synth` entity streams.
"""

from repro.experiments import (
    ablation,
    degraded,
    figure1,
    figure2,
    figure3,
    figure4,
    figure5,
    impact,
    section4,
    section5,
    table1,
    table2,
    table3,
    table4,
    table5,
    table6,
    underload,
)
from repro.experiments.base import ExperimentResult

ALL_EXPERIMENTS = {
    "table1": table1,
    "table2": table2,
    "table3": table3,
    "table4": table4,
    "table5": table5,
    "table6": table6,
    "figure1": figure1,
    "figure2": figure2,
    "figure3": figure3,
    "figure4": figure4,
    "figure5": figure5,
    "impact": impact,
    "section4": section4,
    "section5": section5,
    "ablation": ablation,
    "underload": underload,
    "degraded": degraded,
}

__all__ = ["ALL_EXPERIMENTS", "ExperimentResult"] + sorted(ALL_EXPERIMENTS)
