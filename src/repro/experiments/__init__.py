"""Experiments reproducing every table and figure of the paper.

Every simulated figure, ablation and grid (the attack grid, the scenario
comparison) is one declared sweep in :data:`EXPERIMENTS`;
:func:`run_experiments` runs any of them as one deduplicated plan and returns
an :class:`~repro.experiments.reporting.ExperimentTable` per experiment.  ``scale="quick"`` produces reduced sweeps
for fast runs; ``scale="paper"`` runs the full Table 1 configuration (up to
10,000 peers, 3 simulated hours).

Run everything from the command line with::

    repro experiments --scale quick
"""

from repro.experiments.figures import (
    EXPERIMENTS,
    SCALE_PROFILES,
    Experiment,
    expected_retrievals_table,
    run_experiments,
    table1_parameters,
)
from repro.experiments.plots import ascii_chart
from repro.experiments.reporting import ExperimentTable
from repro.experiments.runner import run_all_experiments, write_experiments_report

__all__ = [
    "EXPERIMENTS",
    "Experiment",
    "ExperimentTable",
    "ascii_chart",
    "SCALE_PROFILES",
    "expected_retrievals_table",
    "run_all_experiments",
    "run_experiments",
    "table1_parameters",
    "write_experiments_report",
]
