"""Experiment registry and runner.

Every reproducible artifact has a stable id (``python -m repro list``
prints them); :func:`run_experiment` resolves an id to its tables, and
:func:`run_all` regenerates everything, optionally writing CSVs.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

from ..errors import ExperimentError
from .ablations import (
    ablation_algorithms,
    ablation_billing_granularity,
    ablation_cascade,
    ablation_elastic_joint,
    ablation_elasticity,
    ablation_hru_baseline,
    ablation_maintenance_policy,
    ablation_tier_semantics,
    ablation_tight_budget,
)
from .context import ExperimentContext
from .figure5 import figure5a, figure5b, figure5c, figure5d
from .reporting import ReportTable
from .robustness import ablation_workload_drift
from .running_example import intro_example_table, running_example_table
from .ssb import ssb_experiment
from .tables import table6, table7, table8

__all__ = ["EXPERIMENTS", "run_experiment", "run_all"]

#: id -> function(context) -> list[ReportTable]
EXPERIMENTS: Dict[str, Callable[[ExperimentContext], List[ReportTable]]] = {
    "running-example": lambda ctx: [running_example_table(), intro_example_table()],
    "figure5a": lambda ctx: [figure5a(ctx)],
    "figure5b": lambda ctx: [figure5b(ctx)],
    "figure5c": lambda ctx: [figure5c(ctx)],
    "figure5d": lambda ctx: [figure5d(ctx)],
    "table6": lambda ctx: [table6(ctx)],
    "table7": lambda ctx: [table7(ctx)],
    "table8": lambda ctx: [table8(ctx)],
    "ablation-billing": lambda ctx: [ablation_billing_granularity(ctx)],
    "ablation-tiers": lambda ctx: [ablation_tier_semantics()],
    "ablation-algorithms": lambda ctx: [ablation_algorithms(ctx)],
    "ablation-elasticity": lambda ctx: [ablation_elasticity(ctx)],
    "ablation-tight-budget": lambda ctx: [ablation_tight_budget(ctx)],
    "ablation-hru": lambda ctx: [ablation_hru_baseline(ctx)],
    "ablation-cascade": lambda ctx: [ablation_cascade(ctx)],
    "ablation-maintenance": lambda ctx: [ablation_maintenance_policy(ctx)],
    "ablation-elastic": lambda ctx: [ablation_elastic_joint(ctx)],
    "ablation-drift": lambda ctx: [ablation_workload_drift(ctx)],
    "ssb": lambda ctx: [ssb_experiment()],
}


def run_experiment(
    experiment_id: str,
    context: Optional[ExperimentContext] = None,
    csv_dir: Optional[Union[str, Path]] = None,
) -> List[ReportTable]:
    """Run one experiment by id; optionally write its tables as CSV."""
    try:
        build = EXPERIMENTS[experiment_id]
    except KeyError:
        known = ", ".join(sorted(EXPERIMENTS))
        raise ExperimentError(
            f"unknown experiment {experiment_id!r}; known: {known}"
        ) from None
    context = context if context is not None else ExperimentContext()
    tables = build(context)
    if csv_dir is not None:
        for i, table in enumerate(tables):
            stem = experiment_id if len(tables) == 1 else f"{experiment_id}-{i + 1}"
            table.to_csv(Path(csv_dir) / f"{stem}.csv")
    return tables


def run_all(
    context: Optional[ExperimentContext] = None,
    csv_dir: Optional[Union[str, Path]] = None,
) -> Dict[str, List[ReportTable]]:
    """Run every registered experiment on one shared context."""
    context = context if context is not None else ExperimentContext()
    return {
        experiment_id: run_experiment(experiment_id, context, csv_dir)
        for experiment_id in EXPERIMENTS
    }
