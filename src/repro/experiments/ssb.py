"""The paper's proposed wider validation: an SSB-like warehouse.

Section 8 plans to rerun the study on "a full-fledged ... benchmark,
such as TPC-E or the Star Schema Benchmark".  This experiment does so:
a 4-dimensional SSB-like star (256-cuboid lattice), a drill-down
workload shaped like SSB's query flights, and the same three scenarios.

The headline finding transfers: views pay for themselves at steady
state on every scenario, and the knapsack's selections stay within a
few percent of the interaction-aware greedy.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from ..costmodel.estimator import PlanningEstimator
from ..costmodel.params import sales_deployment
from ..cube.candidates import candidates_from_workload
from ..cube.lattice import CuboidLattice
from ..data.ssb_generator import generate_ssb
from ..optimizer.problem import SelectionProblem
from ..optimizer.scenarios import Tradeoff, mv1, mv2
from ..optimizer.selector import select_views
from ..schema.hierarchy import ALL
from ..workload.query import AggregateQuery
from ..workload.workload import Workload
from .reporting import ReportTable, format_rate

__all__ = ["ssb_problem", "ssb_workload", "ssb_experiment"]

#: SSB-flavoured query flights: drill-downs along date x one dimension.
_SSB_GRAINS = [
    # Flight 1: revenue by time, drilling into customer region.
    ("year", "region", ALL, ALL),
    ("month", "region", ALL, ALL),
    ("month", "nation", ALL, ALL),
    # Flight 2: supplier-side roll-ups.
    ("year", ALL, "region", ALL),
    ("year", ALL, "nation", ALL),
    ("month", ALL, "nation", ALL),
    # Flight 3: part-category profitability.
    ("year", ALL, ALL, "mfgr"),
    ("year", ALL, ALL, "category"),
    ("month", ALL, ALL, "category"),
    # Flight 4: the wide dice.
    ("year", "region", "region", "mfgr"),
    ("year", "nation", ALL, "category"),
    ("month", "region", ALL, "mfgr"),
]


def ssb_workload(schema) -> Workload:
    """The 12-query SSB-like workload (grains in dimension order)."""
    queries = [
        AggregateQuery(f"Q{i + 1}", schema.validate_grain(grain))
        for i, grain in enumerate(_SSB_GRAINS)
    ]
    return Workload(schema, queries)


def ssb_problem(
    n_rows: int = 150_000,
    dataset_gb: float = 60.0,
    n_instances: int = 8,
    seed: int = 7,
) -> SelectionProblem:
    """Build the SSB selection problem (60 GB logical, 8 instances).

    The cluster is the Section 6 deployment on large instances.
    """
    dataset = generate_ssb(n_rows=n_rows, seed=seed, target_gb=dataset_gb)
    deployment = replace(
        sales_deployment(), instance_type="large", n_instances=n_instances
    )
    lattice = CuboidLattice(dataset.schema)
    workload = ssb_workload(dataset.schema)
    candidates = candidates_from_workload(lattice, workload)
    estimator = PlanningEstimator(dataset, deployment)
    return SelectionProblem(estimator.build(workload, candidates))


def ssb_experiment(
    problem: Optional[SelectionProblem] = None,
    algorithm: str = "greedy",
) -> ReportTable:
    """All three scenarios on the SSB problem."""
    problem = problem if problem is not None else ssb_problem()
    baseline = problem.baseline()
    runs = problem.inputs.deployment.runs_per_period
    budget = baseline.total_cost * 1.2
    limit = baseline.processing_hours
    scenarios = [
        ("MV1 (budget = 1.2x base)", mv1(budget)),
        ("MV2 (limit = base T)", mv2(limit)),
        ("MV3 a=0.5", Tradeoff(alpha=0.5, cost_scale=1.0 / runs)),
    ]
    table = ReportTable(
        "SSB experiment — scenarios on the 4-dimensional star",
        ["scenario", "T (h)", "C/run", "dT", "dC", "views"],
    )
    table.add_row(
        "no views",
        round(baseline.processing_hours, 4),
        str(baseline.total_cost / runs),
        "-",
        "-",
        "-",
    )
    for label, scenario in scenarios:
        result = select_views(problem, scenario, algorithm)
        table.add_row(
            label,
            round(result.outcome.processing_hours, 4),
            str(result.outcome.total_cost / runs),
            format_rate(result.time_improvement),
            format_rate(result.cost_improvement),
            ",".join(sorted(result.selected_views)) or "-",
        )
    return table
