"""Figure 5: the paper's four experimental panels.

Each panel compares the workload **with** materialized views (the
scenario's optimizer output) against **without** (the empty view set)
for m = 3, 5, 10 queries:

* (a) MV1 — response time under the paper's budget limits,
* (b) MV2 — monetary cost under the paper's response-time limits,
* (c) MV3 with α = 0.3 — the weighted tradeoff objective,
* (d) MV3 with α = 0.65 — ditto (the figure's caption says 0.65; the
  paper's Table 8 uses 0.7, reproduced in :mod:`repro.experiments.tables`).

Monetary values are reported per workload run (period bill divided by
runs per period), the scale of the paper's dollar axes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..optimizer.scenarios import Tradeoff, mv1, mv2
from ..optimizer.selector import SelectionResult, select_views
from .context import PAPER_WORKLOAD_SIZES, ExperimentContext
from .reporting import ReportTable, format_rate

__all__ = [
    "Figure5Point",
    "figure5a",
    "figure5b",
    "figure5c",
    "figure5d",
    "figure5_all",
]


@dataclass(frozen=True)
class Figure5Point:
    """One (panel, m) comparison: baseline vs. optimizer outcome."""

    m: int
    result: SelectionResult

    @property
    def without_hours(self) -> float:
        return self.result.baseline.processing_hours

    @property
    def with_hours(self) -> float:
        return self.result.outcome.processing_hours


def _run_panel(
    context: ExperimentContext,
    scenario_for_m,
    algorithm: str,
    sizes: Sequence[int],
) -> List[Figure5Point]:
    points = []
    for m in sizes:
        problem = context.problem(m)
        result = select_views(problem, scenario_for_m(m, problem), algorithm)
        points.append(Figure5Point(m=m, result=result))
    return points


def figure5a(
    context: ExperimentContext,
    algorithm: str = "knapsack",
    sizes: Sequence[int] = PAPER_WORKLOAD_SIZES,
) -> ReportTable:
    """Panel (a): MV1 response times under the paper's budgets."""
    points = _run_panel(
        context,
        lambda m, _problem: mv1(context.paper_budget(m)),
        algorithm,
        sizes,
    )
    table = ReportTable(
        "Figure 5(a) — MV1: processing time under budget limit",
        [
            "queries",
            "budget/run",
            "T without (h)",
            "T with MV (h)",
            "IP rate",
            "views",
        ],
    )
    for point in points:
        budget = context.per_run_cost(context.paper_budget(point.m))
        table.add_row(
            point.m,
            str(budget),
            round(point.without_hours, 4),
            round(point.with_hours, 4),
            format_rate(point.result.time_improvement),
            ",".join(sorted(point.result.selected_views)) or "-",
        )
    return table


def figure5b(
    context: ExperimentContext,
    algorithm: str = "knapsack",
    sizes: Sequence[int] = PAPER_WORKLOAD_SIZES,
) -> ReportTable:
    """Panel (b): MV2 per-run costs under the paper's time limits."""
    points = _run_panel(
        context,
        lambda m, _problem: mv2(context.paper_time_limit(m)),
        algorithm,
        sizes,
    )
    table = ReportTable(
        "Figure 5(b) — MV2: cost under response-time limit",
        [
            "queries",
            "time limit (h)",
            "C/run without",
            "C/run with MV",
            "IC rate",
            "views",
        ],
    )
    for point in points:
        without = context.per_run_cost(point.result.baseline.total_cost)
        with_mv = context.per_run_cost(point.result.outcome.total_cost)
        table.add_row(
            point.m,
            context.paper_time_limit(point.m),
            str(without),
            str(with_mv),
            format_rate(point.result.cost_improvement),
            ",".join(sorted(point.result.selected_views)) or "-",
        )
    return table


def _figure5_tradeoff(
    context: ExperimentContext,
    alpha: float,
    panel: str,
    algorithm: str,
    sizes: Sequence[int],
    normalized: bool = False,
) -> ReportTable:
    cost_scale = 1.0 / context.deployment.runs_per_period

    def scenario_for_m(m: int, problem) -> Tradeoff:
        if normalized:
            return Tradeoff.normalized_against(alpha, problem.baseline())
        return Tradeoff(alpha=alpha, cost_scale=cost_scale)

    points = _run_panel(context, scenario_for_m, algorithm, sizes)
    table = ReportTable(
        f"Figure 5({panel}) — MV3: tradeoff with alpha={alpha}",
        [
            "queries",
            "objective without",
            "objective with MV",
            "tradeoff rate",
            "views",
        ],
    )
    for point in points:
        scenario = point.result.scenario
        assert isinstance(scenario, Tradeoff)
        table.add_row(
            point.m,
            round(scenario.objective(point.result.baseline), 4),
            round(scenario.objective(point.result.outcome), 4),
            format_rate(point.result.objective_improvement()),
            ",".join(sorted(point.result.selected_views)) or "-",
        )
    return table


def figure5c(
    context: ExperimentContext,
    algorithm: str = "knapsack",
    sizes: Sequence[int] = PAPER_WORKLOAD_SIZES,
) -> ReportTable:
    """Panel (c): MV3 with alpha = 0.3 (cost-leaning user)."""
    return _figure5_tradeoff(context, 0.3, "c", algorithm, sizes)


def figure5d(
    context: ExperimentContext,
    algorithm: str = "knapsack",
    sizes: Sequence[int] = PAPER_WORKLOAD_SIZES,
    alpha: float = 0.65,
) -> ReportTable:
    """Panel (d): MV3 with alpha = 0.65 (time-leaning user)."""
    return _figure5_tradeoff(context, alpha, "d", algorithm, sizes)


def figure5_all(
    context: Optional[ExperimentContext] = None,
    algorithm: str = "knapsack",
) -> List[ReportTable]:
    """All four panels on one shared context."""
    context = context if context is not None else ExperimentContext()
    return [
        figure5a(context, algorithm),
        figure5b(context, algorithm),
        figure5c(context, algorithm),
        figure5d(context, algorithm),
    ]
