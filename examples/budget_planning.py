"""Budget planning: how response time buys down as the budget grows.

The MV1 scenario answers a planning question a cloud data team actually
asks: "given $X a day, how fast can the nightly dashboard workload be?"
This example sweeps the budget from bare-baseline to generous and shows
the optimizer's chosen views and the resulting response time at each
point — the paper's Figure 2, drawn as a table.

Run:  python examples/budget_planning.py
"""

from __future__ import annotations

from repro import ExperimentContext, InfeasibleProblemError, Money, mv1, select_views
from repro.experiments.reporting import ReportTable


def main() -> None:
    context = ExperimentContext()
    problem = context.problem(10)
    baseline = problem.baseline()
    runs = context.deployment.runs_per_period

    base_per_run = context.per_run_cost(baseline.total_cost)
    print(f"Baseline: T = {baseline.processing_hours:.3f} h, "
          f"cost/run = {base_per_run}\n")

    table = ReportTable(
        "MV1 budget sweep (10-query workload)",
        ["budget/run", "T (h)", "speedup", "cost/run", "views"],
    )
    for budget_per_run in ("1.00", "1.30", "1.60", "2.00", "2.40", "3.00", "5.00"):
        budget = Money(budget_per_run) * runs
        try:
            result = select_views(problem, mv1(budget), "knapsack")
        except InfeasibleProblemError:
            table.add_row(f"${budget_per_run}", "-", "-", "-", "infeasible")
            continue
        speedup = (
            baseline.processing_hours / result.outcome.processing_hours
            if result.outcome.processing_hours
            else float("inf")
        )
        table.add_row(
            f"${budget_per_run}",
            round(result.outcome.processing_hours, 4),
            f"{speedup:.1f}x",
            str(context.per_run_cost(result.outcome.total_cost)),
            ",".join(sorted(result.selected_views)) or "-",
        )
    print(table.render())
    print()
    print(
        "Reading: once the budget clears the self-paying views' cost,\n"
        "response time collapses; past that point extra budget buys\n"
        "nothing because every useful view is already materialized."
    )


if __name__ == "__main__":
    main()
