"""Pareto explorer: the (time, cost) frontier behind the three scenarios.

The paper's Figures 2-4 draw candidate solutions in the (processing
time, monetary cost) plane: MV1 cuts the cloud with a vertical budget
line, MV2 with a horizontal deadline, MV3 with a slanted iso-objective
line.  This example enumerates the exact Pareto frontier of the 5-query
problem and marks which frontier point each scenario selects.

Run:  python examples/pareto_explorer.py
"""

from __future__ import annotations

from repro import ExperimentContext, Tradeoff, frontier_outcomes, mv1, mv2, select_views
from repro.experiments.reporting import ReportTable


def main() -> None:
    context = ExperimentContext()
    problem = context.problem(5)
    runs = context.deployment.runs_per_period

    frontier = frontier_outcomes(problem)
    picks = {
        select_views(problem, mv1(context.paper_budget(5)), "exhaustive")
        .outcome.subset: "MV1",
        select_views(problem, mv2(context.paper_time_limit(5)), "exhaustive")
        .outcome.subset: "MV2",
        select_views(
            problem, Tradeoff(alpha=0.5, cost_scale=1.0 / runs), "exhaustive"
        ).outcome.subset: "MV3",
    }

    table = ReportTable(
        "Pareto frontier of the 5-query problem (time vs. cost/run)",
        ["T (h)", "cost/run", "views", "picked by"],
    )
    for outcome in frontier:
        table.add_row(
            round(outcome.processing_hours, 4),
            str(context.per_run_cost(outcome.total_cost)),
            ",".join(sorted(outcome.subset)) or "(none)",
            picks.get(outcome.subset, ""),
        )
    print(table.render())
    print()
    print(
        f"{len(frontier)} non-dominated subsets out of "
        f"2^{len(problem.candidate_names)} = "
        f"{2 ** len(problem.candidate_names)} candidates."
    )


if __name__ == "__main__":
    main()
