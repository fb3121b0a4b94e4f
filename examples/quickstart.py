"""Quickstart: select materialized views for the paper's Section 6 world.

Builds the 10 GB sales dataset on a five-instance AWS-priced cluster,
then runs all three of the paper's scenarios on the 10-query workload:

* MV1 — fastest workload under the paper's $2.40-per-run budget,
* MV2 — cheapest workload under the paper's 2.24 h response-time limit,
* MV3 — the weighted time/cost tradeoff.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

from repro import ExperimentContext, Tradeoff, mv1, mv2, select_views


def main() -> None:
    # The ExperimentContext bundles the paper's experimental setup:
    # dataset, cluster, pricing, workload family, candidate views.
    context = ExperimentContext()
    problem = context.problem(10)  # the 10-query workload

    baseline = problem.baseline()
    print("Without materialized views:")
    print(f"  response time : {baseline.processing_hours:.3f} h")
    print(f"  cost per run  : {context.per_run_cost(baseline.total_cost)}")
    print()

    scenarios = [
        ("MV1 (budget limit)", mv1(context.paper_budget(10))),
        ("MV2 (time limit)", mv2(context.paper_time_limit(10))),
        (
            "MV3 (tradeoff, alpha=0.5)",
            Tradeoff(alpha=0.5, cost_scale=1.0 / context.deployment.runs_per_period),
        ),
    ]
    for label, scenario in scenarios:
        result = select_views(problem, scenario, algorithm="knapsack")
        views = ", ".join(sorted(result.selected_views)) or "(none)"
        print(f"{label}:")
        print(f"  selected views: {views}")
        print(f"  response time : {result.outcome.processing_hours:.3f} h "
              f"({result.time_improvement:.0%} faster)")
        print(f"  cost per run  : {context.per_run_cost(result.outcome.total_cost)} "
              f"({result.cost_improvement:.0%} cheaper)")
        print()

    print("Candidate view catalogue:")
    for candidate in problem.inputs.candidates:
        stats = problem.inputs.view_stats[candidate.name]
        grain = context.lattice.describe(candidate.grain)
        print(
            f"  {candidate.name:<4} {grain:<22} rows={stats.rows:>12,.0f} "
            f"size={stats.size_gb:.4f} GB  build={stats.materialization_hours:.3f} h"
        )


if __name__ == "__main__":
    main()
