"""Robustness: what a stale view selection costs when the workload drifts.

The paper selects views for a *fixed* workload ("Note that we consider
that Q is fixed", §4.2).  Real workloads drift: queries get added,
dropped, or change frequency.  This experiment measures the price of
that assumption — the *regret* of yesterday's selection on today's
workload:

    regret = objective(stale selection, new workload)
           - objective(fresh selection, new workload)

Three drifts are tested, each against the m=5 selection:

* **grow** — the workload gains the m=6..8 queries,
* **shrink** — it loses its two finest queries,
* **reweight** — the two coarsest queries run 10x more often.

The measured headline: the stale selection is nearly free under
shrinkage and reweighting (its views are grain-general, so they keep
serving whatever queries remain), but leaves a third of the available
improvement on the table when the workload *grows* — new queries run
unserved until selection is re-run.  Re-optimize on workload growth;
drift in the other directions is forgiving.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..optimizer.problem import SelectionProblem
from ..optimizer.scenarios import Tradeoff
from ..optimizer.selector import select_views
from ..workload.query import AggregateQuery
from ..workload.workload import Workload, paper_sales_workload
from .context import ExperimentContext
from .reporting import ReportTable, format_rate

__all__ = ["ablation_workload_drift"]


def _drifted_workloads(context: ExperimentContext) -> List[Tuple[str, Workload]]:
    schema = context.dataset.schema
    base = paper_sales_workload(schema, 5)
    grown = paper_sales_workload(schema, 8)
    shrunk = Workload(schema, list(base.queries)[:3])
    reweighted = Workload(
        schema,
        [
            AggregateQuery(q.name, q.grain, 10.0 if i < 2 else q.frequency)
            for i, q in enumerate(base.queries)
        ],
    )
    return [("grow (m=5 -> 8)", grown), ("shrink (m=5 -> 3)", shrunk),
            ("reweight (2 hot queries x10)", reweighted)]


def _problem_for(
    context: ExperimentContext,
    workload: Workload,
    extra_grains: Tuple[Tuple[str, ...], ...] = (),
) -> SelectionProblem:
    from ..costmodel.estimator import PlanningEstimator
    from ..cube.candidates import candidates_from_workload
    from ..cube.views import CandidateView

    # The drifted problem proposes the new workload's grains, PLUS the
    # grains of yesterday's views: those exist physically whatever the
    # new workload looks like, so the stale plan must stay evaluable.
    candidates = candidates_from_workload(context.lattice, workload)
    known = {c.grain for c in candidates}
    for grain in extra_grains:
        if grain not in known:
            candidates.append(CandidateView(f"V{len(candidates) + 1}", grain))
            known.add(grain)
    estimator = PlanningEstimator(context.dataset, context.deployment)
    return SelectionProblem(estimator.build(workload, candidates))


def ablation_workload_drift(
    context: Optional[ExperimentContext] = None,
) -> ReportTable:
    """Regret of the stale m=5 selection under three workload drifts."""
    context = context if context is not None else ExperimentContext()
    cost_scale = 1.0 / context.deployment.runs_per_period
    scenario = Tradeoff(alpha=0.5, cost_scale=cost_scale)

    stale = select_views(context.problem(5), scenario, "greedy")
    stale_inputs = context.problem(5).inputs
    stale_grains = tuple(
        stale_inputs.view(name).grain for name in sorted(stale.selected_views)
    )

    table = ReportTable(
        "Ablation — workload drift: stale m=5 selection vs. fresh",
        [
            "drift",
            "obj. no views",
            "obj. stale",
            "obj. fresh",
            "regret",
            "stale still helps",
        ],
    )
    for label, workload in _drifted_workloads(context):
        problem = _problem_for(context, workload, stale_grains)
        baseline_obj = scenario.objective(problem.baseline())
        # Re-identify yesterday's views by grain (names are per-problem).
        stale_names = frozenset(
            c.name
            for c in problem.inputs.candidates
            if c.grain in stale_grains
        )
        stale_obj = scenario.objective(problem.evaluate(stale_names))
        fresh = select_views(problem, scenario, "greedy")
        fresh_obj = scenario.objective(fresh.outcome)
        regret = (stale_obj - fresh_obj) / baseline_obj if baseline_obj else 0.0
        table.add_row(
            label,
            round(baseline_obj, 4),
            round(stale_obj, 4),
            round(fresh_obj, 4),
            format_rate(regret),
            "yes" if stale_obj <= baseline_obj else "no",
        )
    return table
