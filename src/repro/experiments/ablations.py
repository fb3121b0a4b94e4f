"""Ablations over the reproduction's modelling choices.

Each ablation varies exactly one modelling decision and reports its
effect on the bill and/or the selection:

* **billing granularity** — the paper's "every started hour is charged"
  vs. per-minute/per-second metering,
* **tier semantics** — the paper's slab storage pricing vs. AWS's
  marginal tiers (including the non-monotonicity at band edges),
* **algorithms** — the paper's independent-benefit knapsack vs. the
  interaction-aware greedy vs. the exhaustive optimum vs. the
  price-blind HRU baseline,
* **elasticity** — scale-out (more instances) vs. materialized views,
  the tradeoff the paper's introduction frames,
* **tight-budget regime** — single-run billing with the paper's ~2x
  view speedups, the regime in which MV1's improvement rates grow with
  workload size the way the paper's Table 6 shows.
"""

from __future__ import annotations

from typing import List, Optional

from ..costmodel.maintenance import MaintenancePolicy
from ..cube.build_plan import plan_builds
from ..cube.hru import hru_select
from ..optimizer.scenarios import Tradeoff, mv1, mv2
from ..optimizer.selector import select_views
from ..pricing.compute import BillingGranularity
from ..pricing.providers import aws_2012, aws_2012_marginal
from ..pricing.tiers import TierMode
from .context import PAPER_WORKLOAD_SIZES, ExperimentContext
from .reporting import ReportTable, format_rate

__all__ = [
    "ablation_billing_granularity",
    "ablation_tier_semantics",
    "ablation_algorithms",
    "ablation_elasticity",
    "ablation_tight_budget",
    "ablation_hru_baseline",
    "ablation_cascade",
    "ablation_maintenance_policy",
    "ablation_elastic_joint",
    "ablation_all",
]


def ablation_billing_granularity(
    base_context: Optional[ExperimentContext] = None,
    m: int = 5,
) -> ReportTable:
    """Effect of hour round-up on the m-query baseline and MV2 choice."""
    base_context = base_context if base_context is not None else ExperimentContext()
    table = ReportTable(
        f"Ablation — billing granularity (m={m})",
        [
            "granularity",
            "C/run without",
            "C/run with MV (MV2)",
            "IC rate",
            "views",
        ],
    )
    for granularity in BillingGranularity:
        context = base_context.with_deployment(provider=aws_2012(granularity))
        result = select_views(
            context.problem(m), mv2(context.paper_time_limit(m)), "knapsack"
        )
        table.add_row(
            granularity.value,
            str(context.per_run_cost(result.baseline.total_cost)),
            str(context.per_run_cost(result.outcome.total_cost)),
            format_rate(result.cost_improvement),
            ",".join(sorted(result.selected_views)) or "-",
        )
    return table


def ablation_tier_semantics() -> ReportTable:
    """Slab vs. marginal storage pricing on representative volumes.

    Slab pricing (the paper's Example 3 reading) is non-monotonic at
    band edges: the row pair around 1 TB shows a *larger* volume
    billing *less*.  Marginal pricing has no such cliff.
    """
    slab = aws_2012().storage
    marginal = aws_2012_marginal().storage
    table = ReportTable(
        "Ablation — storage tier semantics (monthly bill)",
        ["volume (GB)", "slab (paper)", "marginal (AWS)", "note"],
    )
    volumes = [512.0, 1023.0, 1024.0, 2560.0, 10 * 1024.0, 100 * 1024.0]
    for volume in volumes:
        note = ""
        if volume == 1024.0:
            note = "slab bills 1024 GB below 1023 GB: band-edge cliff"
        table.add_row(
            volume,
            str(slab.monthly_cost(volume)),
            str(marginal.monthly_cost(volume)),
            note,
        )
    assert slab.schedule.mode is TierMode.SLAB
    assert marginal.schedule.mode is TierMode.MARGINAL
    return table


def ablation_algorithms(
    context: Optional[ExperimentContext] = None,
    m: int = 10,
) -> ReportTable:
    """Knapsack vs. greedy vs. exhaustive on all three scenarios."""
    context = context if context is not None else ExperimentContext()
    problem = context.problem(m)
    cost_scale = 1.0 / context.deployment.runs_per_period
    scenarios = [
        ("MV1", mv1(context.paper_budget(m))),
        ("MV2", mv2(context.paper_time_limit(m))),
        ("MV3 a=0.3", Tradeoff(alpha=0.3, cost_scale=cost_scale)),
    ]
    table = ReportTable(
        f"Ablation — selection algorithms (m={m})",
        ["scenario", "algorithm", "T (h)", "C/run", "views"],
    )
    for label, scenario in scenarios:
        for algorithm in ("knapsack", "greedy", "exhaustive"):
            result = select_views(problem, scenario, algorithm)
            table.add_row(
                label,
                algorithm,
                round(result.outcome.processing_hours, 4),
                str(context.per_run_cost(result.outcome.total_cost)),
                ",".join(sorted(result.selected_views)) or "-",
            )
    return table


def ablation_elasticity(
    base_context: Optional[ExperimentContext] = None,
    m: int = 5,
    instance_counts: Optional[List[int]] = None,
) -> ReportTable:
    """Scale-out vs. views: vary the fleet, with and without views.

    The without-views column is pure scale-out (the paper's "raw
    scalability"); the with-views column runs MV3 (alpha = 0.5) at each
    fleet size.  Views beat scale-out at every size, and scale-out's
    returns flatten (job overhead does not parallelize) while its bill
    keeps climbing — the observation motivating the paper.
    """
    base_context = base_context if base_context is not None else ExperimentContext()
    counts = instance_counts if instance_counts is not None else [1, 2, 5, 10, 20]
    table = ReportTable(
        f"Ablation — scale-out vs. views (m={m}, MV3 alpha=0.5)",
        [
            "instances",
            "T without (h)",
            "C/run without",
            "T with MV (h)",
            "C/run with MV",
        ],
    )
    for n in counts:
        context = base_context.with_deployment(n_instances=n)
        problem = context.problem(m)
        scenario = Tradeoff(
            alpha=0.5, cost_scale=1.0 / context.deployment.runs_per_period
        )
        result = select_views(problem, scenario, "greedy")
        table.add_row(
            n,
            round(result.baseline.processing_hours, 4),
            str(context.per_run_cost(result.baseline.total_cost)),
            round(result.outcome.processing_hours, 4),
            str(context.per_run_cost(result.outcome.total_cost)),
        )
    return table


def ablation_tight_budget(
    base_context: Optional[ExperimentContext] = None,
) -> ReportTable:
    """MV1 in the paper's regime: single run, ~2x view speedups.

    In the steady-state context views amortize so well they pay for
    themselves and the budget never binds (Table 6's measured rates sit
    near the physics cap).  Billing a *single* workload run, with view
    speedups capped at the ~2x the paper's own running example reports,
    makes the paper's budgets genuinely bind — and the improvement
    rates grow with workload size, the shape of the paper's Table 6.
    """
    base_context = base_context if base_context is not None else ExperimentContext()
    context = base_context.with_deployment(
        runs_per_period=1.0,
        view_speedup_cap=2.5,
        storage_months=0.21,         # the experiment's ~6-day window
        maintenance_cycles=1,
        materialization_write_factor=2.0,
    )
    table = ReportTable(
        "Ablation — MV1 under tight budgets (single run, 2.5x speedup cap)",
        [
            "queries",
            "budget",
            "T without (h)",
            "T with MV (h)",
            "IP rate (measured)",
            "IP rate (paper)",
        ],
    )
    paper_rates = {3: 0.25, 5: 0.36, 10: 0.60}
    for m in PAPER_WORKLOAD_SIZES:
        budget = context.paper_budget(m)
        result = select_views(context.problem(m), mv1(budget), "exhaustive")
        table.add_row(
            m,
            str(budget),
            round(result.baseline.processing_hours, 4),
            round(result.outcome.processing_hours, 4),
            format_rate(result.time_improvement),
            format_rate(paper_rates[m]),
        )
    return table


def ablation_hru_baseline(
    context: Optional[ExperimentContext] = None,
    m: int = 10,
) -> ReportTable:
    """Price-blind HRU vs. the cloud-aware MV1 knapsack.

    HRU picks views by row-count benefit alone (no dollars); both
    selections are then priced identically.  The cloud-aware pick
    matches HRU's response time at lower (or equal) cost, or buys time
    HRU leaves on the table — the paper's core argument for
    pricing-aware selection.
    """
    context = context if context is not None else ExperimentContext()
    problem = context.problem(m)
    inputs = problem.inputs

    view_rows = {name: stats.rows for name, stats in inputs.view_stats.items()}
    base_rows = context.dataset.size_model.logical_rows(
        context.dataset.fact.n_rows
    )
    budget = context.paper_budget(m)
    mv1_result = select_views(problem, mv1(budget), "knapsack")
    hru_k = max(len(mv1_result.selected_views), 1)
    hru = hru_select(
        context.lattice,
        inputs.workload,
        list(inputs.candidates),
        view_rows,
        base_rows,
        k=hru_k,
    )
    hru_outcome = problem.evaluate(frozenset(v.name for v in hru.selected))

    table = ReportTable(
        f"Ablation — HRU baseline vs. MV1 knapsack (m={m}, k={hru_k})",
        ["selector", "T (h)", "C/run", "views"],
    )
    table.add_row(
        "HRU (price-blind)",
        round(hru_outcome.processing_hours, 4),
        str(context.per_run_cost(hru_outcome.total_cost)),
        ",".join(sorted(hru_outcome.subset)) or "-",
    )
    table.add_row(
        "MV1 knapsack (cloud-aware)",
        round(mv1_result.outcome.processing_hours, 4),
        str(context.per_run_cost(mv1_result.outcome.total_cost)),
        ",".join(sorted(mv1_result.selected_views)) or "-",
    )
    table.add_row(
        "no views",
        round(mv1_result.baseline.processing_hours, 4),
        str(context.per_run_cost(mv1_result.baseline.total_cost)),
        "-",
    )
    return table


def ablation_cascade(
    base_context: Optional[ExperimentContext] = None,
    m: int = 10,
) -> ReportTable:
    """Paper's Formula 7 vs. cascaded materialization (build_plan).

    The paper charges every view a full base scan; pipelining builds
    coarser views from finer ones already materialized.  The ablation
    prices the same all-candidates subset both ways.
    """
    base_context = base_context if base_context is not None else ExperimentContext()
    table = ReportTable(
        f"Ablation — materialization strategy (m={m}, all candidates)",
        ["strategy", "mat. hours", "base scans", "C/run"],
    )
    for cascade, label in ((False, "independent (paper, Formula 7)"),
                           (True, "cascaded (build from parents)")):
        context = base_context.with_deployment(cascade_materialization=cascade)
        problem = context.problem(m)
        subset = frozenset(problem.candidate_names)
        outcome = problem.evaluate(subset)
        scans = len(subset)
        if cascade:
            inputs, deployment = problem.inputs, context.deployment
            scans = plan_builds(
                inputs.workload.schema,
                [inputs.view_stats[name] for name in sorted(subset)],
                inputs.dataset_gb,
                deployment.job_hours,
                deployment.materialization_write_factor,
            ).base_scans
        table.add_row(
            label,
            round(outcome.breakdown.computing.materialization_hours, 3),
            scans,
            str(context.per_run_cost(outcome.total_cost)),
        )
    return table


def ablation_maintenance_policy(
    base_context: Optional[ExperimentContext] = None,
    m: int = 5,
) -> ReportTable:
    """Incremental vs. full-rebuild vs. per-view-cheapest maintenance."""
    base_context = base_context if base_context is not None else ExperimentContext()
    table = ReportTable(
        f"Ablation — maintenance policy (m={m}, all candidates)",
        ["policy", "maint. hours/period", "C/run"],
    )
    for policy in MaintenancePolicy:
        context = base_context.with_deployment(maintenance_policy=policy)
        problem = context.problem(m)
        outcome = problem.evaluate(frozenset(problem.candidate_names))
        table.add_row(
            policy.value,
            round(outcome.breakdown.computing.maintenance_hours, 3),
            str(context.per_run_cost(outcome.total_cost)),
        )
    return table


def ablation_elastic_joint(
    base_context: Optional[ExperimentContext] = None,
    m: int = 5,
) -> ReportTable:
    """Joint (views, fleet) choice vs. pure scale-out (paper §8).

    MV2 with a deadline *below* the five-instance baseline: pure
    scale-out must rent a big fleet; the elastic optimizer meets the
    same deadline with views on a small one.
    """
    from ..optimizer.elastic import elastic_select, scale_out_only

    base_context = base_context if base_context is not None else ExperimentContext()
    problems = base_context.elastic_problems(m, [1, 2, 3, 5, 8, 12, 20])
    limit = problems[5].baseline().processing_hours * 0.8
    scenario = mv2(limit)

    table = ReportTable(
        f"Ablation — elasticity: views vs. scale-out (m={m}, "
        f"Tl={limit:.3f} h)",
        ["strategy", "instances", "T (h)", "C/run", "views"],
    )
    n, scale_out = scale_out_only(problems, scenario)
    table.add_row(
        "scale-out only",
        n,
        round(scale_out.outcome.processing_hours, 4),
        str(base_context.per_run_cost(scale_out.outcome.total_cost)),
        "-",
    )
    choice = elastic_select(problems, scenario, "greedy")
    table.add_row(
        "views + elastic fleet",
        choice.n_instances,
        round(choice.result.outcome.processing_hours, 4),
        str(base_context.per_run_cost(choice.result.outcome.total_cost)),
        ",".join(sorted(choice.selected_views)) or "-",
    )
    return table


def ablation_all(
    context: Optional[ExperimentContext] = None,
) -> List[ReportTable]:
    """Every ablation on one shared context."""
    context = context if context is not None else ExperimentContext()
    return [
        ablation_billing_granularity(context),
        ablation_tier_semantics(),
        ablation_algorithms(context),
        ablation_elasticity(context),
        ablation_tight_budget(context),
        ablation_hru_baseline(context),
        ablation_cascade(context),
        ablation_maintenance_policy(context),
        ablation_elastic_joint(context),
    ]
