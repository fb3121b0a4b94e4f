"""repro — Cost Models for View Materialization in the Cloud.

A from-scratch reproduction of Nguyen, D'Orazio, Bimonte & Darmont,
"Cost Models for View Materialization in the Cloud" (EDBT/ICDT DanaC
workshop, 2012): monetary cost models for cloud data management
(transfer + computing + storage), their extension to materialized
views, and the three view-selection scenarios MV1 (budget limit),
MV2 (response-time limit) and MV3 (time/cost tradeoff) solved as 0/1
knapsack problems.

Quick tour (see ``examples/quickstart.py`` for the runnable version)::

    from repro import (
        ExperimentContext, mv1, select_views,
    )

    context = ExperimentContext()          # the paper's Section 6 world
    problem = context.problem(10)          # 10-query workload
    result = select_views(problem, mv1(context.paper_budget(10)))
    print(result.describe())

Package map:

* :mod:`repro.pricing` — tiered cloud price books (the paper's Tables 2-4)
* :mod:`repro.schema` / :mod:`repro.data` — star schemas + synthetic data
* :mod:`repro.engine` — roll-up execution and the cluster timing model
* :mod:`repro.cube` — the cuboid lattice, candidates, HRU baseline
* :mod:`repro.costmodel` — Formulas 1-12
* :mod:`repro.optimizer` — MV1/MV2/MV3, knapsack/greedy/exhaustive
* :mod:`repro.experiments` — Figure 5, Tables 6-8, ablations, SSB
* :mod:`repro.simulate` — warehouse lifecycle simulation: epochs,
  drift events, incremental re-selection policies, cost ledgers;
  multi-tenant fleets with shared-cost attribution and fairness-aware
  selection; stochastic drift generators and Monte Carlo policy
  evaluation over sampled futures

``docs/ARCHITECTURE.md`` maps the packages to the paper's sections;
``docs/SIMULATE.md`` documents the lifecycle and multi-tenant layers.
"""

from .costmodel import (
    CloudCostModel,
    CostBreakdown,
    DeploymentSpec,
    MaintenancePolicy,
    PlanningEstimator,
    PlanningInputs,
    StorageTimeline,
    WorkloadPlan,
)
from .cube import (
    BuildPlan,
    CandidateView,
    CuboidLattice,
    ViewStats,
    candidates_from_workload,
    enumerate_candidates,
    hru_select,
    plan_builds,
)
from .data import Dataset, GrainTable, generate_sales, generate_ssb
from .engine import ClusterTimingModel, Executor, paper_cluster
from .errors import (
    CostModelError,
    InfeasibleProblemError,
    OptimizationError,
    PricingError,
    ReproError,
    SchemaError,
)
from .experiments import ExperimentConfig, ExperimentContext
from .money import Money, dollars
from .optimizer import (
    BudgetLimit,
    ElasticChoice,
    EvaluationStats,
    SelectionProblem,
    SelectionResult,
    TimeLimit,
    Tradeoff,
    elastic_select,
    frontier_outcomes,
    mv1,
    mv2,
    mv3,
    scale_out_only,
    select_views,
)
from .pricing import (
    BillingGranularity,
    Provider,
    TierMode,
    TierSchedule,
    aws_2012,
    aws_2012_marginal,
    flat_cloud,
)
from .schema import ALL, StarSchema, sales_schema, ssb_schema
from .simulate import (
    EventTimeline,
    LifecycleSimulator,
    MonteCarloConfig,
    PolicySpec,
    SimulationClock,
    SimulationLedger,
    WarehouseState,
    drifting_sales_simulator,
    make_policy,
    run_monte_carlo,
    stochastic_sales_simulator,
)
from .workload import AggregateQuery, DimensionFilter, Workload, paper_sales_workload

__version__ = "1.0.0"

__all__ = [
    "ALL",
    "AggregateQuery",
    "BillingGranularity",
    "BudgetLimit",
    "BuildPlan",
    "CandidateView",
    "ElasticChoice",
    "MaintenancePolicy",
    "elastic_select",
    "plan_builds",
    "scale_out_only",
    "CloudCostModel",
    "ClusterTimingModel",
    "CostBreakdown",
    "CostModelError",
    "CuboidLattice",
    "Dataset",
    "DeploymentSpec",
    "DimensionFilter",
    "EvaluationStats",
    "EventTimeline",
    "ExperimentConfig",
    "ExperimentContext",
    "Executor",
    "GrainTable",
    "InfeasibleProblemError",
    "LifecycleSimulator",
    "MonteCarloConfig",
    "Money",
    "OptimizationError",
    "PlanningEstimator",
    "PlanningInputs",
    "PricingError",
    "Provider",
    "ReproError",
    "SchemaError",
    "SelectionProblem",
    "SelectionResult",
    "PolicySpec",
    "SimulationClock",
    "SimulationLedger",
    "StarSchema",
    "StorageTimeline",
    "TierMode",
    "TierSchedule",
    "TimeLimit",
    "Tradeoff",
    "ViewStats",
    "WarehouseState",
    "Workload",
    "WorkloadPlan",
    "aws_2012",
    "aws_2012_marginal",
    "candidates_from_workload",
    "dollars",
    "drifting_sales_simulator",
    "stochastic_sales_simulator",
    "enumerate_candidates",
    "flat_cloud",
    "frontier_outcomes",
    "generate_sales",
    "generate_ssb",
    "hru_select",
    "make_policy",
    "run_monte_carlo",
    "mv1",
    "mv2",
    "mv3",
    "paper_cluster",
    "paper_sales_workload",
    "sales_schema",
    "select_views",
    "ssb_schema",
    "__version__",
]
