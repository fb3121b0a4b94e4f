"""The shared experimental setup for Section 6's figures and tables.

One :class:`ExperimentContext` reproduces the paper's experimental
world end to end:

* the 10 GB sales dataset (Section 6.1) as a scaled synthetic table,
* the 5-instance cluster priced at AWS small-instance rates,
* the 10-query roll-up workload with its m = 3/5/10 sub-workloads,
* candidate views = the workload's own grains (the classical
  query-grain generator standing in for the paper's external method),
* a steady-state billing period: the workload runs daily for a month,
  views are materialized once and refreshed daily, and monetary
  figures are reported *per workload run* so they compare directly
  with the paper's dollar axes (budgets of $0.8-$2.4).

Every knob is a constructor parameter so ablations can vary one at a
time; the defaults are the calibrated paper setup.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional, Sequence, Tuple

from ..costmodel.estimator import PlanningEstimator, PlanningInputs
from ..costmodel.params import DeploymentSpec
from ..cube.candidates import candidates_from_workload, enumerate_candidates
from ..cube.lattice import CuboidLattice
from ..data.generator import Dataset
from ..data.sales_generator import generate_sales
from ..engine.timing import ClusterTimingModel
from ..errors import ExperimentError
from ..money import Money
from ..optimizer.problem import SelectionProblem
from ..pricing.compute import BillingGranularity
from ..pricing.providers import Provider, aws_2012

__all__ = ["ExperimentConfig", "ExperimentContext", "PAPER_WORKLOAD_SIZES"]

#: The paper's three workload sizes (Section 6.2).
PAPER_WORKLOAD_SIZES: Tuple[int, ...] = (3, 5, 10)

#: The paper's per-size budget limits (Table 6) and time limits (Table 7).
PAPER_BUDGETS: Dict[int, str] = {3: "0.8", 5: "1.2", 10: "2.4"}
PAPER_TIME_LIMITS: Dict[int, float] = {3: 0.57, 5: 0.99, 10: 2.24}


@dataclass(frozen=True)
class ExperimentConfig:
    """All knobs of the Section 6 reproduction."""

    #: Physical fact rows to generate (logical size is ``dataset_gb``).
    n_rows: int = 120_000
    dataset_gb: float = 10.0
    seed: int = 42
    n_instances: int = 5
    instance_type: str = "small"
    #: Cluster physics (calibrated; see
    #: :func:`repro.engine.timing.paper_cluster`).
    scan_mb_per_s_per_cu: float = 3.6
    job_overhead_s: float = 60.0
    per_group_us: float = 25.0
    parallel_efficiency: float = 0.9
    #: Steady-state billing: daily workload runs over a month.
    runs_per_period: float = 30.0
    storage_months: float = 1.0
    maintenance_cycles: int = 30
    update_fraction_per_cycle: float = 0.01
    materialization_write_factor: float = 2.0
    view_speedup_cap: Optional[float] = None
    #: 'workload' (query grains, the paper regime) or 'lattice'.
    candidate_source: str = "workload"
    billing: BillingGranularity = BillingGranularity.PER_SECOND

    def __post_init__(self) -> None:
        if self.candidate_source not in ("workload", "lattice"):
            raise ExperimentError(
                "candidate_source must be 'workload' or 'lattice'"
            )


class ExperimentContext:
    """Reusable world: dataset + lattice + per-m selection problems."""

    def __init__(
        self,
        config: ExperimentConfig = ExperimentConfig(),
        provider: Optional[Provider] = None,
    ) -> None:
        self._config = config
        self._provider = provider if provider is not None else aws_2012(config.billing)
        self._dataset = generate_sales(
            n_rows=config.n_rows,
            seed=config.seed,
            target_gb=config.dataset_gb,
        )
        self._lattice = CuboidLattice(self._dataset.schema)
        self._deployment = DeploymentSpec(
            provider=self._provider,
            instance_type=config.instance_type,
            n_instances=config.n_instances,
            timing=ClusterTimingModel(
                scan_mb_per_s_per_cu=config.scan_mb_per_s_per_cu,
                job_overhead_s=config.job_overhead_s,
                per_group_us=config.per_group_us,
                parallel_efficiency=config.parallel_efficiency,
            ),
            storage_months=config.storage_months,
            maintenance_cycles=config.maintenance_cycles,
            update_fraction_per_cycle=config.update_fraction_per_cycle,
            runs_per_period=config.runs_per_period,
            materialization_write_factor=config.materialization_write_factor,
            view_speedup_cap=config.view_speedup_cap,
        )
        self._estimator = PlanningEstimator(self._dataset, self._deployment)
        self._problems: Dict[int, SelectionProblem] = {}

    # -- accessors ------------------------------------------------------

    @property
    def config(self) -> ExperimentConfig:
        """The knobs this context was built with."""
        return self._config

    @property
    def dataset(self) -> Dataset:
        """The generated sales dataset."""
        return self._dataset

    @property
    def lattice(self) -> CuboidLattice:
        """The sales cuboid lattice."""
        return self._lattice

    @property
    def deployment(self) -> DeploymentSpec:
        """The priced cluster the workloads run on."""
        return self._deployment

    def with_config(self, **overrides) -> "ExperimentContext":
        """A sibling context with some knobs changed (for ablations)."""
        return ExperimentContext(
            replace(self._config, **overrides), provider=None
        )

    # -- problems ---------------------------------------------------------

    def workload(self, m: int):
        """The m-query paper workload."""
        from ..workload.workload import paper_sales_workload

        return paper_sales_workload(self._dataset.schema, m)

    def inputs(self, m: int) -> PlanningInputs:
        """Planning inputs for the m-query workload."""
        return self.problem(m).inputs

    def problem(self, m: int) -> SelectionProblem:
        """The (cached) selection problem for the m-query workload."""
        if m not in self._problems:
            workload = self.workload(m)
            if self._config.candidate_source == "workload":
                candidates = candidates_from_workload(self._lattice, workload)
            else:
                candidates = enumerate_candidates(self._lattice, workload)
            inputs = self._estimator.build(workload, candidates)
            self._problems[m] = SelectionProblem(inputs)
        return self._problems[m]

    def elastic_problems(
        self, m: int, instance_counts: Sequence[int]
    ) -> Dict[int, SelectionProblem]:
        """One selection problem per candidate fleet size.

        Feed the result to :func:`repro.optimizer.elastic_select` to
        choose views and fleet size jointly (the paper's §8 "variable
        resources" extension).
        """
        problems: Dict[int, SelectionProblem] = {}
        for n in instance_counts:
            sibling = self.with_config(n_instances=n)
            problems[n] = sibling.problem(m)
        return problems

    # -- the paper's per-m scenario parameters ---------------------------

    def paper_budget(self, m: int) -> Money:
        """Table 6's budget limit for the m-query workload (per run)."""
        try:
            per_run = PAPER_BUDGETS[m]
        except KeyError:
            raise ExperimentError(
                f"the paper defines budgets for m in {sorted(PAPER_BUDGETS)}"
            ) from None
        # Scenario constraints compare against the *period* bill; the
        # paper's dollar figures are per workload run.
        return Money(per_run) * self._config.runs_per_period

    def paper_time_limit(self, m: int) -> float:
        """Table 7's response-time limit for the m-query workload."""
        try:
            return PAPER_TIME_LIMITS[m]
        except KeyError:
            raise ExperimentError(
                f"the paper defines time limits for m in {sorted(PAPER_TIME_LIMITS)}"
            ) from None

    def per_run_cost(self, period_cost: Money) -> Money:
        """Amortize a period bill to one workload run (report scale)."""
        return period_cost / self._config.runs_per_period
