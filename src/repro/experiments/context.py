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

:class:`ExperimentConfig` holds the dataset's settings; the cluster
and billing period are one :class:`~repro.costmodel.params.DeploymentSpec`,
by default :func:`~repro.costmodel.params.sales_deployment`.  An
ablation varies the deployment through :meth:`ExperimentContext.
with_deployment`, which keeps the dataset and changes only the
deployment fields it names.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional, Sequence, Tuple

from ..costmodel.estimator import PlanningEstimator, PlanningInputs
from ..costmodel.params import DeploymentSpec, sales_deployment
from ..cube.candidates import candidates_from_workload
from ..cube.lattice import CuboidLattice
from ..data.generator import Dataset
from ..data.sales_generator import sales_dataset
from ..errors import ExperimentError
from ..money import Money
from ..optimizer.problem import SelectionProblem

__all__ = ["ExperimentConfig", "ExperimentContext", "PAPER_WORKLOAD_SIZES"]

#: The paper's three workload sizes (Section 6.2).
PAPER_WORKLOAD_SIZES: Tuple[int, ...] = (3, 5, 10)

#: The paper's per-size budget limits (Table 6) and time limits (Table 7).
PAPER_BUDGETS: Dict[int, str] = {3: "0.8", 5: "1.2", 10: "2.4"}
PAPER_TIME_LIMITS: Dict[int, float] = {3: 0.57, 5: 0.99, 10: 2.24}


@dataclass(frozen=True)
class ExperimentConfig:
    """The sales dataset the Section 6 reproduction runs on."""

    #: Physical fact rows to generate (logical size is ``dataset_gb``).
    n_rows: int = 120_000
    dataset_gb: float = 10.0
    seed: int = 42


class ExperimentContext:
    """Reusable world: dataset + lattice + per-m selection problems."""

    def __init__(
        self,
        config: ExperimentConfig = ExperimentConfig(),
        deployment: Optional[DeploymentSpec] = None,
    ) -> None:
        self._config = config
        self._deployment = (
            deployment if deployment is not None else sales_deployment()
        )
        self._dataset = sales_dataset(config.n_rows, config.seed, config.dataset_gb)
        self._lattice = CuboidLattice(self._dataset.schema)
        self._estimator = PlanningEstimator(self._dataset, self._deployment)
        self._problems: Dict[int, SelectionProblem] = {}

    # -- accessors ------------------------------------------------------

    @property
    def config(self) -> ExperimentConfig:
        """The dataset settings this context was built with."""
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

    def with_deployment(self, **overrides) -> "ExperimentContext":
        """A sibling context on the same dataset, some deployment fields
        changed (for ablations)."""
        return ExperimentContext(
            self._config, replace(self._deployment, **overrides)
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
            candidates = candidates_from_workload(self._lattice, workload)
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
            sibling = self.with_deployment(n_instances=n)
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
        return Money(per_run) * self._deployment.runs_per_period

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
        return period_cost / self._deployment.runs_per_period
