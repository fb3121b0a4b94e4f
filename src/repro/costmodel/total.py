"""Total cost — the paper's Formula 1, with and without views.

    C = Cc + Cs + Ct

:class:`WorkloadPlan` gathers every input of Sections 3-4 for one
configuration (one chosen set of views; the empty set is the
"without views" baseline of Section 3).  :class:`CloudCostModel`
prices a plan against a deployment, returning a full
:class:`CostBreakdown`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..errors import CostModelError
from ..money import MONEY_CONTEXT, Money
from .computing import ComputingBreakdown, view_computing_cost
from .params import DeploymentSpec, StorageTimeline
from .storage import storage_cost_with_views
from .transfer import transfer_cost

__all__ = ["WorkloadPlan", "CostBreakdown", "CloudCostModel"]


@dataclass(frozen=True)
class WorkloadPlan:
    """Everything Formula 1 needs for one configuration.

    ``query_hours[i]`` is the paper's ``t_i`` (no views) or ``t_iV``
    (with the chosen views) for query *i*, already multiplied by the
    query's frequency.  Materialization/maintenance tuples have one
    entry per *selected* view; the baseline plan has empty tuples.
    """

    query_hours: Tuple[float, ...]
    result_sizes_gb: Tuple[float, ...]
    base_timeline: StorageTimeline
    materialization_hours: Tuple[float, ...] = ()
    maintenance_hours: Tuple[float, ...] = ()
    views_total_gb: float = 0.0
    #: How many times the workload runs in the billing period.  The
    #: bill multiplies processing and transfer by this; the time
    #: objective (one run's response time) does not.
    runs_per_period: float = 1.0

    def __post_init__(self) -> None:
        if len(self.query_hours) != len(self.result_sizes_gb):
            raise CostModelError(
                "query_hours and result_sizes_gb must align per query"
            )
        if self.views_total_gb < 0:
            raise CostModelError("view storage cannot be negative")
        if self.runs_per_period <= 0:
            raise CostModelError("runs_per_period must be positive")

    @property
    def processing_hours(self) -> float:
        """Formula 9: T_processingQ for one run — the time objective."""
        return sum(self.query_hours)

    @property
    def billed_query_hours(self) -> Tuple[float, ...]:
        """Per-query hours across all runs of the period (the bill's view)."""
        return tuple(h * self.runs_per_period for h in self.query_hours)

    @property
    def billed_result_sizes_gb(self) -> Tuple[float, ...]:
        """Per-query egress across all runs of the period."""
        return tuple(s * self.runs_per_period for s in self.result_sizes_gb)


@dataclass(frozen=True)
class CostBreakdown:
    """Formula 1's three terms, with computing further split (Formula 6).

    ``total`` is C = Cc + Cs + Ct: a plain attribute summed once at
    construction, like :class:`ComputingBreakdown`'s, and likewise not
    a field.
    """

    computing: ComputingBreakdown
    storage: Money
    transfer: Money
    processing_hours: float

    def __post_init__(self) -> None:
        add = MONEY_CONTEXT.add
        total = add(
            add(self.computing.total.amount, self.storage.amount),
            self.transfer.amount,
        )
        object.__setattr__(self, "total", Money(total))

    def summary(self) -> str:
        """One-line display used by reports and examples."""
        return (
            f"C={self.total} (Cc={self.computing.total}, "
            f"Cs={self.storage}, Ct={self.transfer}); "
            f"T={self.processing_hours:.3f}h"
        )


class CloudCostModel:
    """Prices workload plans under one deployment.

    This is the paper's contribution packaged as an object: give it the
    deployment (provider prices, instance fleet, billing conventions)
    once, then price any plan — the without-views baseline, any
    candidate view subset, or hypotheticals.
    """

    def __init__(self, deployment: DeploymentSpec) -> None:
        self._deployment = deployment

    @property
    def deployment(self) -> DeploymentSpec:
        """The deployment plans are priced under."""
        return self._deployment

    def evaluate(self, plan: WorkloadPlan) -> CostBreakdown:
        """Formula 1 on ``plan``: computing + storage + transfer."""
        dep = self._deployment
        computing = view_computing_cost(
            dep.provider.compute,
            dep.instance_type,
            dep.n_instances,
            query_hours=plan.billed_query_hours,
            materialization_hours=plan.materialization_hours,
            maintenance_hours=plan.maintenance_hours,
        )
        storage = storage_cost_with_views(
            dep.provider.storage, plan.base_timeline, plan.views_total_gb
        )
        transfer = transfer_cost(
            dep.provider.transfer, plan.billed_result_sizes_gb
        )
        return CostBreakdown(
            computing=computing,
            storage=storage,
            transfer=transfer,
            processing_hours=plan.processing_hours,
        )
