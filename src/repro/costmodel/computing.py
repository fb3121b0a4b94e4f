"""Computing cost — the paper's Sections 3.2 and 4.2 (Formulas 4, 6-12).

Without views, Formula 4 bills workload processing time on the rented
instances (hours rounded up per the provider's billing granularity —
"every started hour is charged").

With views, Formula 6 splits computing cost three ways::

    Cc = CprocessingQ + CmaintenanceV + CmaterializationV

with each term a duration x instance-rate x instance-count product
(Formulas 8, 10, 12).  Durations are summed per activity and rounded
once per activity per instance, matching the paper's Example 2 which
rounds the *total* 50 h, not each query.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from ..errors import CostModelError
from ..money import MONEY_CONTEXT, Money, ZERO
from ..pricing.compute import ComputePricing

__all__ = ["ComputingBreakdown", "computing_cost", "view_computing_cost"]


def _total_hours(durations: Iterable[float], what: str) -> float:
    total = 0.0
    for hours in durations:
        if hours < 0:
            raise CostModelError(f"{what} time cannot be negative: {hours}")
        total += hours
    return total


def computing_cost(
    pricing: ComputePricing,
    instance_type: str,
    processing_hours: float,
    n_instances: int,
) -> Money:
    """Formula 4: the plain (no views) computing bill.

    >>> from repro.pricing import aws_2012
    >>> computing_cost(aws_2012().compute, "small", 50.0, 2)  # Example 2
    Money('12.000')
    """
    if processing_hours < 0:
        raise CostModelError("processing time cannot be negative")
    return pricing.cost(instance_type, processing_hours, n_instances)


@dataclass(frozen=True)
class ComputingBreakdown:
    """Formula 6's three terms, with their input durations.

    ``total`` is Formula 6, Cc = CprocessingQ + CmaintenanceV +
    CmaterializationV: a plain attribute summed once at construction
    (``dataclasses.replace`` sums it again), not a field, so
    ``fields()``, ``repr`` and ``==`` see the six inputs only.
    """

    processing_hours: float
    materialization_hours: float
    maintenance_hours: float
    processing_cost: Money
    materialization_cost: Money
    maintenance_cost: Money

    def __post_init__(self) -> None:
        add = MONEY_CONTEXT.add
        total = add(
            add(self.processing_cost.amount, self.maintenance_cost.amount),
            self.materialization_cost.amount,
        )
        object.__setattr__(self, "total", Money(total))

    @property
    def total_hours(self) -> float:
        """All computing hours across the three activities."""
        return (
            self.processing_hours
            + self.materialization_hours
            + self.maintenance_hours
        )


def view_computing_cost(
    pricing: ComputePricing,
    instance_type: str,
    n_instances: int,
    query_hours: Iterable[float],
    materialization_hours: Iterable[float] = (),
    maintenance_hours: Iterable[float] = (),
) -> ComputingBreakdown:
    """Formulas 6-12: the with-views computing bill.

    Parameters
    ----------
    query_hours:
        ``t_iV`` per query — processing times *exploiting* the selected
        views (Formula 9 sums them).
    materialization_hours:
        ``t_materialization(V_k)`` per selected view (Formula 7 sums).
    maintenance_hours:
        Total maintenance time per selected view over the billing
        period (Formula 11 sums).

    >>> from repro.pricing import aws_2012
    >>> breakdown = view_computing_cost(
    ...     aws_2012().compute, "small", 2,
    ...     query_hours=[40.0],              # Example 6
    ...     materialization_hours=[1.0],     # Example 4
    ...     maintenance_hours=[5.0],         # Example 8
    ... )
    >>> breakdown.processing_cost, breakdown.materialization_cost
    (Money('9.600'), Money('0.240'))
    >>> breakdown.maintenance_cost, breakdown.total
    (Money('1.200'), Money('11.040'))
    """
    t_processing = _total_hours(query_hours, "query processing")
    t_materialization = _total_hours(materialization_hours, "materialization")
    t_maintenance = _total_hours(maintenance_hours, "maintenance")

    def bill(hours: float) -> Money:
        if hours == 0:
            return ZERO
        return pricing.cost(instance_type, hours, n_instances)

    return ComputingBreakdown(
        processing_hours=t_processing,
        materialization_hours=t_materialization,
        maintenance_hours=t_maintenance,
        processing_cost=bill(t_processing),
        materialization_cost=bill(t_materialization),
        maintenance_cost=bill(t_maintenance),
    )
