"""Compute-instance pricing (the paper's Table 2, EC2-like).

The paper charges computing per instance-hour, with "every started hour
... charged" (Example 2's ``RoundUp``).  Real providers later moved to
per-minute and per-second billing; the granularity is modelled
explicitly because the experiments include an ablation on it — hourly
round-up makes small workloads look artificially expensive and changes
which views are worth materializing.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from decimal import Decimal
from operator import attrgetter
from typing import Mapping, Optional, Tuple, Union

from ..errors import PricingError
from ..money import MONEY_CONTEXT, Money, ZERO, to_decimal

__all__ = [
    "InstanceType",
    "BillingGranularity",
    "ComputePricing",
    "instance_bill",
]


@dataclass(frozen=True)
class InstanceType:
    """One rentable instance configuration.

    ``compute_units`` is the relative CPU power (EC2 Compute Units in
    the 2012 AWS catalogue); the engine's timing model scales scan
    throughput by it, which is how "scale-up" enters the
    scalability-vs-views tradeoff the paper's introduction poses.
    """

    name: str
    hourly_rate: Money
    compute_units: float
    memory_gb: float
    local_storage_gb: float

    def __post_init__(self) -> None:
        if self.hourly_rate < ZERO:
            raise PricingError(
                f"instance {self.name!r}: hourly rate cannot be negative"
            )
        if self.compute_units <= 0:
            raise PricingError(
                f"instance {self.name!r}: compute units must be positive"
            )
        if self.memory_gb <= 0 or self.local_storage_gb < 0:
            raise PricingError(
                f"instance {self.name!r}: invalid memory/storage sizes"
            )


class BillingGranularity(enum.Enum):
    """How partial usage is rounded before billing."""

    #: Every started hour is charged (the paper's Example 2).
    PER_HOUR = "per-hour"
    #: Every started minute is charged.
    PER_MINUTE = "per-minute"
    #: Usage billed exactly (the limit of per-second billing).
    PER_SECOND = "per-second"

    def billable_hours(self, hours: float) -> float:
        """Round ``hours`` of usage up to this granularity."""
        if hours < 0:
            raise PricingError(f"usage cannot be negative: {hours}")
        if hours == 0:
            return 0.0
        if self is BillingGranularity.PER_HOUR:
            return float(math.ceil(hours))
        if self is BillingGranularity.PER_MINUTE:
            return math.ceil(hours * 60.0) / 60.0
        return hours


def instance_bill(
    hourly_rate: Decimal, billable_hours: float, n_instances: Union[int, Decimal]
) -> Decimal:
    """Formulas 4, 8, 10 and 12 on raw Decimals: c(IC) x hours x nbIC.

    ``billable_hours`` comes from :meth:`BillingGranularity.billable_hours`.
    Multiplied in this order, rate by hours first, through
    ``MONEY_CONTEXT``; a caller billing many durations on one fleet may
    pass ``n_instances`` already converted by ``to_decimal``.
    :meth:`ComputePricing.cost` and the evaluation kernel both bill
    through this rule.
    """
    multiply = MONEY_CONTEXT.multiply
    return multiply(
        multiply(hourly_rate, to_decimal(billable_hours)), to_decimal(n_instances)
    )


@dataclass(frozen=True)
class ComputePricing:
    """A provider's compute price list plus billing rules.

    The instance types may be listed in any order: they are kept in
    name order, so price lists with the same types and granularity are
    equal.

    Examples
    --------
    The paper's Example 2 — 50 hours on two small instances:

    >>> from repro.pricing.providers import aws_2012
    >>> pricing = aws_2012().compute
    >>> pricing.cost("small", hours=50, n_instances=2)
    Money('12.000')
    """

    #: The rentable instance types, in name order.
    types: Tuple[InstanceType, ...]
    #: The rounding rule applied to usage durations.
    granularity: BillingGranularity = BillingGranularity.PER_HOUR

    def __post_init__(self) -> None:
        types = tuple(sorted(self.types, key=attrgetter("name")))
        if not types:
            raise PricingError("a compute price list needs at least one type")
        for before, after in zip(types, types[1:]):
            if before.name == after.name:
                raise PricingError(f"duplicate instance type {after.name!r}")
        object.__setattr__(self, "types", types)

    @property
    def instance_types(self) -> Mapping[str, InstanceType]:
        """All known instance types, by name."""
        return {itype.name: itype for itype in self.types}

    def instance(self, name: str) -> InstanceType:
        """Look up an instance type, raising ``PricingError`` if unknown."""
        for itype in self.types:
            if itype.name == name:
                return itype
        known = ", ".join(itype.name for itype in self.types)
        raise PricingError(
            f"unknown instance type {name!r}; known types: {known}"
        )

    def billable_hours(self, hours: float) -> float:
        """Usage duration after granularity round-up."""
        return self.granularity.billable_hours(hours)

    def cost(
        self,
        instance: str,
        hours: float,
        n_instances: int = 1,
        granularity: Optional[BillingGranularity] = None,
    ) -> Money:
        """Cost of running ``n_instances`` of ``instance`` for ``hours``.

        Each instance's usage is rounded up independently, matching
        how per-instance metering works: Formula 4's
        ``t_ij x c(IC_j)`` with the paper's ``RoundUp`` applied per
        instance.  Billed by :func:`instance_bill`.
        """
        if n_instances < 0:
            raise PricingError(f"instance count cannot be negative: {n_instances}")
        itype = self.instance(instance)
        rounding = granularity if granularity is not None else self.granularity
        return Money(
            instance_bill(
                itype.hourly_rate.amount, rounding.billable_hours(hours), n_instances
            )
        )
