"""Data transfer cost — the paper's Section 3.1 (Formulas 2 and 3).

Formula 2 is the general form: everything crossing the cloud boundary
is billed at the provider's transfer rates — query texts and the
initial dataset inbound, query results outbound:

    Ct = (sum_i (s(Ri) + s(Qi)) + s(DS) + s(insertedData)) x ct

Formula 3 is its collapse under AWS-style pricing, where all inbound
transfer is free:

    Ct = sum_i s(Ri) x ct

Both are implemented against tiered schedules rather than a single
atomic ``ct``: result volumes are pooled for the billing period (that
is how egress metering works, and it is what the paper's Example 1
does with its single 10 GB result).

Section 4.1: materialized views are created *inside* the cloud, so
using views changes nothing here — asserted by a test rather than
assumed.
"""

from __future__ import annotations

from typing import Iterable

from ..errors import CostModelError
from ..money import Money
from ..pricing.transfer import TransferPricing

__all__ = ["transfer_cost", "transfer_cost_general"]


def _total(volumes_gb: Iterable[float], what: str) -> float:
    total = 0.0
    for volume in volumes_gb:
        if volume < 0:
            raise CostModelError(f"{what} volume cannot be negative: {volume}")
        total += volume
    return total


def transfer_cost(
    pricing: TransferPricing,
    result_sizes_gb: Iterable[float],
) -> Money:
    """Formula 3: outbound cost of the workload's pooled query results.

    >>> from repro.pricing import aws_2012
    >>> transfer_cost(aws_2012().transfer, [10.0])   # the paper's Example 1
    Money('1.080')
    """
    total_out = _total(result_sizes_gb, "result")
    return pricing.outbound_cost(total_out)


def transfer_cost_general(
    pricing: TransferPricing,
    result_sizes_gb: Iterable[float],
    query_sizes_gb: Iterable[float] = (),
    dataset_gb: float = 0.0,
    inserted_gb: float = 0.0,
) -> Money:
    """Formula 2: the general two-direction transfer bill.

    Under a provider with free ingress this equals :func:`transfer_cost`
    for any query/dataset/insert volumes — the collapse the paper
    performs in Section 3.1, verified by a property test.
    """
    if dataset_gb < 0 or inserted_gb < 0:
        raise CostModelError("dataset/inserted volumes cannot be negative")
    total_out = _total(result_sizes_gb, "result")
    total_in = _total(query_sizes_gb, "query") + dataset_gb + inserted_gb
    return pricing.outbound_cost(total_out) + pricing.inbound_cost(total_in)
