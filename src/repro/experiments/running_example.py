"""The paper's worked examples (Sections 1-4), recomputed.

Every numbered example in the paper is recomputed with the library's
pricing and cost-model objects and compared against the value the paper
prints.  Two of the paper's printed values do not follow from its own
formulas; those rows carry a note instead of a silent pass.
"""

from __future__ import annotations

from ..costmodel.computing import computing_cost, view_computing_cost
from ..costmodel.params import StorageTimeline
from ..costmodel.storage import storage_cost, storage_cost_with_views
from ..costmodel.transfer import transfer_cost
from ..money import dollars
from ..pricing.compute import BillingGranularity, ComputePricing, InstanceType
from ..pricing.providers import aws_2012
from ..pricing.storage import StoragePricing
from ..pricing.tiers import TierSchedule
from .reporting import ReportTable

__all__ = ["running_example_table", "intro_example_table"]


def running_example_table() -> ReportTable:
    """Examples 1-9 of Sections 3-4, paper value vs. computed value."""
    provider = aws_2012()
    table = ReportTable(
        "Running example (Sections 2-4): paper vs. computed",
        ["example", "quantity", "paper", "computed", "note"],
    )

    # Example 1: 10 GB of query results, first GB free.
    ct = transfer_cost(provider.transfer, [10.0])
    table.add_row("Ex.1", "transfer cost, 10 GB out", "$1.08", str(ct), "")

    # Example 2: 50 h on two small instances, round-up billing.
    cc = computing_cost(provider.compute, "small", 50.0, 2)
    table.add_row("Ex.2", "computing cost, 50 h x 2 small", "$12.00", str(cc), "")

    # Example 3: 512 GB for 12 months, 2 048 GB inserted at month 7.
    timeline = StorageTimeline(512, 12, [(7, 2048)])
    cs = storage_cost(provider.storage, timeline)
    table.add_row(
        "Ex.3",
        "storage cost, 2 intervals",
        "$2131.76",
        str(cs),
        "paper's own formula gives $2101.76 (512x0.14x7 + 2560x0.125x5)",
    )

    # Example 4: materializing V1 takes 1 h on two small instances.
    breakdown = view_computing_cost(
        provider.compute, "small", 2, query_hours=[], materialization_hours=[1.0]
    )
    table.add_row(
        "Ex.4",
        "materialization cost, 1 h",
        "$0.24",
        str(breakdown.materialization_cost),
        "",
    )

    # Examples 5-6: processing with views takes 40 h -> $9.6.
    breakdown = view_computing_cost(
        provider.compute, "small", 2, query_hours=[40.0]
    )
    table.add_row(
        "Ex.5-6",
        "processing cost with views, 40 h",
        "$9.60",
        str(breakdown.processing_cost),
        "",
    )

    # Examples 7-8: maintenance 5 h -> $1.2.
    breakdown = view_computing_cost(
        provider.compute, "small", 2, query_hours=[], maintenance_hours=[5.0]
    )
    table.add_row(
        "Ex.7-8",
        "maintenance cost, 5 h",
        "$1.20",
        str(breakdown.maintenance_cost),
        "",
    )

    # Example 9: 500 GB + 50 GB of views, 12 months, single interval.
    base = StorageTimeline(500, 12)
    cs9 = storage_cost_with_views(provider.storage, base, 50.0)
    table.add_row(
        "Ex.9", "storage with views, 550 GB x 12 mo", "$924.00", str(cs9), ""
    )

    return table


def intro_example_table() -> ReportTable:
    """Section 1's motivating example, with its own flat price sheet.

    The introduction uses $0.10/GB-month storage and $0.24/h computing:
    a 500 GB dataset and a 50 h monthly workload cost $62; views cut the
    workload to 40 h but add 50 GB, landing at $64.60 — "performance
    has improved by 20%, but cost has also increased by 4%".
    """
    storage = StoragePricing(TierSchedule.flat(dollars("0.10")))
    compute = ComputePricing(
        [InstanceType("node", dollars("0.24"), 1.0, 4.0, 100)],
        BillingGranularity.PER_HOUR,
    )

    without_c = storage.cost(500, 1) + compute.cost("node", 50, 1)
    with_c = storage.cost(550, 1) + compute.cost("node", 40, 1)

    table = ReportTable(
        "Intro example (Section 1): paper vs. computed",
        ["configuration", "paper", "computed", "note"],
    )
    table.add_row("without views (500 GB, 50 h)", "$62.00", str(without_c), "")
    table.add_row("with views (550 GB, 40 h)", "$64.60", str(with_c), "")
    perf_gain = (50 - 40) / 50
    cost_growth = (with_c - without_c).ratio_to(without_c)
    table.add_row(
        "performance improvement", "20%", f"{perf_gain:.0%}", ""
    )
    table.add_row("cost increase", "4%", f"{cost_growth:.1%}", "")
    return table
