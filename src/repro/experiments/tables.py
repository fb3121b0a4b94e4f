"""Tables 6, 7 and 8: the paper's improvement-rate tables.

Each table derives from the corresponding Figure 5 panel and prints the
measured rate next to the value the paper reports, so a reader can see
the reproduction band at a glance.  The measured rates sit above the
paper's because the Hadoop-calibrated physics reward views more than
the paper's illustrative numbers do.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..optimizer.scenarios import Tradeoff, mv1, mv2
from ..optimizer.selector import select_views
from .context import PAPER_WORKLOAD_SIZES, ExperimentContext
from .reporting import ReportTable, format_rate

__all__ = ["table6", "table7", "table8", "PAPER_RATES"]

#: The rates the paper prints, for side-by-side comparison.
PAPER_RATES: Dict[str, Dict[int, float]] = {
    "table6": {3: 0.25, 5: 0.36, 10: 0.60},
    "table7": {3: 0.75, 5: 0.72, 10: 0.75},
    "table8_alpha03": {3: 0.55, 5: 0.50, 10: 0.68},
    "table8_alpha07": {3: 0.32, 5: 0.35, 10: 0.45},
}


def table6(
    context: Optional[ExperimentContext] = None,
    algorithm: str = "knapsack",
) -> ReportTable:
    """Table 6: MV1 improved-performance (IP) rates per budget."""
    context = context if context is not None else ExperimentContext()
    table = ReportTable(
        "Table 6 — MV1 improved performance rates",
        ["queries", "budget/run", "IP rate (measured)", "IP rate (paper)"],
    )
    for m in PAPER_WORKLOAD_SIZES:
        result = select_views(
            context.problem(m), mv1(context.paper_budget(m)), algorithm
        )
        table.add_row(
            m,
            str(context.per_run_cost(context.paper_budget(m))),
            format_rate(result.time_improvement),
            format_rate(PAPER_RATES["table6"][m]),
        )
    return table


def table7(
    context: Optional[ExperimentContext] = None,
    algorithm: str = "knapsack",
) -> ReportTable:
    """Table 7: MV2 improved-cost (IC) rates per time limit."""
    context = context if context is not None else ExperimentContext()
    table = ReportTable(
        "Table 7 — MV2 improved cost rates",
        ["queries", "time limit (h)", "IC rate (measured)", "IC rate (paper)"],
    )
    for m in PAPER_WORKLOAD_SIZES:
        result = select_views(
            context.problem(m), mv2(context.paper_time_limit(m)), algorithm
        )
        table.add_row(
            m,
            context.paper_time_limit(m),
            format_rate(result.cost_improvement),
            format_rate(PAPER_RATES["table7"][m]),
        )
    return table


def table8(
    context: Optional[ExperimentContext] = None,
    algorithm: str = "knapsack",
) -> ReportTable:
    """Table 8: MV3 improved-tradeoff rates for alpha = 0.3 and 0.7."""
    context = context if context is not None else ExperimentContext()
    cost_scale = 1.0 / context.deployment.runs_per_period
    table = ReportTable(
        "Table 8 — MV3 improved tradeoff rates",
        [
            "queries",
            "rate a=0.3 (measured)",
            "rate a=0.3 (paper)",
            "rate a=0.7 (measured)",
            "rate a=0.7 (paper)",
        ],
    )
    for m in PAPER_WORKLOAD_SIZES:
        rates = {}
        for alpha in (0.3, 0.7):
            scenario = Tradeoff(alpha=alpha, cost_scale=cost_scale)
            result = select_views(context.problem(m), scenario, algorithm)
            rates[alpha] = result.objective_improvement()
        table.add_row(
            m,
            format_rate(rates[0.3]),
            format_rate(PAPER_RATES["table8_alpha03"][m]),
            format_rate(rates[0.7]),
            format_rate(PAPER_RATES["table8_alpha07"][m]),
        )
    return table
