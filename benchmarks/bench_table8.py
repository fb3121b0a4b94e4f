"""Bench: Table 8 — MV3 improved tradeoff rates for alpha = 0.3 / 0.7.

Shape requirement: both weights improve with views at every workload
size.  (The paper's alpha-ordering — 0.3 rates above 0.7 rates —
reflects its regime of modest view speedups; ours inverts because the
measured time gains exceed the cost gains; see the
``repro.experiments.tables`` docstring.)
"""

from __future__ import annotations

from conftest import parse_rate

from repro.experiments import table8


def test_table8(benchmark, context, save_table):
    table = benchmark(table8, context)
    save_table("table8", table)

    for column in ("rate a=0.3 (measured)", "rate a=0.7 (measured)"):
        for cell in table.column(column):
            assert parse_rate(cell) > 0
    print()
    print(table.render())
