"""Bench: Table 6 — MV1 improved performance rates.

Prints measured IP rates beside the paper's (25/36/60%).  In the
steady-state billing regime views amortize so well they self-pay, so
measured rates sit near the physics cap rather than the paper's
budget-bound values; the tight-budget ablation bench reproduces the
paper's shape.  The ``repro.experiments.tables`` docstring explains the
gap.
"""

from __future__ import annotations

from conftest import parse_rate

from repro.experiments import table6


def test_table6(benchmark, context, save_table):
    table = benchmark(table6, context)
    save_table("table6", table)

    measured = [parse_rate(c) for c in table.column("IP rate (measured)")]
    # Views always help, substantially.
    assert all(rate > 0.25 for rate in measured)
    print()
    print(table.render())
