"""Figure 5 and Tables 6-8: the qualitative shapes the paper claims.

The paper's headline conclusion is that "cloud view materialization is
always desirable"; these tests pin that shape (views win every
comparison) plus the structural relations between the panels, without
over-fitting the exact percentages (``repro.experiments.tables`` prints
each measured rate beside the paper's and says why they differ).
"""

from __future__ import annotations

import pytest

from repro.experiments import (
    PAPER_WORKLOAD_SIZES,
    ablation_tight_budget,
    figure5a,
    figure5b,
    figure5c,
    figure5d,
    table6,
    table7,
    table8,
)


def parse_rate(cell: str) -> float:
    assert cell.endswith("%")
    return float(cell[:-1]) / 100.0


@pytest.fixture(scope="module")
def fig_a(experiment_context):
    return figure5a(experiment_context)


@pytest.fixture(scope="module")
def fig_b(experiment_context):
    return figure5b(experiment_context)


class TestFigure5a:
    def test_views_always_faster(self, fig_a):
        for without, with_mv in zip(
            fig_a.column("T without (h)"), fig_a.column("T with MV (h)")
        ):
            assert with_mv < without

    def test_workload_time_grows_with_m(self, fig_a):
        times = fig_a.column("T without (h)")
        assert times == sorted(times)

    def test_rates_positive(self, fig_a):
        for cell in fig_a.column("IP rate"):
            assert parse_rate(cell) > 0

    def test_some_views_selected(self, fig_a):
        for views in fig_a.column("views"):
            assert views != "-"

    def test_baseline_times_near_paper_limits(self, fig_a):
        # The paper's MV2 limits (0.57/0.99/2.24 h) are its baseline
        # processing times; ours must land in the same regime.
        paper = {3: 0.57, 5: 0.99, 10: 2.24}
        for m, measured in zip(fig_a.column("queries"), fig_a.column("T without (h)")):
            assert measured == pytest.approx(paper[m], rel=0.25)


class TestFigure5b:
    def test_views_always_cheaper_under_time_limit(self, fig_b):
        for without, with_mv in zip(
            fig_b.column("C/run without"), fig_b.column("C/run with MV")
        ):
            assert float(with_mv.lstrip("$")) < float(without.lstrip("$"))

    def test_ic_rates_in_paper_band(self, fig_b):
        # Paper: 75/72/75.  Accept the 55-85% band (same regime).
        for cell in fig_b.column("IC rate"):
            assert 0.55 <= parse_rate(cell) <= 0.85


class TestFigure5cd:
    def test_tradeoff_rates_positive_both_alphas(self, experiment_context):
        for table in (figure5c(experiment_context), figure5d(experiment_context)):
            for cell in table.column("tradeoff rate"):
                assert parse_rate(cell) > 0

    def test_objective_always_improves(self, experiment_context):
        table = figure5c(experiment_context)
        for without, with_mv in zip(
            table.column("objective without"), table.column("objective with MV")
        ):
            assert with_mv < without


class TestTables:
    def test_table6_columns_align_with_paper(self, experiment_context):
        table = table6(experiment_context)
        assert table.column("queries") == list(PAPER_WORKLOAD_SIZES)
        assert [parse_rate(c) for c in table.column("IP rate (paper)")] == [
            0.25,
            0.36,
            0.60,
        ]

    def test_table7_measured_rates_positive(self, experiment_context):
        table = table7(experiment_context)
        for cell in table.column("IC rate (measured)"):
            assert parse_rate(cell) > 0.5

    def test_table8_both_alphas_positive(self, experiment_context):
        table = table8(experiment_context)
        for column in ("rate a=0.3 (measured)", "rate a=0.7 (measured)"):
            for cell in table.column(column):
                assert parse_rate(cell) > 0


class TestTightBudgetRegime:
    def test_rates_grow_from_m3_and_stay_in_paper_band(self, experiment_context):
        table = ablation_tight_budget(experiment_context)
        rates = [parse_rate(c) for c in table.column("IP rate (measured)")]
        # The paper's band is 25-60%; the regime shows the budget
        # binding at m=3 (smallest rate first).
        assert all(0.2 <= rate <= 0.7 for rate in rates)
        assert rates[0] == min(rates)
