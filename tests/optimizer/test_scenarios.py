"""Scenario definitions: feasibility, keys, violations, MV3 objective."""

from __future__ import annotations

import pickle

import pytest

from repro.costmodel.computing import view_computing_cost
from repro.costmodel.total import CostBreakdown
from repro.errors import OptimizationError
from repro.money import Money
from repro.optimizer import Tradeoff, mv1, mv2, mv3
from repro.optimizer.problem import SelectionOutcome
from repro.pricing import aws_2012


def make_outcome(hours: float, dollars: str) -> SelectionOutcome:
    """A synthetic outcome with the given time and total cost."""
    compute = aws_2012().compute
    breakdown = CostBreakdown(
        computing=view_computing_cost(compute, "small", 1, query_hours=[]),
        storage=Money(dollars),
        transfer=Money(0),
        processing_hours=hours,
    )
    return SelectionOutcome(subset=frozenset(), breakdown=breakdown)


def test_total_dollars_is_not_a_field():
    outcome, twin = make_outcome(1.0, "2.50"), make_outcome(1.0, "2.50")
    assert outcome.total_dollars == outcome.total_cost.to_float() == 2.5
    assert outcome == twin and hash(outcome) == hash(twin)
    assert repr(outcome) == repr(twin)
    assert pickle.loads(pickle.dumps(outcome)) == twin


class TestBudgetLimit:
    def test_feasibility(self):
        scenario = mv1(Money("2.00"))
        assert scenario.feasible(make_outcome(1.0, "1.99"))
        assert scenario.feasible(make_outcome(1.0, "2.00"))
        assert not scenario.feasible(make_outcome(1.0, "2.01"))

    def test_key_minimizes_time_then_cost(self):
        scenario = mv1(Money(10))
        fast_dear = make_outcome(1.0, "5.00")
        slow_cheap = make_outcome(2.0, "1.00")
        assert scenario.key(fast_dear) < scenario.key(slow_cheap)

    def test_violation(self):
        scenario = mv1(Money("2.00"))
        assert scenario.violation(make_outcome(1.0, "1.50")) == 0.0
        assert scenario.violation(make_outcome(1.0, "2.50")) == pytest.approx(0.5)

    def test_negative_budget_rejected(self):
        with pytest.raises(OptimizationError):
            mv1(Money(-1))


class TestTimeLimit:
    def test_feasibility(self):
        scenario = mv2(1.0)
        assert scenario.feasible(make_outcome(0.99, "5"))
        assert scenario.feasible(make_outcome(1.0, "5"))
        assert not scenario.feasible(make_outcome(1.01, "5"))

    def test_key_minimizes_cost_then_time(self):
        scenario = mv2(10.0)
        cheap_slow = make_outcome(5.0, "1.00")
        dear_fast = make_outcome(1.0, "5.00")
        assert scenario.key(cheap_slow) < scenario.key(dear_fast)

    def test_violation(self):
        scenario = mv2(1.0)
        assert scenario.violation(make_outcome(0.5, "1")) == 0.0
        assert scenario.violation(make_outcome(1.5, "1")) == pytest.approx(0.5)

    def test_negative_limit_rejected(self):
        with pytest.raises(OptimizationError):
            mv2(-1.0)


class TestTradeoff:
    def test_objective_mixes_hours_and_dollars(self):
        scenario = mv3(0.3)
        outcome = make_outcome(2.0, "4.00")
        assert scenario.objective(outcome) == pytest.approx(0.3 * 2 + 0.7 * 4)

    def test_alpha_one_is_pure_time(self):
        scenario = mv3(1.0)
        assert scenario.objective(make_outcome(2.0, "100")) == pytest.approx(2.0)

    def test_alpha_zero_is_pure_cost(self):
        scenario = mv3(0.0)
        assert scenario.objective(make_outcome(99.0, "4")) == pytest.approx(4.0)

    def test_cost_scale(self):
        scenario = Tradeoff(alpha=0.5, cost_scale=0.1)
        assert scenario.objective(make_outcome(1.0, "10")) == pytest.approx(
            0.5 * 1 + 0.5 * 1.0
        )

    def test_always_feasible(self):
        scenario = mv3(0.5)
        assert scenario.feasible(make_outcome(1e9, "1e9".replace("e9", "")))
        assert scenario.violation(make_outcome(5, "5")) == 0.0

    def test_normalized_against_baseline(self):
        baseline = make_outcome(2.0, "4.00")
        scenario = Tradeoff.normalized_against(0.5, baseline)
        # The baseline itself scores exactly 1.0.
        assert scenario.objective(baseline) == pytest.approx(1.0)
        halved = make_outcome(1.0, "2.00")
        assert scenario.objective(halved) == pytest.approx(0.5)

    def test_invalid_alpha_rejected(self):
        with pytest.raises(OptimizationError):
            mv3(1.5)
        with pytest.raises(OptimizationError):
            mv3(-0.1)

    def test_invalid_cost_scale_rejected(self):
        with pytest.raises(OptimizationError):
            Tradeoff(alpha=0.5, cost_scale=0)
