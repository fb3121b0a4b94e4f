"""The paper's three objective functions (Section 5.1).

* **MV1** (Formula 13) — minimize ``T_processingQ`` subject to
  ``C <= Bl`` (a financial budget).
* **MV2** (Formula 14) — minimize ``C`` subject to
  ``T_processingQ <= Tl`` (a response-time limit).
* **MV3** (Formula 15) — minimize ``α x T + (1 - α) x C``, the user's
  declared tradeoff between hours and dollars.

MV3 mixes hours and dollars in one sum, units and all — that is what
Formula 15 says, and the experiments reproduce it faithfully.  A
normalized variant (both terms scaled by their no-views baselines,
making the objective dimensionless) is provided for real use; the
ablation compares the two.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..errors import OptimizationError
from ..money import Money
from .problem import SelectionOutcome

__all__ = ["Scenario", "BudgetLimit", "TimeLimit", "Tradeoff", "mv1", "mv2", "mv3"]


class Scenario:
    """One optimization scenario: feasibility + a minimization key.

    ``key`` returns an order tuple: the primary objective first, then
    tie-breakers, so algorithms can compare outcomes with plain tuple
    comparison.
    """

    name: str = "abstract"

    def feasible(self, outcome: SelectionOutcome) -> bool:
        """Whether ``outcome`` satisfies the scenario's constraint."""
        raise NotImplementedError

    def violation(self, outcome: SelectionOutcome) -> float:
        """How far ``outcome`` overshoots the constraint (0 if feasible).

        Used by repair phases: an infeasible search state is improved
        by minimizing this quantity before optimizing the key.
        """
        raise NotImplementedError

    def key(self, outcome: SelectionOutcome) -> Tuple[float, ...]:
        """Minimization key (primary objective, tie-breakers...)."""
        raise NotImplementedError

    def describe(self) -> str:
        """Human-readable scenario summary."""
        raise NotImplementedError


@dataclass(frozen=True)
class BudgetLimit(Scenario):
    """MV1: fastest workload the budget allows (Formula 13)."""

    budget: Money
    name: str = "MV1"

    def __post_init__(self) -> None:
        if self.budget < Money(0):
            raise OptimizationError("the budget cannot be negative")

    def feasible(self, outcome: SelectionOutcome) -> bool:
        return outcome.total_cost <= self.budget

    def violation(self, outcome: SelectionOutcome) -> float:
        overshoot = outcome.total_cost - self.budget
        return max(0.0, overshoot.to_float())

    def key(self, outcome: SelectionOutcome) -> Tuple[float, ...]:
        # Primary: processing time; tie-break: leftover money.
        return (outcome.processing_hours, outcome.total_dollars)

    def describe(self) -> str:
        return f"MV1: minimize T subject to C <= {self.budget}"


@dataclass(frozen=True)
class TimeLimit(Scenario):
    """MV2: cheapest workload meeting the deadline (Formula 14)."""

    limit_hours: float
    name: str = "MV2"

    def __post_init__(self) -> None:
        if self.limit_hours < 0:
            raise OptimizationError("the time limit cannot be negative")

    def feasible(self, outcome: SelectionOutcome) -> bool:
        return outcome.processing_hours <= self.limit_hours + 1e-12

    def violation(self, outcome: SelectionOutcome) -> float:
        return max(0.0, outcome.processing_hours - self.limit_hours)

    def key(self, outcome: SelectionOutcome) -> Tuple[float, ...]:
        return (outcome.total_dollars, outcome.processing_hours)

    def describe(self) -> str:
        return f"MV2: minimize C subject to T <= {self.limit_hours}h"


@dataclass(frozen=True)
class Tradeoff(Scenario):
    """MV3: weighted time/cost mix (Formula 15), always feasible.

    ``normalized=False`` is the paper's literal objective
    (hours and dollars summed as-is); ``normalized=True`` divides each
    term by its no-views baseline value, which requires the baseline to
    be supplied at construction via :meth:`normalized_against`.
    """

    alpha: float
    name: str = "MV3"
    normalized: bool = False
    baseline_hours: float = 1.0
    baseline_cost: float = 1.0
    #: Multiplier applied to the dollar term before mixing.  Used to
    #: express the cost at the same reporting scale as the time term
    #: (e.g. 1/runs_per_period for per-run dollars when outcomes carry
    #: period bills).  Irrelevant under ``normalized=True``.
    cost_scale: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise OptimizationError(f"alpha must be in [0, 1], got {self.alpha}")
        if self.cost_scale <= 0:
            raise OptimizationError("cost_scale must be positive")
        if self.normalized and (
            self.baseline_hours <= 0 or self.baseline_cost <= 0
        ):
            raise OptimizationError(
                "normalized MV3 needs positive baseline hours and cost"
            )

    @classmethod
    def normalized_against(
        cls, alpha: float, baseline: SelectionOutcome
    ) -> "Tradeoff":
        """A normalized MV3 anchored at a no-views baseline outcome."""
        return cls(
            alpha=alpha,
            normalized=True,
            baseline_hours=baseline.processing_hours,
            baseline_cost=baseline.total_cost.to_float(),
        )

    def objective(self, outcome: SelectionOutcome) -> float:
        """Formula 15's value for ``outcome``."""
        hours = outcome.processing_hours
        cost = outcome.total_dollars * self.cost_scale
        if self.normalized:
            hours = hours / self.baseline_hours
            cost = cost / (self.baseline_cost * self.cost_scale)
        return self.alpha * hours + (1.0 - self.alpha) * cost

    def feasible(self, outcome: SelectionOutcome) -> bool:
        return True

    def violation(self, outcome: SelectionOutcome) -> float:
        return 0.0

    def key(self, outcome: SelectionOutcome) -> Tuple[float, ...]:
        return (self.objective(outcome),)

    def describe(self) -> str:
        norm = " (normalized)" if self.normalized else ""
        return f"MV3: minimize {self.alpha} x T + {1 - self.alpha} x C{norm}"


def mv1(budget: Money) -> BudgetLimit:
    """The paper's MV1 scenario with the given budget limit Bl."""
    return BudgetLimit(budget)


def mv2(limit_hours: float) -> TimeLimit:
    """The paper's MV2 scenario with the given time limit Tl."""
    return TimeLimit(limit_hours)


def mv3(alpha: float) -> Tradeoff:
    """The paper's MV3 scenario with weight alpha on processing time."""
    return Tradeoff(alpha)
