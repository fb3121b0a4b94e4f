"""Ranking candidate moves: screened when possible, exact otherwise.

The search algorithms generate move lists far larger than their exact
evaluation budgets.  :class:`MoveRanker` orders such a list best-first:

* with a screener (a :class:`~repro.kernel.world.KernelWorld`) and a
  scenario the proxy understands, ranking costs **zero** exact
  evaluations — every move is screened in float cents and sorted by
  the scenario-shaped proxy key;
* otherwise (un-factorable world, custom scenario type) each move is
  exactly evaluated *through the budget* and sorted by the scenario's
  real ordering — expensive but correct, and still deterministic.

Ties in either mode break on the subset's sorted name tuple, so equal
scores never leave the order to hash or allocation accident.
"""

from __future__ import annotations

from typing import FrozenSet, List, Sequence, Tuple

from ... import telemetry
from ..problem import SelectionOutcome
from ..scenarios import Scenario
from .budget import BudgetedEvaluator
from .proxy import proxy_key_fn

__all__ = ["MoveRanker", "exact_order"]


def exact_order(
    scenario: Scenario, outcome: SelectionOutcome
) -> Tuple[float, Tuple[float, ...], Tuple[str, ...]]:
    """Total exact ordering: feasibility-violation, key, then names."""
    return (
        scenario.violation(outcome),
        scenario.key(outcome),
        tuple(sorted(outcome.subset)),
    )


class MoveRanker:
    """Best-first ordering of candidate subsets for one search run."""

    def __init__(
        self,
        scenario: Scenario,
        screener,
        evaluator: BudgetedEvaluator,
    ) -> None:
        self._scenario = scenario
        self._screener = screener
        self._evaluator = evaluator
        self._proxy = proxy_key_fn(scenario) if screener is not None else None
        self._telemetry = telemetry.current()

    @property
    def screened(self) -> bool:
        """Whether ranking is free (cents screen) or spends budget."""
        return self._proxy is not None

    def rank(
        self, moves: Sequence[FrozenSet[str]]
    ) -> List[FrozenSet[str]]:
        """``moves`` best-first; may stop short if the budget dies.

        In screened mode the whole list always comes back.  In exact
        mode each move costs a budgeted evaluation, so the returned
        ranking covers only the moves the budget allowed — their
        outcomes have already been noted as potential incumbents.
        """
        if self._proxy is not None:
            scored = []
            for subset in moves:
                hours, cents = self._screener.screen(subset)
                scored.append((self._proxy(hours, cents), tuple(sorted(subset)), subset))
            if self._telemetry.enabled:
                self._telemetry.inc("search.moves_screened", len(scored))
            scored.sort(key=lambda item: (item[0], item[1]))
            return [subset for _, _, subset in scored]

        scored_exact = []
        for subset in moves:
            outcome = self._evaluator.evaluate(subset)
            if outcome is None:
                break
            scored_exact.append((exact_order(self._scenario, outcome), subset))
        scored_exact.sort(key=lambda item: item[0])
        return [subset for _, subset in scored_exact]
