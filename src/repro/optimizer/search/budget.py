"""The anytime contract: evaluation-count budgets.

Search optimizers are *anytime*: they keep a best-feasible-so-far
incumbent and can stop after any exact evaluation.  The budget that
stops them counts **evaluation calls the search makes**, not wall
clock and not cache-miss pricings:

* wall clock would make selections depend on machine load, breaking
  per-seed byte-determinism and Monte Carlo identity across ``--jobs``;
* cache-miss pricings would make the *trajectory* depend on how warm
  the problem's memo happens to be (which varies with policy run
  order, since policies share the simulator's problems), so two runs
  of the same seed could explore different states.

Counting calls keeps the search's path a pure function of
``(world, spec)`` — the warm start never joins the trajectory, it is
force-evaluated afterwards as an incumbent floor.  Warm-started
re-selection therefore gets its speedup where it belongs: on an
unchanged epoch the replayed calls are all cache *hits*, so nothing
is re-priced even though the counted budget spends normally.

Budget monotonicity (a larger budget never returns a worse scenario
key) follows from the same discipline: algorithms must never consult
:meth:`SearchBudget.remaining` to choose *which* states to visit — the
visit order is budget-independent, and exhaustion merely truncates it.
"""

from __future__ import annotations

from typing import Callable, FrozenSet

from ..problem import SelectionOutcome, SelectionProblem

__all__ = ["SearchBudget", "BudgetedEvaluator"]


class SearchBudget:
    """A countdown of exact evaluations the search may still make."""

    def __init__(self, limit: int) -> None:
        if limit < 1:
            raise ValueError(f"a search budget must be positive, got {limit}")
        self.limit = limit
        self.used = 0

    @property
    def remaining(self) -> int:
        """Evaluations left (0 when exhausted)."""
        return max(0, self.limit - self.used)

    @property
    def exhausted(self) -> bool:
        """Whether the next :meth:`take` would be refused."""
        return self.used >= self.limit

    def take(self) -> bool:
        """Spend one evaluation; ``False`` means stop — budget is gone."""
        if self.used >= self.limit:
            return False
        self.used += 1
        return True

    def force(self) -> None:
        """Spend one evaluation unconditionally.

        Used for the handful of states an anytime search *must* price
        to have an answer at all (the empty set, the warm start): they
        are evaluated even on a tiny budget, and the spend is still
        recorded so reported totals stay honest.
        """
        self.used += 1


class BudgetedEvaluator:
    """Exact evaluation behind a budget, tracking the best-so-far.

    Wraps one :class:`~repro.optimizer.problem.SelectionProblem` and
    keeps the anytime state every search algorithm needs:

    * ``best`` — the best *feasible* outcome seen (by scenario key);
    * ``least_violating`` — the least-infeasible outcome seen, the
      fallback starting point when feasibility has not been reached;
    * ``seen`` — subsets already exactly evaluated by this search, so
      no algorithm spends budget re-evaluating a state it has visited.
    """

    def __init__(
        self,
        problem: SelectionProblem,
        scenario,
        budget: SearchBudget,
        on_improvement: Callable[[], None] = lambda: None,
    ) -> None:
        self._problem = problem
        self._scenario = scenario
        self.budget = budget
        self.best: "SelectionOutcome | None" = None
        self.least_violating: "SelectionOutcome | None" = None
        self.seen = {}
        self._on_improvement = on_improvement

    def _note(self, outcome: SelectionOutcome) -> None:
        scenario = self._scenario
        if scenario.feasible(outcome):
            if self.best is None or scenario.key(outcome) < scenario.key(self.best):
                self.best = outcome
                self._on_improvement()
        else:
            held = self.least_violating
            if held is None or scenario.violation(outcome) < scenario.violation(held):
                self.least_violating = outcome

    def evaluate(self, subset: FrozenSet[str], forced: bool = False):
        """Exactly price ``subset`` if the budget allows.

        Returns the outcome, or ``None`` when the budget refused the
        spend (the caller should stop).  ``forced=True`` prices
        regardless — for the must-have initial states.
        """
        cached = self.seen.get(subset)
        if cached is not None:
            return cached
        if forced:
            self.budget.force()
        elif not self.budget.take():
            return None
        outcome = self._problem.evaluate(subset)
        self.seen[subset] = outcome
        self._note(outcome)
        return outcome
