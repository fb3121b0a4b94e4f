"""Interaction-aware greedy selection.

The paper's knapsack treats per-view benefits as independent; this
greedy does not.  Each step exactly re-prices every remaining candidate
*in the context of what is already selected* (so two views covering the
same queries stop double-claiming the same savings) and takes the best
feasible improvement of the scenario key.  It is the HRU idea lifted
from row counts to the paper's monetary objectives, and the ablation's
middle ground between knapsack speed and exhaustive exactness.

Two extra passes make it robust:

* a **repair phase** when the empty set is infeasible — add whichever
  view most reduces the scenario's constraint violation (MV2's
  baseline always starts past the deadline; MV1's can start past the
  budget when the budget is tight and views pay for themselves);
* a final **drop pass** — remove any selected view whose removal
  improves the key, protecting against early picks that later picks
  subsume.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional, Tuple

from ..errors import InfeasibleProblemError
from .problem import SelectionOutcome, SelectionProblem
from .scenarios import Scenario

__all__ = ["greedy_select"]


def repair(
    problem: SelectionProblem,
    scenario: Scenario,
    current: FrozenSet[str],
) -> FrozenSet[str]:
    """Add views until feasible, minimizing the constraint violation.

    Each step adds the view that most reduces the violation; when none
    does, the problem is infeasible from ``current``.  The greedy
    baseline repairs from the empty set, the anytime searches from
    their least-violating state.
    """
    while not scenario.feasible(problem.evaluate(current)):
        best_name: Optional[str] = None
        best_violation = scenario.violation(problem.evaluate(current))
        for name in problem.candidate_names:
            if name in current:
                continue
            outcome = problem.evaluate(current | {name})
            if scenario.violation(outcome) < best_violation:
                best_violation = scenario.violation(outcome)
                best_name = name
        if best_name is None:
            raise InfeasibleProblemError(
                f"cannot reach feasibility for {scenario.describe()}"
            )
        current = current | {best_name}
    return current


def _best_addition(
    problem: SelectionProblem,
    scenario: Scenario,
    current: FrozenSet[str],
) -> Optional[SelectionOutcome]:
    best: Optional[SelectionOutcome] = None
    best_key = scenario.key(problem.evaluate(current))
    for name in problem.candidate_names:
        if name in current:
            continue
        outcome = problem.evaluate(current | {name})
        if not scenario.feasible(outcome):
            continue
        key = scenario.key(outcome)
        if key < best_key:
            best, best_key = outcome, key
    return best


def _drop_pass(
    problem: SelectionProblem,
    scenario: Scenario,
    current: FrozenSet[str],
) -> FrozenSet[str]:
    keys: Dict[FrozenSet[str], Tuple[float, ...]] = {}

    def key_of(outcome: SelectionOutcome) -> Tuple[float, ...]:
        key = keys.get(outcome.subset)
        if key is None:
            key = keys[outcome.subset] = scenario.key(outcome)
        return key

    improved = True
    while improved:
        improved = False
        for name in sorted(current):
            trimmed = current - {name}
            outcome = problem.evaluate(trimmed)
            if not scenario.feasible(outcome):
                continue
            if key_of(outcome) < key_of(problem.evaluate(current)):
                current = trimmed
                improved = True
    return current


def greedy_select(
    problem: SelectionProblem,
    scenario: Scenario,
) -> SelectionOutcome:
    """Greedy best-improvement selection under exact pricing."""
    current = repair(problem, scenario, frozenset())
    while True:
        addition = _best_addition(problem, scenario, current)
        if addition is None:
            break
        current = addition.subset
    current = _drop_pass(problem, scenario, current)
    return problem.evaluate(current)
