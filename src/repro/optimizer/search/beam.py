"""Anytime beam search over the candidate lattice.

The production shape (BRAD's ``query_based_beam``): keep the best
``beam_width`` states, expand each state's sampled add/drop/swap
neighborhood, *screen* the whole expansion on the float cent grid, and
spend the exact evaluation budget only on the screened winners.  The
loop stops when the budget is gone or the incumbent has not improved
for ``patience`` rounds — and whatever it holds at that moment is the
answer, exactly priced (anytime semantics).

Determinism and monotonicity come from one discipline: everything the
search *decides* — sampling, screening, ranking, expansion order — is
a pure function of (seed, world, scenario).  The budget is only ever
allowed to **truncate** that fixed trajectory, so the same seed gives
byte-identical selections on every run and a larger budget can only
see more of the same path (never a worse incumbent).

The warm start is deliberately *not* part of the trajectory: it is
force-evaluated after the loop as an incumbent floor (re-selection can
never come back worse than what it holds).  Keeping it out of the
sampling means a warm-started re-solve of an **unchanged** epoch
replays the exact same trajectory — every evaluation a hit in the
problem's memo (the simulator hands an unchanged epoch its problem
back), zero new pricings — and returns the incumbent.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import ClassVar, FrozenSet, List, Optional

from ... import telemetry
from ...errors import OptimizationError
from ..greedy import repair
from ..problem import SelectionOutcome, SelectionProblem
from ..registry import OptimizerSpec, register
from ..scenarios import Scenario
from .budget import BudgetedEvaluator, SearchBudget
from .moves import state_moves
from .pruning import prune_candidates
from .ranking import MoveRanker, exact_order

__all__ = ["BeamSearchSpec"]


def finish(
    evaluator: BudgetedEvaluator,
    problem: SelectionProblem,
    scenario: Scenario,
) -> SelectionOutcome:
    """The anytime answer: best feasible, or exact repair toward one.

    When the budget ran out before any feasible state was priced, the
    least-violating state is repaired greedily with *unbudgeted* exact
    evaluations — a feasible answer beats an on-budget infeasible one,
    and the repair is the greedy baseline's own (which raises
    :class:`~repro.errors.InfeasibleProblemError` when no view helps).
    """
    if evaluator.best is not None:
        return evaluator.best
    held = evaluator.least_violating
    current = held.subset if held is not None else frozenset()
    return problem.evaluate(repair(problem, scenario, current))


@register
@dataclass(frozen=True)
class BeamSearchSpec(OptimizerSpec):
    """Anytime beam search, screened in float cents.

    ``budget`` caps the search's exact evaluations (the anytime knob);
    ``seed`` fixes the move sampling; ``prune_to`` bounds the candidate
    pool via benefit-similarity clustering (``None`` = no pruning).
    """

    name: ClassVar[str] = "beam"

    beam_width: int = 6
    #: Exact evaluations the search may spend (counted as calls, so
    #: cache warmth never changes the trajectory).
    budget: int = 240
    seed: int = 0
    #: Sampled additions screened per beam state per round.
    moves_per_state: int = 24
    #: Sampled member<->non-member swaps per beam state per round.
    swaps_per_state: int = 8
    #: Candidate-pool cap after benefit clustering (None = unpruned).
    prune_to: Optional[int] = 256
    #: Rounds without incumbent improvement before stopping early.
    patience: int = 3

    def __post_init__(self) -> None:
        if self.budget < 1:
            raise OptimizationError(
                f"a search budget must be positive, got {self.budget}"
            )

    def solve(
        self,
        problem: SelectionProblem,
        scenario: Scenario,
        warm_start: Optional[FrozenSet[str]] = None,
    ) -> SelectionOutcome:
        tel = telemetry.current()
        budget = SearchBudget(self.budget)
        evaluator = BudgetedEvaluator(
            problem,
            scenario,
            budget,
            on_improvement=lambda: tel.inc("search.improvements"),
        )
        known = set(problem.candidate_names)
        start = frozenset(n for n in (warm_start or ())) & known
        pool = prune_candidates(problem.inputs, self.prune_to)
        ranker = MoveRanker(scenario, problem.screener(), evaluator)
        rng = random.Random(self.seed)

        # The empty set is always exactly answered, budget or no
        # budget; the warm start joins as an incumbent floor only
        # after the loop so it cannot perturb the trajectory.
        frontier: List[SelectionOutcome] = [
            evaluator.evaluate(frozenset(), forced=True)
        ]

        stall = 0
        while not budget.exhausted and stall < self.patience:
            best_before = (
                scenario.key(evaluator.best)
                if evaluator.best is not None
                else None
            )
            moves: List[FrozenSet[str]] = []
            seen_moves = set()
            for state in frontier:
                for subset in state_moves(
                    state.subset,
                    pool,
                    rng,
                    self.moves_per_state,
                    self.swaps_per_state,
                ):
                    if subset in seen_moves or subset in evaluator.seen:
                        continue
                    seen_moves.add(subset)
                    moves.append(subset)
            if not moves:
                break
            ranked = ranker.rank(moves)
            winners = ranked[: 2 * self.beam_width]

            expansions: List[SelectionOutcome] = []
            truncated = False
            for subset in winners:
                outcome = evaluator.evaluate(subset)
                if outcome is None:
                    truncated = True
                    break
                expansions.append(outcome)
            if tel.enabled:
                tel.inc("search.rounds")
                tel.inc("search.moves_evaluated", len(expansions))
            if truncated:
                break

            merged = {o.subset: o for o in frontier}
            for outcome in expansions:
                merged[outcome.subset] = outcome
            ordered = sorted(
                merged.values(), key=lambda o: exact_order(scenario, o)
            )
            frontier = ordered[: self.beam_width]

            best_after = (
                scenario.key(evaluator.best)
                if evaluator.best is not None
                else None
            )
            if best_after is not None and best_after != best_before:
                stall = 0
            else:
                stall += 1

        # Incumbency: whatever the caller already holds competes as a
        # forced (unbudgeted) candidate, so warm-started re-selection
        # never returns worse than the warm start.
        if start:
            evaluator.evaluate(start, forced=True)
        return finish(evaluator, problem, scenario)
