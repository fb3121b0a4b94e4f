"""Anytime local search (simulated-annealing flavored).

One walker instead of a beam: from the empty set, propose a small
batch of random add/drop/swap moves each step, *screen* them on the
cent grid, and Metropolis-accept the best proposal — always when it
screens better, with probability ``exp(-delta/T)`` when worse, where
``delta`` is the screened scalar's relative worsening and ``T`` cools
geometrically.  Only accepted proposals are priced exactly (and
counted against the budget); the incumbent is whatever exact feasible
outcome leads when the budget or the step cap runs out.

The acceptance coin flips come from the spec's seeded
:class:`random.Random`, so the walk — like the beam — is a pure
function of (seed, world, scenario) that the budget can only
truncate: byte-deterministic per seed, monotone in the budget.  The
warm start stays out of the walk and joins afterwards as a forced
incumbent floor, so re-solving an unchanged epoch replays the same
trajectory through the problem's memo (zero new pricings) and
returns the incumbent.

Worlds without a screener (or scenario types the proxy does not know)
degrade to one exactly-evaluated proposal per step, Metropolis on the
exact ordering — slower per step, same contracts.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import ClassVar, FrozenSet, Optional

from ... import telemetry
from ...errors import OptimizationError
from ..problem import SelectionProblem
from ..registry import OptimizerSpec, register
from ..scenarios import Scenario
from .beam import finish
from .budget import BudgetedEvaluator, SearchBudget
from .moves import proposal
from .proxy import proxy_scalar_fn
from .pruning import prune_candidates

__all__ = ["LocalSearchSpec"]


def _exact_scalar(scenario: Scenario, outcome) -> float:
    """Scalar energy from an exact outcome (screenerless fallback)."""
    violation = scenario.violation(outcome)
    if violation > 0:
        return 1e9 * (1.0 + violation)
    return scenario.key(outcome)[0]


@register
@dataclass(frozen=True)
class LocalSearchSpec(OptimizerSpec):
    """Anytime local search with screened Metropolis acceptance."""

    name: ClassVar[str] = "local"

    #: Exact evaluations the walk may spend (anytime knob).
    budget: int = 160
    seed: int = 0
    #: Initial Metropolis temperature on the *relative* screened delta
    #: (0.25 accepts a ~2.5% worsening with probability ~0.90).
    temperature: float = 0.25
    #: Geometric cooling applied every step.
    cooling: float = 0.95
    #: Random proposals screened per step (best one faces Metropolis).
    proposals_per_step: int = 12
    #: Candidate-pool cap after benefit clustering (None = unpruned).
    prune_to: Optional[int] = 256

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
    ):
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
        screener = problem.screener()
        scalar = proxy_scalar_fn(scenario) if screener is not None else None
        rng = random.Random(self.seed)

        current = evaluator.evaluate(frozenset(), forced=True)
        if scalar is not None:
            current_energy = scalar(*screener.screen(current.subset))
        else:
            current_energy = _exact_scalar(scenario, current)

        temp = self.temperature
        # The step cap bounds the walk when the budget is not being
        # spent (all-rejected streaks); proportional to the budget so
        # a shorter budget is always a prefix of a longer one's walk.
        max_steps = self.budget * 8
        for _ in range(max_steps):
            if budget.exhausted:
                break
            if tel.enabled:
                tel.inc("search.rounds")

            if scalar is not None:
                candidates = []
                seen = set()
                for _ in range(self.proposals_per_step):
                    subset = proposal(current.subset, pool, rng)
                    if subset == current.subset or subset in seen:
                        continue
                    seen.add(subset)
                    candidates.append(subset)
                if not candidates:
                    temp *= self.cooling
                    continue
                screened = [
                    (scalar(*screener.screen(s)), tuple(sorted(s)), s)
                    for s in candidates
                ]
                if tel.enabled:
                    tel.inc("search.moves_screened", len(screened))
                screened.sort(key=lambda item: (item[0], item[1]))
                cand_energy, _, cand_subset = screened[0]
            else:
                cand_subset = proposal(current.subset, pool, rng)
                if cand_subset == current.subset:
                    temp *= self.cooling
                    continue
                outcome = evaluator.evaluate(cand_subset)
                if outcome is None:
                    break
                if tel.enabled:
                    tel.inc("search.moves_evaluated")
                cand_energy = _exact_scalar(scenario, outcome)

            delta = (cand_energy - current_energy) / max(
                abs(current_energy), 1e-9
            )
            accept = delta < 0 or rng.random() < math.exp(
                -delta / max(temp, 1e-9)
            )
            if accept:
                if scalar is not None:
                    outcome = evaluator.evaluate(cand_subset)
                    if outcome is None:
                        break
                    if tel.enabled:
                        tel.inc("search.moves_evaluated")
                else:
                    outcome = evaluator.seen[cand_subset]
                current = outcome
                current_energy = cand_energy
            temp *= self.cooling

        # Incumbency floor, forced after the walk so the trajectory
        # stays warm-independent (see the module docstring).
        if start:
            evaluator.evaluate(start, forced=True)
        return finish(evaluator, problem, scenario)
