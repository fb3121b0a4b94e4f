"""The view-selection problem: subsets of candidates, exactly priced.

A :class:`SelectionProblem` binds :class:`~repro.costmodel.estimator.PlanningInputs`
to a :class:`~repro.costmodel.total.CloudCostModel` and answers one
question: *what does this subset of candidate views cost, and how fast
is the workload with it?*  Every algorithm — the paper's knapsack, the
exhaustive ground truth, the greedy — speaks to this object, so they
are compared on identical physics.

Evaluation is **exact** (interactions included): the processing time of
a subset takes, per query, the best answering source actually in the
subset.  The knapsack's independence approximation lives in the
*algorithm*, not here; its final answer is re-priced exactly before
being reported.

Every :class:`SelectionProblem` keeps a private subset -> outcome dict,
so one problem never prices the same subset twice.  Reuse across
problems happens one level up: the lifecycle simulator's
:class:`~repro.simulate.problems.EpochProblemBuilder` hands an epoch
whose state is unchanged the *same* problem back, memo and all.

:class:`EvaluationStats` counts calls, memo hits and actual pricings,
which is how tests and benchmarks demonstrate the memo works.

The problem factors its world into one
:class:`~repro.kernel.KernelWorld`, on first need; exact pricing runs on
it, and :meth:`SelectionProblem.screener` hands the same world to the
anytime searches, which rank moves on its float-cent screen.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Dict, FrozenSet, Optional, Tuple

from ..costmodel.estimator import PlanningInputs
from ..costmodel.total import CloudCostModel, CostBreakdown
from ..kernel import KernelWorld
from ..money import Money

__all__ = [
    "EvaluationStats",
    "SelectionOutcome",
    "SelectionProblem",
]


@dataclass(frozen=True)
class SelectionOutcome:
    """One subset, exactly priced.

    ``total_dollars`` is C as a float, the number scenario keys compare:
    a plain attribute converted once at construction, not a field, so
    ``fields()``, ``repr`` and ``==`` see the subset and breakdown only.
    """

    subset: FrozenSet[str]
    breakdown: CostBreakdown

    def __post_init__(self) -> None:
        object.__setattr__(self, "total_dollars", self.breakdown.total.to_float())

    @property
    def processing_hours(self) -> float:
        """T_processingQ under this subset (Formula 9)."""
        return self.breakdown.processing_hours

    @property
    def total_cost(self) -> Money:
        """C under this subset (Formula 1)."""
        return self.breakdown.total

    def describe(self) -> str:
        """Short display: views + headline numbers."""
        views = ", ".join(sorted(self.subset)) if self.subset else "(no views)"
        return f"[{views}] {self.breakdown.summary()}"


@dataclass
class EvaluationStats:
    """Counters for one problem's :meth:`SelectionProblem.evaluate` traffic."""

    #: evaluate() invocations (including every memo hit).
    calls: int = 0
    #: Calls answered from the problem's own subset dict.
    hits: int = 0
    #: Subsets actually priced (kernel or oracle).
    priced: int = 0


class SelectionProblem:
    """Binds planning inputs to a cost model; memoizes subset pricing.

    ``kernel`` chooses how a subset is priced: through the vectorized
    :class:`~repro.kernel.KernelWorld` (the default) or, with
    ``kernel=False``, through the exact-Decimal oracle
    (:meth:`~repro.costmodel.total.CloudCostModel.evaluate`).  The
    kernel is a pure accelerator: it reproduces the oracle byte for
    byte or is not used at all, so the flag never changes any outcome.
    """

    def __init__(self, inputs: PlanningInputs, kernel: bool = True) -> None:
        self._inputs = inputs
        self._model = CloudCostModel(inputs.deployment)
        self._memo: Dict[FrozenSet[str], SelectionOutcome] = {}
        self._stats = EvaluationStats()
        self._kernel = kernel
        self._kernel_world: Optional[KernelWorld] = None
        self._factor_tried = False

    @property
    def inputs(self) -> PlanningInputs:
        """The numeric world the problem is defined over."""
        return self._inputs

    @property
    def cost_model(self) -> CloudCostModel:
        """The pricing side of the problem."""
        return self._model

    @property
    def candidate_names(self) -> Tuple[str, ...]:
        """Candidate view names, in deterministic order."""
        return tuple(c.name for c in self._inputs.candidates)

    @property
    def stats(self) -> EvaluationStats:
        """Evaluation counters (calls / hits / actual pricings)."""
        return self._stats

    def evaluate(self, subset: AbstractSet[str]) -> SelectionOutcome:
        """Exactly price ``subset`` (memoized per problem)."""
        key = self._inputs.check_subset(subset)
        self._stats.calls += 1
        cached = self._memo.get(key)
        if cached is not None:
            self._stats.hits += 1
            return cached
        world = self._factor() if self._kernel else None
        if world is not None:
            breakdown = world.evaluate(key)
        else:
            breakdown = self._model.evaluate(self._inputs.plan_for(key))
        outcome = SelectionOutcome(subset=key, breakdown=breakdown)
        self._stats.priced += 1
        self._memo[key] = outcome
        return outcome

    def _factor(self) -> Optional[KernelWorld]:
        """This problem's one :meth:`KernelWorld.build` attempt.

        Shared by exact pricing and screening, so a world is factored
        (or found unrepresentable, and counted as a fallback) once, on
        first need: a problem answered entirely from its memo never
        pays the build.  ``None`` means the kernel cannot represent
        this world; callers then price on the oracle.
        """
        if not self._factor_tried:
            self._factor_tried = True
            self._kernel_world = KernelWorld.build(self._inputs)
        return self._kernel_world

    def screener(self) -> Optional[KernelWorld]:
        """This problem's kernel world, to screen subsets on, if any.

        :meth:`KernelWorld.screen` ranks a subset in float cents
        without pricing it.  ``None`` when the world cannot be
        kernel-factored (cascade materialization, inputs the oracle
        rejects) — searchers then rank on exact evaluations instead.

        Deliberately independent of ``kernel``: screening only *orders*
        candidate moves, and both the kernel and oracle paths then
        price the screened winners to byte-identical ledgers — so
        ``kernel=False`` keeps changing nothing but speed.  The world
        returned here is the one exact pricing uses when ``kernel`` is
        on, so nothing is factored twice.
        """
        return self._factor()

    def baseline(self) -> SelectionOutcome:
        """The without-views outcome (Section 3 of the paper)."""
        return self.evaluate(frozenset())

    def singleton(self, view_name: str) -> SelectionOutcome:
        """The outcome of materializing exactly one view."""
        return self.evaluate(frozenset({view_name}))

    def marginal_saving_hours(self, view_name: str) -> float:
        """T(∅) - T({v}): the view's standalone time saving (>= 0)."""
        return (
            self.baseline().processing_hours
            - self.singleton(view_name).processing_hours
        )

    def processing_hours_for(
        self, subset: AbstractSet[str], query_names: AbstractSet[str]
    ) -> float:
        """Frequency-weighted hours of a query group under ``subset``.

        The multi-workload slice of Formula 9: summing over one
        tenant's queries instead of the whole workload.  The groups'
        hours sum to the subset's total processing hours when the
        groups partition the workload.
        """
        return self._inputs.group_processing_hours(subset, query_names)
