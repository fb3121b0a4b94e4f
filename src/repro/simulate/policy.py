"""Re-selection policies: when does the warehouse revisit its views?

The paper selects views once.  Over a lifecycle, that single selection
decays as the workload drifts and prices move; the policies here are
three answers to "when do we re-run the optimizer":

* ``never`` — select at epoch 0, keep the set forever.  The paper's
  static regime extended in time; the control arm.
* ``periodic`` — re-select every ``period`` epochs, changed world or
  not.  Simple, predictable, pays churn on a schedule.
* ``regret`` — re-select only when keeping the current set would cost
  measurably more than the current optimum (relative regret above a
  threshold).  Computing the regret requires optimizing every epoch,
  which is exactly what the problem cache makes cheap: an unchanged
  epoch gets its memoized problem back, so the whole optimizer run is
  memo hits.

Policies choose *what to materialize*; the simulator charges the
build/teardown consequences of their decisions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, FrozenSet, Optional, Union

from ..errors import SimulationError
from ..optimizer.problem import SelectionProblem
from ..optimizer.registry import OptimizerSpec, resolve
from ..optimizer.scenarios import Scenario, Tradeoff
from ..optimizer.selector import select_views

if TYPE_CHECKING:  # pragma: no cover — annotations only, no cycle at runtime
    from .events import ProviderMigration
    from .problems import EpochContext

#: Builds the epoch's scenario from the epoch's problem.  Used when the
#: objective depends on the epoch's world — e.g. fairness constraints
#: over attributed tenant costs, which need the problem to price shares.
ScenarioFactory = Callable[[SelectionProblem], Scenario]

__all__ = [
    "PolicyDecision",
    "ReselectionPolicy",
    "NeverReselect",
    "PeriodicReselect",
    "RegretTriggered",
    "POLICY_NAMES",
    "ScenarioFactory",
    "make_policy",
]

#: Registry keys accepted by :func:`make_policy` (and the CLI).
POLICY_NAMES = ("never", "periodic", "regret")


def _relative_regret(held_key, best_key) -> float:
    """Relative regret between two scenario keys, lexicographically.

    Compares component by component and measures the relative gap at
    the first component where the keys differ.  A scalar-keyed
    scenario reduces to the familiar ``(held - best) / |best|``; a
    lexicographic key (the soft fairness scenario puts overshoot
    before the cost objective) still registers cost drift when the
    leading components tie — exactly the case where looking only at
    ``key[0]`` would report zero regret forever.
    """
    for held_obj, best_obj in zip(held_key, best_key):
        if held_obj == best_obj:
            continue
        if best_obj == 0:
            return float("inf")
        return (held_obj - best_obj) / abs(best_obj)
    return 0.0


@dataclass(frozen=True)
class PolicyDecision:
    """One epoch's answer: the subset to hold, and why."""

    subset: FrozenSet[str]
    #: Whether the optimizer was re-run (vs. keeping the previous set).
    reoptimized: bool
    #: Relative regret measured *before* the decision (regret policy
    #: only; 0.0 where not computed).
    regret: float = 0.0
    #: A provider switch decided alongside the subset (arbitrage
    #: policies only).  The simulator applies it *before* accounting
    #: the epoch — ``subset`` must already be the set to hold on the
    #: migration's target book — and bills the switch (egress,
    #: ingress, full re-materialization).
    migration: Optional["ProviderMigration"] = None
    #: Machine-readable trigger reason, recorded into the provenance
    #: log: ``initial`` (first-epoch optimize), ``hold``, ``periodic``
    #: (schedule fired), ``regret`` (threshold crossed and hysteresis
    #: satisfied), ``regret-hold`` (over threshold but streak still
    #: building), ``infeasible`` (constraint violated — hysteresis
    #: bypassed), ``arbitrage`` (provider switch fired).
    trigger: str = ""
    #: The hysteresis streak at decision time (consecutive epochs the
    #: trigger condition has held; 0 for streak-free policies).
    streak: int = 0


class ReselectionPolicy:
    """Base policy: owns the scenario and optimizer used to (re)select.

    The default scenario is the pure cost minimizer — ``Tradeoff`` with
    ``alpha=0`` — because a lifecycle ledger's natural objective is the
    cumulative bill; it is always feasible, so simulations cannot die
    on a drifted constraint.  Any scenario works.  A
    ``scenario_factory`` replaces the fixed scenario with one built
    per epoch from the epoch's problem (the fairness-aware selection
    mode: attributed tenant shares depend on the epoch's pricing
    world); ``scenario`` and ``scenario_factory`` are mutually
    exclusive.

    ``optimizer`` is an :class:`~repro.optimizer.registry.OptimizerSpec`
    (or a registry name) carrying the selection algorithm and all its
    knobs; it defaults to greedy.  Policies hand the held subset to the
    optimizer as a *warm start*, which the anytime search specs turn
    into near-free re-selection on unchanged epochs.
    """

    name: str = "abstract"

    def __init__(
        self,
        scenario: Optional[Scenario] = None,
        *,
        scenario_factory: Optional[ScenarioFactory] = None,
        optimizer: Optional[Union[str, OptimizerSpec]] = None,
    ) -> None:
        if scenario is not None and scenario_factory is not None:
            raise SimulationError(
                "pass either a scenario or a scenario_factory, not both"
            )
        self._scenario = scenario if scenario is not None else Tradeoff(alpha=0.0)
        self._factory = scenario_factory
        self._optimizer = resolve("greedy" if optimizer is None else optimizer)

    @property
    def scenario(self) -> Scenario:
        """The fixed objective (ignored when a factory is set)."""
        return self._scenario

    @property
    def optimizer(self) -> OptimizerSpec:
        """The selection optimizer spec."""
        return self._optimizer

    @property
    def algorithm(self) -> str:
        """The selection algorithm's registry name."""
        return self._optimizer.name

    def _scenario_for(self, problem: SelectionProblem) -> Scenario:
        """The scenario this epoch optimizes (factory-built if dynamic)."""
        if self._factory is not None:
            return self._factory(problem)
        return self._scenario

    def _optimum(
        self,
        problem: SelectionProblem,
        current: Optional[FrozenSet[str]] = None,
    ) -> FrozenSet[str]:
        return select_views(
            problem,
            self._scenario_for(problem),
            self._optimizer,
            warm_start=current,
        ).outcome.subset

    def optimum(
        self,
        problem: SelectionProblem,
        current: Optional[FrozenSet[str]] = None,
    ) -> FrozenSet[str]:
        """This policy's optimal subset for ``problem``.

        Public for wrapper policies (the arbitrage wrapper re-selects
        under a migration target's book with the *inner* policy's
        scenario and optimizer).  ``current`` — the held subset, if
        any — warm-starts anytime optimizers.
        """
        return self._optimum(problem, current)

    def decide(
        self,
        epoch_index: int,
        problem: SelectionProblem,
        current: Optional[FrozenSet[str]],
    ) -> PolicyDecision:
        """The subset to hold through ``epoch_index``.

        ``current`` is the set held at the end of the previous epoch
        (``None`` on the first epoch, which every policy answers by
        optimizing).
        """
        raise NotImplementedError

    def decide_in_context(
        self,
        epoch_index: int,
        problem: SelectionProblem,
        current: Optional[FrozenSet[str]],
        context: "EpochContext",
    ) -> PolicyDecision:
        """:meth:`decide`, with the epoch's context on the table.

        The simulator always calls this entry point.  ``context``
        carries the epoch's post-event state and a counterfactual
        pricer (see :class:`~repro.simulate.problems.EpochContext`);
        the base implementation ignores it and delegates to
        :meth:`decide`, so ordinary policies stay context-free.
        Context-aware wrappers (:class:`~repro.simulate.arbitrage.
        ArbitrageAware`) override this to price other providers' books
        and attach a migration to the decision.
        """
        return self.decide(epoch_index, problem, current)

    def describe(self) -> str:
        """Display name with parameters."""
        return self.name


class NeverReselect(ReselectionPolicy):
    """Select once at epoch 0, never look again."""

    name = "never"

    def decide(
        self,
        epoch_index: int,
        problem: SelectionProblem,
        current: Optional[FrozenSet[str]],
    ) -> PolicyDecision:
        """Optimize once on the first epoch, then hold forever."""
        if current is None:
            return PolicyDecision(
                self._optimum(problem), reoptimized=True, trigger="initial"
            )
        return PolicyDecision(current, reoptimized=False, trigger="hold")


class PeriodicReselect(ReselectionPolicy):
    """Re-select every ``period`` epochs."""

    name = "periodic"

    def __init__(
        self,
        period: int = 4,
        scenario: Optional[Scenario] = None,
        *,
        scenario_factory: Optional[ScenarioFactory] = None,
        optimizer: Optional[Union[str, OptimizerSpec]] = None,
    ) -> None:
        super().__init__(
            scenario, scenario_factory=scenario_factory, optimizer=optimizer
        )
        if period < 1:
            raise SimulationError(
                f"re-selection period must be >= 1 epoch, got {period}"
            )
        self._period = period

    @property
    def period(self) -> int:
        """Epochs between re-selections."""
        return self._period

    def decide(
        self,
        epoch_index: int,
        problem: SelectionProblem,
        current: Optional[FrozenSet[str]],
    ) -> PolicyDecision:
        """Re-optimize on schedule epochs, hold in between."""
        if current is None or epoch_index % self._period == 0:
            return PolicyDecision(
                self._optimum(problem, current),
                reoptimized=True,
                trigger="initial" if current is None else "periodic",
            )
        return PolicyDecision(current, reoptimized=False, trigger="hold")

    def describe(self) -> str:
        """``periodic(every k)``."""
        return f"periodic(every {self._period})"


class RegretTriggered(ReselectionPolicy):
    """Re-select when the current set's relative regret crosses a bar.

    Regret compares the held subset's scenario key against the current
    optimum's at the first component where they differ:
    ``(held - best) / |best|`` (so a scalar objective behaves exactly
    as expected, and a lexicographic key — soft fairness — registers
    drift in the later components when the leading ones tie).  Below
    ``threshold`` the held set is kept (no churn); above it, the
    optimizer's answer is adopted.

    ``hysteresis`` makes the trigger sticky: the regret must stay
    above the threshold for that many *consecutive* epochs before the
    policy churns.  Under deterministic drift one epoch of regret is
    a fact; under stochastic drift (seasonal waves, spot-price walks)
    one epoch of regret is often noise that reverts before a rebuild
    could pay for itself — hysteresis is the knob that separates the
    two.  An infeasible holding bypasses hysteresis entirely: a
    violated constraint is never noise.
    """

    name = "regret"

    def __init__(
        self,
        threshold: float = 0.05,
        scenario: Optional[Scenario] = None,
        *,
        scenario_factory: Optional[ScenarioFactory] = None,
        hysteresis: int = 1,
        optimizer: Optional[Union[str, OptimizerSpec]] = None,
    ) -> None:
        super().__init__(
            scenario, scenario_factory=scenario_factory, optimizer=optimizer
        )
        if threshold < 0:
            raise SimulationError(
                f"regret threshold cannot be negative, got {threshold}"
            )
        if hysteresis < 1:
            raise SimulationError(
                f"hysteresis must be >= 1 epoch, got {hysteresis}"
            )
        self._threshold = threshold
        self._hysteresis = hysteresis
        # Consecutive epochs the current run has spent above threshold.
        # Reset whenever a run starts (current is None) so one policy
        # instance can serve several runs back to back.
        self._streak = 0

    @property
    def threshold(self) -> float:
        """Relative regret above which re-selection triggers."""
        return self._threshold

    @property
    def hysteresis(self) -> int:
        """Consecutive over-threshold epochs required before churning."""
        return self._hysteresis

    def decide(
        self,
        epoch_index: int,
        problem: SelectionProblem,
        current: Optional[FrozenSet[str]],
    ) -> PolicyDecision:
        """Measure the held set's regret; adopt the optimum once it has
        crossed the threshold for ``hysteresis`` consecutive epochs (or
        the holding turned infeasible)."""
        # One scenario instance for both the optimum and the regret
        # check, so a factory-built scenario's share memo is shared.
        scenario = self._scenario_for(problem)
        best = select_views(
            problem, scenario, self._optimizer, warm_start=current
        ).outcome.subset
        if current is None:
            self._streak = 0
            return PolicyDecision(best, reoptimized=True, trigger="initial")
        held = problem.evaluate(current)
        if not scenario.feasible(held):
            # Under a constrained scenario an infeasible holding can
            # look *cheap* on the objective; regret must not excuse a
            # violated constraint.
            self._streak = 0
            return PolicyDecision(
                best,
                reoptimized=True,
                regret=float("inf"),
                trigger="infeasible",
            )
        regret = _relative_regret(
            scenario.key(held), scenario.key(problem.evaluate(best))
        )
        if regret > self._threshold:
            self._streak += 1
            if self._streak >= self._hysteresis:
                streak = self._streak
                self._streak = 0
                return PolicyDecision(
                    best,
                    reoptimized=True,
                    regret=regret,
                    trigger="regret",
                    streak=streak,
                )
            return PolicyDecision(
                current,
                reoptimized=False,
                regret=regret,
                trigger="regret-hold",
                streak=self._streak,
            )
        self._streak = 0
        return PolicyDecision(current, reoptimized=False, regret=regret, trigger="hold")

    def describe(self) -> str:
        """``regret(>r)``, with ``hold n`` once hysteresis is sticky."""
        if self._hysteresis > 1:
            return (
                f"regret(>{self._threshold:g}, hold {self._hysteresis})"
            )
        return f"regret(>{self._threshold:g})"


def make_policy(
    name: str,
    scenario: Optional[Scenario] = None,
    *,
    period: int = 4,
    threshold: float = 0.05,
    scenario_factory: Optional[ScenarioFactory] = None,
    hysteresis: int = 1,
    optimizer: Optional[Union[str, OptimizerSpec]] = None,
) -> ReselectionPolicy:
    """Build a policy from its registry name (CLI/benchmark entry).

    ``optimizer`` takes a spec object or registry name.
    """
    common = dict(scenario_factory=scenario_factory, optimizer=optimizer)
    if name == "never":
        return NeverReselect(scenario, **common)
    if name == "periodic":
        return PeriodicReselect(period, scenario, **common)
    if name == "regret":
        return RegretTriggered(threshold, scenario, hysteresis=hysteresis, **common)
    raise SimulationError(
        f"unknown policy {name!r}; choose from {POLICY_NAMES}"
    )
