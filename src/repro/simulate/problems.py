"""Incremental construction of per-epoch selection problems.

Rebuilding a :class:`~repro.optimizer.problem.SelectionProblem` from
scratch every epoch would re-price the whole world even when nothing
changed.  :class:`EpochProblemBuilder` avoids that with two reuse
layers, coarsest first:

1. **problem cache** — state key -> :class:`SelectionProblem`.  An
   epoch whose state is unchanged (or that returns to an earlier
   state) gets the *same* problem object back, with every subset it
   ever priced still memoized — so a second policy's sweep over the
   same timeline, or an arbitrage policy re-quoting an unchanged
   epoch, prices nothing new.
2. **priced worlds** — per (dataset, cluster) world, candidate-view
   statistics are computed once and each distinct query signature
   (grain + filters) is priced once.  Workload drift that adds one
   query prices one query; drops and re-weightings price nothing
   (frequencies are applied at plan time, not pricing time).  The
   cluster is the deployment's
   :meth:`~repro.costmodel.params.DeploymentSpec.physics_key`: every
   setting but the price book.  Hours do not depend on prices, so a
   market quote, a spot reprice or another provider's book re-bills
   the world's estimates instead of estimating them again; each
   problem's inputs still carry its own deployment.

``builds``, ``queries_priced`` and ``worlds_built`` are exposed so
tests and benchmarks can assert the incremental path actually short-
circuits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Sequence, Tuple

from ..costmodel.estimator import PlanningEstimator, PlanningInputs, QueryPricing
from ..costmodel.params import DeploymentSpec
from ..cube.views import CandidateView, ViewStats
from ..optimizer.problem import EvaluationStats, SelectionProblem
from ..pricing.providers import Provider
from ..workload.workload import Workload
from .state import Holdings, WarehouseState

__all__ = ["EpochContext", "EpochProblemBuilder"]

#: A query's pricing identity: everything but name and frequency.
_QuerySig = Tuple[Tuple[str, ...], tuple]


class _PricedWorld:
    """One (dataset, cluster) world with incrementally priced queries.

    Estimates hours and sizes under the first state's deployment; every
    deployment sharing its physics key takes the same hours, so the
    statistics and pricings serve each of them, billed at its own rates.
    """

    def __init__(
        self, state: WarehouseState, catalogue: Tuple[CandidateView, ...]
    ) -> None:
        self._dataset = state.dataset
        self._estimator = PlanningEstimator(state.dataset, state.deployment)
        self._catalogue = catalogue
        self._view_stats: Dict[str, ViewStats] = (
            self._estimator.view_statistics(catalogue)
        )
        self._pricings: Dict[_QuerySig, QueryPricing] = {}

    def _pricing(self, query) -> Tuple[QueryPricing, bool]:
        sig: _QuerySig = (query.grain, query.filters)
        pricing = self._pricings.get(sig)
        if pricing is not None:
            return pricing, False
        pricing = self._estimator.price_query(query, self._view_stats)
        self._pricings[sig] = pricing
        return pricing, True

    def inputs_for(
        self, workload: Workload, deployment: DeploymentSpec
    ) -> Tuple[PlanningInputs, int]:
        """Planning inputs for ``workload`` billed under ``deployment``.

        ``deployment`` must share this world's physics key.  Returns
        (inputs, newly priced queries).
        """
        fresh = 0

        def memoized(query) -> QueryPricing:
            nonlocal fresh
            pricing, priced_now = self._pricing(query)
            fresh += int(priced_now)
            return pricing

        # assemble stamps the deployment and derives the base storage
        # timeline from it, so each problem assembles under its own.
        inputs = PlanningEstimator(self._dataset, deployment).assemble(
            workload, self._catalogue, self._view_stats, memoized
        )
        return inputs, fresh


@dataclass(frozen=True)
class EpochContext:
    """What one epoch's policy decision may consult beyond its problem.

    Handed to :meth:`~repro.simulate.policy.ReselectionPolicy.
    decide_in_context` by the simulator.  ``state`` is the epoch's
    post-event warehouse state (its :meth:`~repro.simulate.state.
    WarehouseState.candidate_books` are the migration targets on the
    table, its :attr:`~repro.simulate.state.WarehouseState.holdings`
    the live/pending view split at the decision);
    :meth:`counterfactual` prices the same world under another
    provider's book through the shared builder, so repeated
    counterfactuals over unchanged epochs are answered from cache.
    """

    state: WarehouseState
    builder: "EpochProblemBuilder"

    @property
    def holdings(self) -> Holdings:
        """The epoch's live/pending view split at the decision.

        Under synchronous runs (instant builds) ``live`` is the
        previous decision's subset and ``pending`` is empty.
        """
        return self.state.holdings

    @property
    def queue_depth(self) -> int:
        """Builds in flight when the decision is taken — the knob a
        queue-aware policy throttles on (0 under synchronous runs,
        whose instant builds have all landed by then)."""
        return self.state.holdings.queue_depth

    def counterfactual(self, provider: Provider) -> SelectionProblem:
        """This epoch's world billed under ``provider`` instead.

        Built through the shared :class:`EpochProblemBuilder`, so the
        counterfactual problem memoizes subset pricings exactly like
        the real one — an arbitrage policy pricing K providers over an
        unchanged epoch re-prices nothing.
        """
        return self.builder.problem_for(self.state.with_provider(provider))


class EpochProblemBuilder:
    """Turns warehouse states into (cached) selection problems."""

    def __init__(self, catalogue: Sequence[CandidateView]) -> None:
        self._catalogue: Tuple[CandidateView, ...] = tuple(catalogue)
        self._problems: Dict[Hashable, SelectionProblem] = {}
        self._worlds: Dict[Hashable, _PricedWorld] = {}
        #: Queries priced through the estimator (not reused), summed
        #: over every (dataset, cluster) world.
        self.queries_priced = 0
        #: Distinct (dataset, cluster) worlds instantiated; price books
        #: sharing a cluster share one.
        self.worlds_built = 0

    @property
    def catalogue(self) -> Tuple[CandidateView, ...]:
        """The fixed candidate-view universe every epoch selects from."""
        return self._catalogue

    @property
    def problems_cached(self) -> int:
        """How many distinct states have been turned into problems."""
        return len(self._problems)

    def evaluation_stats(self) -> "EvaluationStats":
        """Aggregate evaluate() counters across every cached problem.

        ``calls`` minus ``priced`` is the number of subset pricings the
        problems' memos avoided — the quantity the benchmarks report.
        """
        total = EvaluationStats()
        for problem in self._problems.values():
            stats = problem.stats
            total.calls += stats.calls
            total.hits += stats.hits
            total.priced += stats.priced
        return total

    def _world_key(self, state: WarehouseState) -> Hashable:
        return (state.dataset_key(), state.deployment.physics_key())

    def problem_for(self, state: WarehouseState) -> SelectionProblem:
        """The selection problem for ``state`` (cached by state key).

        The catalogue is fixed for the builder's lifetime, so the state
        key alone identifies a problem's world.
        """
        key = state.key()
        problem = self._problems.get(key)
        if problem is not None:
            return problem
        world_key = self._world_key(state)
        world = self._worlds.get(world_key)
        if world is None:
            world = _PricedWorld(state, self._catalogue)
            self._worlds[world_key] = world
            self.worlds_built += 1
        inputs, fresh = world.inputs_for(state.workload, state.deployment)
        self.queries_priced += fresh
        problem = SelectionProblem(inputs)
        self._problems[key] = problem
        return problem
