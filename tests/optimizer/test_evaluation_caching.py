"""Evaluation counting: the caches must actually avoid re-pricing.

Covers the selector's shared-marginal computation (one baseline + one
singleton per candidate instead of four evaluations per candidate),
the per-problem evaluation counters (every algorithm prices each subset
it asks for once, with the same traffic whichever way ``kernel=``
points), and the one problem per state
that :meth:`~repro.simulate.problems.EpochProblemBuilder.problem_for`
hands out: distinct states never share a problem or its pricings.
"""

from __future__ import annotations

import pytest

from repro.optimizer import SelectionProblem, mv1, mv2
from repro.optimizer.selector import _independent_marginals, select_views
from repro.simulate import EpochProblemBuilder, WarehouseState


@pytest.fixture()
def counting_problem(paper_problem):
    """A fresh problem over the session inputs (counters start at 0)."""
    return SelectionProblem(paper_problem.inputs)


class TestEvaluationStats:
    def test_counters_track_calls_hits_and_pricings(self, counting_problem):
        problem = counting_problem
        problem.evaluate(frozenset())
        problem.evaluate(frozenset())
        problem.evaluate(frozenset({"V1"}))
        assert problem.stats.calls == 3
        assert problem.stats.priced == 2
        assert problem.stats.hits == 1


class TestSelectorEvaluationCounts:
    def test_marginals_price_each_subset_once(self, counting_problem):
        """n candidates -> exactly n + 1 evaluations (was 4n before the
        baseline/singleton reuse fix)."""
        n = len(counting_problem.candidate_names)
        _independent_marginals(counting_problem)
        assert counting_problem.stats.calls == n + 1
        assert counting_problem.stats.priced == n + 1
        # A second pass is pure cache hits.
        _independent_marginals(counting_problem)
        assert counting_problem.stats.priced == n + 1

    def test_mv2_repair_requests_each_grown_subset_once(self, paper_problem):
        """The repair loop adopts its best trial outcome directly.

        Before the fix it re-called ``evaluate`` on the adopted subset
        after trialling it, so repair-grown subsets were requested
        twice; now every multi-view subset strictly between the
        knapsack seed and the full set is requested exactly once.
        """
        from collections import Counter

        class RecordingProblem(SelectionProblem):
            def __init__(self, inputs):
                super().__init__(inputs)
                self.requests = Counter()

            def evaluate(self, subset):
                self.requests[frozenset(subset)] += 1
                return super().evaluate(subset)

        problem = RecordingProblem(paper_problem.inputs)
        n = len(problem.candidate_names)
        # Just above the everything-materialized optimum: the cover's
        # independent savings over-promise, so repair must iterate.
        everything = paper_problem.evaluate(
            frozenset(paper_problem.candidate_names)
        )
        select_views(problem, mv2(everything.processing_hours * 1.01), "knapsack")
        grown = {
            subset: count
            for subset, count in problem.requests.items()
            if 2 <= len(subset) < n
        }
        assert grown, "the repair loop must actually run in this setup"
        assert all(count == 1 for count in grown.values()), grown


ALGORITHMS = ("knapsack", "greedy", "exhaustive", "beam", "local")


def _recording(problem):
    """Record every subset requested of ``problem``, in request order."""
    requested = []
    evaluate = problem.evaluate

    def recording(subset):
        requested.append(frozenset(subset))
        return evaluate(subset)

    problem.evaluate = recording
    return requested


class TestOneMemoPerProblem:
    """The problem's own dict is the only memo every algorithm sees."""

    @pytest.fixture()
    def scenario(self, paper_problem):
        return mv1(paper_problem.baseline().total_cost * 2)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_each_requested_subset_is_priced_once(
        self, paper_problem, scenario, algorithm
    ):
        problem = SelectionProblem(paper_problem.inputs)
        requested = _recording(problem)
        select_views(problem, scenario, algorithm)
        distinct = set(requested)
        assert problem.stats.calls == len(requested)
        assert problem.stats.priced == len(distinct)
        assert problem.stats.hits == len(requested) - len(distinct)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_kernel_switch_changes_no_traffic(
        self, paper_problem, scenario, algorithm
    ):
        """``kernel=False`` moves pricing to the oracle and nothing else:
        the same answer, to the ledger bytes, from the same calls, memo
        hits and pricings (screening stays on either way)."""
        runs = {}
        for kernel in (True, False):
            problem = SelectionProblem(paper_problem.inputs, kernel=kernel)
            outcome = select_views(problem, scenario, algorithm).outcome
            stats = problem.stats
            runs[kernel] = (
                outcome.subset,
                repr(outcome.breakdown),
                (stats.calls, stats.hits, stats.priced),
            )
            if kernel:  # the kernel really priced this run
                assert problem._kernel_world is not None
        assert runs[True] == runs[False]


class TestProblemsPerState:
    """Each distinct state gets its own problem, pricing its own subsets."""

    @staticmethod
    def _problems(paper_problem, dataset, other_deployment):
        builder = EpochProblemBuilder(paper_problem.inputs.candidates)
        inputs = paper_problem.inputs
        first, second = (
            builder.problem_for(
                WarehouseState(inputs.workload, dataset, deployment)
            )
            for deployment in (inputs.deployment, other_deployment)
        )
        assert second is not first
        return first, second

    def test_distinct_worlds_do_not_collide(
        self, sales_dataset_10gb, paper_problem
    ):
        """Different deployments must never share pricings."""
        from repro.costmodel import DeploymentSpec

        first, second = self._problems(
            paper_problem,
            sales_dataset_10gb,
            DeploymentSpec.paper_deployment(n_instances=2),
        )
        a = first.evaluate(frozenset({"V1"}))
        b = second.evaluate(frozenset({"V1"}))
        assert second.stats.priced == 1  # not served from first's world
        assert a.total_cost != b.total_cost

    def test_same_named_providers_with_different_billing_never_collide(
        self, sales_dataset_10gb, paper_problem
    ):
        """Regression: provider identity is the full price book.

        ``aws_2012(PER_HOUR)`` and ``aws_2012(PER_SECOND)`` share the
        name 'aws-2012' but bill differently; a name-keyed identity
        once let them share cached outcomes.  They share one priced
        (dataset, cluster) world here, and still each problem bills at
        its own book's rates.
        """
        from dataclasses import replace

        from repro.pricing import BillingGranularity, aws_2012

        hourly = paper_problem.inputs.deployment
        per_second = replace(
            hourly, provider=aws_2012(BillingGranularity.PER_SECOND)
        )
        assert hourly.provider.name == per_second.provider.name
        assert hourly != per_second

        first, second = self._problems(
            paper_problem, sales_dataset_10gb, per_second
        )
        a = first.evaluate(frozenset({"V1"}))
        b = second.evaluate(frozenset({"V1"}))
        assert second.stats.priced == 1  # not aliased across billing rules
        assert a.total_cost != b.total_cost
