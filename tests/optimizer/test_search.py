"""Anytime search invariants: determinism, budgets, warm starts, parity.

The contracts under test are the ones ISSUE/ROADMAP promise:

* same seed + same budget => byte-identical selections on every run;
* a larger budget never yields a worse scenario key (truncation only);
* warm-started re-selection on an unchanged epoch (the same problem,
  which is what the simulator's builder hands back) returns the
  incumbent with zero new pricings (all memo hits);
* screened-then-exact results are repr-equal to pure-Decimal pricing
  of the same subset (screening orders moves, never prices answers);
* on a generated >=1,000-view lattice, beam and local search land
  within 5% of greedy's scenario key spending <=10% of greedy's
  subset evaluations.
"""

from __future__ import annotations

import pytest

from repro.cube import generate_lattice_inputs
from repro.errors import InfeasibleProblemError, OptimizationError
from repro.money import Money
from repro.optimizer import (
    BeamSearchSpec,
    LocalSearchSpec,
    SearchBudget,
    SelectionProblem,
    mv1,
    select_views,
)
from repro.optimizer.search import prune_candidates, proxy_key_fn, proxy_scalar_fn


@pytest.fixture(scope="module")
def small_world():
    """A 200-view lattice: big enough to search, fast enough to loop."""
    return generate_lattice_inputs(n_views=200, seed=1)


@pytest.fixture(scope="module")
def small_scenario(small_world):
    baseline = SelectionProblem(small_world.inputs).baseline()
    return mv1(baseline.total_cost * 2)


@pytest.fixture(scope="module")
def big_world():
    """The acceptance lattice: 1,000 candidate views, seeded."""
    return generate_lattice_inputs(n_views=1_000, seed=0)


@pytest.fixture(scope="module")
def big_scenario(big_world):
    baseline = SelectionProblem(big_world.inputs).baseline()
    return mv1(baseline.total_cost * 2)


@pytest.fixture(scope="module")
def greedy_on_big(big_world, big_scenario):
    problem = SelectionProblem(big_world.inputs)
    result = select_views(problem, big_scenario, "greedy")
    return result, problem.stats.calls


class TestAcceptance:
    """The headline criterion on the 1,000-view lattice."""

    @pytest.mark.parametrize("algorithm", ["beam", "local"])
    def test_within_5pct_of_greedy_at_10pct_evaluations(
        self, big_world, big_scenario, greedy_on_big, algorithm
    ):
        greedy_result, greedy_calls = greedy_on_big
        greedy_key = big_scenario.key(greedy_result.outcome)
        problem = SelectionProblem(big_world.inputs)
        result = select_views(problem, big_scenario, algorithm)
        assert big_scenario.feasible(result.outcome)
        key = big_scenario.key(result.outcome)
        assert key[0] <= greedy_key[0] * 1.05
        assert problem.stats.calls <= greedy_calls * 0.10

    @pytest.mark.parametrize("algorithm", ["beam", "local"])
    def test_deterministic_on_big_lattice(
        self, big_world, big_scenario, algorithm
    ):
        runs = [
            select_views(
                SelectionProblem(big_world.inputs), big_scenario, algorithm
            ).outcome
            for _ in range(2)
        ]
        assert runs[0].subset == runs[1].subset
        assert repr(runs[0].breakdown.total) == repr(runs[1].breakdown.total)


class TestDeterminism:
    @pytest.mark.parametrize("algorithm", ["beam", "local"])
    def test_same_seed_same_budget_byte_identical(
        self, small_world, small_scenario, algorithm
    ):
        outcomes = [
            select_views(
                SelectionProblem(small_world.inputs), small_scenario, algorithm
            ).outcome
            for _ in range(3)
        ]
        first = outcomes[0]
        for other in outcomes[1:]:
            assert other.subset == first.subset
            assert repr(other.breakdown) == repr(first.breakdown)

    def test_seed_is_a_spec_knob(self, small_world, small_scenario):
        # Different seeds are *allowed* to pick different subsets, but
        # each seed must be internally reproducible.
        for seed in (0, 7):
            spec = BeamSearchSpec(seed=seed, budget=64)
            a = select_views(
                SelectionProblem(small_world.inputs), small_scenario, spec
            )
            b = select_views(
                SelectionProblem(small_world.inputs), small_scenario, spec
            )
            assert a.outcome.subset == b.outcome.subset


class TestBudgetMonotonicity:
    @pytest.mark.parametrize("spec_cls", [BeamSearchSpec, LocalSearchSpec])
    def test_larger_budget_never_worse(
        self, small_world, small_scenario, spec_cls
    ):
        previous_key = None
        for budget in (16, 48, 96, 192):
            spec = spec_cls(budget=budget)
            result = select_views(
                SelectionProblem(small_world.inputs), small_scenario, spec
            )
            key = small_scenario.key(result.outcome)
            if previous_key is not None:
                assert key <= previous_key
            previous_key = key

    def test_budget_counts_calls_not_pricings(
        self, small_world, small_scenario
    ):
        # Budgets count evaluate() *calls*, so a pre-warmed memo must
        # not let the search see further down its trajectory.
        problem = SelectionProblem(small_world.inputs)
        cold = select_views(problem, small_scenario, BeamSearchSpec(budget=48))
        priced_cold = problem.stats.priced
        warmed = select_views(
            problem, small_scenario, BeamSearchSpec(budget=48)
        )
        assert warmed.outcome.subset == cold.outcome.subset
        assert problem.stats.priced == priced_cold  # the warm solve priced 0


class TestWarmStart:
    @pytest.mark.parametrize("algorithm", ["beam", "local"])
    def test_unchanged_epoch_returns_incumbent_free(
        self, small_world, small_scenario, algorithm
    ):
        problem = SelectionProblem(small_world.inputs)
        cold = select_views(problem, small_scenario, algorithm)
        priced_cold = problem.stats.priced
        warm = select_views(
            problem,
            small_scenario,
            algorithm,
            warm_start=cold.outcome.subset,
        )
        assert warm.outcome.subset == cold.outcome.subset
        assert repr(warm.outcome.breakdown) == repr(cold.outcome.breakdown)
        # Every evaluation replays the cold trajectory through the
        # problem's memo: nothing is priced anew.
        assert problem.stats.priced == priced_cold

    def test_warm_start_is_an_incumbent_floor(
        self, small_world, small_scenario
    ):
        # A tiny budget cannot rediscover a good subset, but the warm
        # start guarantees the result is never worse than it.
        problem = SelectionProblem(small_world.inputs)
        good = select_views(problem, small_scenario, "beam")
        tiny = BeamSearchSpec(budget=4)
        warm = select_views(
            SelectionProblem(small_world.inputs),
            small_scenario,
            tiny,
            warm_start=good.outcome.subset,
        )
        assert small_scenario.key(warm.outcome) <= small_scenario.key(
            good.outcome
        )

    def test_classic_algorithms_ignore_warm_start(self, paper_problem):
        scenario = mv1(Money(50))
        plain = select_views(paper_problem, scenario, "greedy")
        warmed = select_views(
            paper_problem,
            scenario,
            "greedy",
            warm_start=frozenset({"V1"}),
        )
        assert warmed.outcome.subset == plain.outcome.subset

    def test_unknown_warm_names_are_dropped(
        self, small_world, small_scenario
    ):
        result = select_views(
            SelectionProblem(small_world.inputs),
            small_scenario,
            "beam",
            warm_start=frozenset({"NOT_A_VIEW"}),
        )
        assert small_scenario.feasible(result.outcome)


class TestScreenedExactParity:
    @pytest.mark.parametrize("algorithm", ["beam", "local"])
    def test_kernel_flag_never_changes_selections(
        self, small_world, small_scenario, algorithm
    ):
        # Screening only *orders* moves; reported outcomes flow through
        # the flag-respecting exact path, so kernel on/off is invisible.
        with_kernel = select_views(
            SelectionProblem(small_world.inputs, kernel=True),
            small_scenario,
            algorithm,
        )
        without = select_views(
            SelectionProblem(small_world.inputs, kernel=False),
            small_scenario,
            algorithm,
        )
        assert with_kernel.outcome.subset == without.outcome.subset
        assert repr(with_kernel.outcome.breakdown) == repr(
            without.outcome.breakdown
        )

    def test_reported_outcome_is_pure_decimal_exact(
        self, small_world, small_scenario
    ):
        result = select_views(
            SelectionProblem(small_world.inputs), small_scenario, "beam"
        )
        oracle = SelectionProblem(small_world.inputs, kernel=False).evaluate(
            result.outcome.subset
        )
        assert repr(result.outcome.breakdown) == repr(oracle.breakdown)
        assert result.outcome.total_cost == oracle.total_cost


class TestInfeasible:
    @pytest.mark.parametrize("algorithm", ["beam", "local"])
    def test_impossible_budget_raises(self, small_world, algorithm):
        with pytest.raises(InfeasibleProblemError):
            select_views(
                SelectionProblem(small_world.inputs),
                mv1(Money("0.01")),
                algorithm,
            )


class TestPruning:
    def test_prune_caps_pool(self, big_world):
        pool = prune_candidates(big_world.inputs, keep=64)
        assert len(pool) <= 64
        names = {view.name for view in big_world.candidates}
        assert set(pool) <= names

    def test_prune_is_deterministic(self, big_world):
        assert prune_candidates(big_world.inputs, 64) == prune_candidates(
            big_world.inputs, 64
        )

    def test_protect_keeps_names(self, big_world):
        pool = prune_candidates(big_world.inputs, keep=8)
        outsider = next(
            view.name
            for view in big_world.candidates
            if view.name not in pool
        )
        protected = prune_candidates(
            big_world.inputs, keep=8, protect=frozenset({outsider})
        )
        assert outsider in protected


class TestSearchBudget:
    def test_take_until_exhausted(self):
        budget = SearchBudget(2)
        assert budget.take() and budget.take()
        assert not budget.take()
        assert budget.exhausted

    def test_force_ignores_budget(self):
        budget = SearchBudget(1)
        assert budget.take()
        assert budget.exhausted
        budget.force()  # must not raise
        assert budget.used == 2

    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError):
            SearchBudget(0)

    @pytest.mark.parametrize(
        "spec, budget", [(BeamSearchSpec, -1), (LocalSearchSpec, 0)]
    )
    def test_specs_reject_a_budget_below_one(self, spec, budget):
        with pytest.raises(OptimizationError, match="budget must be positive"):
            spec(budget=budget)


class TestBudgetProxy:
    """MV1 screens rank against the exact budget, not one rounded to cents."""

    def test_screen_just_under_the_budget_ranks_feasible(self):
        scenario = mv1(Money("660605.2400144"))
        cents = 66060524.00144 - 0.0007
        assert proxy_key_fn(scenario)(1.0, cents)[0] == 0.0
        assert proxy_scalar_fn(scenario)(1.0, cents) == 1.0

    def test_screen_just_over_the_budget_ranks_infeasible(self):
        scenario = mv1(Money("178902.2367394"))
        cents = 17890223.67394 + 0.16
        assert proxy_key_fn(scenario)(1.0, cents)[0] == pytest.approx(0.16)
        assert proxy_scalar_fn(scenario)(1.0, cents) > 1e9
