"""State keys and the incremental problem builder."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.costmodel import PlanningEstimator
from repro.costmodel.maintenance import MaintenancePolicy
from repro.cube import CuboidLattice
from repro.engine.timing import ClusterTimingModel
from repro.optimizer import SelectionProblem
from repro.pricing.providers import archive_cloud
from repro.simulate import (
    DRIFT_MIN_EPOCHS,
    ArbitrageAware,
    EpochProblemBuilder,
    Holdings,
    default_market,
    drifting_sales_simulator,
    full_catalogue,
    make_policy,
)
from repro.simulate.presets import elastic_multi_tenant_simulator
from repro.workload import AggregateQuery


@pytest.fixture()
def builder(initial_state):
    lattice = CuboidLattice(initial_state.workload.schema)
    return EpochProblemBuilder(full_catalogue(lattice))


class TestStateKey:
    def test_stable_for_equal_states(self, initial_state):
        assert initial_state.key() == initial_state.key()

    def test_changes_with_workload(self, initial_state):
        drifted = initial_state.with_workload(
            initial_state.workload.without(["Q1"])
        )
        assert drifted.key() != initial_state.key()

    def test_changes_with_growth(self, initial_state):
        assert initial_state.grown(1.2).key() != initial_state.key()

    def test_changes_with_provider(self, initial_state):
        repriced = initial_state.with_provider(archive_cloud())
        assert repriced.key() != initial_state.key()

    def test_changes_with_fleet(self, initial_state):
        assert initial_state.with_fleet(2).key() != initial_state.key()

    def test_reweighting_changes_key(self, initial_state):
        hot = initial_state.with_workload(
            initial_state.workload.reweighted({"Q1": 5.0})
        )
        assert hot.key() != initial_state.key()

    def test_dataset_size_is_part_of_the_key(self, initial_state):
        """Same name/seed but different logical size must not collide.

        Regression: the key once identified the dataset by (name,
        seed) only, so a 50 GB simulator warmed from a 10 GB cache
        took every pricing from the wrong world.
        """
        from dataclasses import replace

        from repro.data import generate_sales

        bigger = replace(
            initial_state,
            dataset=generate_sales(n_rows=60_000, seed=42, target_gb=50.0),
        )
        assert bigger.key() != initial_state.key()
        denser = replace(
            initial_state,
            dataset=generate_sales(n_rows=30_000, seed=42, target_gb=10.0),
        )
        assert denser.key() != initial_state.key()


class TestFullCatalogue:
    def test_excludes_base_and_is_stable(self, initial_state):
        lattice = CuboidLattice(initial_state.workload.schema)
        catalogue = full_catalogue(lattice)
        grains = [c.grain for c in catalogue]
        assert lattice.base not in grains
        assert len(catalogue) == len(lattice) - 1
        assert [c.name for c in catalogue] == [
            f"V{i + 1}" for i in range(len(catalogue))
        ]
        # Deterministic across constructions.
        assert catalogue == full_catalogue(
            CuboidLattice(initial_state.workload.schema)
        )


class TestEpochProblemBuilder:
    def test_unchanged_state_returns_same_problem(self, builder, initial_state):
        first = builder.problem_for(initial_state)
        second = builder.problem_for(initial_state)
        assert first is second
        assert builder.problems_cached == 1

    @pytest.mark.parametrize(
        "unkeyed",
        [
            {"holdings": Holdings(live=frozenset({"V1"}))},
            {"market": (archive_cloud(),)},
        ],
        ids=["holdings", "market"],
    )
    def test_states_differing_off_the_key_share_one_memo(
        self, builder, initial_state, unkeyed
    ):
        """Holdings and quotes are outside the state key, so a state
        differing only there is handed the same problem, memo and all."""
        other = replace(initial_state, **unkeyed)
        assert other != initial_state
        builder.problem_for(initial_state).evaluate(frozenset({"V1"}))
        problem = builder.problem_for(other)
        problem.evaluate(frozenset({"V1"}))
        assert problem is builder.problem_for(initial_state)
        assert (problem.stats.priced, problem.stats.hits) == (1, 1)
        assert builder.problems_cached == 1

    def test_evaluation_stats_sum_every_problem(self, builder, initial_state):
        first = builder.problem_for(initial_state)
        grown = builder.problem_for(initial_state.grown(1.3))
        first.baseline()
        first.baseline()
        grown.baseline()
        grown.evaluate(frozenset({"V1"}))
        total = builder.evaluation_stats()
        assert (total.calls, total.hits, total.priced) == (4, 1, 3)

    def test_matches_batch_estimator_exactly(self, builder, initial_state):
        """The incremental path must price like the batch build."""
        incremental = builder.problem_for(initial_state).inputs
        batch = PlanningEstimator(
            initial_state.dataset, initial_state.deployment
        ).build(initial_state.workload, builder.catalogue)
        assert incremental.base_query_hours == batch.base_query_hours
        assert incremental.view_query_hours == batch.view_query_hours
        assert incremental.result_sizes_gb == batch.result_sizes_gb
        assert incremental.view_stats == batch.view_stats
        assert incremental.dataset_gb == batch.dataset_gb
        assert incremental == batch

    def test_adding_one_query_prices_one_query(self, builder, initial_state):
        builder.problem_for(initial_state)
        priced_before = builder.queries_priced
        schema = initial_state.workload.schema
        new = AggregateQuery.per(
            schema, "D1", {"time": "day", "geography": "region"}, 2.0
        )
        drifted = initial_state.with_workload(
            initial_state.workload.with_queries([new])
        )
        builder.problem_for(drifted)
        assert builder.queries_priced == priced_before + 1
        assert builder.worlds_built == 1  # same (dataset, deployment) world

    def test_drop_and_reweight_price_nothing(self, builder, initial_state):
        builder.problem_for(initial_state)
        priced_before = builder.queries_priced
        dropped = initial_state.with_workload(
            initial_state.workload.without(["Q2"])
        )
        reweighted = initial_state.with_workload(
            initial_state.workload.reweighted({"Q1": 7.0})
        )
        builder.problem_for(dropped)
        builder.problem_for(reweighted)
        assert builder.queries_priced == priced_before
        assert builder.problems_cached == 3  # three problems, zero new pricings

    def test_growth_opens_a_new_world(self, builder, initial_state):
        builder.problem_for(initial_state)
        builder.problem_for(initial_state.grown(1.3))
        assert builder.worlds_built == 2

    def test_different_catalogues_never_alias_view_names(self, initial_state):
        """Regression: 'V1' only means something relative to a catalogue.

        Two builders enumerating different candidate universes once
        served each other's pricings by name through a shared cache.
        """
        from repro.cube import CandidateView

        lattice = CuboidLattice(initial_state.workload.schema)
        full = EpochProblemBuilder(full_catalogue(lattice))
        coarse_grain = full.catalogue[-1].grain  # some coarse cuboid
        fine_grain = full.catalogue[0].grain
        assert coarse_grain != fine_grain
        renamed = EpochProblemBuilder((CandidateView("V1", coarse_grain),))
        a = full.problem_for(initial_state).evaluate(frozenset({"V1"}))
        b = renamed.problem_for(initial_state).evaluate(frozenset({"V1"}))
        # 'V1' is fine_grain in one universe, coarse_grain in the other.
        assert renamed.problem_for(initial_state).stats.priced == 1
        assert a.breakdown != b.breakdown


POLICIES = ("never", "periodic", "regret")


def _market_sweep():
    """never/periodic/regret, each migration-aware, on a quoted market."""
    simulator = drifting_sales_simulator(
        n_epochs=DRIFT_MIN_EPOCHS, n_rows=2_000, market=default_market()
    )
    simulator.compare(
        [
            ArbitrageAware(make_policy(p), horizon=6, hysteresis=2)
            for p in POLICIES
        ]
    )


def _fleet_sweep():
    """never/periodic/regret over a 3-tenant elastic (churning) fleet."""
    simulator = elastic_multi_tenant_simulator(
        n_tenants=3, n_epochs=8, n_rows=2_000
    )
    simulator.compare([make_policy(p) for p in POLICIES])


class TestOneProblemPerWorld:
    """The traffic finding behind the one per-problem memo.

    A builder returns one problem per state key, and no two of the
    problems it returns share a numeric world: their inputs are
    pairwise distinct values.  A memo keyed by world across problems
    could therefore never hit; reuse across epochs and policies is the
    builder handing an unchanged state its own problem back.
    """

    @pytest.mark.parametrize(
        "sweep", [_market_sweep, _fleet_sweep], ids=["market", "fleet"]
    )
    def test_returned_problems_never_share_a_world(self, sweep, monkeypatch):
        returned = {}
        problem_for = EpochProblemBuilder.problem_for

        def recording(builder, state):
            problem = problem_for(builder, state)
            returned.setdefault(builder, {})[id(problem)] = problem
            return problem

        monkeypatch.setattr(EpochProblemBuilder, "problem_for", recording)
        sweep()
        (problems,) = returned.values()  # one simulator, one builder
        worlds = [p.inputs for p in problems.values()]
        assert len(worlds) > 1
        for i, world in enumerate(worlds):
            assert world not in worlds[i + 1 :]


def _batch_inputs(state, catalogue):
    """The batch path's inputs for ``state``: the reference world."""
    return PlanningEstimator(state.dataset, state.deployment).build(
        state.workload, catalogue
    )


def _replace_deployment(state, **changes):
    from dataclasses import replace

    return replace(state, deployment=replace(state.deployment, **changes))


class TestPhysicsKeyedWorlds:
    """Worlds are keyed by (dataset, cluster); price books share one."""

    def test_price_books_share_one_world(self, builder, initial_state):
        from repro.simulate import default_market, spot_repriced

        market = default_market()
        states = [initial_state.with_provider(book) for book in market]
        states.append(
            initial_state.with_provider(spot_repriced(market[0], 1.37))
        )
        builder.problem_for(states[0])
        priced_after_first = builder.queries_priced
        problems = [builder.problem_for(state) for state in states]
        assert builder.worlds_built == 1
        assert builder.queries_priced == priced_after_first
        assert builder.problems_cached == len(states)
        for state, problem in zip(states, problems):
            # Each problem keeps its own book: the stamped deployment
            # and everything derived from it match the batch path's.
            assert problem.inputs.deployment is state.deployment
            assert problem.inputs == _batch_inputs(state, builder.catalogue)

    def test_shared_world_bills_each_book_at_its_own_rates(
        self, builder, initial_state
    ):
        from repro.pricing.providers import flat_cloud

        aws = builder.problem_for(initial_state).evaluate(frozenset({"V1"}))
        flat_state = initial_state.with_provider(flat_cloud())
        flat = builder.problem_for(flat_state).evaluate(frozenset({"V1"}))
        assert builder.worlds_built == 1
        reference = SelectionProblem(_batch_inputs(flat_state, builder.catalogue))
        assert flat.breakdown == reference.evaluate(frozenset({"V1"})).breakdown
        assert flat.breakdown.total != aws.breakdown.total

    @pytest.mark.parametrize(
        "changes",
        [
            {"instance_type": "large"},
            {"n_instances": 3},
            {"timing": ClusterTimingModel(job_overhead_s=90.0)},
            {"materialization_write_factor": 3.0},
            {"maintenance_policy": MaintenancePolicy.CHEAPEST},
            {"maintenance_cycles": 7},
            {"update_fraction_per_cycle": 0.05},
            {"view_speedup_cap": 2.0},
            {"storage_months": 6.0},
            {"runs_per_period": 4.0},
            {"cascade_materialization": True},
        ],
        ids=lambda changes: next(iter(changes)),
    )
    def test_cluster_change_opens_a_new_world(
        self, builder, initial_state, changes
    ):
        changed = _replace_deployment(initial_state, **changes)
        assert (
            changed.deployment.physics_key()
            != initial_state.deployment.physics_key()
        )
        builder.problem_for(initial_state)
        problem = builder.problem_for(changed)
        assert builder.worlds_built == 2
        assert problem.inputs == _batch_inputs(changed, builder.catalogue)

    def test_malformed_candidate_grain_fails_when_its_world_is_built(
        self, builder, initial_state
    ):
        from repro.cube import CandidateView
        from repro.errors import SchemaError

        # A valid world first, so the schema's answerability memo is
        # warm before the malformed grain arrives.
        builder.problem_for(initial_state)
        schema = initial_state.workload.schema
        malformed = ("not-a-level",) * len(schema.dimensions)
        bad = EpochProblemBuilder((CandidateView("bad", malformed),))
        with pytest.raises(SchemaError):
            bad.problem_for(initial_state)
        query_grain = next(iter(initial_state.workload)).grain
        for _ in range(2):
            with pytest.raises(SchemaError):
                schema.grain_answers(malformed, query_grain)
            with pytest.raises(SchemaError):
                schema.grain_answers(query_grain, malformed[1:])

    def test_breakdown_totals_are_computed_once(self, builder, initial_state):
        breakdown = (
            builder.problem_for(initial_state)
            .evaluate(frozenset({"V1", "V2"}))
            .breakdown
        )
        assert breakdown.total is breakdown.total
        assert breakdown.computing.total is breakdown.computing.total
        assert breakdown.total == (
            breakdown.computing.processing_cost
            + breakdown.computing.maintenance_cost
            + breakdown.computing.materialization_cost
            + breakdown.storage
            + breakdown.transfer
        )
