"""The planning estimator and subset evaluation."""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from repro.costmodel import (
    CloudCostModel,
    DeploymentSpec,
    PlanningEstimator,
)
from repro.cube import CandidateView, CuboidLattice, candidates_from_workload
from repro.errors import CostModelError
from repro.pricing import BillingGranularity, aws_2012
from repro.workload import paper_sales_workload


@pytest.fixture(scope="module")
def deployment():
    return DeploymentSpec(
        provider=aws_2012(BillingGranularity.PER_SECOND),
        instance_type="small",
        n_instances=5,
    )


@pytest.fixture(scope="module")
def inputs(sales_dataset_10gb, deployment):
    workload = paper_sales_workload(sales_dataset_10gb.schema, 5)
    lattice = CuboidLattice(sales_dataset_10gb.schema)
    candidates = candidates_from_workload(lattice, workload)
    return PlanningEstimator(sales_dataset_10gb, deployment).build(
        workload, candidates
    )


class TestInputsAreValues:
    def test_inputs_from_equal_workloads_are_equal(
        self, sales_dataset_10gb, deployment
    ):
        schema = sales_dataset_10gb.schema
        estimator = PlanningEstimator(sales_dataset_10gb, deployment)
        candidates = candidates_from_workload(
            CuboidLattice(schema), paper_sales_workload(schema, 5)
        )

        def inputs_for(workload):
            return estimator.build(workload, candidates)

        first = inputs_for(paper_sales_workload(schema, 5))
        second = inputs_for(paper_sales_workload(schema, 5))
        assert first.workload is not second.workload
        assert first == second
        reweighted = paper_sales_workload(schema, 5).reweighted({"Q1": 7.0})
        assert inputs_for(reweighted) != first


class TestModes:
    def test_unknown_mode_rejected(self, sales_dataset_10gb, deployment):
        with pytest.raises(CostModelError):
            PlanningEstimator(sales_dataset_10gb, deployment, mode="magic")

    def test_empirical_mode_requires_unscaled_dataset(
        self, sales_dataset_10gb, deployment
    ):
        with pytest.raises(CostModelError, match="row_scale"):
            PlanningEstimator(sales_dataset_10gb, deployment, mode="empirical")

    def test_empirical_mode_on_unscaled_dataset(
        self, sales_dataset_unscaled, deployment
    ):
        workload = paper_sales_workload(sales_dataset_unscaled.schema, 3)
        lattice = CuboidLattice(sales_dataset_unscaled.schema)
        candidates = candidates_from_workload(lattice, workload)
        estimator = PlanningEstimator(
            sales_dataset_unscaled, deployment, mode="empirical"
        )
        built = estimator.build(workload, candidates)
        # Empirical view rows are exact group counts.
        from repro.engine import Executor

        executor = Executor(sales_dataset_unscaled)
        for candidate in candidates:
            exact = executor.materialize(candidate.grain).stats.groups_out
            assert built.view_stats[candidate.name].rows == exact

    def test_analytic_and_empirical_agree_on_coarse_views(
        self, sales_dataset_unscaled, deployment
    ):
        # Coarse grains saturate, so the Cardenas estimate matches the
        # exact count closely even on skewed data.
        workload = paper_sales_workload(sales_dataset_unscaled.schema, 3)
        lattice = CuboidLattice(sales_dataset_unscaled.schema)
        candidates = candidates_from_workload(lattice, workload)
        analytic = PlanningEstimator(
            sales_dataset_unscaled, deployment, mode="analytic"
        ).build(workload, candidates)
        empirical = PlanningEstimator(
            sales_dataset_unscaled, deployment, mode="empirical"
        ).build(workload, candidates)
        for candidate in candidates:
            a = analytic.view_stats[candidate.name].rows
            e = empirical.view_stats[candidate.name].rows
            assert e <= a * 1.02
            assert e >= a * 0.5


class TestViewStats:
    def test_views_smaller_than_dataset(self, inputs):
        for stats in inputs.view_stats.values():
            assert stats.size_gb < inputs.dataset_gb

    def test_materialization_at_least_one_scan(self, inputs):
        # Write factor >= 1 means materializing costs at least the
        # aggregation itself, which scans the whole dataset.
        for name, stats in inputs.view_stats.items():
            base_scan = inputs.deployment.job_hours(
                inputs.dataset_gb, stats.rows
            )
            assert stats.materialization_hours >= base_scan * 0.999

    def test_maintenance_positive_when_cycles_positive(self, inputs):
        for stats in inputs.view_stats.values():
            assert stats.maintenance_hours_per_cycle > 0


class TestQueryTimes:
    def test_view_times_only_for_answerable_pairs(self, inputs):
        schema = inputs.workload.schema
        for (q_name, v_name) in inputs.view_query_hours:
            query = next(q for q in inputs.workload if q.name == q_name)
            view = inputs.view(v_name)
            assert schema.grain_answers(view.grain, query.grain)

    def test_view_times_beat_base_times(self, inputs):
        for (q_name, _v), hours in inputs.view_query_hours.items():
            assert hours <= inputs.base_query_hours[q_name]

    def test_speedup_cap_limits_view_times(self, sales_dataset_10gb):
        capped_dep = DeploymentSpec(
            provider=aws_2012(BillingGranularity.PER_SECOND),
            instance_type="small",
            n_instances=5,
            view_speedup_cap=2.0,
        )
        workload = paper_sales_workload(sales_dataset_10gb.schema, 5)
        lattice = CuboidLattice(sales_dataset_10gb.schema)
        candidates = candidates_from_workload(lattice, workload)
        built = PlanningEstimator(sales_dataset_10gb, capped_dep).build(
            workload, candidates
        )
        for (q_name, _v), hours in built.view_query_hours.items():
            assert hours >= built.base_query_hours[q_name] / 2.0 - 1e-12


class TestSubsetEvaluation:
    def test_unknown_subset_rejected(self, inputs):
        with pytest.raises(CostModelError):
            inputs.check_subset({"V99"})

    def test_empty_subset_is_base_times(self, inputs):
        hours = inputs.query_hours_with(frozenset())
        assert hours == dict(inputs.base_query_hours)

    def test_processing_hours_monotone_under_inclusion(self, inputs):
        # Adding views can only help (min over more sources).
        names = [c.name for c in inputs.candidates]
        subset = frozenset()
        previous = inputs.processing_hours(subset)
        for name in names:
            subset = subset | {name}
            current = inputs.processing_hours(subset)
            assert current <= previous + 1e-12
            previous = current

    def test_best_source_picks_fastest(self, inputs):
        all_views = frozenset(c.name for c in inputs.candidates)
        for query in inputs.workload:
            best = inputs.best_source(query.name, all_views)
            if best is None:
                continue
            best_hours = inputs.view_query_hours[(query.name, best)]
            for other in all_views:
                other_hours = inputs.view_query_hours.get((query.name, other))
                if other_hours is not None:
                    assert best_hours <= other_hours

    def test_one_scan_gives_hours_and_sources_and_a_tie_keeps_the_first(
        self, sales_dataset_10gb, deployment
    ):
        # Twin candidates on one grain answer a query in equal time;
        # the source is the twin the subset yields first.
        workload = paper_sales_workload(sales_dataset_10gb.schema, 5)
        grain = next(iter(workload)).grain
        twins = (CandidateView("A", grain), CandidateView("B", grain))
        inputs = PlanningEstimator(sales_dataset_10gb, deployment).build(
            workload, twins
        )
        subset = frozenset({"A", "B"})
        hours, sources = inputs.best_sources_with(subset)
        assert hours == inputs.query_hours_with(subset)
        assert sources
        for query in workload:
            assert sources.get(query.name) == inputs.best_source(
                query.name, subset
            )
            if query.name in sources:
                assert sources[query.name] == next(iter(subset))
                assert hours[query.name] < inputs.base_query_hours[query.name]
            else:
                assert hours[query.name] == inputs.base_query_hours[query.name]

    def test_plan_for_counts_views_once(self, inputs):
        subset = frozenset(c.name for c in inputs.candidates[:2])
        plan = inputs.plan_for(subset)
        assert len(plan.materialization_hours) == 2
        assert len(plan.maintenance_hours) == 2
        assert plan.views_total_gb == pytest.approx(
            sum(inputs.view_stats[n].size_gb for n in subset)
        )

    def test_baseline_plan_has_no_view_terms(self, inputs):
        plan = inputs.baseline_plan()
        assert plan.materialization_hours == ()
        assert plan.maintenance_hours == ()
        assert plan.views_total_gb == 0.0


class TestRunsPerPeriod:
    def test_runs_multiply_bill_not_response_time(self, sales_dataset_10gb):
        def build(runs):
            dep = DeploymentSpec(
                provider=aws_2012(BillingGranularity.PER_SECOND),
                instance_type="small",
                n_instances=5,
                runs_per_period=runs,
            )
            workload = paper_sales_workload(sales_dataset_10gb.schema, 3)
            lattice = CuboidLattice(sales_dataset_10gb.schema)
            candidates = candidates_from_workload(lattice, workload)
            inputs = PlanningEstimator(sales_dataset_10gb, dep).build(
                workload, candidates
            )
            outcome = CloudCostModel(dep).evaluate(inputs.baseline_plan())
            return outcome

        once = build(1.0)
        thirty = build(30.0)
        assert thirty.processing_hours == pytest.approx(once.processing_hours)
        assert thirty.computing.processing_cost.to_float() == pytest.approx(
            once.computing.processing_cost.to_float() * 30, rel=1e-9
        )


class TestMaterializationHours:
    """``materialization_hours`` is ``plan_for``'s per-view build hours."""

    @staticmethod
    def _subsets(names, seed):
        rng = random.Random(seed)
        subsets = [frozenset(), frozenset(names)]
        subsets += [frozenset({name}) for name in names]
        for _ in range(4):
            if names:
                subsets.append(frozenset(rng.sample(names, rng.randint(1, len(names)))))
        return subsets

    @pytest.mark.parametrize("seed", range(30))
    def test_equals_the_plans_hours_cascade_or_not(self, seed, random_world_factory):
        world = random_world_factory(seed)
        names = [c.name for c in world.candidates]
        cascade = replace(
            world.inputs,
            deployment=replace(world.deployment, cascade_materialization=True),
        )
        for inputs in (world.inputs, cascade):
            for subset in self._subsets(names, seed):
                hours = inputs.materialization_hours(subset)
                assert hours == inputs.plan_for(subset).materialization_hours
                assert len(hours) == len(subset)

    def test_cascade_builds_share_scans(self, random_world_factory):
        # At least one generated world builds a view from another, so
        # the cascade branch is really taken.
        shared = 0
        for seed in range(30):
            world = random_world_factory(seed)
            full = frozenset(c.name for c in world.candidates)
            cascade = replace(
                world.inputs,
                deployment=replace(world.deployment, cascade_materialization=True),
            )
            shared += cascade.materialization_hours(
                full
            ) != world.inputs.materialization_hours(full)
        assert shared > 0

    def test_sorted_name_order_and_unknown_names(self, inputs):
        names = sorted(c.name for c in inputs.candidates[:3])
        hours = inputs.materialization_hours(frozenset(names))
        assert hours == tuple(
            inputs.view_stats[name].materialization_hours for name in names
        )
        with pytest.raises(CostModelError):
            inputs.materialization_hours({"no-such-view"})

    def test_plan_for_takes_given_build_hours(self, inputs):
        names = sorted(c.name for c in inputs.candidates[:3])
        subset = frozenset(names)
        own = inputs.plan_for(subset)
        charged = [0.0, own.materialization_hours[1], 0.0]
        plan = inputs.plan_for(subset, build_hours=charged)
        assert plan == replace(own, materialization_hours=tuple(charged))
        with pytest.raises(CostModelError, match="2 build hours for 3 views"):
            inputs.plan_for(subset, build_hours=charged[:2])
