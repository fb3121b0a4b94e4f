"""Stochastic drift generators: seeding, scopes, compiled timelines."""

from __future__ import annotations

import random

import pytest

from repro.errors import SimulationError
from repro.pricing.providers import aws_2012
from repro.simulate import (
    GENERATOR_PRESETS,
    AddQueries,
    DropQueries,
    GeneratorContext,
    GeometricGrowth,
    GrowFactTable,
    PoissonQueryChurn,
    PriceChange,
    ReweightQueries,
    SeasonalWave,
    SpotPriceWalk,
    compile_timeline,
    derive_seed,
    elastic_multi_tenant_simulator,
    generator_preset,
    split_by_scope,
    spot_repriced,
    stochastic_sales_simulator,
)
from repro.simulate.stochastic import FleetChurn
from repro.workload import paper_sales_workload


@pytest.fixture()
def context(sales_dataset_10gb):
    return GeneratorContext(
        schema=sales_dataset_10gb.schema,
        base_workload=paper_sales_workload(sales_dataset_10gb.schema, 5),
        provider=aws_2012(),
        n_epochs=12,
    )


#: A fixed sampled fleet: tenants drift, nobody arrives or leaves.
FIXED = FleetChurn(arrival_rate=0.0)


def _timeline_signature(timeline):
    """A comparable identity: epoch + describe() of every event."""
    return tuple((e.epoch, e.describe()) for e in timeline)


class TestSeeding:
    def test_derive_seed_is_stable_and_label_sensitive(self):
        assert derive_seed(7, "trial:0") == derive_seed(7, "trial:0")
        assert derive_seed(7, "trial:0") != derive_seed(7, "trial:1")
        assert derive_seed(7, "trial:0") != derive_seed(8, "trial:0")

    def test_same_seed_compiles_identical_timelines(self, context):
        generators = generator_preset("mixed")
        first = compile_timeline(generators, 99, context)
        second = compile_timeline(generators, 99, context)
        assert _timeline_signature(first) == _timeline_signature(second)
        assert len(first) > 0

    def test_different_seeds_compile_different_timelines(self, context):
        generators = generator_preset("mixed")
        first = compile_timeline(generators, 99, context)
        second = compile_timeline(generators, 100, context)
        assert _timeline_signature(first) != _timeline_signature(second)

    def test_generators_draw_from_independent_streams(self, context):
        """Adding a generator must not perturb the others' samples."""
        churn_alone = compile_timeline((PoissonQueryChurn(),), 5, context)
        churn_with_growth = compile_timeline(
            (PoissonQueryChurn(), GeometricGrowth()), 5, context
        )
        kept = [
            (e.epoch, e.describe())
            for e in churn_with_growth
            if not isinstance(e, GrowFactTable)
        ]
        assert kept == list(_timeline_signature(churn_alone))


class TestGenerators:
    def test_events_stay_within_the_horizon(self, context):
        for name in GENERATOR_PRESETS:
            timeline = compile_timeline(generator_preset(name), 3, context)
            assert timeline.last_epoch < context.n_epochs
            assert all(event.epoch >= 1 for event in timeline)

    def test_churn_drops_only_what_it_added(self, context):
        timeline = compile_timeline(
            (PoissonQueryChurn(arrival_rate=2.0, mean_lifetime=2.0),),
            11,
            context,
        )
        added, dropped = set(), set()
        for event in timeline:
            if isinstance(event, AddQueries):
                added.update(q.name for q in event.queries)
            elif isinstance(event, DropQueries):
                # Every drop must name a query added strictly earlier.
                assert set(event.names) <= added
                dropped.update(event.names)
        assert added
        assert dropped <= added
        assert all(name.startswith("S") for name in added)

    def test_churn_rejects_prefix_colliding_with_base_workload(
        self, context
    ):
        generator = PoissonQueryChurn(arrival_rate=3.0, prefix="Q")
        with pytest.raises(SimulationError, match="collides"):
            compile_timeline((generator,), 11, context)

    def test_seasonal_wave_reweights_every_base_query_positively(
        self, context
    ):
        timeline = compile_timeline(
            (SeasonalWave(period=6.0, amplitude=0.8, jitter=0.1),),
            11,
            context,
        )
        base_names = {q.name for q in context.base_workload}
        events = list(timeline)
        assert len(events) == context.n_epochs - 1
        for event in events:
            assert isinstance(event, ReweightQueries)
            assert {n for n, _ in event.frequencies} == base_names
            assert all(f > 0 for _, f in event.frequencies)

    def test_growth_factors_are_clamped(self, context):
        timeline = compile_timeline(
            (GeometricGrowth(monthly_rate=0.5, sigma=2.0),), 13, context
        )
        for event in timeline:
            assert isinstance(event, GrowFactTable)
            assert 0.5 <= event.factor <= 2.0

    def test_spot_walk_stays_within_bounds(self, context):
        timeline = compile_timeline(
            (SpotPriceWalk(volatility=0.5, floor=0.8, ceiling=1.25),),
            17,
            context,
        )
        rates = []
        for event in timeline:
            assert isinstance(event, PriceChange)
            small = event.provider.compute.instance("small")
            rates.append(small.hourly_rate)
        base = aws_2012().compute.instance("small").hourly_rate
        assert rates  # the walk does move
        for rate in rates:
            assert base * 0.8 <= rate <= base * 1.25

    def test_spot_repriced_scales_only_compute(self):
        base = aws_2012()
        doubled = spot_repriced(base, 2.0)
        assert doubled.compute.instance("small").hourly_rate == (
            base.compute.instance("small").hourly_rate * 2
        )
        assert doubled.storage == base.storage
        assert doubled.transfer == base.transfer
        assert doubled != base
        with pytest.raises(SimulationError):
            spot_repriced(base, 0.0)

    def test_parameter_validation(self):
        with pytest.raises(SimulationError):
            PoissonQueryChurn(arrival_rate=-1.0)
        with pytest.raises(SimulationError):
            PoissonQueryChurn(mean_lifetime=0.0)
        with pytest.raises(SimulationError):
            SeasonalWave(amplitude=1.0)
        with pytest.raises(SimulationError):
            GeometricGrowth(sigma=-0.1)
        with pytest.raises(SimulationError):
            SpotPriceWalk(floor=1.5)

    def test_unknown_preset_rejected(self):
        with pytest.raises(SimulationError, match="unknown generator"):
            generator_preset("chaos")

    def test_split_by_scope(self):
        workload, warehouse = split_by_scope(generator_preset("mixed"))
        assert {type(g) for g in workload} == {
            PoissonQueryChurn,
            SeasonalWave,
        }
        assert {type(g) for g in warehouse} == {
            GeometricGrowth,
            SpotPriceWalk,
        }


class TestStochasticPresets:
    def test_single_tenant_runs_and_is_seed_deterministic(self):
        from repro.simulate import make_policy

        ledgers = []
        for _ in range(2):
            simulator = stochastic_sales_simulator(
                n_epochs=6, n_rows=4_000, seed=3
            )
            ledgers.append(simulator.run(make_policy("regret")).render())
        assert ledgers[0] == ledgers[1]

    def test_drift_seed_varies_the_future_not_the_world(self):
        one = stochastic_sales_simulator(
            n_epochs=6, n_rows=4_000, seed=3, drift_seed=1
        )
        two = stochastic_sales_simulator(
            n_epochs=6, n_rows=4_000, seed=3, drift_seed=2
        )
        assert _timeline_signature(one.timeline) != _timeline_signature(
            two.timeline
        )

    def test_multi_tenant_fleet_attributes_exactly(self):
        from repro.simulate import make_policy

        simulator = elastic_multi_tenant_simulator(
            n_tenants=2, churn=FIXED, n_epochs=6, n_rows=4_000, seed=3
        )
        fleet_ledger = simulator.run(make_policy("never"))
        fleet_ledger.verify_attribution()  # books must balance exactly
        assert set(fleet_ledger.tenants) == {"t1", "t2"}

    def test_tenants_sample_independent_futures(self):
        simulator = elastic_multi_tenant_simulator(
            n_tenants=2,
            churn=FIXED,
            n_epochs=8,
            n_rows=4_000,
            seed=3,
            generator="churn",
        )
        by_tenant = {"t1": [], "t2": []}
        for tenant in simulator.fleet.tenants:
            for event in tenant.events:
                by_tenant[tenant.name].append((event.epoch, event.describe()))
        assert by_tenant["t1"] != by_tenant["t2"]

    def test_short_sampled_fleet_fails_at_the_drift_floor(self, capsys):
        # One epoch leaves no room for drift: the preset, the Monte
        # Carlo harness and the CLI each refuse it with the drift
        # floor's message, not a churn-process one.
        from repro.cli import main
        from repro.simulate import MonteCarloConfig, run_monte_carlo

        floor = "stochastic drift needs at least 2 epochs"
        with pytest.raises(SimulationError, match=floor):
            elastic_multi_tenant_simulator(
                n_tenants=2, churn=FIXED, n_epochs=1, n_rows=4_000
            )
        with pytest.raises(SimulationError, match=floor):
            run_monte_carlo(MonteCarloConfig(n_tenants=2, n_epochs=1, n_rows=4_000))
        argv = ["simulate", "--tenants", "2", "--generator", "mixed", "--epochs", "1"]
        assert main(argv + ["--rows", "4000", "--quiet"]) == 1
        assert floor in capsys.readouterr().err


class TestPoissonSampler:
    def test_mean_tracks_the_rate(self):
        from repro.simulate.stochastic import _poisson

        rng = random.Random(0)
        draws = [_poisson(rng, 3.0) for _ in range(4_000)]
        assert sum(draws) / len(draws) == pytest.approx(3.0, rel=0.05)
        assert _poisson(rng, 0.0) == 0
