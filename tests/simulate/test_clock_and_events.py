"""The simulation clock and the event vocabulary."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.pricing import flat_cloud
from repro.simulate import (
    AddQueries,
    DropQueries,
    EventTimeline,
    FleetChange,
    GrowFactTable,
    PriceChange,
    ReweightQueries,
    SimulationClock,
)
from repro.workload import AggregateQuery


class TestClock:
    def test_epochs_tile_the_horizon(self):
        clock = SimulationClock(4, months_per_epoch=1.0)
        epochs = list(clock)
        assert [e.index for e in epochs] == [0, 1, 2, 3]
        assert epochs[0].start_month == 0.0
        assert epochs[3].end_month == clock.horizon_months == 4.0

    def test_len_matches_iteration(self):
        assert len(SimulationClock(7)) == len(list(SimulationClock(7))) == 7

    def test_rejects_empty_or_negative(self):
        with pytest.raises(SimulationError):
            SimulationClock(0)
        with pytest.raises(SimulationError):
            SimulationClock(5, months_per_epoch=0)

    # Fractional-epoch boundary property: boundaries must come from
    # index * months_per_epoch, never cumulative addition — for float
    # lengths like 0.1 the two disagree after a handful of epochs.
    @pytest.mark.parametrize(
        "n_epochs,months", [(500, 0.1), (300, 0.3), (200, 0.7), (120, 1 / 3)]
    )
    def test_fractional_epochs_tile_without_float_drift(
        self, n_epochs, months
    ):
        clock = SimulationClock(n_epochs, months_per_epoch=months)
        epochs = list(clock)
        for earlier, later in zip(epochs, epochs[1:]):
            # Exact equality, not approx: a build landing "at the
            # boundary" must land at one number, not two.
            assert earlier.end_month == later.start_month
        assert epochs[0].start_month == 0.0
        assert epochs[-1].end_month == clock.horizon_months
        for epoch in epochs:
            assert epoch.start_month == epoch.index * months
            assert epoch.end_month == (epoch.index + 1) * months

    def test_naive_summation_would_drift(self):
        # Documents why the grid arithmetic matters: cumulative float
        # addition leaves the 0.1-month grid almost immediately.
        months = 0.1
        cumulative, drifted = 0.0, False
        for index in range(100):
            cumulative += months
            drifted = drifted or cumulative != (index + 1) * months
        assert drifted

    def test_explicit_end_month_still_validated(self):
        from repro.simulate import Epoch

        with pytest.raises(SimulationError, match="before it starts"):
            Epoch(index=0, start_month=2.0, months=1.0, end_month=1.5)
        # Defaulted end falls back to start + months.
        assert Epoch(index=1, start_month=1.0, months=1.0).end_month == 2.0

    def test_boundary_accessor_bounds_checked(self):
        clock = SimulationClock(4, months_per_epoch=0.5)
        assert clock.boundary(4) == clock.horizon_months
        with pytest.raises(SimulationError, match="outside"):
            clock.boundary(5)
        with pytest.raises(SimulationError, match="outside"):
            clock.boundary(-1)


class TestWorkloadDriftEvents:
    def test_add_queries(self, initial_state):
        schema = initial_state.workload.schema
        new = AggregateQuery.per(
            schema, "D1", {"time": "day", "geography": "country"}, 3.0
        )
        after = AddQueries(epoch=1, queries=(new,)).apply(initial_state)
        assert [q.name for q in after.workload][-1] == "D1"
        assert len(after.workload) == len(initial_state.workload) + 1

    def test_add_duplicate_name_fails_loudly(self, initial_state):
        schema = initial_state.workload.schema
        dupe = AggregateQuery.per(
            schema, "Q1", {"time": "day", "geography": "country"}
        )
        with pytest.raises(SimulationError, match="cannot add"):
            AddQueries(epoch=0, queries=(dupe,)).apply(initial_state)

    def test_drop_queries(self, initial_state):
        after = DropQueries(epoch=2, names=("Q1", "Q3")).apply(initial_state)
        assert {q.name for q in after.workload} == {"Q2", "Q4", "Q5"}

    def test_drop_unknown_fails(self, initial_state):
        with pytest.raises(SimulationError, match="cannot drop"):
            DropQueries(epoch=0, names=("nope",)).apply(initial_state)

    def test_drop_everything_fails(self, initial_state):
        names = tuple(q.name for q in initial_state.workload)
        with pytest.raises(SimulationError, match="cannot drop"):
            DropQueries(epoch=0, names=names).apply(initial_state)

    def test_reweight(self, initial_state):
        after = ReweightQueries(
            epoch=3, frequencies=(("Q1", 9.0),)
        ).apply(initial_state)
        by_name = {q.name: q.frequency for q in after.workload}
        assert by_name["Q1"] == 9.0
        assert by_name["Q2"] == 1.0  # untouched

    def test_reweight_unknown_fails(self, initial_state):
        with pytest.raises(SimulationError, match="cannot reweight"):
            ReweightQueries(
                epoch=0, frequencies=(("nope", 2.0),)
            ).apply(initial_state)

    def test_reweight_duplicate_names_rejected(self):
        with pytest.raises(SimulationError, match="more than once"):
            ReweightQueries(
                epoch=0, frequencies=(("Q1", 2.0), ("Q1", 6.0))
            )


class TestWarehouseEvents:
    def test_growth_scales_logical_size(self, initial_state):
        before = initial_state.dataset.logical_size_gb
        after = GrowFactTable(epoch=1, factor=1.5).apply(initial_state)
        assert after.dataset.logical_size_gb == pytest.approx(before * 1.5)
        assert after.growth_factor == pytest.approx(1.5)
        # The original state is untouched (states are immutable).
        assert initial_state.dataset.logical_size_gb == pytest.approx(before)

    def test_price_change_swaps_provider(self, initial_state):
        after = PriceChange(epoch=1, provider=flat_cloud()).apply(
            initial_state
        )
        assert after.deployment.provider.name == "flat-cloud"
        assert initial_state.deployment.provider.name == "aws-2012"

    def test_fleet_change(self, initial_state):
        after = FleetChange(epoch=1, n_instances=3).apply(initial_state)
        assert after.deployment.n_instances == 3

    def test_invalid_parameters_rejected_at_construction(self):
        with pytest.raises(SimulationError):
            GrowFactTable(epoch=0, factor=0.0)
        with pytest.raises(SimulationError):
            FleetChange(epoch=0, n_instances=0)
        with pytest.raises(SimulationError):
            AddQueries(epoch=0, queries=())
        with pytest.raises(SimulationError):
            DropQueries(epoch=-1, names=("Q1",))


class TestTimeline:
    def test_groups_by_epoch_in_schedule_order(self):
        a = GrowFactTable(epoch=2, factor=1.1)
        b = FleetChange(epoch=2, n_instances=2)
        c = GrowFactTable(epoch=5, factor=2.0)
        timeline = EventTimeline([a, b, c])
        assert timeline.at(2) == (a, b)
        assert timeline.at(5) == (c,)
        assert timeline.at(0) == ()
        assert timeline.last_epoch == 5

    def test_check_within(self):
        timeline = EventTimeline([GrowFactTable(epoch=9, factor=1.1)])
        timeline.check_within(10)
        with pytest.raises(SimulationError, match="epoch 9"):
            timeline.check_within(9)
