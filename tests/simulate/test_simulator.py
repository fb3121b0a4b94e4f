"""The lifecycle simulator end to end, on the reference scenario."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.money import ZERO
from repro.simulate import (
    BuildConfig,
    GrowFactTable,
    LifecycleSimulator,
    ReselectionPolicy,
    SimulationClock,
    drifting_sales_simulator,
    make_policy,
)
from repro.telemetry import Telemetry, activate


@pytest.fixture(scope="module")
def ledgers(small_simulator):
    policies = [make_policy(name) for name in ("never", "periodic", "regret")]
    return small_simulator.compare(policies)


class TestLifecycle:
    def test_one_record_per_epoch(self, small_simulator, ledgers):
        for ledger in ledgers.values():
            assert len(ledger) == small_simulator.clock.n_epochs
            assert [r.epoch for r in ledger] == list(
                range(small_simulator.clock.n_epochs)
            )

    def test_initial_build_is_charged_once(self, ledgers):
        never = ledgers["never"]
        first = never.records[0]
        assert first.views_built == first.subset
        assert first.build_cost > ZERO
        # Carried views are never re-charged for materialization.
        for record in never.records[1:]:
            assert record.build_cost == ZERO
            assert record.views_built == ()

    def test_events_are_logged_on_their_epoch(self, small_simulator, ledgers):
        ledger = ledgers["never"]
        by_epoch = {r.epoch: r.events for r in ledger}
        for event in small_simulator.timeline:
            assert event.describe() in by_epoch[event.epoch]

    def test_regret_beats_never_under_drift(self, ledgers):
        """The acceptance criterion: re-selection pays for itself."""
        assert (
            ledgers["regret(>0.05)"].total_cost
            < ledgers["never"].total_cost
        )

    def test_regret_rebuilds_more_but_reoptimizes_less_than_periodic(
        self, ledgers
    ):
        regret = ledgers["regret(>0.05)"]
        periodic = ledgers["periodic(every 4)"]
        assert regret.reoptimization_count < periodic.reoptimization_count
        assert regret.total_cost <= periodic.total_cost

    def test_drift_forces_at_least_one_drop(self, ledgers):
        regret = ledgers["regret(>0.05)"]
        assert any(r.views_dropped for r in regret.records)

    def test_teardown_charged_at_provider_egress_rates(self, initial_state):
        """Dropping a view bills its size as outbound transfer.

        The reference scenario's drops fall inside AWS's free first-GB
        band (teardown legitimately $0), so this uses a flat-rate
        provider where any egress is billed.
        """
        from repro.pricing import flat_cloud
        from repro.simulate import PolicyDecision, ReselectionPolicy

        class DropEverythingAfterOneEpoch(ReselectionPolicy):
            name = "scripted"

            def decide(self, epoch_index, problem, current):
                if current is None:
                    return PolicyDecision(frozenset({"V1"}), reoptimized=True)
                return PolicyDecision(frozenset(), reoptimized=True)

        state = initial_state.with_provider(flat_cloud())
        simulator = LifecycleSimulator(
            initial=state, clock=SimulationClock(2)
        )
        ledger = simulator.run(DropEverythingAfterOneEpoch())
        drop = ledger.records[1]
        assert drop.views_dropped == ("V1",)
        problem = simulator.builder.problem_for(state)
        size_gb = problem.inputs.view_stats["V1"].size_gb
        expected = state.deployment.provider.transfer.outbound_cost(size_gb)
        assert drop.teardown_cost == expected
        assert drop.teardown_cost > ZERO

    def test_cache_avoids_most_pricings(self, small_simulator, ledgers):
        """Multi-epoch + multi-policy runs mostly hit the caches."""
        stats = small_simulator.builder.evaluation_stats()
        assert stats.calls == stats.priced + stats.hits
        assert stats.hits > stats.priced  # most work is avoided
        # Unchanged epochs collapse onto few problems: far fewer than
        # epochs x policies.
        assert small_simulator.builder.problems_cached < 10

    def test_incremental_query_pricing(self, small_simulator, ledgers):
        # 15 candidate grains never repriced per epoch; queries priced
        # once per (signature, world), not once per epoch.
        builder = small_simulator.builder
        n_epochs = small_simulator.clock.n_epochs
        assert builder.queries_priced < n_epochs * 2


class TestConstruction:
    def test_event_past_horizon_rejected(self, initial_state):
        with pytest.raises(SimulationError, match="only runs"):
            LifecycleSimulator(
                initial=initial_state,
                clock=SimulationClock(3),
                events=[GrowFactTable(epoch=5, factor=1.1)],
            )

    def test_epoch_length_must_match_billing_period(self, initial_state):
        """Regression: the bill prices one deployment period per epoch,
        so a 2-month epoch on a 1-month billing period would silently
        halve the horizon's charges."""
        with pytest.raises(SimulationError, match="billing period"):
            LifecycleSimulator(
                initial=initial_state,
                clock=SimulationClock(4, months_per_epoch=2.0),
            )

    def test_preset_rejects_too_few_epochs(self):
        from repro.simulate import DRIFT_MIN_EPOCHS, drifting_sales_simulator

        with pytest.raises(SimulationError, match=str(DRIFT_MIN_EPOCHS)):
            drifting_sales_simulator(n_epochs=DRIFT_MIN_EPOCHS - 1, n_rows=5000)

    def test_duplicate_policy_names_rejected(self, initial_state):
        simulator = LifecycleSimulator(
            initial=initial_state, clock=SimulationClock(2)
        )
        with pytest.raises(SimulationError, match="distinct"):
            simulator.compare([make_policy("never"), make_policy("never")])


class _RecordingPolicy(ReselectionPolicy):
    """Delegates to ``inner`` and records what each decision saw."""

    name = "recording"

    def __init__(self, inner):
        super().__init__()
        self._inner = inner
        self.seen = []

    def decide_in_context(self, epoch_index, problem, current, context):
        self.seen.append((current, context.holdings, context.queue_depth))
        return self._inner.decide_in_context(
            epoch_index, problem, current, context
        )

    def decide(self, epoch_index, problem, current):
        return self._inner.decide(epoch_index, problem, current)


class TestInstantBuildCase:
    """A synchronous run is the build-queue loop with instant builds."""

    def test_sync_run_reports_its_instant_builds(self):
        simulator = drifting_sales_simulator(n_epochs=19, n_rows=3_000)
        assert simulator.builds is None
        with activate(Telemetry()) as collector:
            ledger = simulator.run(make_policy("regret"))
        registry = collector.registry
        assert ledger.rebuild_count > 0
        assert registry.counter("builds.submitted") == ledger.rebuild_count
        assert registry.counter("builds.completed") == ledger.rebuild_count
        latency = registry.histogram("builds.latency_months")
        assert latency.count == ledger.rebuild_count
        assert latency.total == 0
        assert registry.gauge("builds.queue_depth") >= 1

    def test_policies_see_the_previous_decision_live(self):
        policy = _RecordingPolicy(make_policy("regret"))
        ledger = drifting_sales_simulator(n_epochs=19, n_rows=3_000).run(
            policy
        )
        assert len(policy.seen) == len(ledger)
        for current, holdings, queue_depth in policy.seen:
            assert holdings.live == (current or frozenset())
            assert holdings.pending == frozenset()
            assert queue_depth == 0
        assert any(holdings.live for _, holdings, _ in policy.seen)

    def test_build_latency_is_always_a_float(self):
        # Epoch 8 of this run is split with nothing landing: its
        # latency is an empty sum, which must still be a float.
        ledger = drifting_sales_simulator(
            n_epochs=19,
            n_rows=3_000,
            builds=BuildConfig(slots=1, hours_per_month=0.5),
        ).run(make_policy("periodic"))
        assert ledger.records[8].segments
        assert not ledger.records[8].views_built
        for record in ledger:
            assert isinstance(record.build_latency_months, float)
