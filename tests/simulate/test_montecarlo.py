"""Monte Carlo harness: determinism, aggregation, parallel equality."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.money import Money
from repro.simulate import (
    CLAIRVOYANT,
    DistributionSummary,
    MonteCarloConfig,
    MonteCarloResult,
    PolicySpec,
    run_monte_carlo,
    run_trial,
)

#: One small config shared by (and cached across) the tests below.
SMALL = MonteCarloConfig(n_trials=4, n_epochs=6, n_rows=4_000, seed=11)


@pytest.fixture(scope="module")
def small_result():
    return run_monte_carlo(SMALL, jobs=1)


class TestDeterminism:
    def test_jobs_never_change_the_result(self, small_result):
        """The acceptance property: --jobs 1 == --jobs 4, byte for
        byte, because each trial is pure in (config, trial)."""
        parallel = run_monte_carlo(SMALL, jobs=4)
        assert parallel.rows() == small_result.rows()

    def test_same_seed_same_csv_bytes(self, tmp_path, small_result):
        rerun = run_monte_carlo(SMALL, jobs=1)
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        small_result.to_csv(first)
        rerun.to_csv(second)
        assert first.read_bytes() == second.read_bytes()

    def test_different_seed_different_outcomes(self, small_result):
        other = run_monte_carlo(
            MonteCarloConfig(n_trials=4, n_epochs=6, n_rows=4_000, seed=12),
            jobs=1,
        )
        assert other.rows() != small_result.rows()

    def test_trials_sample_distinct_futures(self):
        first = run_trial(SMALL, 0)
        second = run_trial(SMALL, 1)
        assert SMALL.trial_seed(0) != SMALL.trial_seed(1)
        assert [o.total_cost for o in first] != [
            o.total_cost for o in second
        ]

    def test_run_trial_is_idempotent(self):
        assert run_trial(SMALL, 2) == run_trial(SMALL, 2)


class TestAggregation:
    def test_rows_cover_every_policy_and_the_baseline(self, small_result):
        assert small_result.policies == (
            "never",
            "periodic(every 4)",
            "regret(>0.05)",
            CLAIRVOYANT,
        )
        policies = {row[0] for row in small_result.rows()[1:]}
        assert policies == set(small_result.policies)

    def test_clairvoyant_regret_is_zero(self, small_result):
        summary = small_result.metric(CLAIRVOYANT, "regret")
        assert summary.mean == pytest.approx(0.0)
        assert summary.maximum == pytest.approx(0.0)

    def test_regret_is_finite_and_bounded_below(self, small_result):
        """Regret can dip slightly negative (the always-reselect
        baseline pays churn a lazier policy skips) but must stay a
        finite ratio above -1 (cost is positive)."""
        for policy in small_result.policies:
            summary = small_result.metric(policy, "regret")
            assert summary.minimum > -1.0
            assert summary.maximum < float("inf")

    def test_metric_counts_match_trials(self, small_result):
        summary = small_result.metric("never", "total_cost")
        assert summary.n == SMALL.n_trials
        assert summary.minimum <= summary.median <= summary.maximum

    def test_unknown_policy_and_metric_fail_loudly(self, small_result):
        with pytest.raises(SimulationError, match="no policy"):
            small_result.metric("sometimes", "total_cost")
        with pytest.raises(SimulationError, match="unknown metric"):
            small_result.metric("never", "karma")

    def test_result_rejects_incomplete_outcomes(self, small_result):
        with pytest.raises(SimulationError, match="expected"):
            MonteCarloResult(SMALL, small_result.outcomes[:-1])


class TestMultiTenant:
    def test_tenant_totals_join_the_metrics(self):
        config = MonteCarloConfig(
            n_trials=2,
            n_epochs=6,
            n_rows=4_000,
            seed=11,
            n_tenants=2,
            policies=(PolicySpec("regret"),),
        )
        serial = run_monte_carlo(config, jobs=1)
        parallel = run_monte_carlo(config, jobs=2)
        assert serial.rows() == parallel.rows()
        names = serial.metric_names()
        assert "tenant_total_cost[t1]" in names
        assert "tenant_total_cost[t2]" in names
        t1 = serial.metric("regret(>0.05)", "tenant_total_cost[t1]")
        t2 = serial.metric("regret(>0.05)", "tenant_total_cost[t2]")
        fleet = serial.metric("regret(>0.05)", "total_cost")
        assert t1.mean + t2.mean == pytest.approx(fleet.mean)

    @pytest.mark.parametrize(
        "churn, trials", [(0.0, range(8)), (0.4, range(4))]
    )
    def test_async_fleet_books_balance(self, churn, trials):
        """Async fleets split each segment's prorated amounts by float
        weight ratios — an ~70-digit product chain.  Were those
        products rounded, the regrouped tenant shares would miss the
        fleet bill in the last digit; every trial must balance exactly
        (run_trial raises if the books do not)."""
        config = MonteCarloConfig(
            n_trials=8,
            n_epochs=12,
            n_rows=5_000,
            n_tenants=3,
            build_slots=2,
            seed=7,
            tenant_churn=churn,
        )
        for trial in trials:
            outcomes = run_trial(config, trial)
            assert outcomes, f"trial {trial} produced no outcomes"


class TestConfigValidation:
    def test_policy_spec_rejects_unknown_names(self):
        with pytest.raises(SimulationError, match="unknown policy"):
            PolicySpec("sometimes")

    def test_duplicate_policy_labels_rejected(self):
        with pytest.raises(SimulationError, match="identically"):
            MonteCarloConfig(
                policies=(PolicySpec("never"), PolicySpec("never"))
            )

    def test_clairvoyant_label_is_reserved(self):
        spec = PolicySpec("periodic", period=1)
        assert spec.label() == "periodic(every 1)"  # allowed: distinct
        with pytest.raises(SimulationError):
            MonteCarloConfig(n_trials=0)

    def test_unknown_generator_rejected(self):
        with pytest.raises(SimulationError, match="unknown generator"):
            MonteCarloConfig(generator="chaos")

    def test_trial_bounds_enforced(self):
        with pytest.raises(SimulationError, match="outside"):
            run_trial(SMALL, SMALL.n_trials)
        with pytest.raises(SimulationError, match="jobs"):
            run_monte_carlo(SMALL, jobs=0)

    def test_hysteresis_travels_through_the_spec(self):
        spec = PolicySpec("regret", threshold=0.1, hysteresis=3)
        assert spec.label() == "regret(>0.1, hold 3)"
        policy = spec.build()
        assert policy.hysteresis == 3


class TestDistributionSummary:
    def test_moments_and_quantiles(self):
        summary = DistributionSummary.from_values([1.0, 2.0, 3.0, 4.0])
        assert summary.mean == pytest.approx(2.5)
        assert summary.stdev == pytest.approx(1.2909944487)
        assert summary.minimum == 1.0
        assert summary.maximum == 4.0
        assert summary.median == pytest.approx(2.5)
        assert summary.p10 == pytest.approx(1.3)
        assert summary.p90 == pytest.approx(3.7)

    def test_single_sample_has_zero_spread(self):
        summary = DistributionSummary.from_values([5.0])
        assert summary.stdev == 0.0
        assert summary.p10 == summary.p90 == 5.0

    def test_empty_sample_rejected(self):
        with pytest.raises(SimulationError):
            DistributionSummary.from_values([])


class TestTrialOutcomes:
    def test_outcome_totals_are_money(self, small_result):
        outcome = small_result.outcomes[0]
        assert isinstance(outcome.total_cost, Money)
        assert outcome.total_cost >= outcome.build_cost
