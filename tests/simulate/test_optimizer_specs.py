"""Optimizer specs through policies, PolicySpec, and Monte Carlo."""

from __future__ import annotations

import pickle

import pytest

from repro.optimizer import BeamSearchSpec, GreedySpec, KnapsackSpec
from repro.simulate import (
    MonteCarloConfig,
    PeriodicReselect,
    PolicySpec,
    make_policy,
    run_monte_carlo,
)


class TestPolicyOptimizerKwarg:
    def test_default_is_greedy(self):
        policy = make_policy("periodic")
        assert policy.algorithm == "greedy"
        assert isinstance(policy.optimizer, GreedySpec)

    def test_optimizer_accepts_name_and_spec(self):
        by_name = make_policy("periodic", optimizer="knapsack")
        by_spec = make_policy("periodic", optimizer=KnapsackSpec())
        assert by_name.algorithm == by_spec.algorithm == "knapsack"

    def test_search_spec_knobs_travel(self):
        spec = BeamSearchSpec(budget=64, seed=9)
        policy = make_policy("regret", optimizer=spec)
        assert policy.optimizer is spec
        assert policy.algorithm == "beam"

    def test_removed_algorithm_kwarg_raises(self):
        """The deprecated ``algorithm=`` spelling is gone from policies
        and from ``PolicySpec``; ``optimizer=`` carries the choice."""
        with pytest.raises(TypeError, match="algorithm"):
            make_policy("periodic", algorithm="knapsack")
        with pytest.raises(TypeError, match="algorithm"):
            PolicySpec("periodic", algorithm="greedy")

    def test_options_after_scenario_are_keyword_only(self):
        """An old positional call cannot slide into another parameter."""
        with pytest.raises(TypeError):
            make_policy("periodic", None, 4)
        with pytest.raises(TypeError):
            PeriodicReselect(4, None, None)

    def test_no_warning_on_optimizer_kwarg(self, recwarn):
        make_policy("periodic", optimizer="greedy")
        assert not [
            w
            for w in recwarn.list
            if issubclass(w.category, DeprecationWarning)
        ]


class TestPolicySpec:
    def test_spec_with_optimizer_pickles(self):
        spec = PolicySpec("regret", optimizer=BeamSearchSpec(budget=32))
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert clone.build().algorithm == "beam"


class TestMonteCarloEquivalence:
    def test_search_optimizer_identical_across_jobs(self):
        config = MonteCarloConfig(
            n_trials=3,
            n_epochs=4,
            n_rows=4_000,
            seed=7,
            policies=(
                PolicySpec(
                    "periodic",
                    optimizer=BeamSearchSpec(budget=48, seed=1),
                ),
            ),
        )
        serial = run_monte_carlo(config, jobs=1)
        parallel = run_monte_carlo(config, jobs=2)
        assert serial.rows() == parallel.rows()
