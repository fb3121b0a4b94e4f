"""Knapsack DPs against brute force and the dense reference DP."""

from __future__ import annotations

import random
import time
import tracemalloc
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import OptimizationError
from repro.optimizer import (
    KnapsackSolution,
    SelectionProblem,
    max_value_knapsack,
    min_weight_cover,
    mv1,
    select_views,
)


def brute_force_max_value(weights, values, capacity):
    best_value, best_weight = 0.0, 0
    n = len(weights)
    for size in range(n + 1):
        for combo in combinations(range(n), size):
            w = sum(weights[i] for i in combo)
            v = sum(values[i] for i in combo)
            if w <= capacity and (
                v > best_value or (v == best_value and w < best_weight)
            ):
                best_value, best_weight = v, w
    return best_value


def brute_force_min_cover(weights, values, required):
    best = None
    n = len(weights)
    for size in range(n + 1):
        for combo in combinations(range(n), size):
            v = sum(values[i] for i in combo)
            if v < required:
                continue
            w = sum(weights[i] for i in combo)
            if best is None or w < best:
                best = w
    return best


def dense_max_value_knapsack(weights, values, capacity):
    """The MV1 DP over every unit of capacity: the reference.

    The shipped DP stops at the core's total weight; everything it
    reports must equal what this one reports, tie-breaks included.
    """
    free = [i for i, (w, v) in enumerate(zip(weights, values)) if w <= 0 <= v]
    core = [i for i in range(len(weights)) if i not in free]
    effective_capacity = capacity - sum(weights[i] for i in free)
    if effective_capacity < 0:
        return KnapsackSolution(
            chosen=tuple(free),
            total_value=sum(values[i] for i in free),
            total_weight=sum(weights[i] for i in free),
            pre_accepted=tuple(free),
        )
    dp = [0.0] * (effective_capacity + 1)
    taken = [[False] * (effective_capacity + 1) for _ in core]
    for row, i in enumerate(core):
        w, v = weights[i], values[i]
        if w > effective_capacity:
            continue
        for c in range(effective_capacity, w - 1, -1):
            candidate = dp[c - w] + v
            if candidate > dp[c]:
                dp[c] = candidate
                taken[row][c] = True
    c = max(range(effective_capacity + 1), key=lambda c: dp[c])
    chosen_core = []
    for row in range(len(core) - 1, -1, -1):
        if taken[row][c]:
            chosen_core.append(core[row])
            c -= weights[core[row]]
    chosen = sorted(free + chosen_core)
    return KnapsackSolution(
        chosen=tuple(chosen),
        total_value=sum(values[i] for i in chosen),
        total_weight=sum(weights[i] for i in chosen),
        pre_accepted=tuple(free),
    )


def _tie_heavy_instance(rng):
    """0-7 items with free and negative weights and repeated values;
    the capacity runs from negative to far beyond the items' total."""
    n = rng.randint(0, 7)
    weights = [rng.randint(-4, 9) for _ in range(n)]
    values = [
        rng.choice((0.0, 0.5, 1.0, 1.0, 2.0, 3.0, rng.uniform(0, 4)))
        for _ in range(n)
    ]
    total = sum(w for w in weights if w > 0)
    capacity = rng.choice(
        (rng.randint(-6, 0), rng.randint(0, total + 1), total + rng.randint(1, 60))
    )
    return weights, values, capacity


class TestMaxValue:
    def test_textbook_instance(self):
        solution = max_value_knapsack([3, 4, 5], [4.0, 5.0, 6.0], 7)
        assert solution.chosen == (0, 1)
        assert solution.total_value == 9.0

    def test_empty_items(self):
        solution = max_value_knapsack([], [], 10)
        assert solution.chosen == ()

    def test_zero_capacity_takes_only_free_items(self):
        solution = max_value_knapsack([0, 5], [1.0, 10.0], 0)
        assert solution.chosen == (0,)

    def test_negative_weight_items_enlarge_capacity(self):
        # Item 0 pays for item 1.
        solution = max_value_knapsack([-5, 5], [1.0, 10.0], 0)
        assert solution.chosen == (0, 1)
        assert solution.pre_accepted == (0,)

    def test_negative_capacity_with_rescuing_items(self):
        solution = max_value_knapsack([-10, 4], [1.0, 2.0], -2)
        assert 0 in solution.chosen
        assert 1 in solution.chosen  # capacity -2 + 10 = 8 >= 4

    def test_negative_capacity_unrescued(self):
        solution = max_value_knapsack([3], [1.0], -1)
        assert solution.chosen == ()

    def test_negative_values_rejected(self):
        with pytest.raises(OptimizationError):
            max_value_knapsack([1], [-1.0], 10)

    def test_misaligned_inputs_rejected(self):
        with pytest.raises(OptimizationError):
            max_value_knapsack([1, 2], [1.0], 10)

    @given(
        items=st.lists(
            st.tuples(
                st.integers(min_value=-20, max_value=60),
                st.floats(min_value=0, max_value=100, allow_nan=False),
            ),
            max_size=9,
        ),
        capacity=st.integers(min_value=-20, max_value=150),
    )
    @settings(max_examples=120, deadline=None)
    def test_matches_brute_force_value(self, items, capacity):
        weights = [w for w, _ in items]
        values = [v for _, v in items]
        solution = max_value_knapsack(weights, values, capacity)
        # The DP must respect the capacity whenever brute force can.
        if solution.total_weight <= capacity:
            expected = brute_force_max_value(weights, values, capacity)
            assert solution.total_value == pytest.approx(expected)
        else:
            # Only possible when even the free items overshoot a
            # negative capacity; the solution is exactly the free set.
            assert capacity < 0
            assert set(solution.chosen) == set(solution.pre_accepted)


    def test_equals_the_dense_reference_dp(self):
        rng = random.Random(20120326)
        for _ in range(10_000):
            weights, values, capacity = _tie_heavy_instance(rng)
            assert max_value_knapsack(
                weights, values, capacity
            ) == dense_max_value_knapsack(weights, values, capacity), (
                weights,
                values,
                capacity,
            )

    def test_large_slack_costs_nothing(self, random_world_factory):
        """Regression: the DP's size follows the items, not the budget.

        Seed 52's world has 3 candidates and a $828,709.40 slack under
        ``mv1(2 x baseline)``; a DP over every cent of it filled 82.9M
        cells per row (tens of seconds, GiBs of memory).
        """
        problem = SelectionProblem(random_world_factory(52).inputs)
        scenario = mv1(problem.baseline().total_cost * 2)
        tracemalloc.start()
        try:
            started = time.perf_counter()
            select_views(problem, scenario, "knapsack")
            elapsed = time.perf_counter() - started
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert elapsed < 1.0
        assert peak < 64 * 2**20


class TestMinCover:
    def test_textbook_instance(self):
        solution = min_weight_cover([5, 3, 4], [4, 2, 3], 5)
        assert solution.chosen == (1, 2)
        assert solution.total_weight == 7

    def test_zero_requirement_takes_only_free_items(self):
        solution = min_weight_cover([2, -1], [3, 1], 0)
        assert solution.chosen == (1,)

    def test_unreachable_requirement_raises(self):
        with pytest.raises(OptimizationError, match="unreachable"):
            min_weight_cover([1, 1], [2, 3], 10)

    def test_negative_values_rejected(self):
        with pytest.raises(OptimizationError):
            min_weight_cover([1], [-1], 1)

    @given(
        items=st.lists(
            st.tuples(
                st.integers(min_value=-20, max_value=60),
                st.integers(min_value=0, max_value=30),
            ),
            max_size=9,
        ),
        required=st.integers(min_value=0, max_value=80),
    )
    @settings(max_examples=120, deadline=None)
    def test_matches_brute_force_weight(self, items, required):
        weights = [w for w, _ in items]
        values = [v for _, v in items]
        expected = brute_force_min_cover(weights, values, required)
        if expected is None:
            with pytest.raises(OptimizationError):
                min_weight_cover(weights, values, required)
            return
        solution = min_weight_cover(weights, values, required)
        assert solution.total_value >= required
        assert solution.total_weight == expected
