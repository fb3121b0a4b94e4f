"""Bench: counterfactual pricing per epoch across K provider books.

The arbitrage layer's cost is one counterfactual problem per quoted
candidate per epoch.  Two claims are kept honest here:

* an arbitrage-wrapped policy sweep over the multi-provider market
  stays interactive (the counterfactual problems flow through the
  same shared caches as the real ones), and
* repeating the sweep over the same timeline is nearly free — every
  counterfactual subset pricing is a cache hit the second time.
"""

from __future__ import annotations

from repro.simulate import (
    ArbitrageAware,
    make_policy,
    default_market,
    stochastic_sales_simulator,
)

EPOCHS = 10
ROWS = 4_000
SEED = 7


def _simulator():
    return stochastic_sales_simulator(
        generator="spot",
        n_epochs=EPOCHS,
        n_rows=ROWS,
        seed=SEED,
        market=default_market(),
    )


def _policy():
    return ArbitrageAware(make_policy("regret"), horizon=6, hysteresis=2)


def test_arbitrage_sweep_cold(benchmark, phase_breakdown):
    """One arbitrage run pricing every epoch against K = 3 books."""

    def run():
        simulator = _simulator()
        return simulator.run(_policy()), simulator

    ledger, simulator = benchmark(run)
    assert len(ledger) == EPOCHS
    # The sweep really built counterfactual problems, not just the
    # active one: one problem per distinct (state, book).  Books share
    # the cluster, so every one re-bills one (dataset, cluster) world.
    assert simulator.builder.problems_cached > EPOCHS // 2
    assert simulator.builder.worlds_built == 1
    phase_breakdown(run)


def test_arbitrage_repeat_run_is_cached(benchmark):
    """A second policy over the same timeline re-prices ~nothing."""
    simulator = _simulator()
    simulator.run(_policy())
    warm = simulator.builder.evaluation_stats().priced

    ledger = benchmark(lambda: simulator.run(_policy()))
    assert len(ledger) == EPOCHS
    stats = simulator.builder.evaluation_stats()
    # Every benchmark round replays cached counterfactuals; pricing
    # work must not grow with the number of replays.
    assert stats.priced == warm
