"""Bench: the lifecycle simulator and its caches.

Two claims are kept honest here:

* a multi-epoch, multi-policy sweep completes in interactive time on
  the paper-scale scenario, and
* the problem cache + incremental problem building do real work — a
  warm re-run over the same simulator re-prices nothing.
"""

from __future__ import annotations

from repro.simulate import drifting_sales_simulator, make_policy

EPOCHS = 24
ROWS = 20_000

ALL_POLICIES = ("never", "periodic", "regret")


def _policies():
    return [make_policy(name) for name in ALL_POLICIES]


def test_three_policy_sweep_cold(benchmark, phase_breakdown):
    """Cold end-to-end sweep: dataset generation excluded, pricing included."""

    def sweep():
        simulator = drifting_sales_simulator(n_epochs=EPOCHS, n_rows=ROWS)
        return simulator.compare(_policies())

    ledgers = benchmark(sweep)
    assert set(ledgers) == {"never", "periodic(every 4)", "regret(>0.05)"}
    phase_breakdown(sweep)


def test_repeat_policy_run_is_cached(benchmark):
    """A re-run of a policy over a warmed simulator prices ~nothing."""
    simulator = drifting_sales_simulator(n_epochs=EPOCHS, n_rows=ROWS)
    simulator.compare(_policies())  # warm every cache
    warmed = simulator.builder.evaluation_stats()

    def rerun():
        return simulator.run(make_policy("regret"))

    ledger = benchmark(rerun)
    assert ledger.total_cost > ledger.total_build_cost
    stats = simulator.builder.evaluation_stats()
    # The warmed run must not have priced any new subset.
    assert stats.priced == warmed.priced
