"""Bench: multi-tenant simulation and shared-cost attribution.

Two claims are kept honest here:

* a 3-tenant lifecycle sweep stays interactive at paper scale — the
  attribution layer rides the same problem cache as the single-tenant
  simulator;
* the books always balance — every benchmarked run re-verifies that
  per-tenant ledgers sum exactly to the fleet ledger.
"""

from __future__ import annotations

from repro.money import ZERO
from repro.simulate import make_policy, multi_tenant_sales_simulator

EPOCHS = 24
ROWS = 20_000
TENANTS = 3


def _exactly_balanced(fleet_ledger) -> bool:
    tenant_sum = sum(
        (ledger.total_cost for ledger in fleet_ledger.tenants.values()), ZERO
    )
    return tenant_sum == fleet_ledger.total_cost


def test_three_tenant_sweep_cold(benchmark):
    """Cold 3-tenant sweep over every policy, attribution included."""

    def sweep():
        simulator = multi_tenant_sales_simulator(
            n_tenants=TENANTS, n_epochs=EPOCHS, n_rows=ROWS
        )
        return simulator.compare(
            [make_policy(name) for name in ("never", "periodic", "regret")]
        )

    ledgers = benchmark(sweep)
    assert len(ledgers) == 3
    assert all(_exactly_balanced(ledger) for ledger in ledgers.values())
