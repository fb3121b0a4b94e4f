"""Explain is strictly passive: recording never moves a single byte.

Two directions:

* **Disabled is free of state** — with no log activated (the
  default), instrumented code takes the NULL path: no chain is
  allocated, nothing is emitted, and runs behave exactly as before
  the provenance layer existed.
* **Enabled never perturbs the books** — a run with a live
  :class:`~repro.explain.ExplainLog` produces ledgers that are
  ``repr``-identical to a run without one, cache-statistics counters
  included: in-run instrumentation only parks deferred closures over
  frozen facts, so not a single extra pricing flows through the
  shared evaluation cache until the log is first *read* — and by
  then every ledger row is a frozen record stamped during the run,
  beyond reach of the resolution's cache traffic.
"""

from __future__ import annotations

from repro.explain import ExplainLog, activate
from repro.simulate import BuildConfig, NeverReselect, make_policy
from repro.simulate.presets import (
    DRIFT_MIN_EPOCHS,
    drifting_sales_simulator,
    multi_tenant_sales_simulator,
)


def _billed_view(ledger):
    return [repr(record) for record in ledger.records]


def _tenant_view(fleet_ledger):
    return {
        name: [repr(r) for r in tenant.records]
        for name, tenant in fleet_ledger.tenants.items()
    }


class TestEnabledNeverPerturbs:
    def test_sync_ledger_is_byte_identical(self):
        baseline = drifting_sales_simulator(
            n_epochs=DRIFT_MIN_EPOCHS, n_rows=8_000, dataset_gb=2.0
        ).run(make_policy("regret"))
        with activate(ExplainLog()) as log:
            recorded = drifting_sales_simulator(
                n_epochs=DRIFT_MIN_EPOCHS, n_rows=8_000, dataset_gb=2.0
            ).run(make_policy("regret"))
        assert log.records, "the instrumented run must actually record"
        assert _billed_view(recorded) == _billed_view(baseline)
        assert recorded.summary() == baseline.summary()

    def test_async_ledger_is_byte_identical(self):
        baseline = drifting_sales_simulator(
            n_epochs=DRIFT_MIN_EPOCHS,
            n_rows=8_000,
            dataset_gb=2.0,
            builds=BuildConfig(),
        ).run(make_policy("periodic", period=4))
        with activate(ExplainLog()):
            recorded = drifting_sales_simulator(
                n_epochs=DRIFT_MIN_EPOCHS,
                n_rows=8_000,
                dataset_gb=2.0,
                builds=BuildConfig(),
            ).run(make_policy("periodic", period=4))
        assert _billed_view(recorded) == _billed_view(baseline)

    def test_tenant_ledgers_are_byte_identical(self):
        baseline = multi_tenant_sales_simulator(
            n_tenants=2, n_epochs=17, n_rows=6_000, dataset_gb=2.0
        ).run(NeverReselect())
        with activate(ExplainLog()):
            recorded = multi_tenant_sales_simulator(
                n_tenants=2, n_epochs=17, n_rows=6_000, dataset_gb=2.0
            ).run(NeverReselect())
        assert _tenant_view(recorded) == _tenant_view(baseline)
        assert _billed_view(recorded.fleet) == _billed_view(baseline.fleet)


class TestDisabledAllocatesNothing:
    def test_disabled_run_emits_nothing(self):
        """A run with no log active leaves the (later-activated) log
        empty: instrumentation reads the seam at call time, and the
        NULL object it found swallowed everything."""
        simulator = drifting_sales_simulator(
            n_epochs=DRIFT_MIN_EPOCHS, n_rows=8_000, dataset_gb=2.0
        )
        simulator.run(NeverReselect())
        with activate(ExplainLog()) as log:
            pass
        assert log.records == ()
        assert log.snapshot() == []
