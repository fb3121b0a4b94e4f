"""Byte-exactness of the delta decomposition, presets and random fleets.

The contract under test (see :mod:`repro.explain.delta`): every
:class:`~repro.explain.records.EpochDeltaRecord`'s terms fold to a
``Money`` whose ``repr`` equals the ledger's own epoch-over-epoch
delta — trailing zeros, exponent and all — and the causal sub-terms of
the ``operating`` term close value-exactly (``==``) against it.  This
is pinned live (records emitted by an instrumented run) for every
preset regime — sync, async builds, arbitrage, multi-tenant, elastic —
and post-hoc (:func:`~repro.explain.decompose_fleet` /
:func:`~repro.explain.decompose_tenant`) over ~50 seeded random
fleets.
"""

from __future__ import annotations

import pytest

from repro.explain import (
    FLEET_CAUSES,
    TENANT_CAUSES,
    ExplainLog,
    activate,
    decompose_fleet,
    decompose_tenant,
)
from repro.money import Money
from repro.simulate import BuildConfig, NeverReselect, make_policy
from repro.simulate.presets import (
    DRIFT_MIN_EPOCHS,
    default_market,
    drifting_sales_simulator,
    multi_tenant_sales_simulator,
)

RANDOM_SEEDS = range(50)


def _assert_exact(delta_records, ledger_records, causes):
    """Each record's terms fold repr-equal to the ledger's own delta."""
    assert len(delta_records) == len(ledger_records)
    previous = None
    for record, epoch in zip(delta_records, ledger_records):
        # Rule 1: every component term is present, even when zero.
        assert tuple(t.cause for t in record.terms) == tuple(causes)
        if previous is None:
            expected = epoch.total_cost
            assert record.previous_total is None
        else:
            expected = epoch.total_cost - previous.total_cost
            assert repr(record.previous_total) == repr(previous.total_cost)
        assert repr(record.delta()) == repr(expected), (
            f"epoch {record.epoch}: terms fold to {record.delta()!r}, "
            f"ledger says {expected!r}"
        )
        assert repr(record.total) == repr(epoch.total_cost)
        _assert_subterms_close(record)
        previous = epoch


def _assert_subterms_close(record):
    """Causal sub-terms close value-exactly against the parent term."""
    for term in record.terms:
        if not term.subterms:
            continue
        folded = term.subterms[0].amount
        for sub in term.subterms[1:]:
            folded = folded + sub.amount
        assert folded == term.amount, (
            f"epoch {record.epoch}: {term.cause} sub-terms sum to "
            f"{folded!r}, parent term is {term.amount!r}"
        )


def _deltas(log, tenant=None):
    return [
        r
        for r in log.records
        if type(r).kind == "epoch-delta" and r.tenant == tenant
    ]


class TestPresetRegimes:
    """Live emission is byte-exact in every simulation regime."""

    @pytest.mark.parametrize("policy_name", ["never", "periodic", "regret"])
    def test_sync_drifting(self, policy_name):
        simulator = drifting_sales_simulator(
            n_epochs=DRIFT_MIN_EPOCHS, n_rows=8_000, dataset_gb=2.0
        )
        with activate(ExplainLog()) as log:
            ledger = simulator.run(make_policy(policy_name))
        _assert_exact(_deltas(log), ledger.records, FLEET_CAUSES)
        triggers = [r for r in log.records if type(r).kind == "policy-trigger"]
        assert len(triggers) == len(ledger.records)
        assert triggers[0].trigger == "initial"

    def test_async_builds(self):
        simulator = drifting_sales_simulator(
            n_epochs=DRIFT_MIN_EPOCHS,
            n_rows=8_000,
            dataset_gb=2.0,
            builds=BuildConfig(),
        )
        with activate(ExplainLog()) as log:
            ledger = simulator.run(make_policy("periodic", period=4))
        _assert_exact(_deltas(log), ledger.records, FLEET_CAUSES)
        outcomes = [r for r in log.records if type(r).kind == "build-outcome"]
        assert outcomes, "async runs must record build outcomes"

    def test_arbitrage_market(self):
        simulator = drifting_sales_simulator(
            n_epochs=DRIFT_MIN_EPOCHS,
            n_rows=8_000,
            dataset_gb=2.0,
            market=default_market(),
        )
        from repro.simulate.arbitrage import ArbitrageAware

        policy = ArbitrageAware(
            make_policy("periodic", period=4), horizon=6, hysteresis=1
        )
        with activate(ExplainLog()) as log:
            ledger = simulator.run(policy)
        _assert_exact(_deltas(log), ledger.records, FLEET_CAUSES)
        quotes = [
            r for r in log.records if type(r).kind == "arbitrage-assessment"
        ]
        assert quotes, "arbitrage runs must record per-book assessments"

    def test_multi_tenant_fleet_and_tenants(self):
        simulator = multi_tenant_sales_simulator(
            n_tenants=2, n_epochs=17, n_rows=6_000, dataset_gb=2.0
        )
        with activate(ExplainLog()) as log:
            ledger = simulator.run(NeverReselect())
        _assert_exact(_deltas(log), ledger.fleet.records, FLEET_CAUSES)
        for name, tenant_ledger in ledger.tenants.items():
            _assert_exact(
                _deltas(log, tenant=name),
                tenant_ledger.records,
                TENANT_CAUSES,
            )


class TestRandomFleets:
    """Post-hoc decomposition is byte-exact over ~50 generated fleets."""

    def test_fifty_seeded_fleets(self, random_fleet_factory):
        for seed in RANDOM_SEEDS:
            fleet = random_fleet_factory(seed)
            ledger = fleet.simulator().run(NeverReselect())
            _assert_exact(
                decompose_fleet(ledger.fleet),
                ledger.fleet.records,
                FLEET_CAUSES,
            )
            for tenant_ledger in ledger.tenants.values():
                _assert_exact(
                    decompose_tenant(tenant_ledger),
                    tenant_ledger.records,
                    TENANT_CAUSES,
                )

    def test_live_emission_matches_posthoc(self, random_fleet_factory):
        """The streamed fold and the post-hoc walk produce the same
        records for the same run — tenant by tenant, epoch by epoch."""
        fleet = random_fleet_factory(0)
        with activate(ExplainLog()) as log:
            ledger = fleet.simulator().run(NeverReselect())
        for name, tenant_ledger in ledger.tenants.items():
            live = _deltas(log, tenant=name)
            posthoc = list(
                decompose_tenant(tenant_ledger, policy=live[0].policy)
            )
            assert live == posthoc


class TestChainSubterms:
    """The telescoping operating-cost chain, in isolation."""

    def test_empty_chain_is_pure_reselection(self):
        from repro.explain import chain_subterms

        (term,) = chain_subterms(Money("3"), (), Money("5"))
        assert term.cause == "re-selection"
        assert repr(term.amount) == repr(Money("5") - Money("3"))

    def test_chain_telescopes_and_closes(self):
        from repro.explain import chain_subterms

        subterms = chain_subterms(
            Money("10"),
            (
                ("carry-over", "", Money("10")),
                ("drift", "+queries[D1]", Money("13.5")),
                ("price", "reprice", Money("12")),
            ),
            Money("11.25"),
        )
        # Zero carry-over is elided; drift, price, residual remain.
        assert [t.cause for t in subterms] == [
            "drift",
            "price",
            "re-selection",
        ]
        folded = subterms[0].amount
        for term in subterms[1:]:
            folded = folded + term.amount
        assert folded == Money("11.25") - Money("10")

    def test_nonzero_carry_over_is_kept(self):
        from repro.explain import chain_subterms

        subterms = chain_subterms(
            Money("10"),
            (("carry-over", "builds landed", Money("9")),),
            Money("9.5"),
        )
        assert [t.cause for t in subterms] == ["carry-over", "re-selection"]
        assert subterms[0].amount == Money("-1")
