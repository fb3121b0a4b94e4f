"""Population fleets stay linear in tenants — checked by counting work.

A returning quadratic in event application shows up as work per tenant
that grows with the population.  These tests count it instead of
timing it, so they hold on any runner:

* grain validations: every query is validated once, at the boundary it
  enters through (tenant construction, an arriving tenant's splice),
  never again when later churn rebuilds the merged workload;
* roster hints: the compiled arrivals share one roster, so their hints
  add up to O(tenants) entries, not one tail of later tenants each.
"""

from __future__ import annotations

import pytest

from repro.schema.star import StarSchema
from repro.simulate import NeverReselect
from repro.simulate.events import TenantArrival, TenantDeparture
from repro.simulate.presets import population_fleet_simulator

SIZES = (250, 1_000)

#: Grain validations per tenant: its workload, its qualified copy, the
#: churn compiled for it and its arrival, plus the query pool's share.
MAX_VALIDATIONS_PER_TENANT = 6


@pytest.fixture()
def validations(monkeypatch):
    """A counter of ``StarSchema.validate_grain`` calls."""
    calls = {"n": 0}
    validate = StarSchema.validate_grain

    def counting(self, grain):
        calls["n"] += 1
        return validate(self, grain)

    monkeypatch.setattr(StarSchema, "validate_grain", counting)
    return calls


@pytest.mark.parametrize("n_tenants", SIZES)
def test_grain_validations_per_tenant_bounded(n_tenants, validations):
    simulator = population_fleet_simulator(
        n_tenants=n_tenants, elastic=True, n_epochs=4
    )
    summary = simulator.run_sharded(NeverReselect(), shards=8)
    assert summary.fleet.arrival_count > 0
    assert summary.fleet.departure_count > 0
    per_tenant = validations["n"] / n_tenants
    assert per_tenant <= MAX_VALIDATIONS_PER_TENANT, (
        f"{validations['n']} grain validations for {n_tenants} tenants "
        f"({per_tenant:.1f} per tenant): surviving queries are being "
        "re-validated as churn rebuilds the workload"
    )


@pytest.mark.parametrize("n_tenants", SIZES)
def test_roster_hints_linear(n_tenants):
    fleet = population_fleet_simulator(
        n_tenants=n_tenants, elastic=True, n_epochs=4
    ).fleet
    events = fleet.events()
    arrivals = [e for e in events if isinstance(e, TenantArrival)]
    departures = [e for e in events if isinstance(e, TenantDeparture)]
    assert arrivals and departures
    # Shared objects count once, however many events hold them.
    rosters = {id(e.roster): e.roster for e in arrivals}
    entries = sum(len(roster) for roster in rosters.values()) + sum(
        len(e.names) for e in departures
    )
    assert len(rosters) == 1
    assert entries <= 2 * n_tenants
