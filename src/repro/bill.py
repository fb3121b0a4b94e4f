"""The bill's components, declared once.

A lifecycle bill is the paper's computing, storage and transfer charges,
split the way an operator reads them, plus the one-off charges of
re-selection, migration, cancelled builds and tenant churn.  Each row of
:data:`COMPONENTS` is one charge of a tenant's share: the record field it
lands on (``<name>_cost``), the fleet charge it books into, the cause of
its explain term at tenant and at fleet level, and its invoice label.
Record totals, ledger totals, books checks, tenant CSV columns and
explain terms all read this table.

Rows are in fold order: a record's total adds its charges left to right
in this order.  Exact ``Decimal`` sums carry the minimum operand exponent,
so the order is part of the output bytes.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Tuple

__all__ = ["COMPONENTS", "Component", "FLEET_CHARGES", "FleetCharge"]


class Component(NamedTuple):
    """One charge of a tenant's share of the bill."""

    name: str
    #: The fleet charge this one books into.
    fleet: str
    tenant_cause: str
    fleet_cause: str
    label: str

    @property
    def field(self) -> str:
        """The record field holding the charge."""
        return f"{self.name}_cost"


#: Every charge, in fold order.  The four steady-state parts book into
#: the fleet's one ``operating`` charge; the rest book one to one.
COMPONENTS: Tuple[Component, ...] = (
    # name, fleet charge, tenant cause, fleet cause, invoice label
    Component("processing", "operating", "processing", "operating", "proc"),
    Component("transfer", "operating", "transfer", "operating", "xfer"),
    Component("maintenance", "operating", "maintenance", "operating", "maint"),
    Component("storage", "operating", "storage", "operating", "stor"),
    Component("build", "build", "builds", "builds", "build"),
    Component("teardown", "teardown", "teardown", "teardown", "drop"),
    Component("migration", "migration", "migration", "migration", "move"),
    Component("cancelled", "cancelled", "cancelled-builds", "cancelled-builds", "sunk"),
    Component("onboarding", "onboarding", "arrival", "churn-arrivals", "onboard"),
    Component("offboarding", "offboarding", "departure", "churn-departures", "offboard"),
)


class FleetCharge(NamedTuple):
    """One charge of the fleet bill, with the tenant record fields that
    book into it (in fold order)."""

    name: str
    cause: str
    #: The fleet record field (``total_<field>`` on a ledger).
    field: str
    parts: Tuple[str, ...]


def _fleet_charges() -> Tuple[FleetCharge, ...]:
    charges: Dict[str, FleetCharge] = {}
    for c in COMPONENTS:
        parts = charges[c.fleet].parts if c.fleet in charges else ()
        field = f"{c.fleet}_cost"
        charges[c.fleet] = FleetCharge(c.fleet, c.fleet_cause, field, parts + (c.field,))
    return tuple(charges.values())


#: The fleet bill's charges, in fold order.
FLEET_CHARGES: Tuple[FleetCharge, ...] = _fleet_charges()
