"""Exact delta decomposition: *why did the bill change this epoch?*

The engine diffs consecutive ledger records and attributes the
epoch-over-epoch cost change to causes as exact
:class:`~repro.money.Money` terms.  The load-bearing invariant — the
one the generative property suite pins over ~50 random fleets and
every preset — is **byte-exactness**: the terms of each
:class:`~repro.explain.records.EpochDeltaRecord` fold to a ``Money``
whose ``repr`` equals the ledger's own
``total_cost(e) - total_cost(e-1)``.

Why that holds, and the two rules that keep it holding:

Exact ``Decimal`` addition and subtraction carry the *minimum* operand
exponent.  The fleet total is a fold of 7 component charges, so
``total(e) - total(e-1)`` has exponent ``min`` over all 14 component
exponents.  Decomposing the delta as the 7 per-component differences
and folding those hits the same multiset of operands, and ``min`` is
associative — same value, same exponent, same ``repr``.  The rules:

1. **Every component emits a term, even a zero one.**  Dropping a
   zero-valued term can drop the minimum exponent and change the
   fold's trailing zeros.
2. **The fold has no seed.**  ``ZERO`` has exponent 0; seeding with it
   could mask a coarser-than-cent delta's exponent.  The fold is
   ``terms[0] + terms[1] + ...`` (see ``EpochDeltaRecord.delta``).

Finer causality — *which event* moved the operating cost — cannot be
expressed at that standard of exactness, because re-pricing the
warehouse after each event introduces amounts that are not operands
of the ledger's own arithmetic.  So the causal split lives one level
down, as :attr:`~repro.explain.records.DeltaTerm.subterms` of the
``operating`` term: a telescoping chain (carry-over, one term per
drift/price/market/churn event, and the residual re-selection effect)
whose sub-terms close *value*-exactly (``==``) against the parent
amount while the top level keeps the byte-exact contract.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..bill import COMPONENTS, FLEET_CHARGES
from ..money import Money
from .records import DeltaTerm, EpochDeltaRecord

__all__ = [
    "FLEET_CAUSES",
    "TENANT_CAUSES",
    "TenantDeltaFold",
    "chain_subterms",
    "decompose_fleet",
    "decompose_tenant",
    "event_cause",
    "fleet_epoch_delta",
    "tenant_epoch_delta",
]


# One (cause, field) pair per charge of the bill (repro.bill), in the
# fold order of the record's total_cost, which query output preserves.
_FLEET_TERMS: Tuple[Tuple[str, str], ...] = tuple(
    (charge.cause, charge.field) for charge in FLEET_CHARGES
)
_TENANT_TERMS: Tuple[Tuple[str, str], ...] = tuple(
    (component.tenant_cause, component.field) for component in COMPONENTS
)

#: The fleet-level causes, in term order.
FLEET_CAUSES: Tuple[str, ...] = tuple(c for c, _ in _FLEET_TERMS)

#: The per-tenant causes, in term order.
TENANT_CAUSES: Tuple[str, ...] = tuple(c for c, _ in _TENANT_TERMS)


# (class, cause) dispatch pairs for event_cause, built on first use.
# repro.simulate imports repro.explain at package init, so importing
# the event classes at module level here would cycle; the one-time
# build keeps the per-event call free of repeated import machinery.
_EVENT_CAUSES: Optional[Tuple[Tuple[type, str], ...]] = None


def event_cause(event: object) -> str:
    """Classify a simulation event into a delta-decomposition cause.

    Args:
        event: Any :mod:`repro.simulate.events` event instance.

    Returns:
        ``"market"`` for provider migrations, ``"price"`` for price /
        market repricing events, ``"churn-arrival"`` /
        ``"churn-departure"`` for tenant churn, and ``"drift"`` for
        every workload-shape event (add/drop/reweight queries, fact
        growth, fleet change).
    """
    global _EVENT_CAUSES
    if _EVENT_CAUSES is None:
        from ..simulate import events as ev

        _EVENT_CAUSES = (
            (ev.ProviderMigration, "market"),
            (ev.PriceChange, "price"),
            (ev.TenantArrival, "churn-arrival"),
            (ev.TenantDeparture, "churn-departure"),
        )
    for cls, cause in _EVENT_CAUSES:
        if isinstance(event, cls):
            return cause
    return "drift"


def _component_terms(
    components: Tuple[Tuple[str, str], ...],
    record: object,
    previous: Optional[object],
    operating_subterms: Tuple[DeltaTerm, ...] = (),
) -> Tuple[DeltaTerm, ...]:
    """One term per component: raw charges on a first record, diffs after.

    Every component always contributes a term (rule 1 above); the
    ``operating`` term carries the causal sub-terms when given.  This
    runs once per epoch per (fleet, tenant) stream on the simulator's
    hot path, hence the hoisted branch and plain ``getattr`` walk.
    """
    if previous is None:
        return tuple(
            DeltaTerm(
                cause=cause,
                amount=getattr(record, name),
                subterms=operating_subterms if cause == "operating" else (),
            )
            for cause, name in components
        )
    return tuple(
        DeltaTerm(
            cause=cause,
            amount=getattr(record, name) - getattr(previous, name),
            subterms=operating_subterms if cause == "operating" else (),
        )
        for cause, name in components
    )


def chain_subterms(
    previous_operating: Money,
    chain: Sequence[Tuple[str, str, Money]],
    epoch_operating: Money,
) -> Tuple[DeltaTerm, ...]:
    """Split one epoch's operating delta into a telescoping event chain.

    Args:
        previous_operating: The previous epoch's operating cost.
        chain: ``(cause, detail, cost)`` triples where the first
            entry's cost is the *baseline* — the pre-event state
            priced at the previous subset — and each later entry's
            cost is the state re-priced after one more event applied
            (same subset throughout).  The first entry's cause/detail
            label the carry-over term.
        epoch_operating: The ledger's actual operating cost this epoch
            (the decision's subset, post-events).

    Returns:
        Sub-terms that telescope: carry-over (baseline minus previous
        operating, emitted only when nonzero — it is exactly zero on
        ordinary synchronous epochs), one term per event (consecutive
        chain difference), and the always-present ``re-selection``
        residual (epoch operating minus the last chain cost).  Their
        plain sum ``==`` the parent operating delta by construction.
    """
    if not chain:
        return (
            DeltaTerm(
                cause="re-selection",
                amount=epoch_operating - previous_operating,
            ),
        )
    terms: List[DeltaTerm] = []
    carry_cause, carry_detail, baseline = chain[0]
    carry = baseline - previous_operating
    if carry:
        terms.append(
            DeltaTerm(cause=carry_cause, amount=carry, detail=carry_detail)
        )
    last = baseline
    for cause, detail, cost in chain[1:]:
        terms.append(
            DeltaTerm(cause=cause, amount=cost - last, detail=detail)
        )
        last = cost
    terms.append(
        DeltaTerm(cause="re-selection", amount=epoch_operating - last)
    )
    return tuple(terms)


def fleet_epoch_delta(
    record,
    previous,
    policy: str,
    operating_subterms: Tuple[DeltaTerm, ...] = (),
    trial: Optional[int] = None,
) -> EpochDeltaRecord:
    """Decompose one fleet epoch's cost change into exact cause terms.

    Args:
        record: The epoch's :class:`~repro.simulate.ledger.EpochRecord`.
        previous: The prior epoch's record, or ``None`` on the first
            epoch (terms are then the raw component charges and sum to
            ``record.total_cost``).
        policy: The policy name stamped on the record.
        operating_subterms: Optional causal refinement attached to the
            ``operating`` term (see :func:`chain_subterms`).
        trial: Monte Carlo trial index, when applicable.

    Returns:
        An :class:`~repro.explain.records.EpochDeltaRecord` whose
        terms fold repr-equal to the ledger delta.
    """
    return EpochDeltaRecord(
        epoch=record.epoch,
        policy=policy,
        total=record.total_cost,
        previous_total=None if previous is None else previous.total_cost,
        terms=_component_terms(
            _FLEET_TERMS, record, previous, operating_subterms
        ),
        trial=trial,
    )


def tenant_epoch_delta(
    share,
    previous,
    policy: str,
    trial: Optional[int] = None,
) -> EpochDeltaRecord:
    """Decompose one tenant's attributed cost change into exact terms.

    Args:
        share: The tenant's
            :class:`~repro.simulate.ledger.TenantEpochRecord`.
        previous: The same tenant's prior record, or ``None`` on its
            first (an elastic tenant's series starts at its arrival).
        policy: The policy name stamped on the record.
        trial: Monte Carlo trial index, when applicable.

    Returns:
        An :class:`~repro.explain.records.EpochDeltaRecord` (with
        ``tenant`` set) whose terms fold repr-equal to the tenant's
        ledger delta.
    """
    return EpochDeltaRecord(
        epoch=share.epoch,
        policy=policy,
        total=share.total_cost,
        previous_total=None if previous is None else previous.total_cost,
        terms=_component_terms(_TENANT_TERMS, share, previous),
        tenant=share.tenant,
        trial=trial,
    )


class TenantDeltaFold:
    """Streams tenant shares into per-tenant delta records.

    The attribution observers feed every
    :class:`~repro.simulate.ledger.TenantEpochRecord` through
    :meth:`feed` in their (deterministic) emission order; the fold
    keeps only each tenant's previous record — O(1) memory per tenant,
    matching the streaming discipline of
    :class:`~repro.simulate.ledger.TenantTotals` — so sharded
    population-scale runs can emit provenance without materializing
    per-tenant ledgers.
    """

    def __init__(self, policy: str) -> None:
        self._policy = policy
        self._previous: dict = {}

    def feed(self, share) -> EpochDeltaRecord:
        """Fold one share; returns its delta record.

        Args:
            share: The next
                :class:`~repro.simulate.ledger.TenantEpochRecord` in
                stream order.
        """
        previous = self._previous.get(share.tenant)
        record = tenant_epoch_delta(share, previous, self._policy)
        self._previous[share.tenant] = share
        return record


def decompose_fleet(ledger, trial: Optional[int] = None) -> Tuple[
    EpochDeltaRecord, ...
]:
    """Post-hoc decomposition of a finished fleet (or plain) ledger.

    Args:
        ledger: A :class:`~repro.simulate.ledger.SimulationLedger`
            (``records`` + ``policy_name``).
        trial: Monte Carlo trial index, when applicable.

    Returns:
        One :class:`~repro.explain.records.EpochDeltaRecord` per
        epoch, in epoch order (no causal sub-terms — those require
        the live event chain only the simulator sees).
    """
    out: List[EpochDeltaRecord] = []
    previous = None
    for record in ledger.records:
        out.append(
            fleet_epoch_delta(record, previous, ledger.policy_name, trial=trial)
        )
        previous = record
    return tuple(out)


def decompose_tenant(
    ledger, policy: Optional[str] = None, trial: Optional[int] = None
) -> Tuple[EpochDeltaRecord, ...]:
    """Post-hoc decomposition of one tenant's attributed ledger.

    Args:
        ledger: A :class:`~repro.simulate.ledger.TenantLedger`.
        policy: Override for the policy name (defaults to the
            ledger's own).
        trial: Monte Carlo trial index, when applicable.

    Returns:
        One delta record per tenant epoch, in record order.
    """
    name = policy if policy is not None else ledger.policy_name
    out: List[EpochDeltaRecord] = []
    previous = None
    for share in ledger.records:
        out.append(tenant_epoch_delta(share, previous, name, trial=trial))
        previous = share
    return tuple(out)
