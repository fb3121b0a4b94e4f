"""The simulation ledger: per-epoch charges and lifetime totals.

Each epoch produces one :class:`EpochRecord` splitting the bill the
way an operator would read it, each charge on a ``<name>_cost`` field.
The charges, their fold order and their labels are declared once, in
:mod:`repro.bill`; every total, books check and CSV column here is
derived from that table:

* ``operating`` — steady-state charges: query processing at the
  epoch's frequencies, view maintenance, storage (base + views),
  result egress;
* ``build`` — materialization compute for views (re)built this
  epoch (carried views are *not* re-charged — that is the difference
  between a lifecycle ledger and the paper's single-shot bill);
* ``teardown`` — egress of dropped views (the view is exported /
  archived out of the warehouse on decommission);
* ``migration`` — both transfer legs of a provider switch
  (dataset + held views out of the source, into the target), charged
  only on epochs where a migration fired (``migrated_to`` names the
  target book);
* ``cancelled`` — sunk compute of builds abandoned before landing
  (asynchronous runs only; a build cancelled while still queued sinks
  nothing).

Asynchronous runs (:mod:`repro.simulate.builds`) additionally split an
epoch into :class:`EpochSegment`\\ s at build-completion times: each
segment names the views that were *live* over a fraction of the
period, and the epoch's ``operating_cost`` is the sum of every
segment's full-period charge scaled by its fraction — partial-period
proration.  An epoch whose holdings equalled the decision's subset
throughout (every synchronous epoch, and every async epoch without
in-flight builds) records no segments.

A :class:`SimulationLedger` accumulates the records for one policy and
answers the comparison questions (total cost, hours, churn,
migrations).

Multi-tenant runs add a second layer: each epoch's fleet record is
split by a :class:`~repro.simulate.attribution.SharedCostAttributor`
into one :class:`TenantEpochRecord` per tenant, accumulated in
per-tenant :class:`TenantLedger`\\ s, and a :class:`FleetLedger` rolls
the fleet history and the tenant histories up together — with
:meth:`FleetLedger.verify_attribution` enforcing that the tenant
ledgers sum *exactly* to the fleet ledger, epoch by epoch.

Elastic fleets (tenants arriving and departing mid-lifecycle via
:class:`~repro.simulate.events.TenantArrival` /
:class:`~repro.simulate.events.TenantDeparture`) add two more billed
channels to each epoch record: ``onboarding`` (inbound load of an
arriving tenant's initial result products) and ``offboarding`` (export
of a departing tenant's final footprint), each carried as
``(tenant, amount)`` pairs so attribution can charge them 100% to the
tenant that caused them.  Tenant ledgers become *ragged* — a tenant
has records only for the epochs it was present — and population-scale
runs fold the merge's :class:`ShareRow`\\ s (one tenant-epoch's charges
as raw ``Decimal``\\ s) into :class:`TenantTotals` accumulators
collected in a :class:`FleetSummary`, never building a record per
tenant-epoch nor materializing the per-tenant matrix in memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from functools import cached_property, reduce
from operator import add, attrgetter, itemgetter
from typing import (
    Callable,
    Dict,
    Generic,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
    Union,
)

from ..bill import COMPONENTS, FLEET_CHARGES
from ..errors import SimulationError
from ..money import MONEY_CONTEXT, Money, ZERO

__all__ = [
    "EpochRecord",
    "EpochSegment",
    "FleetLedger",
    "FleetSummary",
    "ShareRow",
    "SimulationLedger",
    "TenantEpochRecord",
    "TenantLedger",
    "TenantTotals",
    "check_books",
]

#: A tenant record's charge fields, in fold order.
_TENANT_FIELDS = tuple(component.field for component in COMPONENTS)

#: The tenant fields that fold into the fleet's operating charge.
_OPERATING = next(c for c in FLEET_CHARGES if c.name == "operating").parts

#: A record's charges in fold order, at each level.
_fleet_amounts = attrgetter(*(charge.field for charge in FLEET_CHARGES))
_tenant_amounts = attrgetter(*_TENANT_FIELDS)
_operating_amounts = attrgetter(*_OPERATING)
#: A tenant record's charges as raw ``Decimal``\ s, in fold order.
_raw_amounts = attrgetter(*(f"{field}.amount" for field in _TENANT_FIELDS))

_Record = TypeVar("_Record")


@dataclass(frozen=True)
class EpochSegment:
    """A sub-interval of one epoch over which the live views were fixed.

    The asynchronous simulator cuts an epoch at every build-completion
    instant; each resulting segment bills its ``subset``'s full-period
    operating charge scaled by ``fraction``.  Fractions across one
    epoch's segments tile exactly to 1 (the last is computed as the
    residual), so partial-period billing conserves money by
    construction.
    """

    start_month: float
    months: float
    fraction: float
    subset: Tuple[str, ...]

    def describe(self) -> str:
        """``[views]@frac`` — the segment's holdings and period share."""
        views = ",".join(self.subset) if self.subset else "-"
        return f"[{views}]@{self.fraction:.4g}"


@dataclass(frozen=True)
class EpochRecord:
    """One epoch's full accounting."""

    epoch: int
    subset: Tuple[str, ...]
    operating_cost: Money
    build_cost: Money
    teardown_cost: Money
    processing_hours: float
    views_built: Tuple[str, ...]
    views_dropped: Tuple[str, ...]
    reoptimized: bool
    regret: float
    events: Tuple[str, ...]
    #: Transfer legs of a provider switch fired this epoch (zero on
    #: ordinary epochs); the re-materialization side of a migration
    #: lands in ``build_cost`` at the target's rates.
    migration_cost: Money = ZERO
    #: Name of the book migrated to this epoch, if any.
    migrated_to: Optional[str] = None
    #: Builds abandoned before landing this epoch (async runs only).
    views_cancelled: Tuple[str, ...] = ()
    #: Sunk compute of the cancelled builds (zero when they never ran).
    cancelled_cost: Money = ZERO
    #: Wall-clock months between submission and landing, summed over
    #: the views that went live this epoch (0.0 when builds are
    #: synchronous or instant).
    build_latency_months: float = 0.0
    #: Partial-period billing intervals (empty when the decision's
    #: subset was live for the whole epoch — every synchronous epoch).
    segments: Tuple[EpochSegment, ...] = ()
    #: Subset-pricing memo hits this epoch contributed — the
    #: per-epoch delta of the builder's
    #: :class:`~repro.optimizer.problem.EvaluationStats`, which was
    #: previously reachable only through the observer's problem object.
    cache_hits: int = 0
    #: Subsets actually priced through the cost model this epoch (the
    #: evaluate() traffic the caches did *not* absorb).
    subsets_priced: int = 0
    #: Tenants that arrived this epoch, as ``(tenant, onboarding)``
    #: pairs — the inbound-transfer charge of loading each arriving
    #: tenant's initial result products (empty for static fleets).
    arrivals: Tuple[Tuple[str, Money], ...] = ()
    #: Tenants that departed this epoch, as ``(tenant, settlement)``
    #: pairs — the outbound export of each leaver's final footprint,
    #: priced at the book being left (empty for static fleets).
    departures: Tuple[Tuple[str, Money], ...] = ()

    @property
    def onboarding_cost(self) -> Money:
        """Total inbound-load charges of this epoch's arrivals."""
        return sum((amount for _, amount in self.arrivals), ZERO)

    @property
    def offboarding_cost(self) -> Money:
        """Total settlement exports of this epoch's departures."""
        return sum((amount for _, amount in self.departures), ZERO)

    @property
    def evaluate_calls(self) -> int:
        """Subset evaluations this epoch asked for (hits + pricings)."""
        return self.cache_hits + self.subsets_priced

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of this epoch's evaluations answered from cache
        (0.0 when the epoch evaluated nothing)."""
        calls = self.evaluate_calls
        return self.cache_hits / calls if calls else 0.0

    @cached_property
    def total_cost(self) -> Money:
        """Everything this epoch cost: every fleet charge, folded in
        :data:`~repro.bill.FLEET_CHARGES` order.

        Cached: the record is frozen, and the explain layer's delta
        decomposition reads each epoch's total twice (as ``total``,
        then as the next epoch's ``previous_total``) on the hot path.
        """
        return reduce(add, _fleet_amounts(self))

    @property
    def churn(self) -> int:
        """Views touched by the epoch's decision (built + dropped)."""
        return len(self.views_built) + len(self.views_dropped)

    def describe(self) -> str:
        """One ledger line."""
        views = ",".join(self.subset) if self.subset else "-"
        marks = []
        if self.views_built:
            marks.append("+" + ",".join(self.views_built))
        if self.views_dropped:
            marks.append("-" + ",".join(self.views_dropped))
        if self.views_cancelled:
            marks.append("x" + ",".join(self.views_cancelled))
        if self.migrated_to is not None:
            marks.append(f">>{self.migrated_to}")
        if self.arrivals:
            marks.append("++" + ",".join(t for t, _ in self.arrivals))
        if self.departures:
            marks.append("--" + ",".join(t for t, _ in self.departures))
        change = " ".join(marks) if marks else ""
        events = "; ".join(self.events) if self.events else ""
        return (
            f"e{self.epoch:>3}  C={self.total_cost}  "
            f"T={self.processing_hours:.3f}h  [{views}] {change}"
            + (f"  <{events}>" if events else "")
        )


def _lifetime_total(field: str, doc: str) -> property:
    """A ledger's lifetime sum of one record field, from ``ZERO``."""
    amount = attrgetter(field)
    return property(lambda self: sum(map(amount, self._records), ZERO), doc=doc)


def _with_lifetime_totals(cls):
    """Give a ledger class ``total_<charge>_cost`` for every fleet charge."""
    for charge in FLEET_CHARGES:
        doc = f"Lifetime {charge.name} charges."
        setattr(cls, f"total_{charge.field}", _lifetime_total(charge.field, doc))
    return cls


@_with_lifetime_totals
class _EpochLedger(Generic[_Record]):
    """An epoch-ordered record history, with lifetime totals of each
    fleet charge (``total_operating_cost``, ``total_build_cost``, ...).

    The shell :class:`SimulationLedger` and :class:`TenantLedger` share.
    """

    def __init__(self, policy_name: str) -> None:
        self._policy = policy_name
        self._records: List[_Record] = []

    def append(self, record: _Record) -> None:
        """Record the next epoch (indexes must arrive in order)."""
        if self._records and record.epoch <= self._records[-1].epoch:
            raise SimulationError(
                f"epoch {record.epoch} recorded after "
                f"epoch {self._records[-1].epoch}"
            )
        self._records.append(record)

    @property
    def policy_name(self) -> str:
        """The policy that produced this history."""
        return self._policy

    @property
    def records(self) -> Tuple[_Record, ...]:
        """Every epoch's record, in order."""
        return tuple(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[_Record]:
        return iter(self._records)

    total_cost = _lifetime_total("total_cost", "The lifetime bill.")

    @property
    def total_hours(self) -> float:
        """Lifetime processing hours (the response-time metric)."""
        return sum(r.processing_hours for r in self._records)


class SimulationLedger(_EpochLedger[EpochRecord]):
    """The per-epoch cost history of one policy's run."""

    @property
    def migration_count(self) -> int:
        """How many epochs fired a provider migration."""
        return sum(1 for r in self._records if r.migrated_to is not None)

    @property
    def cancel_count(self) -> int:
        """Builds abandoned before landing, over the lifetime."""
        return sum(len(r.views_cancelled) for r in self._records)

    @property
    def arrival_count(self) -> int:
        """Tenants that arrived mid-lifecycle."""
        return sum(len(r.arrivals) for r in self._records)

    @property
    def departure_count(self) -> int:
        """Tenants that departed mid-lifecycle."""
        return sum(len(r.departures) for r in self._records)

    @property
    def total_build_latency_months(self) -> float:
        """Lifetime submit-to-landing wall-clock months, summed over
        every view that went live (0.0 for synchronous runs)."""
        return sum(r.build_latency_months for r in self._records)

    @property
    def total_cache_hits(self) -> int:
        """Lifetime subset-pricing cache hits across all epochs."""
        return sum(r.cache_hits for r in self._records)

    @property
    def total_subsets_priced(self) -> int:
        """Lifetime subsets priced through the cost model."""
        return sum(r.subsets_priced for r in self._records)

    @property
    def cache_hit_rate(self) -> float:
        """Lifetime fraction of evaluations answered from cache."""
        calls = self.total_cache_hits + self.total_subsets_priced
        return self.total_cache_hits / calls if calls else 0.0

    @property
    def rebuild_count(self) -> int:
        """Views (re)built over the lifetime, initial builds included."""
        return sum(len(r.views_built) for r in self._records)

    @property
    def teardown_count(self) -> int:
        """Views decommissioned over the lifetime."""
        return sum(len(r.views_dropped) for r in self._records)

    @property
    def reoptimization_count(self) -> int:
        """How many epochs re-ran the optimizer."""
        return sum(1 for r in self._records if r.reoptimized)

    @property
    def churn(self) -> int:
        """Total views built + dropped."""
        return self.rebuild_count + self.teardown_count

    # -- display --------------------------------------------------------

    def summary(self) -> str:
        """One comparison line: the acceptance metrics.

        Async-only columns (build latency, cancelled builds) appear
        only when nonzero, so synchronous and zero-latency ledgers
        render byte-identically to the pre-async format.
        """
        migrations = (
            f"  migrations={self.migration_count}"
            if self.migration_count
            else ""
        )
        latency = (
            f"  build-latency={self.total_build_latency_months:.3f}mo"
            if self.total_build_latency_months
            else ""
        )
        cancels = (
            f"  cancels={self.cancel_count}" if self.cancel_count else ""
        )
        churn = (
            f"  arrivals={self.arrival_count}"
            f"  departures={self.departure_count}"
            if self.arrival_count or self.departure_count
            else ""
        )
        return (
            f"{self._policy:<18} total={self.total_cost}  "
            f"hours={self.total_hours:.2f}  "
            f"rebuilds={self.rebuild_count}  "
            f"teardowns={self.teardown_count}  "
            f"reoptimizations={self.reoptimization_count}"
            + migrations
            + latency
            + cancels
            + churn
        )

    def render(self) -> str:
        """The full per-epoch ledger as text."""
        lines = [f"policy: {self._policy}"]
        lines += [r.describe() for r in self._records]
        lines.append(self.summary())
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Multi-tenant attribution layer
# ---------------------------------------------------------------------------


def check_books(where: str, checks) -> None:
    """Raise on the first component whose tenant sum misses the fleet.

    ``checks`` holds ``(component, fleet_amount, tenant_sum)`` triples,
    compared exactly; ``where`` is the message prefix, with ``{}``
    standing for the component name.  The message prints both sides to
    the cent and then exactly, with their difference, because a
    last-digit miss rounds to two equal-looking cent amounts.
    """
    for component, fleet_amount, tenant_sum in checks:
        if fleet_amount != tenant_sum:
            raise SimulationError(
                f"{where.format(component)} sum to {tenant_sum}, fleet "
                f"charged {fleet_amount} (exact: {tenant_sum.amount} vs "
                f"{fleet_amount.amount}, difference "
                f"{(tenant_sum - fleet_amount).amount})"
            )


@dataclass(frozen=True)
class TenantEpochRecord:
    """One tenant's attributed share of one epoch's fleet charges.

    The component fields mirror how the fleet bill decomposes —
    processing compute, result transfer, view maintenance, storage
    (base share + view share), builds and teardowns — so a tenant's
    invoice explains *why* it owes what it owes.  Across the fleet's
    tenants, each component sums exactly to the fleet amount (see
    :mod:`repro.simulate.attribution`).
    """

    epoch: int
    tenant: str
    processing_cost: Money
    transfer_cost: Money
    maintenance_cost: Money
    storage_cost: Money
    build_cost: Money
    teardown_cost: Money
    #: The tenant's own frequency-weighted processing hours this epoch.
    processing_hours: float
    #: The tenant's share of a provider switch fired this epoch (zero
    #: on ordinary epochs) — the answer to "which tenant pays for a
    #: migration?".
    migration_cost: Money = ZERO
    #: The tenant's share of sunk compute from builds abandoned this
    #: epoch (async runs only; split by the infrastructure rule).
    cancelled_cost: Money = ZERO
    #: Inbound-load charge of this tenant's own arrival (nonzero only
    #: on the epoch it joined an elastic fleet; 100% direct, no split).
    onboarding_cost: Money = ZERO
    #: Settlement export of this tenant's own departure (nonzero only
    #: on its settlement-only record; 100% direct, no split).
    offboarding_cost: Money = ZERO

    @property
    def operating_cost(self) -> Money:
        """Steady-state share: the parts of the fleet's operating charge."""
        return reduce(add, _operating_amounts(self))

    @property
    def amounts(self) -> Tuple[Decimal, ...]:
        """The charges as raw ``Decimal``\\ s, in
        :data:`~repro.bill.COMPONENTS` order: the view
        :meth:`TenantTotals.fold` reads, as on a :class:`ShareRow`."""
        return _raw_amounts(self)

    @cached_property
    def total_cost(self) -> Money:
        """Everything attributed to the tenant this epoch, folded in
        :data:`~repro.bill.COMPONENTS` order.

        Cached for the same reason as
        :attr:`EpochRecord.total_cost` — the per-tenant delta fold
        reads consecutive totals pairwise.
        """
        return reduce(add, _tenant_amounts(self))

    def describe(self) -> str:
        """One invoice line: the recurring charges, then each other
        charge that is nonzero."""
        charges = ", ".join(
            f"{c.label}={getattr(self, c.field)}"
            for c in _INVOICE
            if c.name in _ALWAYS_INVOICED or getattr(self, c.field)
        )
        return (
            f"e{self.epoch:>3}  C={self.total_cost}  ({charges})  "
            f"T={self.processing_hours:.3f}h"
        )


#: The charges a tenant invoice line always lists, in its order: the
#: warehouse's own charges before result transfer, then the decision's
#: builds and teardowns.  Every other charge follows in fold order, and
#: only when nonzero.
_ALWAYS_INVOICED = ("processing", "maintenance", "storage", "transfer", "build", "teardown")
_INVOICE = [c for name in _ALWAYS_INVOICED for c in COMPONENTS if c.name == name]
_INVOICE += [c for c in COMPONENTS if c.name not in _ALWAYS_INVOICED]


class ShareRow(NamedTuple):
    """One tenant's share of one epoch, as the attribution merge
    streams it: the charges as raw ``Decimal``\\ s in
    :data:`~repro.bill.COMPONENTS` order, the very objects a
    :class:`TenantEpochRecord` wraps in ``Money``.

    :class:`TenantTotals` folds :attr:`amounts` directly; :meth:`record`
    builds the full record for a consumer that keeps it.
    """

    epoch: int
    tenant: str
    #: The tenant's own frequency-weighted processing hours this epoch.
    processing_hours: float
    amounts: Tuple[Decimal, ...]

    def record(self) -> TenantEpochRecord:
        """The :class:`TenantEpochRecord` holding this share."""
        return TenantEpochRecord(
            epoch=self.epoch,
            tenant=self.tenant,
            processing_hours=self.processing_hours,
            **dict(zip(_TENANT_FIELDS, map(Money, self.amounts))),
        )


class TenantLedger(_EpochLedger[TenantEpochRecord]):
    """One tenant's attributed cost history under one policy's run."""

    def __init__(self, tenant: str, policy_name: str) -> None:
        super().__init__(policy_name)
        self._tenant = tenant

    def append(self, record: TenantEpochRecord) -> None:
        """Record the next epoch's share (must belong to this tenant)."""
        if record.tenant != self._tenant:
            raise SimulationError(
                f"record for tenant {record.tenant!r} appended to "
                f"{self._tenant!r}'s ledger"
            )
        super().append(record)

    @property
    def tenant(self) -> str:
        """The tenant this ledger bills."""
        return self._tenant

    # -- display --------------------------------------------------------

    def summary(self) -> str:
        """One comparison line for the tenant."""
        return (
            f"{self._tenant:<12} total={self.total_cost}  "
            f"operating={self.total_operating_cost}  "
            f"build={self.total_build_cost}  "
            f"hours={self.total_hours:.2f}"
        )

    def render(self) -> str:
        """The tenant's full per-epoch invoice as text."""
        lines = [f"tenant: {self._tenant}  (policy: {self._policy})"]
        lines += [r.describe() for r in self._records]
        lines.append(self.summary())
        return "\n".join(lines)


_Books = TypeVar("_Books")


class _FleetBooks(Generic[_Books]):
    """The fleet's own ledger plus one set of books per tenant.

    The shell :class:`FleetLedger` and :class:`FleetSummary` share;
    ``_kind`` names the result in its errors.
    """

    _kind: str

    def __init__(
        self, fleet: SimulationLedger, tenants: Mapping[str, _Books]
    ) -> None:
        if not tenants:
            raise SimulationError(f"a fleet {self._kind} needs at least one tenant")
        self._fleet = fleet
        self._tenants: Dict[str, _Books] = dict(tenants)

    @property
    def fleet(self) -> SimulationLedger:
        """The shared warehouse's own per-epoch ledger."""
        return self._fleet

    @property
    def tenants(self) -> Mapping[str, _Books]:
        """Per-tenant books, by tenant name (fleet order)."""
        return dict(self._tenants)

    @property
    def policy_name(self) -> str:
        """The policy that produced this history."""
        return self._fleet.policy_name

    @property
    def total_cost(self) -> Money:
        """The fleet's lifetime bill (equals the sum of tenant bills)."""
        return self._fleet.total_cost

    def tenant(self, name: str) -> _Books:
        """One tenant's books, by name."""
        try:
            return self._tenants[name]
        except KeyError:
            raise SimulationError(
                f"no tenant named {name!r}; fleet has {self._roster()}"
            ) from None

    def _roster(self) -> str:
        """How a missing-tenant error describes the fleet."""
        return str(sorted(self._tenants))


class FleetLedger(_FleetBooks[TenantLedger]):
    """A fleet run's full accounting: the fleet ledger + tenant ledgers.

    ``fleet`` is the ordinary :class:`SimulationLedger` of the shared
    warehouse; ``tenants`` maps tenant name to its attributed
    :class:`TenantLedger`.  The two views describe the same money:
    :meth:`verify_attribution` re-checks the books and raises if any
    epoch's tenant shares do not sum exactly to the fleet record.
    """

    _kind = "ledger"

    def verify_attribution(self) -> None:
        """Assert the books balance: tenant shares sum to fleet charges.

        Checked exactly (``Decimal`` equality), per epoch and per
        fleet charge of :data:`~repro.bill.FLEET_CHARGES`.  Tenant ledgers may be
        *ragged* — an elastic fleet's tenant has records only for the
        epochs it was present — so each epoch is checked over the
        tenant records that exist for it.  Raises
        :class:`~repro.errors.SimulationError` on the first mismatch.
        """
        fleet_epochs = {r.epoch for r in self._fleet.records}
        by_epoch: Dict[int, List[TenantEpochRecord]] = {}
        for ledger in self._tenants.values():
            for share in ledger.records:
                if share.epoch not in fleet_epochs:
                    raise SimulationError(
                        f"tenant {ledger.tenant!r} has a record for "
                        f"epoch {share.epoch}, which the fleet ledger "
                        f"never billed"
                    )
                by_epoch.setdefault(share.epoch, []).append(share)
        for record in self._fleet.records:
            shares = by_epoch.get(record.epoch, [])
            check_books(f"epoch {record.epoch}: tenant {{}} shares", (
                (charge.name, getattr(record, charge.field),
                 sum((getattr(s, charge.field) for s in shares), ZERO))
                for charge in FLEET_CHARGES
            ))

    def summary(self) -> str:
        """The fleet comparison line plus one line per tenant."""
        lines = [self._fleet.summary()]
        lines += [
            "  " + ledger.summary() for ledger in self._tenants.values()
        ]
        return "\n".join(lines)

    def render(self) -> str:
        """Fleet ledger followed by every tenant's invoice."""
        parts = [self._fleet.render()]
        parts += [ledger.render() for ledger in self._tenants.values()]
        return "\n\n".join(parts)


# ---------------------------------------------------------------------------
# Streaming aggregation for population-scale fleets
# ---------------------------------------------------------------------------


def _charge_reader(parts: Sequence[str]) -> Callable[[Sequence[Decimal]], Decimal]:
    """Reads one fleet charge off a tenant's folded amounts: its
    ``parts`` added in fold order through Money's context, the additions
    the Money-valued properties make."""
    pick = itemgetter(*(_TENANT_FIELDS.index(part) for part in parts))
    if len(parts) == 1:
        return pick
    return lambda amounts: reduce(MONEY_CONTEXT.add, pick(amounts))


#: Each fleet charge's reader, in :data:`~repro.bill.FLEET_CHARGES` order.
_CHARGE_READERS = tuple(_charge_reader(charge.parts) for charge in FLEET_CHARGES)
_operating_of = _charge_reader(_OPERATING)


def _with_charge_totals(cls):
    """Give :class:`TenantTotals` a read-only Money view of each folded
    charge (``processing_cost``, ...)."""
    for index, component in enumerate(COMPONENTS):
        doc = f"Lifetime {component.name} share."
        total = property(lambda self, i=index: Money(self._sums[i]), doc=doc)
        setattr(cls, component.field, total)
    return cls


@_with_charge_totals
class TenantTotals:
    """One tenant's lifetime totals, folded share by share.

    The streaming counterpart of :class:`TenantLedger`: instead of
    keeping every :class:`TenantEpochRecord`, it accumulates each
    component total as shares stream past — O(1) memory per tenant
    regardless of horizon, which is what lets a 10⁴-tenant run merge
    shard outputs without materializing the full per-tenant matrix.
    Folding the same shares in the same order as a
    :class:`TenantLedger` would hold produces totals exactly equal to
    the ledger's: each component is summed as a raw ``Decimal`` through
    Money's own context (the additions Money would make, in identical
    sequence).  The totals, the CSV row and the books check read those
    columns directly and wrap a result in
    :class:`~repro.money.Money` only where one is returned.
    """

    __slots__ = (
        "tenant",
        "_sums",
        "processing_hours",
        "n_records",
        "first_epoch",
        "last_epoch",
    )

    def __init__(self, tenant: str) -> None:
        self.tenant = tenant
        self._sums: List[Decimal] = [ZERO.amount] * len(COMPONENTS)
        self.processing_hours = 0.0
        self.n_records = 0
        self.first_epoch: Optional[int] = None
        self.last_epoch: Optional[int] = None

    def fold(self, share: Union[ShareRow, TenantEpochRecord]) -> None:
        """Accumulate one epoch's share: a :class:`ShareRow` or a
        :class:`TenantEpochRecord`, read through the same ``amounts``
        (must belong to this tenant, and arrive in epoch order)."""
        if share.tenant != self.tenant:
            raise SimulationError(
                f"record for tenant {share.tenant!r} folded into "
                f"{self.tenant!r}'s totals"
            )
        if self.last_epoch is not None and share.epoch <= self.last_epoch:
            raise SimulationError(
                f"tenant {self.tenant!r}: epoch {share.epoch} folded "
                f"after epoch {self.last_epoch}"
            )
        self._sums = list(map(MONEY_CONTEXT.add, self._sums, share.amounts))
        self.processing_hours += share.processing_hours
        self.n_records += 1
        if self.first_epoch is None:
            self.first_epoch = share.epoch
        self.last_epoch = share.epoch

    @property
    def operating_cost(self) -> Money:
        """Lifetime steady-state share."""
        return Money(_operating_of(self._sums))

    def _total(self) -> Decimal:
        """The lifetime bill as a raw ``Decimal``."""
        return reduce(MONEY_CONTEXT.add, self._sums)

    @property
    def total_cost(self) -> Money:
        """The tenant's lifetime attributed bill, folded in
        :data:`~repro.bill.COMPONENTS` order."""
        return Money(self._total())

    #: CSV column names for :meth:`row`, in order: one per charge.
    CSV_HEADER = (
        "tenant",
        "first_epoch",
        "last_epoch",
        "n_records",
        "total",
        *(component.name for component in COMPONENTS),
        "hours",
    )

    def row(self) -> Tuple[str, ...]:
        """One CSV row of full-precision totals (exact ``Decimal``
        strings, so equal books render byte-identically)."""
        return (
            self.tenant,
            "" if self.first_epoch is None else str(self.first_epoch),
            "" if self.last_epoch is None else str(self.last_epoch),
            str(self.n_records),
            str(self._total()),
            *map(str, self._sums),
            f"{self.processing_hours:.10g}",
        )

    def summary(self) -> str:
        """One comparison line for the tenant."""
        span = (
            f"e{self.first_epoch}-e{self.last_epoch}"
            if self.first_epoch is not None
            else "-"
        )
        return (
            f"{self.tenant:<12} total={self.total_cost}  "
            f"operating={self.operating_cost}  "
            f"build={self.build_cost}  "
            f"hours={self.processing_hours:.2f}  [{span}]"
        )


class FleetSummary(_FleetBooks[TenantTotals]):
    """A population-scale fleet run's books: fleet ledger + streamed
    per-tenant totals.

    The streaming counterpart of :class:`FleetLedger` — produced by
    :meth:`~repro.simulate.tenants.MultiTenantSimulator.run_sharded`,
    which folds each shard's :class:`TenantEpochRecord` stream into
    :class:`TenantTotals` without ever holding the full per-tenant
    record matrix.  ``shards`` records how the attribution work was
    partitioned (results are byte-identical for any value).
    """

    _kind = "summary"

    def __init__(
        self,
        fleet: SimulationLedger,
        tenants: Mapping[str, TenantTotals],
        shards: int = 1,
    ) -> None:
        super().__init__(fleet, tenants)
        self._shards = shards

    @property
    def shards(self) -> int:
        """How many attribution shards produced these totals."""
        return self._shards

    def _roster(self) -> str:
        return f"{len(self._tenants)} tenants"

    def verify_totals(self) -> None:
        """Assert the books balance: per-charge tenant totals sum
        exactly to the fleet ledger's lifetime totals.

        Each charge is summed over the tenants' folded columns in fleet
        order from zero, the additions a sum of the Money-valued
        properties makes, and wrapped in Money once."""
        folded = [totals._sums for totals in self._tenants.values()]
        add, zero = MONEY_CONTEXT.add, ZERO.amount
        check_books("lifetime {}: tenant totals", (
            (charge.name, getattr(self._fleet, f"total_{charge.field}"),
             Money(reduce(add, map(read, folded), zero)))
            for charge, read in zip(FLEET_CHARGES, _CHARGE_READERS)
        ))

    def summary(self) -> str:
        """The fleet comparison line plus a tenant-population line."""
        return (
            self._fleet.summary()
            + f"\n  tenants={len(self._tenants)}  shards={self._shards}"
        )

    def render(self, max_tenants: int = 20) -> str:
        """Fleet ledger plus up to ``max_tenants`` tenant lines."""
        lines = [self._fleet.render(), ""]
        shown = 0
        for totals in self._tenants.values():
            if shown >= max_tenants:
                lines.append(
                    f"  ... and {len(self._tenants) - shown} more tenants"
                )
                break
            lines.append("  " + totals.summary())
            shown += 1
        return "\n".join(lines)

    def to_csv(self) -> str:
        """The per-tenant totals as CSV text (header + one row per
        tenant, fleet order, full-precision amounts) — the artifact
        the determinism job ``cmp``\\ s across shard counts."""
        lines = [",".join(TenantTotals.CSV_HEADER)]
        lines += [",".join(t.row()) for t in self._tenants.values()]
        return "\n".join(lines) + "\n"
