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

Multi-tenant runs add a second layer.  Each epoch's fleet record is
split by a :class:`~repro.simulate.attribution.SharedCostAttributor`
into one :class:`TenantEpochRecord` per tenant: the tenant's charges
as raw ``Decimal``\\ s in :data:`~repro.bill.COMPONENTS` order, each
readable as a ``<name>_cost`` :class:`~repro.money.Money`.  A
tenant's books are a :class:`TenantTotals`, which folds the records
into lifetime totals as they stream past; a :class:`TenantLedger` is
the same fold that also keeps the records.  A :class:`FleetSummary`
holds the fleet ledger and one set of tenant books per tenant, checks
that the tenant totals sum *exactly* to the fleet's lifetime charges
(:meth:`FleetSummary.verify_totals`) and writes them as CSV; a
:class:`FleetLedger` is the summary of kept ledgers, and
:meth:`FleetLedger.verify_attribution` checks the sum epoch by epoch.

Elastic fleets (tenants arriving and departing mid-lifecycle via
:class:`~repro.simulate.events.TenantArrival` /
:class:`~repro.simulate.events.TenantDeparture`) add two more billed
channels to each epoch record: ``onboarding`` (inbound load of an
arriving tenant's initial result products) and ``offboarding`` (export
of a departing tenant's final footprint), each carried as
``(tenant, amount)`` pairs so attribution can charge them 100% to the
tenant that caused them.  Tenant books become *ragged* — a tenant
has records only for the epochs it was present — and population-scale
runs keep only the :class:`TenantTotals`, never materializing the
tenant x epoch matrix in memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from functools import cached_property, partial, reduce
from operator import add, attrgetter, itemgetter
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from ..bill import COMPONENTS, FLEET_CHARGES
from ..errors import SimulationError
from ..money import MONEY_CONTEXT, Money, ZERO

__all__ = [
    "EpochRecord",
    "EpochSegment",
    "FleetLedger",
    "FleetSummary",
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

#: A fleet record's charges, in fold order.
_fleet_amounts = attrgetter(*(charge.field for charge in FLEET_CHARGES))

#: Raw ``Decimal`` amounts added left to right through Money's context.
_fold = partial(reduce, MONEY_CONTEXT.add)


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


def _with_lifetime_totals(total: Callable[[str], Callable]):
    """Give a ledger class ``total_<charge>_cost`` for every fleet
    charge, ``total(field)`` reading the lifetime sum of one field."""

    def decorate(cls):
        for charge in FLEET_CHARGES:
            doc = f"Lifetime {charge.name} charges."
            setattr(cls, f"total_{charge.field}", property(total(charge.field), doc=doc))
        return cls

    return decorate


def _record_sum(field: str) -> Callable:
    """A ledger's lifetime sum of one record field, from ``ZERO``."""
    amount = attrgetter(field)
    return lambda self: sum(map(amount, self._records), ZERO)


@_with_lifetime_totals(_record_sum)
class SimulationLedger:
    """The per-epoch cost history of one policy's run, with lifetime
    totals of each fleet charge (``total_operating_cost``,
    ``total_build_cost``, ...)."""

    def __init__(self, policy_name: str) -> None:
        self._policy = policy_name
        self._records: List[EpochRecord] = []

    def append(self, record: EpochRecord) -> None:
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
    def records(self) -> Tuple[EpochRecord, ...]:
        """Every epoch's record, in order."""
        return tuple(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[EpochRecord]:
        return iter(self._records)

    total_cost = property(_record_sum("total_cost"), doc="The lifetime bill.")

    @property
    def total_hours(self) -> float:
        """Lifetime processing hours (the response-time metric)."""
        return sum(r.processing_hours for r in self._records)

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


def _charge_reader(parts: Sequence[str]) -> Callable[[Sequence[Decimal]], Decimal]:
    """Reads one fleet charge off a tenant's amounts: its ``parts``
    added in fold order through Money's context, the additions the
    Money-valued charges make."""
    pick = itemgetter(*(_TENANT_FIELDS.index(part) for part in parts))
    if len(parts) == 1:
        return pick
    return lambda amounts: _fold(pick(amounts))


#: Each fleet charge's reader, in :data:`~repro.bill.FLEET_CHARGES` order.
_CHARGE_READERS = tuple(_charge_reader(charge.parts) for charge in FLEET_CHARGES)
_operating_of = _charge_reader(_OPERATING)


def _check_tenant_sums(
    where: str, fleet: Iterable[Money], shares: Sequence[Sequence[Decimal]]
) -> None:
    """:func:`check_books` for every fleet charge: ``fleet`` holds the
    fleet's amounts in :data:`~repro.bill.FLEET_CHARGES` order, each
    checked against its charge read off every tenant's ``shares`` and
    summed in the order given from zero, the additions a sum of the
    Money-valued charges makes, then wrapped in Money once."""
    add, zero = MONEY_CONTEXT.add, ZERO.amount
    check_books(where, (
        (charge.name, amount, Money(reduce(add, map(read, shares), zero)))
        for charge, amount, read in zip(FLEET_CHARGES, fleet, _CHARGE_READERS)
    ))


def _with_charges(whose: str):
    """Give a class holding ``amounts`` (raw ``Decimal``\\ s in
    :data:`~repro.bill.COMPONENTS` order) a read-only Money view of each
    charge (``processing_cost``, ...), of their steady-state part
    (``operating_cost``) and of their total (``total_cost``); ``whose``
    opens each view's doc."""

    def decorate(cls):
        for index, component in enumerate(COMPONENTS):
            view = property(
                lambda self, i=index: Money(self.amounts[i]),
                doc=f"{whose} {component.name} charge.",
            )
            setattr(cls, component.field, view)
        cls.operating_cost = property(
            lambda self: Money(_operating_of(self.amounts)),
            doc=f"{whose} steady-state charges: the parts of the fleet's "
            "operating charge.",
        )
        cls.total_cost = property(
            lambda self: Money(_fold(self.amounts)),
            doc=f"{whose} whole bill, every charge folded in "
            ":data:`~repro.bill.COMPONENTS` order.",
        )
        return cls

    return decorate


@_with_charges("The epoch's")
class TenantEpochRecord(NamedTuple):
    """One tenant's attributed share of one epoch's fleet charges.

    ``amounts`` holds the charges as raw ``Decimal``\\ s in
    :data:`~repro.bill.COMPONENTS` order, and each reads as a
    ``<name>_cost`` Money: processing compute, result transfer, view
    maintenance, storage (base share + view share), builds, teardowns
    and the one-off charges, so a tenant's invoice explains *why* it
    owes what it owes.  Across the fleet's tenants, each charge sums
    exactly to the fleet amount (see :mod:`repro.simulate.attribution`).
    """

    epoch: int
    tenant: str
    #: The tenant's own frequency-weighted processing hours this epoch.
    processing_hours: float
    amounts: Tuple[Decimal, ...]

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


@_with_charges("Lifetime")
class TenantTotals:
    """One tenant's books: lifetime totals, folded record by record.

    Keeps each charge's running sum instead of the records — O(1)
    memory per tenant regardless of horizon, which is what lets a
    10⁴-tenant run merge shard outputs without materializing the
    tenant x epoch matrix.  Each charge is summed as a raw ``Decimal``
    through Money's own context, the additions a sum of the records'
    Money charges makes in the same order, and ``amounts`` holds the
    sums in :data:`~repro.bill.COMPONENTS` order, as on a record.  The
    totals, the CSV row and the books checks read those sums directly
    and wrap a result in :class:`~repro.money.Money` only where one is
    returned.
    """

    __slots__ = (
        "tenant",
        "amounts",
        "processing_hours",
        "n_records",
        "first_epoch",
        "last_epoch",
    )

    def __init__(self, tenant: str) -> None:
        self.tenant = tenant
        self.amounts: Tuple[Decimal, ...] = (ZERO.amount,) * len(COMPONENTS)
        self.processing_hours = 0.0
        self.n_records = 0
        self.first_epoch: Optional[int] = None
        self.last_epoch: Optional[int] = None

    def fold(self, share: TenantEpochRecord) -> None:
        """Accumulate one epoch's share (must belong to this tenant,
        and arrive in epoch order)."""
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
        self.amounts = tuple(map(MONEY_CONTEXT.add, self.amounts, share.amounts))
        self.processing_hours += share.processing_hours
        self.n_records += 1
        if self.first_epoch is None:
            self.first_epoch = share.epoch
        self.last_epoch = share.epoch

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
            str(_fold(self.amounts)),
            *map(str, self.amounts),
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


@_with_lifetime_totals(attrgetter)
class TenantLedger(TenantTotals):
    """One tenant's attributed cost history under one policy's run.

    The tenant's :class:`TenantTotals` that also keeps every record it
    folds, in epoch order.  Its lifetime totals (``total_cost``,
    ``total_<charge>_cost``, ``total_hours``) read the fold.
    """

    __slots__ = ("_policy", "_records")

    def __init__(self, tenant: str, policy_name: str) -> None:
        super().__init__(tenant)
        self._policy = policy_name
        self._records: List[TenantEpochRecord] = []

    def fold(self, share: TenantEpochRecord) -> None:
        """Fold the next epoch's share and keep its record."""
        super().fold(share)
        self._records.append(share)

    @property
    def policy_name(self) -> str:
        """The policy that produced this history."""
        return self._policy

    @property
    def records(self) -> Tuple[TenantEpochRecord, ...]:
        """Every epoch's record, in order."""
        return tuple(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[TenantEpochRecord]:
        return iter(self._records)

    total_hours = property(
        attrgetter("processing_hours"),
        doc="Lifetime processing hours (the response-time metric).",
    )

    # -- display --------------------------------------------------------

    def summary(self) -> str:
        """One comparison line for the tenant."""
        return (
            f"{self.tenant:<12} total={self.total_cost}  "
            f"operating={self.total_operating_cost}  "
            f"build={self.total_build_cost}  "
            f"hours={self.total_hours:.2f}"
        )

    def render(self) -> str:
        """The tenant's full per-epoch invoice as text."""
        lines = [f"tenant: {self.tenant}  (policy: {self._policy})"]
        lines += [r.describe() for r in self._records]
        lines.append(self.summary())
        return "\n".join(lines)


class FleetSummary:
    """A fleet run's books: the fleet's own ledger plus each tenant's.

    ``fleet`` is the shared warehouse's :class:`SimulationLedger`;
    ``tenants`` maps each tenant name to its :class:`TenantTotals`, in
    fleet order.
    :meth:`~repro.simulate.tenants.MultiTenantSimulator.run_sharded`
    folds each shard's :class:`TenantEpochRecord` stream into the
    totals without ever holding the tenant x epoch matrix; ``shards``
    records how the attribution work was partitioned (results are
    byte-identical for any value).  :class:`FleetLedger` is the
    in-process run's summary, whose tenant books keep their records.
    """

    def __init__(
        self,
        fleet: SimulationLedger,
        tenants: Mapping[str, TenantTotals],
        shards: int = 1,
    ) -> None:
        if not tenants:
            raise SimulationError("a fleet's books need at least one tenant")
        self._fleet = fleet
        self._tenants: Dict[str, TenantTotals] = dict(tenants)
        self._shards = shards

    @property
    def fleet(self) -> SimulationLedger:
        """The shared warehouse's own per-epoch ledger."""
        return self._fleet

    @property
    def tenants(self) -> Mapping[str, TenantTotals]:
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

    @property
    def shards(self) -> int:
        """How many attribution shards produced these totals."""
        return self._shards

    def tenant(self, name: str) -> TenantTotals:
        """One tenant's books, by name."""
        try:
            return self._tenants[name]
        except KeyError:
            raise SimulationError(
                f"no tenant named {name!r}; the fleet has "
                f"{len(self._tenants)} tenants"
            ) from None

    def verify_totals(self) -> None:
        """Assert the books balance: per-charge tenant totals sum
        exactly to the fleet ledger's lifetime totals.

        Each charge is summed over the tenants' folded amounts in fleet
        order from zero, the additions a sum of the Money-valued totals
        makes, and wrapped in Money once."""
        _check_tenant_sums(
            "lifetime {}: tenant totals",
            (getattr(self._fleet, f"total_{c.field}") for c in FLEET_CHARGES),
            [totals.amounts for totals in self._tenants.values()],
        )

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
        the determinism job ``cmp``\\ s across shard counts and
        routes."""
        lines = [",".join(TenantTotals.CSV_HEADER)]
        lines += [",".join(t.row()) for t in self._tenants.values()]
        return "\n".join(lines) + "\n"


class FleetLedger(FleetSummary):
    """A fleet run's full accounting: the fleet ledger + tenant ledgers.

    The :class:`FleetSummary` of
    :meth:`~repro.simulate.tenants.MultiTenantSimulator.run`: each
    tenant's books are a :class:`TenantLedger` keeping every record.
    The two views describe the same money: :meth:`verify_attribution`
    re-checks the books and raises if any epoch's tenant shares do not
    sum exactly to the fleet record.
    """

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
        by_epoch: Dict[int, List[Tuple[Decimal, ...]]] = {}
        for ledger in self._tenants.values():
            for share in ledger.records:
                if share.epoch not in fleet_epochs:
                    raise SimulationError(
                        f"tenant {ledger.tenant!r} has a record for "
                        f"epoch {share.epoch}, which the fleet ledger "
                        f"never billed"
                    )
                by_epoch.setdefault(share.epoch, []).append(share.amounts)
        for record in self._fleet.records:
            _check_tenant_sums(
                f"epoch {record.epoch}: tenant {{}} shares",
                _fleet_amounts(record),
                by_epoch.get(record.epoch, ()),
            )

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
