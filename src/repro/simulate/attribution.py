"""Shared-cost attribution: one warehouse bill, split across tenants.

When several tenants share a warehouse, most of the bill is jointly
caused: a view at (day, country) may serve three tenants' dashboards,
the base dataset is stored once for everyone, and a maintenance job
refreshes a view for whoever queries it next.  A
:class:`SharedCostAttributor` splits every component of an epoch's
:class:`~repro.costmodel.total.CostBreakdown` into per-tenant shares
that **sum exactly** to the fleet amount — the invariant
:meth:`~repro.simulate.ledger.FleetLedger.verify_attribution` enforces.

Cost components and how they are split:

* **query processing** and **result transfer** — directly caused:
  every query belongs to exactly one tenant, so these are split by
  each tenant's frequency-weighted processing hours / egress volume;
* **view maintenance**, **view storage**, **view builds** — shared by
  the tenants whose queries the view answers this epoch, split by the
  attribution *mode* (below);
* **base-dataset storage**, **teardown egress**, **migration
  transfer** (the legs of a provider switch — the "which tenant pays
  for a migration?" charge) and **cancelled-build sunk compute** —
  fleet infrastructure with no per-view user set, split by the
  infrastructure rule (proportional to use, or evenly).

Asynchronous epochs (records carrying
:class:`~repro.simulate.ledger.EpochSegment`\\ s) are attributed
segment by segment: each segment's prorated operating components are
split by the views live *during that segment* — a tenant whose
dashboard view lands mid-epoch starts paying its view-storage share
only from the landing — and the per-segment shares sum across
segments to exactly the epoch's prorated fleet charges, so
:meth:`~repro.simulate.ledger.FleetLedger.verify_attribution` holds
unchanged.

Two attribution modes (:data:`ATTRIBUTION_MODES`):

* ``"proportional"`` — proportional-to-use: a view's charges are split
  by each using tenant's frequency-weighted accesses (a tenant running
  a view-answered query 6x/period pays twice the share of one running
  it 3x/period);
* ``"even"`` — Shapley-style even split: a view's cost is a fixed
  joint cost, and the Shapley value of a fixed-cost game shared by *k*
  symmetric players is ``cost / k``, so every tenant using the view
  pays the same share regardless of intensity.

**One plan, one merge.**  :meth:`SharedCostAttributor.component_plan`
is the only place the split rule is written: it turns an epoch into
:class:`AllocationEntry` records (an amount, the record field it lands
on, one weight per active tenant) — one billing period's operating
entries for a plain epoch or for each segment, then the epoch-level
one-offs.  Every tenant but the last owes the independent product
``amount * (weight / total)`` (:func:`shard_products`), and
:func:`merge_epoch` gives the last tenant the exact residual ``amount -
sum(other shares)``, lands the churn charges and checks the books, so
per-tenant ledgers sum to the fleet ledger to the last decimal digit.
Entries that split by the same weights (proportional mode bills
processing, base storage and the three infrastructure one-offs all by
the processing weights) share one normalized weight vector, and each
of its ratios is converted to ``Decimal`` once per epoch.
:meth:`SharedCostAttributor.attribute` computes the products
in-process, :class:`~repro.simulate.sharding.ShardedAttribution`
across tenant shards; both run the same ``Decimal`` operations in the
same order, so they give the same bytes.  The merge streams one
:class:`~repro.simulate.ledger.TenantEpochRecord` per tenant-epoch,
its charges the merged raw ``Decimal``\\ s, and both routes hand out
those records.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from decimal import Decimal
from functools import reduce
from itertools import chain, islice, repeat
from typing import (
    Dict,
    FrozenSet,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ..bill import COMPONENTS, FLEET_CHARGES
from ..costmodel.storage import storage_cost
from ..costmodel.total import CostBreakdown
from ..errors import SimulationError
from ..money import MONEY_CONTEXT, Money, ZERO, to_decimal
from ..optimizer.problem import SelectionOutcome, SelectionProblem
from .ledger import EpochRecord, TenantEpochRecord, check_books

__all__ = [
    "ATTRIBUTION_MODES",
    "TENANT_SEPARATOR",
    "AllocationEntry",
    "ShardPayload",
    "SharedCostAttributor",
    "merge_epoch",
    "merge_shares",
    "shard_payload",
    "shard_products",
    "tenant_of_query",
]

#: Attribution modes accepted by :class:`SharedCostAttributor`.
ATTRIBUTION_MODES = ("proportional", "even")

#: Separator between a tenant's name and its queries' names in the
#: merged fleet workload ("acme/Q1" belongs to tenant "acme").
TENANT_SEPARATOR = "/"

#: A tenant share's charge fields, in fold order.
_FIELDS = tuple(component.field for component in COMPONENTS)

#: A plan entry before normalization: ``(field, amount, weights)``.
_Split = Tuple[str, Money, Mapping[str, float]]


def tenant_of_query(query_name: str) -> Optional[str]:
    """The tenant a namespaced fleet query belongs to (``None`` if unscoped)."""
    if TENANT_SEPARATOR not in query_name:
        return None
    return query_name.split(TENANT_SEPARATOR, 1)[0]


@dataclass(frozen=True)
class AllocationEntry:
    """One exact split of an attribution plan.

    ``field`` names the :class:`~repro.simulate.ledger.TenantEpochRecord`
    component the shares land on, ``weights`` aligns with the active
    tenant order, and the zero-total even fallback is *already
    applied* (``total`` is the exact divisor).  Any tenant's product
    ``amount * (weights[i] / total)`` can therefore be computed
    independently, in any shard, and :func:`merge_shares` reassembles
    the sequential running sum so the globally-last tenant gets the
    exact residual.
    """

    field: str
    amount: Money
    weights: Tuple[float, ...]
    total: float

    @classmethod
    def of(
        cls,
        field: str,
        amount: Money,
        weights: Mapping[str, float],
        order: Sequence[str],
    ) -> "AllocationEntry":
        """Normalize one split's weights: missing and negative weights
        count as zero, and a zero (or degenerate) total falls back to an
        even split — a charge must never vanish just because nobody's
        weight registered."""
        clipped = tuple(max(0.0, weights.get(name, 0.0)) for name in order)
        total = sum(clipped)
        if total <= 0.0:
            clipped = (1.0,) * len(order)
            total = float(len(order))
        return cls(field=field, amount=amount, weights=clipped, total=total)


def _plan(
    splits: Sequence[_Split], order: Sequence[str]
) -> Tuple[AllocationEntry, ...]:
    """A plan's entries, each distinct weight mapping normalized once.

    Entries whose splits name the same mapping object share one
    weights tuple and total, which :func:`shard_payload` ships and
    :func:`shard_products` converts once.  ``splits`` holds every
    mapping for the whole loop, so no two of them share an ``id``.
    """
    first: Dict[int, AllocationEntry] = {}
    entries = []
    for field, amount, weights in splits:
        shared = first.get(id(weights))
        if shared is None:
            entry = AllocationEntry.of(field, amount, weights, order)
            first[id(weights)] = entry
        else:
            entry = AllocationEntry(field, amount, shared.weights, shared.total)
        entries.append(entry)
    return tuple(entries)


#: One shard's work order, compact and picklable for workers: the
#: plan's distinct weight vectors, each as ``(weights slice for the
#: shard's tenant range, total)``, then one ``(amount, vector index)``
#: per entry, the amount as the raw ``Decimal`` of its Money.
ShardPayload = Tuple[
    Tuple[Tuple[Tuple[float, ...], float], ...],
    Tuple[Tuple[Decimal, int], ...],
]


def shard_payload(
    entries: Sequence[AllocationEntry], start: int, stop: int
) -> ShardPayload:
    """The work order for tenants ``[start, stop)`` of every entry;
    entries sharing a weights tuple and total share one vector."""
    index: Dict[Tuple[int, float], int] = {}
    vectors = []
    work = []
    for entry in entries:
        key = (id(entry.weights), entry.total)
        if key not in index:
            index[key] = len(vectors)
            vectors.append((entry.weights[start:stop], entry.total))
        work.append((entry.amount.amount, index[key]))
    return tuple(vectors), tuple(work)


def shard_products(payload: ShardPayload) -> Tuple[Tuple[Decimal, ...], ...]:
    """One shard's independent per-tenant products, entry by entry.

    Evaluates exactly the Money expression a non-last tenant owes,
    ``amount * (weight / total)``, as the same ``Decimal``
    multiplication Money performs (same context, same float
    conversion) without wrapping each product.  Each vector's ratios
    are converted once and multiplied by every entry that shares them:
    the conversion is a pure function of the float, so the products
    are the bytes a conversion per entry gives.  Runs in worker
    processes (top-level so it pickles) and in-process — the same code
    either way.
    """
    vectors, work = payload
    multiply = MONEY_CONTEXT.multiply
    ratios = [
        [to_decimal(weight / total) for weight in weights]
        for weights, total in vectors
    ]
    return tuple(
        tuple(map(multiply, repeat(amount), ratios[vector]))
        for amount, vector in work
    )


def _in_process(
    entries: Sequence[AllocationEntry], n: int
) -> Tuple[Tuple[Tuple[Decimal, ...], ...], ...]:
    """Every product a plan needs, as one in-process shard (the last
    tenant takes a residual, so its products are never computed)."""
    return (shard_products(shard_payload(entries, 0, n - 1)),)


def merge_shares(
    entries: Sequence[AllocationEntry],
    n: int,
    products: Sequence[Tuple[Tuple[Decimal, ...], ...]],
) -> Dict[str, List[Decimal]]:
    """The exact merge: every entry's ``n`` shares, summed per field.

    ``products`` holds the shards' :func:`shard_products` in tenant
    order.  Per entry, the first ``n - 1`` products read in global
    tenant order are the non-last tenants' shares, and the last tenant
    takes ``amount - running``, ``running`` being their sequential sum
    from zero — one Money split's operations, verbatim and in its
    order, on raw ``Decimal``\\ s through Money's context.
    A field's first entry sets its column; later entries add into it
    tenant by tenant.  Returns field -> per-tenant shares.
    """
    add, subtract = MONEY_CONTEXT.add, MONEY_CONTEXT.subtract
    zero = ZERO.amount
    columns: Dict[str, List[Decimal]] = {}
    for index, entry in enumerate(entries):
        shares = list(
            islice(
                chain.from_iterable(shard[index] for shard in products),
                n - 1,
            )
        )
        shares.append(subtract(entry.amount.amount, reduce(add, shares, zero)))
        column = columns.get(entry.field)
        columns[entry.field] = (
            shares if column is None else list(map(add, column, shares))
        )
    return columns


def merge_epoch(
    record: EpochRecord,
    active: Sequence[str],
    entries: Sequence[AllocationEntry],
    hours: Mapping[str, float],
    products: Sequence[Tuple[Tuple[Decimal, ...], ...]],
) -> Iterator[TenantEpochRecord]:
    """One epoch's per-tenant shares, merged from shard products.

    Yields one :class:`~repro.simulate.ledger.TenantEpochRecord` per
    active tenant in tenant order, then one settlement-only record per
    departure.  Churn charges are direct: an arrival's onboarding
    lands on the arriving tenant's record, a departure's offboarding
    on a record of its own.  Before anything is yielded, every
    component's shares are checked to sum exactly to the fleet record
    — the per-epoch half of the books-balance invariant, which
    streaming callers cannot re-check later.
    """
    arrivals = dict(record.arrivals)
    active_set = set(active)
    missing = set(arrivals) - active_set
    if missing:
        raise SimulationError(
            f"epoch {record.epoch}: arrival charges for "
            f"{sorted(missing)!r}, which are not in the active split"
        )
    for tenant, _ in record.departures:
        if tenant in active_set:
            raise SimulationError(
                f"epoch {record.epoch}: departure settlement for "
                f"{tenant!r}, which is still in the active split"
            )
    columns = merge_shares(entries, len(active), products)
    add, zero = MONEY_CONTEXT.add, ZERO.amount
    sums = {field: reduce(add, column, zero) for field, column in columns.items()}
    # Every fleet charge the plan split is checked; churn charges are
    # direct, so they cannot miss.
    check_books(
        f"epoch {record.epoch}: sharded {{}} shares",
        [
            (
                charge.name,
                getattr(record, charge.field),
                Money(reduce(add, (sums[part] for part in charge.parts))),
            )
            for charge in FLEET_CHARGES
            if charge.parts[0] in sums
        ],
    )
    columns["onboarding_cost"] = [
        arrivals.get(name, ZERO).amount for name in active
    ]
    zeros = [zero] * len(active)
    rows = zip(*(columns.get(field, zeros) for field in _FIELDS))
    for name, amounts in zip(active, rows):
        yield TenantEpochRecord(record.epoch, name, hours[name], amounts)
    for tenant, amount in record.departures:
        settlement = tuple(
            amount.amount if field == "offboarding_cost" else zero
            for field in _FIELDS
        )
        yield TenantEpochRecord(record.epoch, tenant, 0.0, settlement)


class SharedCostAttributor:
    """Splits fleet charges into per-tenant shares (see module docs).

    Parameters
    ----------
    tenants:
        The tenant names, in the deterministic order used for residual
        assignment (the last tenant absorbs rounding residues).
    mode:
        One of :data:`ATTRIBUTION_MODES`.

    A fleet query belongs to the tenant its name is prefixed with
    (:func:`tenant_of_query`, the :data:`TENANT_SEPARATOR` convention
    :class:`~repro.simulate.tenants.TenantFleet` names queries by).
    """

    def __init__(
        self,
        tenants: Sequence[str],
        mode: str = "proportional",
    ) -> None:
        if mode not in ATTRIBUTION_MODES:
            raise SimulationError(
                f"unknown attribution mode {mode!r}; "
                f"choose from {ATTRIBUTION_MODES}"
            )
        if not tenants:
            raise SimulationError("an attributor needs at least one tenant")
        if len(set(tenants)) != len(tenants):
            raise SimulationError("tenant names must be unique")
        self._tenants: Tuple[str, ...] = tuple(tenants)
        self._roster = frozenset(self._tenants)
        self._mode = mode

    @property
    def tenants(self) -> Tuple[str, ...]:
        """Tenant names, in residual-assignment order."""
        return self._tenants

    @property
    def mode(self) -> str:
        """``'proportional'`` or ``'even'``."""
        return self._mode

    def describe(self) -> str:
        """Short display form."""
        return f"{self._mode} over {len(self._tenants)} tenants"

    # -- per-epoch working data ----------------------------------------

    def _owner(self, query_name: str) -> str:
        tenant = tenant_of_query(query_name)
        if tenant is None or tenant not in self._roster:
            raise SimulationError(
                f"query {query_name!r} does not belong to any known tenant "
                f"({', '.join(self._tenants)})"
            )
        return tenant

    def _active(
        self, tenants: Optional[Sequence[str]]
    ) -> Tuple[str, ...]:
        """Resolve an active-tenant restriction (``None`` = full roster)."""
        if tenants is None:
            return self._tenants
        active = tuple(tenants)
        if not active:
            raise SimulationError("cannot attribute to zero active tenants")
        unknown = [t for t in active if t not in self._roster]
        if unknown:
            raise SimulationError(
                f"unknown active tenants {unknown!r}; roster has "
                f"{len(self._tenants)} names"
            )
        if len(set(active)) != len(active):
            # A name listed twice would take two columns of every split
            # while its queries fill one, and the doubled column would
            # still balance the books.
            repeated = sorted(
                name for name, count in Counter(active).items() if count > 1
            )
            raise SimulationError(
                f"duplicate active tenants {repeated!r}; each tenant "
                f"takes one share of the split"
            )
        return active

    def _direct_weights(
        self,
        problem: SelectionProblem,
        subset: FrozenSet[str],
        tenants: Optional[Sequence[str]] = None,
    ) -> Tuple[Dict[str, float], Dict[str, float], Dict[str, Dict[str, float]]]:
        """Per-tenant processing/egress weights and per-view user weights.

        Returns ``(processing, egress, users)`` where ``processing`` and
        ``egress`` map tenant -> frequency-weighted hours / GB, and
        ``users`` maps view name -> {tenant: frequency-weighted accesses
        to that view} (only tenants with at least one query answered by
        the view appear).  ``tenants`` restricts the split to an
        elastic fleet's active set; every workload query must belong
        to an active tenant.
        """
        active = self._active(tenants)
        inputs = problem.inputs
        # One pass computes hours, egress and per-view users together;
        # the hours agree with PlanningInputs.group_processing_hours
        # per tenant (pinned by a test) without re-scanning the
        # workload once per tenant.
        per_query, sources = inputs.best_sources_with(subset)
        processing = {name: 0.0 for name in active}
        egress = {name: 0.0 for name in active}
        users: Dict[str, Dict[str, float]] = {}
        for query in inputs.workload:
            tenant = self._owner(query.name)
            if tenant not in processing:
                raise SimulationError(
                    f"query {query.name!r} belongs to tenant {tenant!r}, "
                    f"which is not active this epoch"
                )
            processing[tenant] += per_query[query.name] * query.frequency
            egress[tenant] += (
                inputs.result_sizes_gb[query.name] * query.frequency
            )
            source = sources.get(query.name)
            if source is not None:
                users.setdefault(source, {}).setdefault(tenant, 0.0)
                users[source][tenant] += query.frequency
        return processing, egress, users

    def _view_weights(
        self,
        per_view_amounts: Mapping[str, float],
        users: Mapping[str, Mapping[str, float]],
        infrastructure: Mapping[str, float],
        tenants: Optional[Sequence[str]] = None,
    ) -> Dict[str, float]:
        """Per-tenant weights for charges that accrue per view.

        ``per_view_amounts`` weights each view's contribution (hours,
        gigabytes); each view's amount is divided among its users by
        the attribution mode, falling back to the infrastructure rule
        for views nobody currently uses (a policy may carry a view
        through an epoch in which no query reads it).
        """
        active = self._active(tenants)
        weights = {name: 0.0 for name in active}
        infra_total = sum(infrastructure.values())
        for view_name, amount in per_view_amounts.items():
            if amount <= 0.0:
                continue
            view_users = users.get(view_name)
            if view_users:
                if self._mode == "even":
                    share = amount / len(view_users)
                    for tenant in view_users:
                        weights[tenant] += share
                else:
                    use_total = sum(view_users.values())
                    for tenant, use in view_users.items():
                        weights[tenant] += amount * (use / use_total)
            elif infra_total > 0.0:
                for tenant, infra in infrastructure.items():
                    weights[tenant] += amount * (infra / infra_total)
            else:
                share = amount / len(active)
                for tenant in active:
                    weights[tenant] += share
        return weights

    def _infrastructure_weights(
        self,
        processing: Mapping[str, float],
        tenants: Optional[Sequence[str]] = None,
    ) -> Mapping[str, float]:
        """The rule for charges with no per-view user set."""
        if self._mode == "even":
            return {name: 1.0 for name in self._active(tenants)}
        return processing

    # -- the plan -------------------------------------------------------

    def _operating_splits(
        self,
        problem: SelectionProblem,
        subset: FrozenSet[str],
        breakdown: CostBreakdown,
        base_storage: Money,
        fraction: float,
        active: Sequence[str],
    ) -> Tuple[Tuple[_Split, ...], Dict[str, float], Dict]:
        """One billing period's operating splits, scaled by ``fraction``.

        Returns ``(splits, processing, users)``; the period's
        processing weights and per-view users serve the epoch-level
        splits and the tenants' processing hours.  Storage is two
        splits, the base share and then the view share.
        """
        inputs = problem.inputs
        processing, egress, users = self._direct_weights(
            problem, subset, active
        )
        infrastructure = self._infrastructure_weights(processing, active)
        ordered = sorted(subset)
        cycles = inputs.deployment.maintenance_cycles
        maintenance_amounts = {
            name: inputs.view_stats[name].maintenance_hours_per_cycle * cycles
            for name in ordered
        }
        size_amounts = {
            name: inputs.view_stats[name].size_gb for name in ordered
        }
        splits = (
            ("processing_cost", breakdown.computing.processing_cost, processing),
            ("transfer_cost", breakdown.transfer, egress),
            (
                "maintenance_cost",
                breakdown.computing.maintenance_cost,
                self._view_weights(
                    maintenance_amounts, users, infrastructure, active
                ),
            ),
            ("storage_cost", base_storage, infrastructure),
            (
                "storage_cost",
                breakdown.storage - base_storage,
                self._view_weights(size_amounts, users, infrastructure, active),
            ),
        )
        if fraction != 1.0:
            splits = tuple(
                (field, amount * fraction, weights)
                for field, amount, weights in splits
            )
        return splits, processing, users

    def _epoch_splits(
        self,
        build: Money,
        charges: Sequence[Tuple[str, Money]],
        build_amounts: Mapping[str, float],
        users: Mapping[str, Mapping[str, float]],
        infrastructure: Mapping[str, float],
        active: Sequence[str],
    ) -> Tuple[_Split, ...]:
        """The epoch-level splits: ``build`` by the built views' users
        (``build_amounts`` weights each view), then each ``(field,
        amount)`` of ``charges`` by the infrastructure rule."""
        weights = self._view_weights(build_amounts, users, infrastructure, active)
        return (("build_cost", build, weights),) + tuple(
            (field, amount, infrastructure) for field, amount in charges
        )

    def _period_plan(
        self,
        problem: SelectionProblem,
        subset: FrozenSet[str],
        built: FrozenSet[str],
        breakdown: CostBreakdown,
        charges: Sequence[Tuple[str, Money]],
        active: Sequence[str],
    ) -> Tuple[Tuple[AllocationEntry, ...], Dict[str, float]]:
        """A plain billing period's plan: ``breakdown`` split once.

        ``charges`` are the infrastructure-split one-offs, as ``(field,
        amount)`` pairs; the build entry bills ``breakdown``'s
        materialization, weighted by the views in ``built`` as this
        period's plan prices them.
        """
        inputs = problem.inputs
        base_storage = storage_cost(
            inputs.deployment.provider.storage, inputs.base_timeline
        )
        splits, processing, users = self._operating_splits(
            problem, subset, breakdown, base_storage, 1.0, active
        )
        build_hours = inputs.materialization_hours(subset)
        build_amounts = {
            name: hours
            for name, hours in zip(sorted(subset), build_hours)
            if name in built and hours > 0.0
        }
        splits += self._epoch_splits(
            breakdown.computing.materialization_cost,
            charges,
            build_amounts,
            users,
            self._infrastructure_weights(processing, active),
            active,
        )
        return _plan(splits, active), processing

    def component_plan(
        self,
        problem: SelectionProblem,
        record: EpochRecord,
        breakdown: CostBreakdown,
        tenants: Optional[Sequence[str]] = None,
    ) -> Tuple[Tuple[AllocationEntry, ...], Dict[str, float]]:
        """One epoch's splits: the attribution plan.

        Returns ``(entries, hours)``: every split of the epoch as an
        :class:`AllocationEntry`, in a fixed order, plus each active
        tenant's processing hours (the processing weights themselves,
        so the hours on a :class:`~repro.simulate.ledger.
        TenantEpochRecord` can never drift from the weights its
        processing cost was split by).

        A plain epoch splits ``breakdown`` — the epoch breakdown the
        record was accounted from — once.  A segmented (asynchronous)
        epoch re-prices each segment's holdings through the problem's
        evaluation cache instead and emits that segment's operating
        entries scaled by its period fraction; its epoch-level
        one-offs are split once, builds by the landed views' users as
        of the epoch-end holdings and the rest by the infrastructure
        rule over time-weighted processing hours.
        """
        active = self._active(tenants)
        charges = tuple(
            (field, getattr(record, field))
            for field in ("teardown_cost", "migration_cost", "cancelled_cost")
        )
        if not record.segments:
            return self._period_plan(
                problem,
                frozenset(record.subset),
                frozenset(record.views_built),
                breakdown,
                charges,
                active,
            )
        inputs = problem.inputs
        base_storage = storage_cost(
            inputs.deployment.provider.storage, inputs.base_timeline
        )
        splits: Tuple[_Split, ...] = ()
        hours = {name: 0.0 for name in active}
        end_users: Mapping[str, Mapping[str, float]] = {}
        for segment in record.segments:
            subset = frozenset(segment.subset)
            operating, processing, end_users = self._operating_splits(
                problem,
                subset,
                problem.evaluate(subset).breakdown,
                base_storage,
                segment.fraction,
                active,
            )
            splits += operating
            for name in active:
                hours[name] += processing[name] * segment.fraction
        build_amounts = {
            name: inputs.view_stats[name].materialization_hours
            for name in record.views_built
        }
        splits += self._epoch_splits(
            record.build_cost,
            charges,
            build_amounts,
            end_users,
            self._infrastructure_weights(hours, active),
            active,
        )
        return _plan(splits, active), hours

    # -- the in-process route --------------------------------------------

    def attribute(
        self,
        problem: SelectionProblem,
        record: EpochRecord,
        breakdown: CostBreakdown,
        tenants: Optional[Sequence[str]] = None,
    ) -> Dict[str, TenantEpochRecord]:
        """One epoch's fleet record split into per-tenant records.

        ``breakdown`` must be the epoch breakdown the record was
        accounted from (materialization narrowed to the views built
        this epoch) — the simulator passes it to its observer.
        Records carrying segments (asynchronous epochs billed on
        mid-epoch holdings) are split segment by segment instead (see
        :meth:`component_plan`).

        ``tenants`` restricts the split to an elastic fleet's active
        set for the epoch.  The record's churn charges are direct, not
        shared: each arrival's onboarding lands 100% on the arriving
        tenant's record, and each departure yields a settlement-only
        record (all shares zero, ``offboarding_cost`` set) for a
        tenant no longer in the active set.

        The plan's products are computed in-process and merged by
        :func:`merge_epoch`, the sharded route's merge (same records,
        same bytes).
        """
        entries, hours = self.component_plan(
            problem, record, breakdown, tenants
        )
        active = self._active(tenants)
        return {
            share.tenant: share
            for share in merge_epoch(
                record,
                active,
                entries,
                hours,
                _in_process(entries, len(active)),
            )
        }

    def outcome_shares(
        self,
        problem: SelectionProblem,
        outcome: SelectionOutcome,
        tenants: Optional[Sequence[str]] = None,
    ) -> Dict[str, Money]:
        """Per-tenant shares of a selection outcome's full bill.

        The selection-time view of attribution: every view in the
        subset is charged as if built this period (exactly what
        ``outcome.breakdown`` prices), so the shares sum to
        ``outcome.total_cost``.  This is the quantity fairness-aware
        selection (:class:`~repro.optimizer.fairness.FairShareScenario`)
        constrains.
        """
        active = self._active(tenants)
        entries, _ = self._period_plan(
            problem, outcome.subset, outcome.subset, outcome.breakdown, (), active
        )
        columns = merge_shares(
            entries, len(active), _in_process(entries, len(active))
        ).values()
        add = MONEY_CONTEXT.add
        return {
            name: Money(reduce(add, (column[index] for column in columns)))
            for index, name in enumerate(active)
        }

    def outcome_hours(
        self,
        problem: SelectionProblem,
        outcome: SelectionOutcome,
        tenants: Optional[Sequence[str]] = None,
    ) -> Dict[str, float]:
        """Each tenant's own processing hours under an outcome's subset.

        The latency-side analogue of :meth:`outcome_shares` — the
        quantity per-tenant latency-ceiling SLOs constrain.  Hours are
        directly caused (every query has one owner), so no splitting
        rule is involved.
        """
        processing, _, _ = self._direct_weights(
            problem, outcome.subset, tenants
        )
        return processing

    def present_tenants(
        self, problem: SelectionProblem
    ) -> Tuple[str, ...]:
        """The roster tenants with at least one query in the problem's
        workload, in attributor order — an elastic fleet's active set
        as seen from a single epoch's problem."""
        present = {
            self._owner(query.name) for query in problem.inputs.workload
        }
        return tuple(name for name in self._tenants if name in present)
