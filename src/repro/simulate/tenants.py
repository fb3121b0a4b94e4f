"""Multi-tenant lifecycles: several workloads sharing one warehouse.

The paper prices one workload against one provider.  This module runs
*several* tenants — each a workload with its own drift timeline and
budget share — against one shared :class:`~repro.simulate.state.
WarehouseState`:

* a :class:`Tenant` owns a workload and the workload-scoped events
  that drift it (queries arriving, leaving, re-weighting);
* a :class:`TenantFleet` merges the tenants onto one dataset and
  deployment, namespacing query names (``acme/Q1``) so ownership
  survives the merge, and interleaves tenant events with the fleet's
  shared events (data growth, repricing, fleet changes);
* a :class:`MultiTenantSimulator` wraps the single-tenant
  :class:`~repro.simulate.simulator.LifecycleSimulator` — the merged
  fleet runs through the *same* epoch loop, caches and accounting —
  and attributes every epoch's charges across tenants through a
  :class:`~repro.simulate.attribution.SharedCostAttributor`, producing
  a :class:`~repro.simulate.ledger.FleetLedger`.

Because the multi-tenant layer is a pure wrapper, a one-tenant fleet
reproduces the single-tenant simulator's ledger exactly: same
decisions, same charges, digit for digit (the tenant's namespaced
query names never enter the cost formulas).

**Elastic fleets.**  A tenant may join or leave mid-lifecycle: give it
an ``arrival_epoch`` / ``departure_epoch`` and the fleet compiles
billed :class:`~repro.simulate.events.TenantArrival` /
:class:`~repro.simulate.events.TenantDeparture` events — onboarding
loads the newcomer's initial result products at inbound rates,
offboarding exports the leaver's final footprint at the book it
leaves.  The active window is ``[arrival, departure)``: the departure
epoch itself carries only the tenant's settlement record.  Tenant
ledgers become ragged (records only for present epochs) and the
sum-to-fleet invariant holds per epoch over the tenants present.

**One observer, two routes.**  Both routes share one observer, plan
and merge, and fold the same
:class:`~repro.simulate.ledger.TenantEpochRecord`\\ s into each
tenant's books.  :meth:`MultiTenantSimulator.run` computes each
epoch's split in-process and keeps every record in a
:class:`~repro.simulate.ledger.TenantLedger`;
:meth:`MultiTenantSimulator.run_sharded`, the population-scale route,
computes it across tenant shards (:mod:`repro.simulate.sharding`) and
keeps only each tenant's :class:`~repro.simulate.ledger.TenantTotals`
— O(tenants) memory instead of O(tenants x epochs).  Their totals and
CSVs are the same bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..costmodel.params import DeploymentSpec
from ..cube.views import CandidateView
from ..data.generator import Dataset
from ..errors import SimulationError
from ..explain import TenantDeltaFold
from ..explain import current as current_explain
from ..money import Money
from ..optimizer.fairness import FairShareScenario
from ..optimizer.problem import SelectionProblem
from ..optimizer.scenarios import Scenario
from ..pricing.providers import Provider
from ..telemetry import current as current_telemetry
from ..workload.workload import Workload
from .attribution import TENANT_SEPARATOR, SharedCostAttributor
from .builds import BuildConfig
from .clock import SimulationClock
from .events import (
    AddQueries,
    DropQueries,
    ReweightQueries,
    SimulationEvent,
    TenantArrival,
    TenantDeparture,
    TenantRoster,
)
from .ledger import (
    FleetLedger, FleetSummary, SimulationLedger, TenantEpochRecord, TenantLedger,
    TenantTotals,
)
from .policy import ReselectionPolicy
from .problems import EpochProblemBuilder
from .simulator import (
    EpochObserver,
    LifecycleSimulator,
    compare_policies,
    compose_observers,
)
from .state import WarehouseState

__all__ = [
    "MultiTenantSimulator",
    "Tenant",
    "TenantFleet",
    "qualify",
]

#: Event types whose names/queries are tenant-scoped (namespaced on
#: merge).  Everything else mutates the shared warehouse and belongs
#: in the fleet's ``shared_events``.
_WORKLOAD_EVENTS = (AddQueries, DropQueries, ReweightQueries)


def qualify(tenant: str, query_name: str) -> str:
    """The fleet-wide name of a tenant's query (``acme/Q1``)."""
    return f"{tenant}{TENANT_SEPARATOR}{query_name}"


def _qualify_event(tenant: str, event: SimulationEvent) -> SimulationEvent:
    """A tenant-scoped event rewritten to fleet-wide query names."""
    if isinstance(event, AddQueries):
        return replace(
            event,
            queries=tuple(
                replace(q, name=qualify(tenant, q.name)) for q in event.queries
            ),
        )
    if isinstance(event, DropQueries):
        return replace(
            event, names=tuple(qualify(tenant, n) for n in event.names)
        )
    if isinstance(event, ReweightQueries):
        return replace(
            event,
            frequencies=tuple(
                (qualify(tenant, n), f) for n, f in event.frequencies
            ),
        )
    raise SimulationError(
        f"tenant {tenant!r} schedules a {type(event).__name__}; only "
        "workload events (AddQueries / DropQueries / ReweightQueries) are "
        "tenant-scoped — global events belong in the fleet's shared_events"
    )


@dataclass(frozen=True)
class Tenant:
    """One workload sharing the warehouse, with its own drift and budget.

    Parameters
    ----------
    name:
        Fleet-unique identifier; becomes the query-name prefix, so it
        must not contain the separator (``/``).
    workload:
        The tenant's queries, named in the tenant's own namespace
        (``Q1`` — the fleet qualifies them to ``name/Q1``).
    events:
        Workload-scoped drift events (:class:`AddQueries`,
        :class:`DropQueries`, :class:`ReweightQueries`) with names in
        the tenant's namespace.  Global events (growth, repricing,
        fleet changes) are fleet-level, not per-tenant.
    budget_share:
        The tenant's fraction of a fleet budget, used by the fairness
        scenario to derive per-tenant caps.  ``None`` means an equal
        split across tenants whose share is unset.
    arrival_epoch:
        First epoch the tenant is present.  ``0`` (the default) means
        a founding tenant merged into the initial state; a later epoch
        makes the fleet elastic — the fleet compiles a billed
        :class:`~repro.simulate.events.TenantArrival` there.
    departure_epoch:
        First epoch the tenant is *absent* (active window is
        ``[arrival_epoch, departure_epoch)``); the fleet compiles a
        billed :class:`~repro.simulate.events.TenantDeparture` at this
        epoch, whose record carries only the tenant's settlement.
        ``None`` (the default) means the tenant stays to the horizon.
    """

    name: str
    workload: Workload
    events: Tuple[SimulationEvent, ...] = ()
    budget_share: Optional[float] = None
    arrival_epoch: int = 0
    departure_epoch: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise SimulationError("a tenant needs a non-empty name")
        if TENANT_SEPARATOR in self.name:
            raise SimulationError(
                f"tenant name {self.name!r} must not contain "
                f"{TENANT_SEPARATOR!r} (it separates tenant from query)"
            )
        if self.budget_share is not None and self.budget_share <= 0:
            raise SimulationError(
                f"budget_share must be positive, got {self.budget_share}"
            )
        if self.arrival_epoch < 0:
            raise SimulationError(
                f"tenant {self.name!r}: arrival_epoch must be >= 0, "
                f"got {self.arrival_epoch}"
            )
        if (
            self.departure_epoch is not None
            and self.departure_epoch <= self.arrival_epoch
        ):
            raise SimulationError(
                f"tenant {self.name!r}: departure_epoch "
                f"({self.departure_epoch}) must be after arrival_epoch "
                f"({self.arrival_epoch}) — the active window is "
                "[arrival, departure)"
            )
        for event in self.events:
            if not isinstance(event, _WORKLOAD_EVENTS):
                raise SimulationError(
                    f"tenant {self.name!r} schedules a "
                    f"{type(event).__name__}; only workload events are "
                    "tenant-scoped"
                )
            if event.epoch < self.arrival_epoch or (
                self.departure_epoch is not None
                and event.epoch >= self.departure_epoch
            ):
                raise SimulationError(
                    f"tenant {self.name!r} schedules a "
                    f"{type(event).__name__} at epoch {event.epoch}, "
                    f"outside its active window "
                    f"[{self.arrival_epoch}, "
                    f"{self.departure_epoch if self.departure_epoch is not None else 'horizon'})"
                )

    def active_during(self, epoch: int) -> bool:
        """Whether the tenant is present (and billed) at ``epoch``."""
        if epoch < self.arrival_epoch:
            return False
        return self.departure_epoch is None or epoch < self.departure_epoch

    def qualified_workload(self) -> Workload:
        """The workload with fleet-wide (namespaced) query names."""
        return Workload(
            self.workload.schema,
            (
                replace(q, name=qualify(self.name, q.name))
                for q in self.workload
            ),
        )

    def qualified_events(self) -> Tuple[SimulationEvent, ...]:
        """The drift events rewritten to fleet-wide query names."""
        return tuple(_qualify_event(self.name, e) for e in self.events)


class TenantFleet:
    """Tenants merged onto one dataset and deployment.

    The merge preserves tenant order (both in the combined workload
    and in attribution's residual assignment) so fleets are
    deterministic and cache-friendly.
    """

    def __init__(
        self,
        tenants: Sequence[Tenant],
        dataset: Dataset,
        deployment: DeploymentSpec,
        shared_events: Sequence[SimulationEvent] = (),
        market: "Tuple[Provider, ...]" = (),
    ) -> None:
        if not tenants:
            raise SimulationError("a fleet needs at least one tenant")
        names = [t.name for t in tenants]
        if len(set(names)) != len(names):
            raise SimulationError(f"tenant names must be unique: {names}")
        schema = tenants[0].workload.schema
        for tenant in tenants[1:]:
            if tenant.workload.schema is not schema:
                raise SimulationError(
                    "all tenants must query the shared warehouse's schema"
                )
        if dataset.schema is not schema:
            raise SimulationError(
                "the fleet's dataset must carry the tenants' schema"
            )
        for event in shared_events:
            if isinstance(event, _WORKLOAD_EVENTS):
                raise SimulationError(
                    f"shared event {type(event).__name__} at epoch "
                    f"{event.epoch} drifts a workload; schedule it on the "
                    "owning tenant instead"
                )
            if isinstance(event, (TenantArrival, TenantDeparture)):
                raise SimulationError(
                    f"shared event {type(event).__name__} at epoch "
                    f"{event.epoch}: churn events are compiled by the "
                    "fleet — set the tenant's arrival_epoch / "
                    "departure_epoch instead"
                )
        self._tenants: Tuple[Tenant, ...] = tuple(tenants)
        self._dataset = dataset
        self._deployment = deployment
        self._shared: Tuple[SimulationEvent, ...] = tuple(shared_events)
        self._market: Tuple[Provider, ...] = tuple(market)

    @property
    def tenants(self) -> Tuple[Tenant, ...]:
        """The tenants, in merge (and attribution) order."""
        return self._tenants

    @property
    def tenant_names(self) -> Tuple[str, ...]:
        """Tenant names, in merge order."""
        return tuple(t.name for t in self._tenants)

    @property
    def shared_events(self) -> Tuple[SimulationEvent, ...]:
        """The fleet-level (non-workload) events."""
        return self._shared

    @property
    def market(self) -> Tuple[Provider, ...]:
        """Candidate provider books quoted to migration-aware policies."""
        return self._market

    def budget_shares(self) -> Dict[str, float]:
        """Each tenant's normalized fraction of a fleet budget.

        Explicit ``budget_share`` values are kept in proportion; tenants
        without one split the remaining mass evenly.  The result sums
        to 1.
        """
        explicit = {
            t.name: t.budget_share
            for t in self._tenants
            if t.budget_share is not None
        }
        declared = sum(explicit.values())
        unset = [t.name for t in self._tenants if t.name not in explicit]
        if not unset:
            if declared <= 0:
                raise SimulationError("budget shares must sum to > 0")
            return {name: share / declared for name, share in explicit.items()}
        if declared >= 1.0:
            raise SimulationError(
                f"explicit budget shares sum to {declared:g}, leaving "
                f"nothing for {unset}"
            )
        remainder = (1.0 - declared) / len(unset)
        shares = dict(explicit)
        shares.update({name: remainder for name in unset})
        return shares

    def tenant_caps(self, fleet_budget: Money) -> Dict[str, Money]:
        """Per-tenant budget caps: each share of a fleet-wide budget."""
        return {
            name: fleet_budget * share
            for name, share in self.budget_shares().items()
        }

    @property
    def is_elastic(self) -> bool:
        """Whether any tenant arrives after epoch 0 or departs early."""
        return any(
            t.arrival_epoch > 0 or t.departure_epoch is not None
            for t in self._tenants
        )

    def active_tenants(self, epoch: int) -> Tuple[str, ...]:
        """Names of the tenants present at ``epoch``, in merge order."""
        return tuple(
            t.name for t in self._tenants if t.active_during(epoch)
        )

    def initial_state(self) -> WarehouseState:
        """The merged warehouse state the simulation starts from.

        Only founding tenants (``arrival_epoch == 0``) are merged —
        later arrivals join through their compiled
        :class:`~repro.simulate.events.TenantArrival` events.
        """
        founders = [t for t in self._tenants if t.arrival_epoch == 0]
        if not founders:
            raise SimulationError(
                "a fleet needs at least one founding tenant "
                "(arrival_epoch == 0) to open the warehouse"
            )
        merged: List = []
        for tenant in founders:
            merged.extend(tenant.qualified_workload())
        return WarehouseState(
            workload=Workload(self._dataset.schema, merged),
            dataset=self._dataset,
            deployment=self._deployment,
            market=self._market,
        )

    def _departure_names(self, tenant: Tenant) -> Tuple[str, ...]:
        """The fleet-wide query names a tenant still owns when it leaves.

        Replays the tenant's drift — adds and drops before its
        departure — over its initial workload, preserving insertion
        order so the settlement export is deterministic.
        """
        names: Dict[str, None] = {
            q.name: None for q in tenant.qualified_workload()
        }
        horizon = tenant.departure_epoch
        for event in tenant.qualified_events():
            if horizon is not None and event.epoch >= horizon:
                continue
            if isinstance(event, AddQueries):
                for query in event.queries:
                    names[query.name] = None
            elif isinstance(event, DropQueries):
                for name in event.names:
                    names.pop(name, None)
        return tuple(names)

    def events(self) -> Tuple[SimulationEvent, ...]:
        """All events — churn, qualified tenant drift, shared — in epoch
        order.

        Within an epoch, departures fire first (the leaver's queries
        must be out of the workload before anything drifts or prices
        it), then each tenant's arrival and drift in merge order, then
        shared events; the sort is stable so each source's internal
        order is preserved.  Static fleets compile no churn events, so
        their event order is exactly the pre-elastic one.

        Every compiled arrival carries the fleet's one shared
        :class:`~repro.simulate.events.TenantRoster` as its hint, so a
        late arrival's queries are spliced into the merged workload at
        the tenant's *roster* position rather than appended.  The
        workload order is therefore a pure function of which tenants
        are present — never of when they showed up — which is what
        keeps one tenant's books byte-identical when an unrelated
        tenant's schedule moves.
        """
        roster = TenantRoster(self.tenant_names)
        combined: List[SimulationEvent] = []
        for tenant in self._tenants:
            if tenant.arrival_epoch > 0:
                combined.append(
                    TenantArrival(
                        epoch=tenant.arrival_epoch,
                        tenant=tenant.name,
                        queries=tuple(tenant.qualified_workload()),
                        roster=roster,
                    )
                )
            combined.extend(tenant.qualified_events())
            if tenant.departure_epoch is not None:
                combined.append(
                    TenantDeparture(
                        epoch=tenant.departure_epoch,
                        tenant=tenant.name,
                        names=self._departure_names(tenant),
                    )
                )
        combined.extend(self._shared)
        combined.sort(
            key=lambda e: (
                e.epoch, 0 if isinstance(e, TenantDeparture) else 1
            )
        )
        return tuple(combined)

    def describe(self) -> str:
        """One-line fleet display."""
        sizes = ", ".join(
            f"{t.name}({len(t.workload)}q)" for t in self._tenants
        )
        elastic = " elastic" if self.is_elastic else ""
        return f"{len(self._tenants)}{elastic} tenants [{sizes}]"


class MultiTenantSimulator:
    """Runs a tenant fleet through a lifecycle, attributing every charge.

    A thin orchestration layer: the merged fleet steps through the
    ordinary :class:`LifecycleSimulator` (same policies, same caches,
    same epoch accounting), and an observer splits each epoch's record
    across tenants.  ``attribution`` picks the sharing rule — see
    :mod:`repro.simulate.attribution`.  ``builds`` (a
    :class:`~repro.simulate.builds.BuildConfig`) makes the shared
    warehouse's builds asynchronous; the attributor then splits each
    epoch segment by segment, and the books still balance exactly.
    """

    def __init__(
        self,
        fleet: TenantFleet,
        clock: SimulationClock,
        attribution: str = "proportional",
        catalogue: Optional[Sequence[CandidateView]] = None,
        builds: "Optional[BuildConfig]" = None,
    ) -> None:
        self._fleet = fleet
        self._attributor = SharedCostAttributor(
            fleet.tenant_names, mode=attribution
        )
        if fleet.is_elastic:
            # The warehouse must never stand empty: the cost model
            # prices a workload, and attribution needs somebody to
            # charge the infrastructure to.
            for epoch in range(clock.n_epochs):
                if not fleet.active_tenants(epoch):
                    raise SimulationError(
                        f"no tenant is active at epoch {epoch}; keep at "
                        "least one tenant present for every epoch of "
                        "the horizon"
                    )
        self._simulator = LifecycleSimulator(
            initial=fleet.initial_state(),
            clock=clock,
            events=fleet.events(),
            catalogue=catalogue,
            builds=builds,
        )

    # -- accessors ------------------------------------------------------

    @property
    def fleet(self) -> TenantFleet:
        """The tenants and their shared infrastructure."""
        return self._fleet

    @property
    def attributor(self) -> SharedCostAttributor:
        """The cost-sharing rule applied each epoch."""
        return self._attributor

    @property
    def simulator(self) -> LifecycleSimulator:
        """The wrapped single-warehouse lifecycle simulator."""
        return self._simulator

    @property
    def clock(self) -> SimulationClock:
        """The epoch grid (delegated)."""
        return self._simulator.clock

    @property
    def builder(self) -> EpochProblemBuilder:
        """The shared problem builder (delegated; cache statistics)."""
        return self._simulator.builder

    # -- runs -----------------------------------------------------------

    def _observe(
        self,
        policy: ReselectionPolicy,
        route: Callable[..., Iterable[TenantEpochRecord]],
        books: Mapping[str, TenantTotals],
        observer: Optional[EpochObserver] = None,
    ) -> SimulationLedger:
        """The one attribution observer behind :meth:`run` and
        :meth:`run_sharded`; returns the fleet's own ledger.

        ``route(problem, record, breakdown, tenants)`` yields an
        epoch's tenant records in global tenant order (``tenants`` is
        the active set of an elastic fleet, else ``None``).  Each
        record folds into its tenant's ``books`` and then, in this
        process, feeds the explain fold, so the explain stream does
        not depend on the route.
        """
        elastic = self._fleet.is_elastic
        telemetry = current_telemetry()
        explain = current_explain()
        fold = (
            TenantDeltaFold(policy.describe()) if explain.enabled else None
        )

        def attribute(record, problem, breakdown) -> None:
            active = (
                self._fleet.active_tenants(record.epoch)
                if elastic
                else None
            )
            for share in route(problem, record, breakdown, active):
                books[share.tenant].fold(share)
                if fold is not None:
                    explain.emit(fold.feed(share))
            if telemetry.enabled and (record.arrivals or record.departures):
                telemetry.inc("fleet.arrivals", len(record.arrivals))
                telemetry.inc("fleet.departures", len(record.departures))

        return self._simulator.run(
            policy, observer=compose_observers(attribute, observer)
        )

    def run(
        self,
        policy: ReselectionPolicy,
        observer: Optional[EpochObserver] = None,
    ) -> FleetLedger:
        """Simulate the fleet under ``policy``; books verified on return.

        The in-process route: every epoch's records come from
        :meth:`~repro.simulate.attribution.SharedCostAttributor.attribute`
        and are folded and kept, one
        :class:`~repro.simulate.ledger.TenantLedger` per tenant.
        ``observer`` (the standard
        :class:`~repro.simulate.simulator.EpochObserver` contract) is
        composed *after* attribution via
        :func:`~repro.simulate.simulator.compose_observers`, so
        telemetry or logging observers see each epoch without wrapping
        the attribution machinery by hand.
        """
        ledgers = {
            name: TenantLedger(name, policy.describe())
            for name in self._fleet.tenant_names
        }
        fleet_ledger = self._observe(
            policy,
            lambda *epoch: self._attributor.attribute(*epoch).values(),
            ledgers,
            observer,
        )
        result = FleetLedger(fleet_ledger, ledgers)
        result.verify_attribution()
        return result

    def run_sharded(
        self,
        policy: ReselectionPolicy,
        shards: int = 1,
        jobs: int = 1,
    ) -> FleetSummary:
        """Simulate the fleet with sharded, streaming attribution.

        The population-scale route of :meth:`run`'s observer: each
        epoch's products are partitioned into ``shards`` contiguous
        tenant ranges (evaluated across ``jobs`` worker processes when
        ``jobs > 1``), and the stream of records is folded into
        :class:`~repro.simulate.ledger.TenantTotals` without keeping a
        record, so the tenant x epoch matrix is never materialized.
        Both routes share one plan and one merge, so the totals are
        byte-identical for any ``shards`` / ``jobs`` and to
        :meth:`run`'s: ``to_csv()`` gives the same bytes on either.
        """
        from .sharding import ShardedAttribution

        totals = {name: TenantTotals(name) for name in self._fleet.tenant_names}
        sharded = ShardedAttribution(self._attributor, shards=shards, jobs=jobs)
        try:
            fleet_ledger = self._observe(
                policy, sharded.attribute_streaming, totals
            )
        finally:
            sharded.close()
        summary = FleetSummary(fleet_ledger, totals, shards=sharded.shards)
        summary.verify_totals()
        return summary

    def compare(
        self, policies: Iterable[ReselectionPolicy]
    ) -> Dict[str, FleetLedger]:
        """Run several policies over the same fleet, caches shared."""
        return compare_policies(self.run, policies)

    # -- fairness-aware selection --------------------------------------

    def fair_scenario_factory(
        self,
        base: Optional[Scenario] = None,
        caps: Optional[Dict[str, Money]] = None,
        max_share_slack: Optional[float] = None,
        hard: bool = False,
        latency_ceilings: Optional[Dict[str, float]] = None,
    ):
        """A per-epoch scenario factory enforcing tenant fairness.

        Returns a callable suitable for a policy's ``scenario_factory``:
        each epoch it wraps ``base`` in a
        :class:`~repro.optimizer.fairness.FairShareScenario` whose
        per-tenant costs are this simulator's attributed shares.
        ``caps`` are absolute per-tenant dollar caps (e.g. from
        :meth:`TenantFleet.tenant_caps`); ``max_share_slack`` bounds
        every tenant's share to ``(1 + slack)`` times the even split of
        the fleet bill; ``latency_ceilings`` caps each tenant's *own*
        processing hours per epoch (a per-tenant latency SLO in the
        style of BRAD's ``query_latency_ceiling`` trigger), composing
        with the dollar constraints.

        On an elastic fleet every constraint is evaluated over the
        epoch's *present* tenants — a ceiling for a tenant that has
        not arrived yet (or already left) is simply dormant.

        ``hard`` defaults to ``False`` here — the soft (lexicographic)
        mode — because a lifecycle policy must decide *something* every
        epoch, and a drifted workload can make any fixed cap
        unreachable mid-run.  Pass ``hard=True`` for strict caps if an
        :class:`~repro.errors.InfeasibleProblemError` mid-simulation is
        acceptable.
        """
        attributor = self._attributor
        fleet = self._fleet

        def factory(problem: SelectionProblem) -> FairShareScenario:
            tenants = (
                attributor.present_tenants(problem)
                if fleet.is_elastic
                else None
            )
            extra = {}
            if latency_ceilings is not None:
                extra = dict(
                    latency_ceilings=latency_ceilings,
                    hours_fn=lambda outcome: attributor.outcome_hours(
                        problem, outcome, tenants
                    ),
                )
            return FairShareScenario(
                base=base,
                shares_fn=lambda outcome: attributor.outcome_shares(
                    problem, outcome, tenants
                ),
                caps=caps,
                max_share_slack=max_share_slack,
                hard=hard,
                **extra,
            )

        return factory
