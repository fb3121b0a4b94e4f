"""The lifecycle simulator: clock x events x policy -> ledger.

One :class:`LifecycleSimulator` owns a timeline (initial state +
events) and a clock, and can run any number of re-selection policies
over it.  All runs share one :class:`~repro.simulate.problems.
EpochProblemBuilder`, so the second policy's sweep over the same
epochs gets the first sweep's problems back and is answered almost
entirely from their subset memos — that sharing is what makes
multi-policy comparisons cheap.

Epoch accounting (see :mod:`repro.simulate.ledger` for the split):
the epoch's subset is priced through the existing cost model, then the
materialization charge is narrowed to the views actually (re)built
this epoch — a carried view was paid for when it was built, and only
its maintenance recurs.  Dropped views are charged one decommission
egress of their size.  A provider migration (scheduled
:class:`~repro.simulate.events.ProviderMigration` event, or one
attached to a policy decision) bills both transfer legs — dataset +
held views egressed on the source book, ingressed on the target's —
as the epoch's ``migration_cost``, and re-materializes every kept
view at the target's rates (the whole subset counts as built that
epoch).  With ``cascade_materialization`` enabled,
carried views are zeroed out of the cascade's build plan, which
slightly overstates a rebuild that could have cascaded off a carried
view — the conservative direction.

There is one epoch loop, and every decided build goes through a
:class:`~repro.simulate.builds.BuildQueue`.  Asynchronous execution
(pass a :class:`~repro.simulate.builds.BuildConfig`) decouples the
decision from the epoch clock: a decided build lands only after its
wall-clock duration (``materialization_hours`` converted to months).
Until it lands, queries are answered from the *previous* holdings;
once it lands mid-epoch, the epoch is split into
:class:`~repro.simulate.ledger.EpochSegment`\\ s at the completion
instants and each segment bills its holdings' full-period operating
charge scaled by the period fraction — all through the same
memoized epoch problems.  Build compute is billed in the epoch the
build *completes*; an in-flight build whose view a later decision
drops is cancelled with only its sunk compute billed
(``cancelled_cost``), and builds still in flight when the horizon
ends are likewise closed out at sunk cost.  Synchronous execution
(``builds=None``) is the instant-build case of the same loop: every
decision lands at its own epoch's start, no epoch is split, and each
epoch is billed whole — which is why instant builds under any
``BuildConfig`` reproduce the synchronous ledgers byte for byte, the
parity invariant the tests enforce.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

from ..costmodel.computing import view_computing_cost
from ..costmodel.estimator import PlanningInputs
from ..costmodel.total import CostBreakdown
from ..cube.candidates import enumerate_candidates
from ..cube.lattice import CuboidLattice
from ..cube.views import CandidateView
from ..errors import SimulationError
from ..explain import (
    BuildOutcomeRecord,
    EpochDeltaRecord,
    PolicyTriggerRecord,
    chain_subterms,
    event_cause,
    fleet_epoch_delta,
)
from ..explain import current as current_explain
from ..money import Money, ZERO
from ..optimizer.problem import SelectionProblem
from ..pricing.migration import migration_transfer_cost, migration_volume_gb
from ..pricing.providers import Provider
from ..telemetry import current as current_telemetry
from .arbitrage import operating_cost as _subset_operating_cost
from .builds import (
    BuildCancellation,
    BuildConfig,
    BuildJob,
    BuildQueue,
    tile_fractions,
)
from .clock import Epoch, SimulationClock
from .events import (
    EventTimeline,
    ProviderMigration,
    SimulationEvent,
    TenantArrival,
    TenantDeparture,
)
from .ledger import EpochRecord, EpochSegment, SimulationLedger
from .policy import ReselectionPolicy
from .problems import EpochContext, EpochProblemBuilder
from .state import Holdings, WarehouseState

__all__ = [
    "EpochObserver",
    "LifecycleSimulator",
    "compose_observers",
    "full_catalogue",
]

#: The queue a synchronous simulator (``builds=None``) runs: one slot
#: and an infinite wall clock, so every decided build lands the instant
#: it is submitted — at its own epoch's start — and no epoch is split.
_INSTANT_BUILDS = BuildConfig(slots=1, hours_per_month=math.inf)


@runtime_checkable
class EpochObserver(Protocol):
    """The per-epoch callback contract — THE one place it is defined.

    :meth:`LifecycleSimulator.run` invokes the observer exactly once
    per epoch, *after* the epoch is fully accounted and appended to
    the ledger, with:

    ``record``
        The finished :class:`~repro.simulate.ledger.EpochRecord` —
        immutable; observers read it, they never amend it.
    ``problem``
        The epoch's :class:`~repro.optimizer.problem.SelectionProblem`
        (post-migration on migration epochs), through which observers
        reach planning inputs, per-query hours, and evaluation
        statistics.
    ``breakdown``
        The epoch's priced :class:`~repro.costmodel.total.
        CostBreakdown` with materialization narrowed to the views
        built this epoch — the exact numbers the record's charges came
        from.  On segmented async epochs it is the *last* segment's
        breakdown (the epoch-end holdings).

    Observers must not raise (an exception aborts the run) and must
    not mutate simulator state.  Any callable with this shape
    satisfies the protocol — plain functions and closures included;
    tenant attribution (:class:`~repro.simulate.tenants.
    MultiTenantSimulator`) and telemetry observers are both written
    against it and compose via :func:`compose_observers`.
    """

    def __call__(
        self,
        record: EpochRecord,
        problem: SelectionProblem,
        breakdown: CostBreakdown,
    ) -> None:
        """Consume one accounted epoch."""
        ...


def compose_observers(
    *observers: Optional[EpochObserver],
) -> Optional[EpochObserver]:
    """Fan one epoch out to several observers, in argument order.

    ``None`` entries are skipped (so optional observers compose
    without conditionals at the call site); with zero or one live
    observer the result is ``None`` / that observer itself — no
    wrapper is interposed.
    """
    live = [obs for obs in observers if obs is not None]
    if not live:
        return None
    if len(live) == 1:
        return live[0]

    def fan_out(
        record: EpochRecord,
        problem: SelectionProblem,
        breakdown: CostBreakdown,
    ) -> None:
        for observe in live:
            observe(record, problem, breakdown)

    return fan_out


def compare_policies(run, policies):
    """Run ``policies`` through ``run``, keyed by their describe() names.

    Shared by :meth:`LifecycleSimulator.compare` and the multi-tenant
    :meth:`~repro.simulate.tenants.MultiTenantSimulator.compare`:
    ``run(policy)`` returns any ledger-like object with a
    ``policy_name``, and two policies describing identically are
    rejected so no result can silently shadow another.
    """
    ledgers = {}
    for policy in policies:
        ledger = run(policy)
        if ledger.policy_name in ledgers:
            raise SimulationError(
                f"two policies describe() as {ledger.policy_name!r}; "
                "give them distinct parameters"
            )
        ledgers[ledger.policy_name] = ledger
    return ledgers


def full_catalogue(lattice: CuboidLattice) -> Tuple[CandidateView, ...]:
    """Every non-base cuboid as a candidate view, stably named.

    The simulator's candidate universe must be fixed for the whole
    lifecycle (views picked at epoch 0 must still be priceable at
    epoch 40, whatever the workload drifted to), so it is the schema's
    lattice rather than any one epoch's query grains.
    """
    return tuple(enumerate_candidates(lattice, useful_only=False))


class LifecycleSimulator:
    """Steps a warehouse through epochs, events and re-selections."""

    def __init__(
        self,
        initial: WarehouseState,
        clock: SimulationClock,
        events: Sequence[SimulationEvent] = (),
        catalogue: Optional[Sequence[CandidateView]] = None,
        builds: Optional[BuildConfig] = None,
    ) -> None:
        self._initial = initial
        self._clock = clock
        # Every cost formula bills one deployment period per epoch, so
        # the epoch length must *be* the deployment's storage period —
        # otherwise the ledger would silently misbill the horizon.
        if abs(clock.months_per_epoch - initial.deployment.storage_months) > 1e-9:
            raise SimulationError(
                f"epoch length ({clock.months_per_epoch} months) must match "
                f"the deployment's billing period "
                f"({initial.deployment.storage_months} months); adjust "
                "storage_months or months_per_epoch"
            )
        self._timeline = EventTimeline(events)
        self._timeline.check_within(clock.n_epochs)
        if catalogue is None:
            catalogue = full_catalogue(
                CuboidLattice(initial.workload.schema)
            )
        self._builder = EpochProblemBuilder(catalogue)
        self._builds = builds

    # -- accessors ------------------------------------------------------

    @property
    def clock(self) -> SimulationClock:
        """The epoch grid this simulator steps over."""
        return self._clock

    @property
    def timeline(self) -> EventTimeline:
        """The scheduled events."""
        return self._timeline

    @property
    def builder(self) -> EpochProblemBuilder:
        """The shared problem builder (inspect for cache statistics)."""
        return self._builder

    @property
    def builds(self) -> Optional[BuildConfig]:
        """The build-queue configuration (``None`` = synchronous, the
        instant-build case)."""
        return self._builds

    # -- the run --------------------------------------------------------

    def run(
        self,
        policy: ReselectionPolicy,
        observer: Optional[EpochObserver] = None,
    ) -> SimulationLedger:
        """Simulate the full horizon under ``policy``.

        ``observer``, if given, is called once per epoch — after the
        epoch is accounted — with ``(record, problem, breakdown)``,
        where ``breakdown`` is the epoch's priced
        :class:`~repro.costmodel.total.CostBreakdown` (materialization
        narrowed to the views built this epoch).  The multi-tenant
        layer uses this hook to attribute each epoch's charges without
        the core loop knowing tenants exist.

        Every run steps a :class:`~repro.simulate.builds.BuildQueue`.
        The policy always sees its previous *decision* as ``current``,
        so the same policy makes the same choices whatever the queue;
        what the queue changes is when a decision takes physical
        effect:

        * decided builds are submitted to the queue and land after
          their wall-clock duration — possibly epochs later;
        * queries are answered from the views actually live, so an
          epoch is split at every landing instant and each segment
          bills its holdings' prorated operating charge;
        * build compute is billed in the landing epoch; a build whose
          view a later decision drops is cancelled at sunk cost;
        * a provider migration cancels every in-flight build (it
          targeted the old book) and re-queues the whole subset on
          the target.

        A synchronous simulator (``builds=None``) runs the instant
        queue (:data:`_INSTANT_BUILDS`): every submission lands at its
        own epoch's start, no epoch is split, and a decided view is a
        live view.
        """
        telemetry = current_telemetry()
        explain = current_explain()
        ledger = SimulationLedger(policy.describe())
        state = self._initial
        queue = (
            self._builds if self._builds is not None else _INSTANT_BUILDS
        ).queue()
        live: FrozenSet[str] = frozenset()
        current: Optional[FrozenSet[str]] = None
        previous_record: Optional[EpochRecord] = None
        previous_problem: Optional[SelectionProblem] = None
        last_index = self._clock.n_epochs - 1
        stats_before = self._builder.evaluation_stats()
        for epoch in self._clock:
            fired = self._timeline.at(epoch.index)
            # Provenance capture: after each event applies, the
            # (event, intermediate state) pair — the telescoping chain
            # the explain layer later re-prices to attribute the
            # operating delta per event, at the subset physically live
            # at epoch start.  Capture is two pointer stores;
            # classification, description, and pricing all happen at
            # log-read time (emit_deferred).  None when explain is
            # off, so the disabled path allocates nothing.
            baseline_live = live if previous_record is not None else None
            chain = [] if explain.enabled else None
            # Each migration hop is billed from the book it actually
            # leaves — captured at apply time, because earlier events
            # in the same epoch (a forced PriceChange, another hop)
            # may already have moved the warehouse.
            hops = []  # (deployment left, provider joined)
            arrived = []
            departures = []
            settle_inputs = None
            for event in fired:
                if isinstance(event, ProviderMigration):
                    settle_inputs = None
                    source = state.deployment
                    state = event.apply(state)
                    hops.append((source, state.deployment.provider))
                elif isinstance(event, TenantDeparture):
                    # Settlement is priced at the book (and result
                    # sizes) the tenant actually leaves — captured
                    # before its queries drop out of the workload.  A
                    # query's result size is independent of the rest
                    # of the workload, so consecutive departures share
                    # one pricing pass; any other event invalidates it.
                    if settle_inputs is None:
                        settle_inputs = self._builder.problem_for(
                            state
                        ).inputs
                    departures.append(
                        self._settle_departure(state, event, settle_inputs)
                    )
                    state = event.apply(state)
                else:
                    settle_inputs = None
                    state = event.apply(state)
                    if isinstance(event, TenantArrival):
                        arrived.append(event)
                if chain is not None:
                    chain.append((event, state))
            pending = queue.pending_views()
            state = state.with_holdings(Holdings(live=live, pending=pending))
            problem = self._builder.problem_for(state)
            arrivals = tuple(
                self._price_arrival(problem, event) for event in arrived
            )
            context = EpochContext(state=state, builder=self._builder)
            with explain.scope(epoch.index, ledger.policy_name):
                with telemetry.span(
                    "epoch.decide",
                    epoch=epoch.index,
                    policy=ledger.policy_name,
                ):
                    decision = policy.decide_in_context(
                        epoch.index, problem, current, context
                    )
            described = [e.describe() for e in fired]
            if decision.migration is not None:
                # A policy-decided switch: the state follows the
                # decision, and the epoch is accounted on the target.
                source = state.deployment
                state = decision.migration.apply(state)
                hops.append((source, state.deployment.provider))
                problem = self._builder.problem_for(state)
                described.append(decision.migration.describe())
                if chain is not None:
                    chain.append((decision.migration, state))
            target = decision.subset
            # In-flight builds the decision no longer wants are
            # abandoned at sunk cost; a migration abandons all of them
            # (they were building for the book being left).
            cancellations = queue.cancel(
                pending if hops else pending - target, epoch.start_month
            )
            dropped = live - target
            migration_cost = ZERO
            migrated_to = None
            if hops:
                # Views are not portable between providers: ship the
                # warehouse as it physically stands — dataset plus
                # live views — once per hop, then rebuild the whole
                # target subset from scratch on the new book.
                for source, hop_target in hops:
                    migration_cost = migration_cost + self._migration_cost(
                        source.provider, hop_target, problem, live
                    )
                migrated_to = state.deployment.provider.name
                live = frozenset()
            else:
                live = live & target
            with telemetry.span("epoch.account", epoch=epoch.index):
                # Sunk compute of builds a migration abandons was burned
                # on the book being *left*: bill cancellations at the
                # deployment as it stood before the first hop, the
                # rates the compute actually ran under.
                record, breakdown, live = self._account(
                    epoch, problem, decision, queue, live, dropped,
                    cancellations, tuple(described), migration_cost,
                    migrated_to,
                    cancel_deployment=(
                        hops[0][0] if hops else problem.inputs.deployment
                    ),
                    arrivals=arrivals, departures=tuple(departures),
                    horizon=epoch.index == last_index,
                )
            record, stats_before = self._finish_epoch(
                telemetry, record, stats_before
            )
            ledger.append(record)
            if observer is not None:
                observer(record, problem, breakdown)
            if explain.enabled:
                self._emit_explain(
                    explain, ledger.policy_name, decision, record,
                    previous_record, current, baseline_live,
                    chain, problem, previous_problem,
                )
            previous_record = record
            previous_problem = problem
            current = target
        return ledger

    def _emit_explain(
        self,
        explain,
        policy_name: str,
        decision,
        record: EpochRecord,
        previous_record: Optional[EpochRecord],
        previous_subset: Optional[FrozenSet[str]],
        baseline_subset: Optional[FrozenSet[str]],
        chain,
        problem: SelectionProblem,
        previous_problem: Optional[SelectionProblem],
    ) -> None:
        """Emit one epoch's provenance: trigger, builds, exact delta.

        Called only when explain is enabled, after the epoch's record
        is appended and observed — provenance is derived from finished
        facts, never interleaved with accounting.  All three records
        are parked as deferred slots
        (:meth:`~repro.explain.ExplainLog.emit_deferred`) and
        materialized on first log read: the run loop pays three
        closure allocations per epoch, and the real work — record
        construction, chain re-pricing, the exact ``Money`` fold —
        happens off the run's critical path.  Every input the thunks
        close over is frozen (ledger records, the decision) or
        interned (problems, chain states), so late resolution is
        byte-identical to eager emission — and because no explain
        pricing flows through the run's problems *during* the run,
        the ledger's cache statistics are exactly those of an
        uninstrumented run.

        ``previous_subset`` is the incumbent the *policy* saw (its
        ``current``); ``baseline_subset`` is the subset the
        telescoping event chain is priced with — the physically *live*
        holdings at epoch start, which under instant builds are the
        same thing (``None`` on the first epoch — no chain).
        ``chain`` holds ``(event, state)`` snapshots taken after each
        event applied.

        ``problem`` and ``previous_problem`` are the epoch's and the
        previous epoch's decision problems, passed by reference so the
        chain endpoints skip the problem lookup entirely: the carry
        baseline *is* the previous epoch's decision state, and the
        final chain state *is* this epoch's (holdings never enter
        operating pricing — problem inputs are workload × dataset ×
        deployment — so the holdings rewrite between a chain snapshot
        and the decision state cannot move the priced value).  Only
        intermediate states of multi-event epochs build problems of
        their own.
        """
        explain.emit_deferred(
            lambda: PolicyTriggerRecord(
                epoch=record.epoch,
                policy=policy_name,
                trigger=decision.trigger,
                reoptimized=decision.reoptimized,
                regret=decision.regret,
                streak=decision.streak,
                subset=tuple(record.subset),
                previous=(
                    None
                    if previous_subset is None
                    else tuple(sorted(previous_subset))
                ),
            )
        )
        if record.views_built or record.views_cancelled:
            explain.emit_deferred(
                lambda: BuildOutcomeRecord(
                    epoch=record.epoch,
                    policy=policy_name,
                    landed=tuple(record.views_built),
                    cancelled=tuple(record.views_cancelled),
                    build_cost=record.build_cost,
                    cancelled_cost=record.cancelled_cost,
                    latency_months=record.build_latency_months,
                )
            )
        explain.emit_deferred(
            lambda: self._epoch_delta_record(
                policy_name, record, previous_record, baseline_subset,
                chain, problem, previous_problem,
            )
        )

    def _epoch_delta_record(
        self,
        policy_name: str,
        record: EpochRecord,
        previous_record: Optional[EpochRecord],
        baseline_subset: Optional[FrozenSet[str]],
        chain,
        problem: SelectionProblem,
        previous_problem: Optional[SelectionProblem],
    ) -> EpochDeltaRecord:
        """Build one epoch's exact delta record (deferred-thunk body).

        Runs at log-read time, after the simulation returned — see
        :meth:`_emit_explain` for why that is safe.  Chain pricing
        flows through the shared problem builder, so a state the run
        itself priced gets its memoized problem back.
        """
        subterms = ()
        if previous_record is not None:
            base = (
                baseline_subset
                if baseline_subset is not None
                else frozenset()
            )
            triples = []
            if chain:
                triples.append(
                    (
                        "carry-over",
                        "",
                        _subset_operating_cost(previous_problem, base),
                    )
                )
                last = len(chain) - 1
                for index, (event, chain_state) in enumerate(chain):
                    triples.append(
                        (
                            event_cause(event),
                            event.describe(),
                            _subset_operating_cost(problem, base)
                            if index == last
                            else self._chain_operating(chain_state, base),
                        )
                    )
            subterms = chain_subterms(
                previous_record.operating_cost,
                triples,
                record.operating_cost,
            )
        return fleet_epoch_delta(
            record,
            previous_record,
            policy_name,
            operating_subterms=subterms,
        )

    def _chain_operating(
        self,
        state: WarehouseState,
        subset: FrozenSet[str],
    ) -> Money:
        """Price one intermediate chain state at the baseline subset.

        Only multi-event epochs reach this — the chain's endpoints are
        priced on the epoch problems the run loop already holds (see
        :meth:`_emit_explain`).  Flows through the shared problem
        builder, so a repeated intermediate state is still a cache hit.
        """
        problem = self._builder.problem_for(state)
        return _subset_operating_cost(problem, subset)

    def _finish_epoch(self, telemetry, record, stats_before):
        """Stamp the epoch's cache deltas on its record; emit metrics.

        Returns the amended record and the new stats baseline.  The
        cache fields are computed whether or not telemetry is enabled
        — they are ledger data.
        """
        stats_after = self._builder.evaluation_stats()
        record = replace(
            record,
            cache_hits=stats_after.hits - stats_before.hits,
            subsets_priced=stats_after.priced - stats_before.priced,
        )
        if telemetry.enabled:
            telemetry.inc("simulator.epochs")
            if record.reoptimized:
                telemetry.inc("simulator.reoptimizations")
            if record.migrated_to is not None:
                telemetry.inc("simulator.migrations")
            telemetry.inc("cache.hits", record.cache_hits)
            telemetry.inc("cache.subsets_priced", record.subsets_priced)
            telemetry.observe("simulator.epoch_cost", record.total_cost)
        return record, stats_after

    @staticmethod
    def _compute_bill(deployment, hours: float) -> Money:
        """Materialization compute for ``hours`` at ``deployment``'s rates.

        Billed through the same :func:`~repro.costmodel.computing.
        view_computing_cost` path the cost model uses, summed and
        rounded once per epoch — matching how whole-epoch billing
        rounds the views built together in one epoch.
        """
        if not hours:
            return ZERO
        return view_computing_cost(
            deployment.provider.compute,
            deployment.instance_type,
            deployment.n_instances,
            query_hours=(),
            materialization_hours=(hours,),
        ).materialization_cost

    def _settle_departure(
        self,
        state: WarehouseState,
        event: TenantDeparture,
        inputs: PlanningInputs,
    ) -> Tuple[str, Money]:
        """Price a departing tenant's settlement export.

        The tenant's remaining result products — one copy of each
        query it still had — are exported at the book being left: the
        state as it stands *before* the departure applies (earlier
        same-epoch events, including migrations, have already acted).
        ``inputs`` are that state's priced inputs (the epoch loop
        reuses one pricing pass across consecutive departures — result
        sizes do not depend on the queries other departures removed).
        A tenant whose queries all drifted away settles at zero.
        """
        if not event.names:
            return event.tenant, ZERO
        volume = sum(
            inputs.result_sizes_gb[name]
            for name in event.names
            if name in inputs.result_sizes_gb
        )
        if not volume:
            return event.tenant, ZERO
        cost = state.deployment.provider.transfer.outbound_cost(volume)
        return event.tenant, cost

    @staticmethod
    def _price_arrival(
        problem: SelectionProblem, event: TenantArrival
    ) -> Tuple[str, Money]:
        """Price an arriving tenant's onboarding load.

        One copy of each arriving query's result product is loaded
        into the warehouse at the post-events book's inbound rates.
        (The marginal *view* demand the arrival creates bills through
        the ordinary build path and the per-view user split.)
        """
        inputs = problem.inputs
        volume = sum(
            inputs.result_sizes_gb[query.name]
            for query in event.queries
            if query.name in inputs.result_sizes_gb
        )
        if not volume:
            return event.tenant, ZERO
        cost = inputs.deployment.provider.transfer.inbound_cost(volume)
        return event.tenant, cost

    @staticmethod
    def _migration_cost(
        source: Provider,
        target: Provider,
        problem: SelectionProblem,
        held: FrozenSet[str],
    ) -> Money:
        """Both transfer legs of a provider switch.

        The shipped volume is the dataset plus the views held going
        into the epoch (what physically exists to move); egress is
        billed on the source book, ingress on the target's.  View
        sizes are provider-independent, so the post-migration
        problem's statistics price them correctly.
        """
        inputs = problem.inputs
        volume = migration_volume_gb(
            inputs.dataset_gb,
            {name: inputs.view_stats[name].size_gb for name in sorted(held)},
        )
        egress, ingress = migration_transfer_cost(source, target, volume)
        return egress + ingress

    def compare(
        self, policies: Iterable[ReselectionPolicy]
    ) -> Dict[str, SimulationLedger]:
        """Run several policies over the same timeline, caches shared."""
        return compare_policies(self.run, policies)

    # -- epoch accounting ----------------------------------------------

    def _account(
        self,
        epoch: Epoch,
        problem: SelectionProblem,
        decision,
        queue: BuildQueue,
        live: FrozenSet[str],
        dropped: FrozenSet[str],
        cancellations: Tuple[BuildCancellation, ...],
        described: Tuple[str, ...],
        migration_cost: Money,
        migrated_to: Optional[str],
        cancel_deployment,
        arrivals: Tuple[Tuple[str, Money], ...],
        departures: Tuple[Tuple[str, Money], ...],
        horizon: bool,
    ) -> Tuple[EpochRecord, CostBreakdown, FrozenSet[str]]:
        """Land one epoch's builds and bill the epoch.

        Returns the epoch's record, its priced breakdown and the
        holdings live at the epoch's end.  The decision's missing
        views are submitted to ``queue`` and the queue is run to the
        epoch's end; on the ``horizon`` epoch, builds still in flight
        are closed out at sunk cost.  ``cancellations`` are the
        builds the decision already abandoned at the epoch's start.

        The epoch is cut at every landing instant into segments of
        constant live holdings.  When the single resulting segment is
        the decision's subset and every landing was this epoch's own
        instant build — every synchronous epoch, and an asynchronous
        one with nothing in flight — the epoch is billed whole: the
        plan is priced with materialization narrowed to the views
        built this epoch (a carried view was paid for when it was
        built).  Otherwise each segment bills its holdings'
        full-period operating charge scaled by its fraction, and the
        landed compute is billed through :meth:`_compute_bill`.

        ``cancel_deployment`` is the deployment whose rates sunk
        compute is billed at — the pre-migration book on migration
        epochs, the epoch's own deployment otherwise.
        """
        target = decision.subset
        ordered = sorted(target)
        # Submit what the decision wants but the warehouse neither has
        # nor is already building; durations come from this epoch's
        # cost model and are frozen into the job.
        inputs = problem.inputs
        build_hours = inputs.materialization_hours(target)
        hours_by_view = dict(zip(ordered, build_hours))
        for view in sorted(target - live - queue.pending_views()):
            queue.submit(
                BuildJob(
                    view=view,
                    hours=hours_by_view[view],
                    submitted_month=epoch.start_month,
                )
            )
        completions = queue.advance_to(epoch.end_month)
        if horizon:
            # The horizon ends with builds in flight: close them out at
            # sunk cost so no compute silently vanishes.
            cancellations += queue.cancel(
                queue.pending_views(), epoch.end_month
            )
        # -- segmentation: holdings only grow within an epoch ----------
        runs = []  # (start_month, end_month, holdings)
        seg_start = epoch.start_month
        holdings = live
        for completion in completions:
            month = min(completion.completed_month, epoch.end_month)
            if month > seg_start:
                runs.append((seg_start, month, holdings))
                seg_start = month
            holdings = holdings | {completion.job.view}
        if seg_start < epoch.end_month or not runs:
            runs.append((seg_start, epoch.end_month, holdings))

        # -- ledger marks: only the asynchrony is worth narrating ------
        # A delayed start, a mid-epoch landing, a cancellation; sync
        # and zero-latency runs narrate none.
        marks = list(described)
        marks += [
            f"build:{c.job.view} cancelled@{c.cancelled_month:g}"
            for c in cancellations
        ]
        marks += [
            f"build:{job.view} started@{month:g}"
            for job, month in queue.drain_delayed_starts()
        ]
        marks += [
            f"build:{c.job.view} live@{c.completed_month:g}"
            for c in completions
            if c.completed_month > epoch.start_month
        ]

        built = frozenset(c.job.view for c in completions)
        landed_hours = sum(c.job.hours for c in completions)
        sunk_hours = sum(c.sunk_hours for c in cancellations)
        if (
            len(runs) == 1
            and runs[0][2] == target
            and not sunk_hours
            and landed_hours
            == sum(hours_by_view[view] for view in sorted(built))
        ):
            # The decision's subset was live for the whole period and
            # every landing was this epoch's own instant build.
            # Per-view hours are in sorted view name order; charge
            # materialization only for the views built this epoch.
            breakdown = problem.cost_model.evaluate(
                inputs.plan_for(
                    target,
                    build_hours=[
                        hours if name in built else 0.0
                        for name, hours in zip(ordered, build_hours)
                    ],
                )
            )
            build_cost = breakdown.computing.materialization_cost
            operating = breakdown.total - build_cost
            processing_hours = breakdown.processing_hours
            segments = []
        else:
            # -- prorated segments + completion billing ----------------
            fractions = tile_fractions(
                [end - start for start, end, _ in runs], epoch.months
            )
            operating = ZERO
            processing_hours = 0.0
            segments = []
            for (start, end, held), fraction in zip(runs, fractions):
                breakdown = problem.evaluate(held).breakdown
                full = (
                    breakdown.total - breakdown.computing.materialization_cost
                )
                operating = operating + (
                    full if fraction == 1.0 else full * fraction
                )
                processing_hours += breakdown.processing_hours * fraction
                segments.append(
                    EpochSegment(
                        start_month=start,
                        months=end - start,
                        fraction=fraction,
                        subset=tuple(sorted(held)),
                    )
                )
            build_cost = self._compute_bill(inputs.deployment, landed_hours)
        if dropped:
            dropped_gb = sum(
                inputs.view_stats[name].size_gb for name in dropped
            )
            teardown_cost = (
                inputs.deployment.provider.transfer.outbound_cost(dropped_gb)
            )
        else:
            teardown_cost = ZERO
        record = EpochRecord(
            epoch=epoch.index,
            subset=tuple(ordered),
            operating_cost=operating,
            build_cost=build_cost,
            teardown_cost=teardown_cost,
            processing_hours=processing_hours,
            views_built=tuple(sorted(built)),
            views_dropped=tuple(sorted(dropped)),
            reoptimized=decision.reoptimized,
            regret=decision.regret,
            events=tuple(marks),
            migration_cost=migration_cost,
            migrated_to=migrated_to,
            views_cancelled=tuple(sorted(c.job.view for c in cancellations)),
            cancelled_cost=self._compute_bill(cancel_deployment, sunk_hours),
            build_latency_months=sum(
                (c.latency_months for c in completions), 0.0
            ),
            segments=tuple(segments),
            arrivals=arrivals,
            departures=departures,
        )
        return record, breakdown, holdings
