"""The kernel proper: one numeric world, pre-factored to price and screen.

A :class:`KernelWorld` is built once per
:class:`~repro.costmodel.estimator.PlanningInputs` world and then
prices any candidate subset without touching the estimator again.  The
build factors the world into what actually varies by subset and what
does not:

* **varies** — per-query processing hours (a row-min over the subset's
  view columns, delegated to a :mod:`~repro.kernel.backend`), and the
  subset's materialization / maintenance / storage totals (vector
  gathers in sorted-name order, the order ``plan_for`` sums in);
* **does not** — transfer cost (result sizes are subset-independent),
  the storage timeline, and the billing book.

One private gather computes the varying part; :meth:`KernelWorld.evaluate`
bills it exactly and :meth:`KernelWorld.screen` bills it in float cents.

**The byte-identity contract.**  The kernel must reproduce the Decimal
oracle's ledgers *byte for byte*, not merely to the cent.  Two design
rules follow:

1. Every float it produces is computed by the same IEEE-754 operations
   in the same order as the original path: mins and elementwise
   multiplies are order-independent, but sums are not, so every total
   is accumulated sequentially in the oracle's iteration order (never
   ``np.sum``, which is pairwise).
2. Every :class:`~repro.money.Money` it returns comes from the *same*
   raw-Decimal billing rules the oracle runs —
   :func:`~repro.pricing.compute.instance_bill` for the instance bill,
   :func:`~repro.costmodel.storage.storage_cost_with_views` (Formula 5's
   :func:`~repro.costmodel.storage.storage_fold` over
   :func:`~repro.pricing.tiers.tier_cost`) for storage, and
   :func:`~repro.costmodel.transfer.transfer_cost` for egress — with
   the same operands in the same order.  Instance bills are memoized
   by their float hours, which is sound because Decimal arithmetic is
   a pure function of its operands.  The instance bill's rate,
   rounding rule and instance count are read once per world.
   Rebuilding Money from integer cents would preserve value but not
   repr (trailing zeros), and ledgers are compared as text.

**Screening never decides a reported number.**  The anytime search
optimizers (:mod:`repro.optimizer.search`) examine far more candidate
moves than they can afford to price, so they rank them on
:meth:`KernelWorld.screen`: the same gather, billed with the price
book converted once to float cents.  Its hours are the priced hours
bit for bit; its cents are the Decimal bill up to float error, so a
screen only *orders* moves, and every screened winner is re-priced
exactly before it can be reported.  A screen is a fixed sequence of
IEEE-754 operations on prebuilt vectors, so equal subsets screen
equal on every run and across worker processes.

Worlds the kernel cannot faithfully reproduce — cascade
materialization (build sharing re-plans per subset), non-positive runs
per period, NaN or negative inputs the oracle rejects with its own
errors — make :meth:`KernelWorld.build` return ``None`` and the caller
falls back to the oracle path; each fallback counts once in
``kernel.fallbacks{reason}``.
"""

from __future__ import annotations

import math
from typing import Dict, FrozenSet, List, Optional, Tuple

from .. import telemetry
from ..costmodel.computing import ComputingBreakdown
from ..costmodel.estimator import PlanningInputs
from ..costmodel.storage import storage_cost_with_views
from ..costmodel.total import CostBreakdown
from ..costmodel.transfer import transfer_cost
from ..money import Money, ZERO, to_decimal
from ..pricing.compute import instance_bill
from ..pricing.tiers import TierMode
from .backend import make_backend

__all__ = ["KernelWorld"]

#: What a gather returns: (single-run processing hours, period
#: processing / materialization / maintenance hours, view GB).
_Gather = Tuple[float, float, float, float, float]


def _unusable(value: float) -> bool:
    """Values the oracle path treats specially (errors or sign traps).

    Negative hours/sizes make the oracle raise ``CostModelError``; NaN
    breaks min-equivalence; -0.0 would let two subsets share a memo
    slot (-0.0 == 0.0) while str()-ing differently into Decimal.  All
    three send the world back to the oracle.
    """
    return value < 0 or math.isnan(value) or (value == 0 and math.copysign(1.0, value) < 0)


class KernelWorld:
    """Pre-factored pricing and screening of every subset of one world.

    Construct via :meth:`build`; ``None`` means "not representable —
    use the oracle".  :meth:`evaluate` returns the identical
    :class:`~repro.costmodel.total.CostBreakdown` the oracle would;
    :meth:`screen` ranks a subset in float cents without pricing it.
    """

    def __init__(
        self,
        *,
        backend,
        freqs: List[float],
        vindex: Dict[str, int],
        mat_hours: List[float],
        maint_hours: List[float],
        sizes_gb: List[float],
        runs_per_period: float,
        inputs: PlanningInputs,
        transfer: Money,
    ) -> None:
        self._backend = backend
        self._freqs = freqs
        self._vindex = vindex
        self._mat = mat_hours
        self._maint = maint_hours
        self._sizes = sizes_gb
        self._runs = runs_per_period
        dep = inputs.deployment
        self._storage_pricing = dep.provider.storage
        self._timeline = inputs.base_timeline
        self._transfer = transfer
        # The instance bill's per-world operands, read once.
        self._hourly_rate = dep.provider.compute.instance(
            dep.instance_type
        ).hourly_rate.amount
        self._billable_hours = dep.provider.compute.granularity.billable_hours
        self._n_instances = dep.n_instances
        self._n_decimal = to_decimal(dep.n_instances)
        self._bill_cache: Dict[float, Money] = {}
        # The float-cent price book, converted on the first screen.
        self._rate_cents: Optional[float] = None
        #: (exclusive upper GB, inf for the last band; cents per
        #: GB-month), increasing.
        self._bands: List[Tuple[float, float]] = []
        self._slab = False
        #: (constant volume GB, months) spans of the base timeline.
        self._intervals: List[Tuple[float, float]] = []
        self._transfer_cents = 0.0
        self._bill_cents_memo: Dict[float, float] = {}
        self._storage_cents_memo: Dict[float, float] = {}
        self._telemetry = telemetry.current()

    # -- construction --------------------------------------------------

    @classmethod
    def build(cls, inputs: PlanningInputs) -> Optional["KernelWorld"]:
        """Factor ``inputs``; ``None`` if unsupported.

        Each ``None`` counts in ``kernel.fallbacks`` under its reason.
        """
        tel = telemetry.current()
        dep = inputs.deployment
        if dep.cascade_materialization and inputs.candidates:
            # Cascaded build plans are re-planned per subset; there is
            # no per-view decomposition to precompute.
            reason = "cascade_materialization"
        elif not dep.runs_per_period > 0:
            reason = "non_positive_runs"
        else:
            with tel.span("kernel.build"):
                world = cls._factor(inputs)
            if world is not None:
                tel.inc("kernel.builds")
                return world
            reason = "unusable_inputs"
        tel.inc("kernel.fallbacks", reason=reason)
        return None

    @classmethod
    def _factor(cls, inputs: PlanningInputs) -> Optional["KernelWorld"]:
        queries = list(inputs.workload)
        names = [q.name for q in queries]
        freqs = [q.frequency for q in queries]
        base = [inputs.base_query_hours[n] for n in names]
        raw_results = [inputs.result_sizes_gb[n] for n in names]
        if any(_unusable(v) for seq in (freqs, base, raw_results) for v in seq):
            return None

        view_names = sorted(c.name for c in inputs.candidates)
        vindex = {name: i for i, name in enumerate(view_names)}
        qindex = {name: i for i, name in enumerate(names)}
        entries: List[List[Tuple[int, float]]] = [[] for _ in names]
        for (qname, vname), hours in inputs.view_query_hours.items():
            if _unusable(hours):
                return None
            row = qindex.get(qname)
            col = vindex.get(vname)
            if row is not None and col is not None:
                entries[row].append((col, hours))

        cycles = inputs.deployment.maintenance_cycles
        stats = inputs.view_stats
        mat = [stats[n].materialization_hours for n in view_names]
        maint = [stats[n].maintenance_hours_per_cycle * cycles for n in view_names]
        sizes = [stats[n].size_gb for n in view_names]
        if any(_unusable(v) for seq in (mat, maint, sizes) for v in seq):
            return None

        runs = inputs.deployment.runs_per_period
        # Result egress is subset-independent; price it once, exactly
        # as the oracle does: (raw * frequency) * runs per query.
        billed_results = tuple((s * f) * runs for s, f in zip(raw_results, freqs))
        transfer = transfer_cost(
            inputs.deployment.provider.transfer, billed_results
        )
        return cls(
            backend=make_backend(base, entries, len(view_names)),
            freqs=freqs,
            vindex=vindex,
            mat_hours=mat,
            maint_hours=maint,
            sizes_gb=sizes,
            runs_per_period=runs,
            inputs=inputs,
            transfer=transfer,
        )

    # -- the subset gather ---------------------------------------------

    @property
    def backend_name(self) -> str:
        """Which row-min backend this world runs (``numpy``/``python``)."""
        return self._backend.name

    def _gather(self, subset: FrozenSet[str]) -> _Gather:
        """Everything subset-dependent, in the oracle's summing order."""
        ordered = sorted(subset)
        idx = [self._vindex[name] for name in ordered]

        min_hours = self._backend.min_hours(idx)
        weighted = [h * f for h, f in zip(min_hours, self._freqs)]
        processing_hours = sum(weighted)

        runs = self._runs
        t_processing = 0.0
        for hours in weighted:
            t_processing += hours * runs
        t_materialization = 0.0
        for i in idx:
            t_materialization += self._mat[i]
        t_maintenance = 0.0
        for i in idx:
            t_maintenance += self._maint[i]
        views_gb = sum(self._sizes[i] for i in idx)
        return (
            processing_hours,
            t_processing,
            t_materialization,
            t_maintenance,
            views_gb,
        )

    # -- exact pricing -------------------------------------------------

    def _bill(self, hours: float) -> Money:
        """Memoized Formula 8/10/12 activity bill (ZERO for no hours)."""
        money = self._bill_cache.get(hours)
        if money is None:
            money = (
                ZERO
                if hours == 0
                else Money(
                    instance_bill(
                        self._hourly_rate,
                        self._billable_hours(hours),
                        self._n_decimal,
                    )
                )
            )
            self._bill_cache[hours] = money
        return money

    def _storage(self, views_gb: float) -> Money:
        """Formula 5 on the view-augmented timeline."""
        return storage_cost_with_views(
            self._storage_pricing, self._timeline, views_gb
        )

    def evaluate(self, subset: FrozenSet[str]) -> CostBreakdown:
        """Price ``subset`` — identical to the oracle, byte for byte.

        ``subset`` must already be validated (the
        :class:`~repro.optimizer.problem.SelectionProblem` seam calls
        ``check_subset`` first).
        """
        hours, t_processing, t_materialization, t_maintenance, views_gb = (
            self._gather(subset)
        )
        computing = ComputingBreakdown(
            processing_hours=t_processing,
            materialization_hours=t_materialization,
            maintenance_hours=t_maintenance,
            processing_cost=self._bill(t_processing),
            materialization_cost=self._bill(t_materialization),
            maintenance_cost=self._bill(t_maintenance),
        )
        self._telemetry.inc("kernel.evaluations")
        return CostBreakdown(
            computing=computing,
            storage=self._storage(views_gb),
            transfer=self._transfer,
            processing_hours=hours,
        )

    # -- float-cent screening ------------------------------------------

    def _to_cents(self) -> None:
        """Convert the price book to float cents, once per world.

        Every rate keeps its sub-cent digits (``float(amount * 100)``,
        never rounded to whole cents), so a screen is the exact bill up
        to float error.
        """
        schedule = self._storage_pricing.schedule
        self._bands = [
            (math.inf if upper is None else float(upper), float(rate * 100))
            for upper, rate in schedule.rate_table
        ]
        self._slab = schedule.mode is TierMode.SLAB
        self._intervals = [
            (float(iv.volume_gb), float(iv.months))
            for iv in self._timeline.intervals()
        ]
        self._transfer_cents = float(self._transfer.amount * 100)
        self._rate_cents = float(self._hourly_rate * 100)

    def _bill_cents(self, hours: float) -> float:
        """Float mirror of Formula 8/10/12's activity bill."""
        cents = self._bill_cents_memo.get(hours)
        if cents is None:
            if hours == 0:
                cents = 0.0
            else:
                cents = (
                    self._rate_cents
                    * self._billable_hours(hours)
                    * self._n_instances
                )
            self._bill_cents_memo[hours] = cents
        return cents

    def _monthly_cents(self, volume_gb: float) -> float:
        """Float mirror of the tiered GB-month schedule."""
        if volume_gb == 0:
            return 0.0
        if self._slab:
            for upper, rate in self._bands:
                if volume_gb < upper:
                    return rate * volume_gb
            upper, rate = self._bands[-1]
            return rate * volume_gb
        total = 0.0
        lower = 0.0
        for upper, rate in self._bands:
            band = min(volume_gb, upper) - lower
            if band <= 0:
                break
            total += rate * band
            lower = upper
            if volume_gb <= upper:
                break
        return total

    def _storage_cents(self, views_gb: float) -> float:
        """Float mirror of Formula 5 on the view-augmented timeline."""
        cents = self._storage_cents_memo.get(views_gb)
        if cents is None:
            cents = 0.0
            for volume, months in self._intervals:
                cents += self._monthly_cents(volume + views_gb) * months
            self._storage_cents_memo[views_gb] = cents
        return cents

    def screen(self, subset: FrozenSet[str]) -> Tuple[float, float]:
        """(exact single-run hours, float-cent period bill) of ``subset``.

        Hours come off the same gather :meth:`evaluate` prices, so they
        match the priced outcome bit for bit; the cents are the bill in
        float arithmetic, a *ranking* device for the anytime searches,
        never a reported number.
        """
        if self._rate_cents is None:
            self._to_cents()
        hours, t_processing, t_materialization, t_maintenance, views_gb = (
            self._gather(subset)
        )
        cents = (
            self._bill_cents(t_processing)
            + self._bill_cents(t_materialization)
            + self._bill_cents(t_maintenance)
            + self._storage_cents(views_gb)
            + self._transfer_cents
        )
        return hours, cents
