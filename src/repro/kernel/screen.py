"""Cents-only screening: rank subsets without pricing them.

The anytime search optimizers (:mod:`repro.optimizer.search`) examine
orders of magnitude more candidate moves than they can afford to price
exactly.  A :class:`ScreeningWorld` is the cheap inner loop they rank
on: it reuses the kernel's factored vectors (the same row-min backend,
the same materialization/maintenance/size gathers) but replaces every
Decimal billing call with a pure-float surrogate in cents —
per-band tier rates and instance rates pre-converted to float cents,
billable-hour round-up applied in float.

**Screening never decides a reported number.**  Its cents are
approximate (float, not Decimal — half-up rounding and band boundaries
can land a fraction of a cent off), so callers use it only to *rank*
moves; every screened winner is re-priced through the exact
:meth:`~repro.optimizer.problem.SelectionProblem.evaluate` path before
it can become an incumbent, and the finally-reported outcome always
carries exact ``Money``.  For the same reason screening is independent
of a problem's ``kernel=False`` opt-out: disabling the kernel changes
how exact pricings are *computed* (oracle vs. accelerated,
byte-identical either way), while screening only orders the candidates
both paths then price identically — so selections cannot drift with
the switch.

Determinism: every screen is a fixed sequence of IEEE-754 operations
on prebuilt vectors — no wall clock, no hashing order, no allocation-
dependent state — so equal subsets screen to equal (hours, cents)
pairs on every run and across worker processes.
"""

from __future__ import annotations

import math
from typing import Dict, FrozenSet, Sequence, Tuple

from ..pricing.compute import BillingGranularity
from ..pricing.tiers import TierMode, TierSchedule

__all__ = ["ScreeningWorld"]

#: What a screen returns: (single-run processing hours, approximate
#: period total in float cents).  Hours are exact (same backend row-min
#: as the kernel); cents are a ranking surrogate only.
ScreenResult = Tuple[float, float]


class ScreeningWorld:
    """Float-cents surrogate pricing of every subset of one world.

    Built from a :class:`~repro.kernel.world.KernelWorld` via
    :meth:`~repro.kernel.world.KernelWorld.screening`; optimizers reach
    it through :meth:`~repro.optimizer.problem.SelectionProblem.screener`.
    """

    def __init__(
        self,
        *,
        backend,
        freqs: Sequence[float],
        vindex: Dict[str, int],
        mat_hours: Sequence[float],
        maint_hours: Sequence[float],
        sizes_gb: Sequence[float],
        runs_per_period: float,
        rate_cents: float,
        granularity: BillingGranularity,
        n_instances: int,
        tier_bands: Sequence[Tuple[float, float]],
        slab: bool,
        intervals: Sequence[Tuple[float, float]],
        transfer_cents: float,
    ) -> None:
        self._backend = backend
        self._freqs = list(freqs)
        self._vindex = vindex
        self._mat = list(mat_hours)
        self._maint = list(maint_hours)
        self._sizes = list(sizes_gb)
        self._runs = runs_per_period
        self._rate_cents = rate_cents
        self._granularity = granularity
        self._n_instances = n_instances
        #: (exclusive upper bound GB — inf for the last band, rate in
        #: float cents per GB-month), increasing.
        self._bands = list(tier_bands)
        self._slab = slab
        #: (constant volume GB, months) spans of the base timeline.
        self._intervals = list(intervals)
        self._transfer_cents = transfer_cents
        self._bill_memo: Dict[float, float] = {}
        self._storage_memo: Dict[float, float] = {}

    # -- construction ---------------------------------------------------

    @classmethod
    def from_parts(
        cls,
        *,
        backend,
        freqs: Sequence[float],
        vindex: Dict[str, int],
        mat_hours: Sequence[float],
        maint_hours: Sequence[float],
        sizes_gb: Sequence[float],
        runs_per_period: float,
        compute_pricing,
        instance_type: str,
        n_instances: int,
        storage_schedule: TierSchedule,
        timeline,
        transfer_cents: float,
    ) -> "ScreeningWorld":
        """Assemble a screener from kernel-factored parts.

        Converts the Decimal price book to float cents once, up front,
        so every screen afterwards is pure float arithmetic.
        """
        itype = compute_pricing.instance(instance_type)
        rate_cents = float(itype.hourly_rate.to_cents())
        bands = [
            (
                math.inf if tier.upper_gb is None else float(tier.upper_gb),
                float(tier.rate.to_cents()),
            )
            for tier in storage_schedule.tiers
        ]
        intervals = [
            (float(iv.volume_gb), float(iv.months))
            for iv in timeline.intervals()
        ]
        return cls(
            backend=backend,
            freqs=freqs,
            vindex=vindex,
            mat_hours=mat_hours,
            maint_hours=maint_hours,
            sizes_gb=sizes_gb,
            runs_per_period=runs_per_period,
            rate_cents=rate_cents,
            granularity=compute_pricing.granularity,
            n_instances=n_instances,
            tier_bands=bands,
            slab=storage_schedule.mode is TierMode.SLAB,
            intervals=intervals,
            transfer_cents=transfer_cents,
        )

    # -- float billing surrogates --------------------------------------

    def _bill_cents(self, hours: float) -> float:
        """Float mirror of Formula 8/10/12's activity bill."""
        memo = self._bill_memo.get(hours)
        if memo is None:
            if hours == 0:
                memo = 0.0
            else:
                memo = (
                    self._rate_cents
                    * self._granularity.billable_hours(hours)
                    * self._n_instances
                )
            self._bill_memo[hours] = memo
        return memo

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
        memo = self._storage_memo.get(views_gb)
        if memo is None:
            memo = 0.0
            for volume, months in self._intervals:
                memo += self._monthly_cents(volume + views_gb) * months
            self._storage_memo[views_gb] = memo
        return memo

    # -- screening ------------------------------------------------------

    def screen(self, subset: FrozenSet[str]) -> ScreenResult:
        """(exact single-run hours, approximate period cents) for ``subset``.

        Hours come off the same row-min backend the exact kernel uses,
        so they match the priced outcome bit for bit; cents are the
        float surrogate and are for *ranking only*.
        """
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

        cents = (
            self._bill_cents(t_processing)
            + self._bill_cents(t_materialization)
            + self._bill_cents(t_maintenance)
            + self._storage_cents(views_gb)
            + self._transfer_cents
        )
        return processing_hours, cents
