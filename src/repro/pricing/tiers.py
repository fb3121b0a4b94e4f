"""Tiered (volume-banded) price schedules.

Cloud providers price storage and bandwidth in volume bands: the paper's
Table 3 (bandwidth: first GB free, $0.12/GB up to 10 TB, $0.09 for the
next 40 TB, ...) and Table 4 (storage: $0.14/GB-month for the first TB,
$0.125 for the next 49 TB, ...).

Two *semantics* exist for such bands and the paper uses both:

* **marginal** (progressive, how AWS actually bills): each unit is
  charged at the rate of the band it falls into.  The paper's Example 1
  prices 10 GB of egress as ``(10 - 1) x 0.12`` — the first free GB is a
  marginal band.
* **slab**: the whole volume is charged at the rate of the band the
  *total* falls into.  The paper's Example 3 prices 2 560 GB of storage
  at a flat 0.125/GB because the total crossed the first-TB boundary.

:class:`TierSchedule` implements both so the library can be
paper-faithful where the paper is slab-shaped and AWS-faithful
everywhere else.  Slab pricing is famously non-monotonic at band edges
(1 025 GB can cost less than 1 024 GB); that is a property of the
semantics, preserved and covered by tests, not a bug.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from decimal import Decimal
from functools import cached_property
from typing import List, Optional, Sequence, Tuple

from ..errors import PricingError
from ..money import MONEY_CONTEXT, Money, ZERO, to_decimal

__all__ = ["Tier", "TierMode", "TierSchedule", "RateTable", "tier_cost"]

#: A schedule's bands as ``(upper_gb, rate)`` pairs with raw ``Decimal``
#: rates, in increasing volume order; the last ``upper_gb`` is ``None``.
RateTable = Tuple[Tuple[Optional[float], Decimal], ...]


class TierMode(enum.Enum):
    """How a :class:`TierSchedule` interprets its bands."""

    #: Progressive: each unit billed at its own band's rate (AWS-style).
    MARGINAL = "marginal"
    #: Whole volume billed at the rate of the band containing the total
    #: (the simplification the paper's Example 3 uses).
    SLAB = "slab"


@dataclass(frozen=True)
class Tier:
    """One price band.

    Parameters
    ----------
    upper_gb:
        Exclusive upper bound of the band in GB, measured from zero
        (i.e. cumulative volume), or ``None`` for an unbounded final
        band.
    rate:
        Price per GB (for transfer) or per GB-month (for storage)
        within this band.
    """

    upper_gb: Optional[float]
    rate: Money

    def __post_init__(self) -> None:
        if self.upper_gb is not None and self.upper_gb <= 0:
            raise PricingError(
                f"tier upper bound must be positive, got {self.upper_gb}"
            )
        if self.rate < ZERO:
            raise PricingError(f"tier rate cannot be negative: {self.rate}")


def _band_rate(table: RateTable, volume_gb: float) -> Decimal:
    """The rate of the band ``volume_gb`` falls into (the next unit's)."""
    for upper, rate in table:
        if upper is None or volume_gb < upper:
            return rate
    raise AssertionError("unreachable: final tier is unbounded")


def tier_cost(table: RateTable, mode: TierMode, volume_gb: float) -> Decimal:
    """Price a non-negative ``volume_gb`` on raw Decimals.

    The one implementation of both semantics: slab bills the whole
    volume at the rate of the band holding it, marginal folds each
    band's share from a ``ZERO`` seed, in band order.
    :meth:`TierSchedule.cost`, Formula 5's storage fold and the
    evaluation kernel all price through it.
    """
    if volume_gb == 0:
        return ZERO.amount
    multiply = MONEY_CONTEXT.multiply
    if mode is TierMode.SLAB:
        return multiply(_band_rate(table, volume_gb), to_decimal(volume_gb))
    add = MONEY_CONTEXT.add
    total = ZERO.amount
    lower = 0.0
    for upper, rate in table:
        if upper is None:
            upper = volume_gb
        band_volume = min(volume_gb, upper) - lower
        if band_volume <= 0:
            break
        total = add(total, multiply(rate, to_decimal(band_volume)))
        lower = upper
        if volume_gb <= upper:
            break
    return total


@dataclass(frozen=True)
class TierSchedule:
    """An ordered sequence of price bands with a billing semantics.

    Bands are given in increasing order of cumulative volume; the final
    band must be unbounded so that any volume is priceable.  Schedules
    with the same bands and semantics are equal and bill identically.

    Examples
    --------
    The paper's Table 3 outbound-bandwidth schedule:

    >>> from repro.money import dollars
    >>> schedule = TierSchedule([
    ...     Tier(1.0, dollars(0)),                 # first GB free
    ...     Tier(10 * 1024.0, dollars("0.12")),    # up to 10 TB
    ...     Tier(50 * 1024.0, dollars("0.09")),    # next 40 TB
    ...     Tier(150 * 1024.0, dollars("0.07")),   # next 100 TB
    ...     Tier(None, dollars("0.05")),
    ... ])
    >>> schedule.cost(10.0)            # Example 1 of the paper
    Money('1.080')
    """

    #: The bands, in increasing volume order (any iterable of tiers is
    #: accepted and kept as a tuple).
    tiers: Tuple[Tier, ...]
    #: The billing semantics of this schedule.
    mode: TierMode = TierMode.MARGINAL

    def __post_init__(self) -> None:
        tiers = tuple(self.tiers)
        object.__setattr__(self, "tiers", tiers)
        if not tiers:
            raise PricingError("a tier schedule needs at least one tier")
        previous_bound = 0.0
        for tier in tiers[:-1]:
            if tier.upper_gb is None:
                raise PricingError(
                    "only the final tier may be unbounded (upper_gb=None)"
                )
            if tier.upper_gb <= previous_bound:
                raise PricingError(
                    "tier bounds must be strictly increasing: "
                    f"{tier.upper_gb} after {previous_bound}"
                )
            previous_bound = tier.upper_gb
        if tiers[-1].upper_gb is not None:
            raise PricingError("the final tier must be unbounded (upper_gb=None)")

    @cached_property
    def rate_table(self) -> RateTable:
        """The bands as :func:`tier_cost` reads them, built once."""
        return tuple((tier.upper_gb, tier.rate.amount) for tier in self.tiers)

    # -- pricing ------------------------------------------------------

    def marginal_rate(self, volume_gb: float) -> Money:
        """The per-GB rate charged for the *next* unit after ``volume_gb``."""
        if volume_gb < 0:
            raise PricingError(f"volume cannot be negative: {volume_gb}")
        return Money(_band_rate(self.rate_table, volume_gb))

    def cost(self, volume_gb: float) -> Money:
        """Price ``volume_gb`` under this schedule's semantics (:func:`tier_cost`)."""
        if volume_gb < 0:
            raise PricingError(f"volume cannot be negative: {volume_gb}")
        return Money(tier_cost(self.rate_table, self.mode, volume_gb))

    # -- convenience constructors -------------------------------------

    @classmethod
    def flat(cls, rate: Money) -> "TierSchedule":
        """A single-band schedule: every GB at ``rate``."""
        return cls([Tier(None, rate)], TierMode.MARGINAL)

    @classmethod
    def from_band_widths(
        cls,
        bands: Sequence[Tuple[Optional[float], Money]],
        mode: TierMode = TierMode.MARGINAL,
    ) -> "TierSchedule":
        """Build from (band width, rate) pairs, the way price sheets read.

        The paper's Table 4 reads "first 1 TB / next 49 TB / next
        450 TB"; widths are cumulative-ized here so callers can
        transcribe the sheet directly.
        """
        tiers: List[Tier] = []
        cumulative = 0.0
        for width_gb, rate in bands:
            if width_gb is None:
                tiers.append(Tier(None, rate))
            else:
                cumulative += width_gb
                tiers.append(Tier(cumulative, rate))
        return cls(tiers, mode)

    def __repr__(self) -> str:
        bands = ", ".join(
            f"<= {tier.upper_gb} GB @ {tier.rate}"
            if tier.upper_gb is not None
            else f"rest @ {tier.rate}"
            for tier in self.tiers
        )
        return f"TierSchedule({self.mode.value}: {bands})"
