"""Cloud service provider presets.

:func:`aws_2012` transcribes the paper's Tables 2-4 (the early-2012 AWS
price sheet the paper simplifies).  Its tier *semantics* follow the
paper's own worked examples: bandwidth is marginal with a free first GB
(Example 1 prices 10 GB as ``(10-1) x 0.12``) while storage is slab —
the whole volume billed at the band of the total (Example 3 prices
2 560 GB at a flat 0.125).  :func:`aws_2012_marginal` gives the same
sheet under fully-progressive tiers, i.e. how AWS actually metered, for
the tier-semantics ablation.

The paper's first future-work item is "include pricing models from
several CSPs but Amazon"; :func:`flat_cloud` and :func:`archive_cloud`
are two deliberately different price structures (flat per-second
compute / cheap cold storage with expensive egress) used by the
provider-comparison example and ablations.
"""

from __future__ import annotations

from dataclasses import dataclass

from .compute import BillingGranularity, ComputePricing, InstanceType
from .storage import StoragePricing
from .tiers import TierMode, TierSchedule
from .transfer import TransferPricing
from ..money import dollars
from ..units import GB_PER_TB

__all__ = [
    "Provider",
    "aws_2012",
    "aws_2012_marginal",
    "flat_cloud",
    "archive_cloud",
    "all_providers",
]


@dataclass(frozen=True)
class Provider:
    """A complete price book: compute + storage + transfer.

    A book is a value: two books are equal, and hash alike, exactly
    when their names and every rate, tier and billing rule agree.  The
    name alone is not trusted, so ``aws_2012(PER_HOUR)`` and
    ``aws_2012(PER_SECOND)`` (same name, different compute billing)
    differ.

    Parameters
    ----------
    name:
        Display identifier used in ledgers and deployment summaries.
        Spot-repriced variants append ``~x{multiplier}`` to the base
        name; everything before that suffix is the provider *family*
        (see :func:`repro.simulate.state.provider_family`).
    compute:
        Instance catalogue and billing granularity (the paper's
        Table 2).
    storage:
        Tiered GB-month schedule (Table 4).
    transfer:
        Tiered in/out bandwidth schedules (Table 3).
    """

    name: str
    compute: ComputePricing
    storage: StoragePricing
    transfer: TransferPricing


def _aws_compute(granularity: BillingGranularity) -> ComputePricing:
    """The paper's Table 2 (EC2 on-demand, early 2012).

    RAM / ECU / local storage figures are the 2012 catalogue values for
    the named sizes (the paper quotes the small instance's 1.7 GB RAM,
    1 ECU, 160 GB disk in Section 2.2).
    """
    return ComputePricing(
        [
            InstanceType(
                "micro",
                hourly_rate=dollars("0.03"),
                compute_units=0.5,
                memory_gb=0.613,
                local_storage_gb=0,
            ),
            InstanceType(
                "small",
                hourly_rate=dollars("0.12"),
                compute_units=1.0,
                memory_gb=1.7,
                local_storage_gb=160,
            ),
            InstanceType(
                "large",
                hourly_rate=dollars("0.48"),
                compute_units=4.0,
                memory_gb=7.5,
                local_storage_gb=850,
            ),
            InstanceType(
                "xlarge",
                hourly_rate=dollars("0.96"),
                compute_units=8.0,
                memory_gb=15.0,
                local_storage_gb=1690,
            ),
        ],
        granularity,
    )


def _aws_transfer_schedule() -> TierSchedule:
    """The paper's Table 3 (outbound; inbound is free)."""
    return TierSchedule.from_band_widths(
        [
            (1.0, dollars(0)),                    # first 1 GB free
            (10 * GB_PER_TB - 1.0, dollars("0.12")),  # up to 10 TB
            (40 * GB_PER_TB, dollars("0.09")),    # next 40 TB
            (100 * GB_PER_TB, dollars("0.07")),   # next 100 TB
            (None, dollars("0.05")),              # the sheet's trailing "..."
        ],
        TierMode.MARGINAL,
    )


def _aws_storage_schedule(mode: TierMode) -> TierSchedule:
    """The paper's Table 4 (S3 standard, per GB-month)."""
    return TierSchedule.from_band_widths(
        [
            (1 * GB_PER_TB, dollars("0.14")),     # first 1 TB
            (49 * GB_PER_TB, dollars("0.125")),   # next 49 TB
            (450 * GB_PER_TB, dollars("0.11")),   # next 450 TB
            (None, dollars("0.095")),             # the sheet's trailing "..."
        ],
        mode,
    )


def aws_2012(
    granularity: BillingGranularity = BillingGranularity.PER_HOUR,
) -> Provider:
    """The paper's pricing model, with the paper's tier semantics.

    Hourly round-up compute (Example 2), marginal bandwidth with free
    first GB (Example 1), slab storage (Example 3).

    Parameters
    ----------
    granularity:
        Compute billing rounding; the paper's examples round up to
        the hour, the lifecycle simulations bill per second.

    Returns
    -------
    Provider
        The ``aws-2012`` price book (Tables 2–4).
    """
    return Provider(
        name="aws-2012",
        compute=_aws_compute(granularity),
        storage=StoragePricing(_aws_storage_schedule(TierMode.SLAB)),
        transfer=TransferPricing(_aws_transfer_schedule()),
    )


def aws_2012_marginal(
    granularity: BillingGranularity = BillingGranularity.PER_HOUR,
) -> Provider:
    """The same price sheet under fully marginal (progressive) tiers.

    This is how AWS actually metered; the difference against
    :func:`aws_2012` is the subject of the tier-semantics ablation.

    Parameters
    ----------
    granularity:
        Compute billing rounding, as in :func:`aws_2012`.

    Returns
    -------
    Provider
        The ``aws-2012-marginal`` price book.
    """
    return Provider(
        name="aws-2012-marginal",
        compute=_aws_compute(granularity),
        storage=StoragePricing(_aws_storage_schedule(TierMode.MARGINAL)),
        transfer=TransferPricing(_aws_transfer_schedule()),
    )


def flat_cloud() -> Provider:
    """A flat-rate, per-second-billing provider.

    No tiers, no free bands, no round-up: the simplest counterpoint to
    the AWS structure.  Compute is slightly cheaper per ECU, storage
    slightly more expensive per GB-month, so the view-selection
    tradeoff lands differently than on :func:`aws_2012`.

    Returns
    -------
    Provider
        The ``flat-cloud`` price book.
    """
    return Provider(
        name="flat-cloud",
        compute=ComputePricing(
            [
                InstanceType("small", dollars("0.10"), 1.0, 2.0, 100),
                InstanceType("large", dollars("0.40"), 4.0, 8.0, 400),
            ],
            BillingGranularity.PER_SECOND,
        ),
        storage=StoragePricing(TierSchedule.flat(dollars("0.15"))),
        transfer=TransferPricing(TierSchedule.flat(dollars("0.10"))),
    )


def archive_cloud() -> Provider:
    """A cold-storage-flavoured provider: cheap GB-months, dear egress.

    Storage this cheap makes materializing *every* candidate view
    attractive; egress this dear makes large query results dominate the
    bill.  Exercises the opposite corner of the cost space from
    :func:`flat_cloud` — and, for migration policies, the corner where
    *leaving* is expensive: a warehouse that moves in pays the dear
    egress on the way out.

    Returns
    -------
    Provider
        The ``archive-cloud`` price book.
    """
    return Provider(
        name="archive-cloud",
        compute=ComputePricing(
            [
                InstanceType("small", dollars("0.14"), 1.0, 1.7, 160),
                InstanceType("large", dollars("0.56"), 4.0, 7.5, 850),
            ],
            BillingGranularity.PER_MINUTE,
        ),
        storage=StoragePricing(
            TierSchedule.from_band_widths(
                [
                    (10 * GB_PER_TB, dollars("0.04")),
                    (None, dollars("0.03")),
                ],
                TierMode.MARGINAL,
            )
        ),
        transfer=TransferPricing(
            TierSchedule.from_band_widths(
                [
                    (1.0, dollars(0)),
                    (None, dollars("0.25")),
                ],
                TierMode.MARGINAL,
            )
        ),
    )


def all_providers() -> "list[Provider]":
    """Every built-in provider preset (for comparison sweeps).

    Returns
    -------
    list of Provider
        ``aws-2012``, ``aws-2012-marginal``, ``flat-cloud`` and
        ``archive-cloud``, in that order.
    """
    return [aws_2012(), aws_2012_marginal(), flat_cloud(), archive_cloud()]
