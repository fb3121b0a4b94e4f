"""Provider-migration costing: what switching price books actually costs.

The paper prices a warehouse against one provider; its first
future-work item is comparing "pricing models from several CSPs".
Once several books are on the table, *moving* between them is itself
a priced operation, and this module is its cost model:

* **egress** — the dataset and every materialized view leave the
  source provider through its outbound transfer schedule (the same
  Table 3 machinery that prices query results);
* **ingress** — the same volume enters the target provider through
  its inbound schedule (free on the AWS-style books, priced on
  symmetric-transfer books);
* **rebuild** — materialized views are not portable between engines,
  so every kept view is re-materialized on the target and billed at
  the *target's* compute rates.

The split matters because each term lives on a different book: egress
on the source, ingress and rebuild on the target.  An arbitrage
policy (:mod:`repro.simulate.arbitrage`) weighs the total against the
per-epoch savings of the cheaper book over a forecast horizon.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Tuple

from .providers import Provider
from ..errors import PricingError
from ..money import Money, ZERO

__all__ = [
    "MigrationEstimate",
    "migration_transfer_cost",
    "migration_volume_gb",
]


def migration_volume_gb(
    dataset_gb: float, view_sizes_gb: Mapping[str, float]
) -> float:
    """Gigabytes a migration ships: the dataset plus every listed view.

    Parameters
    ----------
    dataset_gb:
        Logical size of the base dataset.
    view_sizes_gb:
        Size of each materialized view travelling with it, by name
        (typically the views held when the migration fires).

    Returns
    -------
    float
        Total outbound volume in GB.
    """
    if dataset_gb < 0:
        raise PricingError(f"dataset size cannot be negative: {dataset_gb}")
    for name, size in view_sizes_gb.items():
        if size < 0:
            raise PricingError(
                f"view {name!r} has negative size: {size}"
            )
    return dataset_gb + sum(view_sizes_gb.values())


def migration_transfer_cost(
    source: Provider, target: Provider, volume_gb: float
) -> Tuple[Money, Money]:
    """The transfer legs of moving ``volume_gb`` between providers.

    Parameters
    ----------
    source:
        The provider being left; bills the outbound (egress) leg.
    target:
        The provider being joined; bills the inbound (ingress) leg —
        zero on books where ingress is free.
    volume_gb:
        Gigabytes shipped (see :func:`migration_volume_gb`).

    Returns
    -------
    tuple of (Money, Money)
        ``(egress_cost, ingress_cost)``.

    Examples
    --------
    Leaving the paper's AWS book with 10 GB (Example 1's tiering —
    first GB free, then $0.12/GB) into a free-ingress book:

    >>> from repro.pricing.providers import aws_2012, flat_cloud
    >>> egress, ingress = migration_transfer_cost(
    ...     aws_2012(), flat_cloud(), 10.0
    ... )
    >>> egress
    Money('1.080')
    >>> ingress
    Money('0')
    """
    if volume_gb < 0:
        raise PricingError(f"volume cannot be negative: {volume_gb}")
    return (
        source.transfer.outbound_cost(volume_gb),
        target.transfer.inbound_cost(volume_gb),
    )


@dataclass(frozen=True)
class MigrationEstimate:
    """One candidate migration's full price tag.

    Produced by the arbitrage policy when it weighs a candidate book
    (see :meth:`repro.simulate.arbitrage.ArbitrageAware`); also usable
    standalone for what-if analysis.

    Attributes
    ----------
    source:
        Name of the book being left.
    target:
        Name of the book being joined.
    volume_gb:
        Gigabytes shipped (dataset + views).
    egress_cost:
        Outbound transfer on the source's schedule.
    ingress_cost:
        Inbound transfer on the target's schedule.
    rebuild_cost:
        Re-materializing every kept view at the target's compute
        rates.
    """

    source: str
    target: str
    volume_gb: float
    egress_cost: Money
    ingress_cost: Money
    rebuild_cost: Money = ZERO

    def __post_init__(self) -> None:
        if self.volume_gb < 0:
            raise PricingError(
                f"migration volume cannot be negative: {self.volume_gb}"
            )

    @property
    def transfer_cost(self) -> Money:
        """Both transfer legs: egress + ingress."""
        return self.egress_cost + self.ingress_cost

    @property
    def total(self) -> Money:
        """Everything the switch costs: transfer legs + view rebuilds."""
        return self.transfer_cost + self.rebuild_cost

    @classmethod
    def between(
        cls,
        source: Provider,
        target: Provider,
        dataset_gb: float,
        view_sizes_gb: Mapping[str, float],
        rebuild_cost: Money = ZERO,
    ) -> "MigrationEstimate":
        """Price a migration between two live provider objects.

        Parameters
        ----------
        source, target:
            The books being left and joined.
        dataset_gb:
            Logical dataset size.
        view_sizes_gb:
            Sizes of the views travelling along, by name.
        rebuild_cost:
            Re-materialization compute on the target (the caller
            prices it — view build hours depend on the deployment,
            which this module deliberately knows nothing about).

        Examples
        --------
        >>> from repro.pricing.providers import aws_2012, flat_cloud
        >>> estimate = MigrationEstimate.between(
        ...     aws_2012(), flat_cloud(), 10.0, {"v_day_country": 2.0}
        ... )
        >>> estimate.volume_gb
        12.0
        >>> estimate.total == estimate.egress_cost + estimate.ingress_cost
        True
        """
        volume = migration_volume_gb(dataset_gb, view_sizes_gb)
        egress, ingress = migration_transfer_cost(source, target, volume)
        return cls(
            source=source.name,
            target=target.name,
            volume_gb=volume,
            egress_cost=egress,
            ingress_cost=ingress,
            rebuild_cost=rebuild_cost,
        )

    def describe(self) -> str:
        """One line: route, volume and the cost split."""
        return (
            f"{self.source} -> {self.target}: {self.volume_gb:.1f} GB, "
            f"egress {self.egress_cost}, ingress {self.ingress_cost}, "
            f"rebuild {self.rebuild_cost} (total {self.total})"
        )
