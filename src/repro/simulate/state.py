"""The warehouse's mutable world: workload, data volume, deployment.

A :class:`WarehouseState` is everything an epoch's selection problem is
built from.  States are immutable; events produce new states through
the ``with_*`` transforms, and :meth:`WarehouseState.key` gives each
state a hashable identity so unchanged epochs resolve to the same
cached selection problem.

Data growth is modelled logically: the generated physical rows stay
fixed while the dataset's :class:`~repro.data.sizing.LogicalSizeModel`
row scale grows, exactly the substitution the analytic planning mode
is built on (a 10 GB dataset billed as 13 GB after 30% growth, group
counts re-estimated at the new logical row count).

The simulator also stamps each epoch's state with :class:`Holdings`
(see :mod:`repro.simulate.builds`) — the distinction between views
that are *live* (materialized, answering queries, billed) and views
that are merely *pending* (decided, queued or mid-build, not yet
answering anything).  Like the market, holdings inform decisions but
never change what the active deployment bills for a given subset, so
they are excluded from the state key and two states differing only in
holdings share every cached pricing.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import FrozenSet, Hashable, Tuple

from ..costmodel.params import DeploymentSpec
from ..data.generator import Dataset
from ..errors import SimulationError
from ..pricing.providers import Provider
from ..workload.workload import Workload

__all__ = ["Holdings", "WarehouseState", "provider_family"]


def provider_family(name: str) -> str:
    """The provider name with any spot-reprice suffix stripped.

    Spot-repriced books are named ``{base}~x{multiplier}`` (see
    :func:`repro.simulate.stochastic.spot_repriced`); ``aws-2012`` and
    ``aws-2012~x1.250`` are the same *family* — the same provider at a
    different market price.  Market quotes replace the matching family
    in a state's market, and a quote moves the active deployment only
    when the warehouse is on that family.

    Parameters
    ----------
    name:
        A provider (price book) name, possibly spot-suffixed.

    Returns
    -------
    str
        The family name (``name`` up to any ``~x`` suffix).
    """
    return name.split("~x", 1)[0]


@dataclass(frozen=True)
class Holdings:
    """What the warehouse has versus what it is still building.

    Parameters
    ----------
    live:
        Views that are materialized right now: they answer queries and
        accrue storage/maintenance charges.
    pending:
        Views with a build in flight (queued or running): decided but
        not yet answering anything, billed only when (and for the
        period fraction that) they land.

    The two sets are disjoint — a view mid-rebuild after a drop/re-add
    cycle is pending, not live.
    """

    live: FrozenSet[str] = frozenset()
    pending: FrozenSet[str] = frozenset()

    def __post_init__(self) -> None:
        overlap = self.live & self.pending
        if overlap:
            raise SimulationError(
                f"views cannot be both live and pending: {sorted(overlap)}"
            )

    @property
    def all_views(self) -> FrozenSet[str]:
        """Every view the warehouse has committed to (live + pending)."""
        return self.live | self.pending

    @property
    def queue_depth(self) -> int:
        """How many builds are in flight (the policy-observable depth)."""
        return len(self.pending)

    def describe(self) -> str:
        """Short display: ``live=[...] pending=[...]``."""
        return (
            f"live=[{','.join(sorted(self.live))}] "
            f"pending=[{','.join(sorted(self.pending))}]"
        )


@dataclass(frozen=True)
class WarehouseState:
    """One epoch's world: the inputs a selection problem is built from.

    ``growth_factor`` is the cumulative logical data growth relative to
    the seed dataset; it is part of the state key, so grown epochs are
    priced in their own world.

    ``market`` lists the provider price books currently quoted to this
    warehouse (the active book's family included): the candidate
    targets a migration policy may price the world against.  An empty
    market means single-provider operation — exactly the paper's
    regime.  The market is *not* part of the state key: it informs
    migration decisions but never changes what the active deployment
    bills, so two states differing only in quotes share every cached
    pricing.

    ``holdings`` carries the live/pending view distinction the
    simulator maintains (under synchronous execution nothing is ever
    pending: a decided view *is* a live view).  Like the market it is
    excluded from the state key: it informs policies — queue depth,
    what physically exists — but a subset's price does not depend on
    which views happen to be mid-build.
    """

    workload: Workload
    dataset: Dataset
    deployment: DeploymentSpec
    growth_factor: float = 1.0
    market: Tuple[Provider, ...] = ()
    holdings: Holdings = field(default_factory=Holdings)

    def __post_init__(self) -> None:
        if self.growth_factor <= 0:
            raise SimulationError("growth_factor must be positive")
        families = [provider_family(p.name) for p in self.market]
        if len(set(families)) != len(families):
            raise SimulationError(
                f"the market quotes a provider family twice: {families}"
            )

    def key(self) -> Hashable:
        """A hashable identity: equal keys mean identical pricing worlds.

        Note the candidate catalogue is *not* part of the state — an
        :class:`~repro.simulate.problems.EpochProblemBuilder` selects
        from one fixed catalogue, so within a builder the state key
        alone picks the problem.  Neither are the market nor the
        holdings (see the class docstring).

        Returns
        -------
        Hashable
            The workload, the :meth:`dataset_key` and the deployment,
            each compared by value.
        """
        return (self.workload, self.dataset_key(), self.deployment)

    def dataset_key(self) -> Hashable:
        """The dataset's share of the identity.

        Physical row count and logical size both matter: two datasets
        with the same name and seed but different sizes (or sampling
        densities) estimate different group counts and bill different
        gigabytes, so they must never share cached pricings.

        Returns
        -------
        Hashable
            A tuple of dataset name, seed, physical rows, rounded
            logical size and rounded cumulative growth.
        """
        return (
            self.dataset.name,
            self.dataset.seed,
            self.dataset.fact.n_rows,
            round(self.dataset.logical_size_gb, 9),
            round(self.growth_factor, 12),
        )

    # -- transforms (each returns a new state) --------------------------

    def with_workload(self, workload: Workload) -> "WarehouseState":
        """The same warehouse serving a different workload.

        Parameters
        ----------
        workload:
            The replacement workload; must stay on this warehouse's
            schema (drift rewrites queries, not the star).

        Returns
        -------
        WarehouseState
            A new state; the input is never mutated.
        """
        if workload.schema is not self.workload.schema:
            raise SimulationError(
                "a drifted workload must stay on the warehouse's schema"
            )
        return replace(self, workload=workload)

    def grown(self, factor: float) -> "WarehouseState":
        """The warehouse after the fact table grows by ``factor``.

        Growth multiplies the size model's row scale: logical rows and
        billable gigabytes scale together, physical sample rows stay
        put (shrinkage, ``factor < 1``, models retention purges).

        Parameters
        ----------
        factor:
            Positive multiplier on the logical row count.

        Returns
        -------
        WarehouseState
            A new state with the scaled dataset and compounded
            ``growth_factor``.
        """
        if factor <= 0:
            raise SimulationError(
                f"growth factor must be positive, got {factor}"
            )
        scaled = replace(
            self.dataset,
            size_model=replace(
                self.dataset.size_model,
                row_scale=self.dataset.size_model.row_scale * factor,
            ),
        )
        return replace(
            self,
            dataset=scaled,
            growth_factor=self.growth_factor * factor,
        )

    def with_provider(self, provider: Provider) -> "WarehouseState":
        """The same warehouse billed under a different price book.

        If the market quotes the new book's family, the quote is
        synchronized to the book actually adopted, so market and
        deployment never disagree about the family the warehouse is on.

        Parameters
        ----------
        provider:
            The price book the active deployment adopts.

        Returns
        -------
        WarehouseState
            A new state on ``provider`` with the market synchronized.
        """
        return replace(
            self,
            deployment=replace(self.deployment, provider=provider),
            market=self._market_with(provider),
        )

    def with_holdings(self, holdings: Holdings) -> "WarehouseState":
        """The same warehouse with its live/pending views restated.

        Maintained by the simulator each epoch so that policies (via
        :class:`~repro.simulate.problems.EpochContext`) can observe
        what physically exists and how deep the build queue is.
        Never affects pricing or the state key.

        Parameters
        ----------
        holdings:
            The new live/pending split.

        Returns
        -------
        WarehouseState
            A new state carrying ``holdings``.
        """
        return replace(self, holdings=holdings)

    def _market_with(self, book: Provider) -> Tuple[Provider, ...]:
        """The market with ``book`` replacing its family's quote (if any)."""
        family = provider_family(book.name)
        return tuple(
            book if provider_family(p.name) == family else p
            for p in self.market
        )

    def repriced(self, book: Provider) -> "WarehouseState":
        """A market quote lands: ``book``'s family is now priced as ``book``.

        The quote replaces the matching family in the market, and the
        active deployment follows it *only when the warehouse is on
        that family* — a spot walk on the provider you left keeps
        quoting (so a migration policy can still price the move back)
        without silently moving you back onto it.  With an empty
        market and a matching family this reduces to
        :meth:`with_provider`, the single-provider behaviour.

        Parameters
        ----------
        book:
            The family's new quote.

        Returns
        -------
        WarehouseState
            A new state with the quote landed (and the deployment
            moved onto it, when the warehouse is on that family).
        """
        family = provider_family(book.name)
        if provider_family(self.deployment.provider.name) == family:
            return self.with_provider(book)
        return replace(self, market=self._market_with(book))

    def candidate_books(self) -> Tuple[Provider, ...]:
        """The quoted books a migration could move to (other families).

        Returns
        -------
        Tuple[Provider, ...]
            Quotes whose family differs from the active deployment's,
            in market order — so ties between equally priced
            candidates break deterministically.
        """
        active = provider_family(self.deployment.provider.name)
        return tuple(
            p for p in self.market if provider_family(p.name) != active
        )

    def with_fleet(self, n_instances: int) -> "WarehouseState":
        """The same warehouse on a different number of instances.

        Parameters
        ----------
        n_instances:
            The new fleet size.

        Returns
        -------
        WarehouseState
            A new state with the resized deployment.
        """
        return replace(
            self, deployment=replace(self.deployment, n_instances=n_instances)
        )

    def describe(self) -> str:
        """One-line display of the state's headline knobs.

        Returns
        -------
        str
            Queries, billable gigabytes and the instance fleet.
        """
        dep = self.deployment
        return (
            f"{len(self.workload)} queries, "
            f"{self.dataset.logical_size_gb:.1f} GB, "
            f"{dep.n_instances}x {dep.instance_type} on {dep.provider.name}"
        )
