"""Sharded attribution: the same split, its products across processes.

:class:`ShardedAttribution` is the multi-shard route of the one
attribution path in :mod:`repro.simulate.attribution`: it partitions
the per-tenant products of an epoch's
:meth:`~repro.simulate.attribution.SharedCostAttributor.component_plan`
into contiguous tenant ranges (optionally across worker processes)
and streams the :func:`~repro.simulate.attribution.merge_epoch`
records back — one :class:`~repro.simulate.ledger.TenantEpochRecord`
of raw ``Decimal`` charges per tenant-epoch — so a population-scale
caller can fold them into :class:`~repro.simulate.ledger.TenantTotals`
without materializing the tenant x epoch matrix.  Each shard's work
order carries every distinct weight vector of the plan once, so a
worker converts each weight ratio once and multiplies it by every
entry that shares it.

**Why the results are byte-identical for any shard count.**  A
non-last tenant's share is an independent product, so a shard
computes only its own range's products; the merge reads them back in
global tenant order (shard 0's tenants first, then shard 1's, ...),
replays the running sum and gives the globally-last tenant the
residual: the same ``Decimal`` operations, in the same order, as
:meth:`~repro.simulate.attribution.SharedCostAttributor.attribute`
performs in-process.  Whether the products come from the parent
(``jobs=1``) or a worker pool, the books are the same bytes.
"""

from __future__ import annotations

from multiprocessing import get_context
from typing import Iterator, Optional, Sequence, Tuple

from ..errors import SimulationError
from .attribution import (
    ShardPayload,
    SharedCostAttributor,
    merge_epoch,
    shard_payload,
    shard_products,
)
from .ledger import EpochRecord, TenantEpochRecord

__all__ = ["ShardedAttribution", "shard_bounds"]


def shard_bounds(n_tenants: int, shards: int) -> Tuple[Tuple[int, int], ...]:
    """Contiguous, balanced ``[start, stop)`` tenant ranges.

    The first ``n_tenants % shards`` shards take one extra tenant;
    shards beyond the population come out empty (a 3-tenant fleet on 8
    shards is legal, just idle).
    """
    if shards < 1:
        raise SimulationError(f"shards must be >= 1, got {shards}")
    base, extra = divmod(n_tenants, shards)
    bounds = []
    start = 0
    for index in range(shards):
        stop = start + base + (1 if index < extra else 0)
        bounds.append((start, stop))
        start = stop
    return tuple(bounds)


class ShardedAttribution:
    """Splits epochs across tenant shards, streaming exact shares.

    Parameters
    ----------
    attributor:
        The fleet's :class:`~repro.simulate.attribution.
        SharedCostAttributor`; supplies the per-epoch
        :meth:`~repro.simulate.attribution.SharedCostAttributor.
        component_plan`.
    shards:
        How many contiguous tenant ranges to partition each epoch
        into.  Results are byte-identical for every value.
    jobs:
        Worker processes evaluating shard products.  ``1`` (the
        default) stays in-process; larger values fork a pool lazily on
        first use.  Identical results either way.
    """

    def __init__(
        self,
        attributor: SharedCostAttributor,
        shards: int = 1,
        jobs: int = 1,
    ) -> None:
        if shards < 1:
            raise SimulationError(f"shards must be >= 1, got {shards}")
        if jobs < 1:
            raise SimulationError(f"jobs must be >= 1, got {jobs}")
        self._attributor = attributor
        self._shards = shards
        self._jobs = jobs
        self._pool = None

    @property
    def shards(self) -> int:
        """The configured shard count."""
        return self._shards

    @property
    def jobs(self) -> int:
        """The configured worker-process count."""
        return self._jobs

    def _map(self, payloads: Sequence[ShardPayload]):
        """Evaluate shard payloads, in-process or across the pool."""
        if self._jobs == 1:
            return [shard_products(payload) for payload in payloads]
        if self._pool is None:
            try:
                context = get_context("fork")
            except ValueError:  # pragma: no cover - non-POSIX fallback
                context = get_context("spawn")
            self._pool = context.Pool(processes=self._jobs)
        return self._pool.map(shard_products, payloads)

    def close(self) -> None:
        """Shut the worker pool down (idempotent; no-op for jobs=1)."""
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None

    def attribute_streaming(
        self,
        problem,
        record: EpochRecord,
        breakdown,
        tenants: Optional[Sequence[str]] = None,
    ) -> Iterator[TenantEpochRecord]:
        """One epoch's per-tenant shares, merged from shard products.

        Yields the epoch's
        :class:`~repro.simulate.ledger.TenantEpochRecord`\\ s in tenant
        order (active split first, then departure settlements) after
        :func:`~repro.simulate.attribution.merge_epoch` has checked
        that every component's shares sum exactly to the fleet record:
        the records :meth:`~repro.simulate.attribution.
        SharedCostAttributor.attribute` gives in-process.  The
        globally-last tenant takes a residual, so its product is never
        computed.
        """
        entries, hours = self._attributor.component_plan(
            problem, record, breakdown, tenants
        )
        active = (
            tuple(tenants)
            if tenants is not None
            else self._attributor.tenants
        )
        last = len(active) - 1
        payloads = [
            shard_payload(entries, start, min(stop, last))
            for start, stop in shard_bounds(len(active), self._shards)
        ]
        yield from merge_epoch(
            record, active, entries, hours, self._map(payloads)
        )
