"""Row-min backends: the kernel's one numeric primitive, twice.

Everything subset-dependent in a pricing reduces to one quantity per
query: ``min(base_hours, min over the subset's answering views)``.
Both backends compute it with bit-identical IEEE-754 results — min and
elementwise multiply are order-independent in double precision — so
the choice between them is purely a speed call:

* :class:`NumpyBackend` holds a dense ``(queries, views)`` float64
  matrix with ``+inf`` where a view cannot answer a query, and takes a
  masked column-slice row-min per subset.  Wins once the matrix is
  big enough to amortize the slicing.
* :class:`PurePythonBackend` keeps, per query, only the views that
  *can* beat the base time, sorted ascending — evaluation walks that
  short list and stops at the first subset member, which is the min.
  Wins on small worlds and is the only backend without numpy.

:func:`make_backend` picks per world by its shape; the backend parity
tests build the same worlds on both and assert they agree bit-for-bit.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple, Union

from ..compat import HAVE_NUMPY, np

__all__ = ["NumpyBackend", "PurePythonBackend", "make_backend"]

#: One (view index, single-execution hours) entry of a query's row.
ViewEntry = Tuple[int, float]

#: Below this queries x views area the dense matrix does not pay for
#: its slicing overhead and the pruned-list walk is faster.
_NUMPY_MIN_AREA = 512


class PurePythonBackend:
    """Pruned sorted candidate lists with first-member early exit."""

    name = "python"

    def __init__(
        self,
        base_hours: Sequence[float],
        view_entries: Sequence[Sequence[ViewEntry]],
        n_views: int,
    ) -> None:
        self._base = list(base_hours)
        # Only views strictly faster than the base scan can change a
        # query's min; sorted ascending, the first one present in the
        # subset *is* the min.
        self._pruned: List[List[Tuple[float, int]]] = [
            sorted((hours, vidx) for vidx, hours in entries if hours < base)
            for base, entries in zip(self._base, view_entries)
        ]

    def min_hours(self, view_indices: Sequence[int]) -> List[float]:
        """Per-query min(base, best subset view), single-execution hours."""
        if not view_indices:
            return list(self._base)
        members = frozenset(view_indices)
        out = []
        for base, pruned in zip(self._base, self._pruned):
            best = base
            for hours, vidx in pruned:
                if vidx in members:
                    best = hours
                    break
            out.append(best)
        return out


class NumpyBackend:
    """Dense (views, queries) float64 matrix; masked row-min per subset.

    Stored view-major (C-contiguous rows per view) so selecting a
    subset is a contiguous row gather (``take`` along axis 0) rather
    than a strided column slice — measurably faster at these shapes,
    and bit-identical since min is order-independent.
    """

    name = "numpy"

    def __init__(
        self,
        base_hours: Sequence[float],
        view_entries: Sequence[Sequence[ViewEntry]],
        n_views: int,
    ) -> None:
        self._base = np.array(base_hours, dtype=np.float64)
        by_view = np.full((max(n_views, 1), len(self._base)), np.inf)
        for row, entries in enumerate(view_entries):
            for vidx, hours in entries:
                by_view[vidx, row] = hours
        self._by_view = by_view

    def min_hours(self, view_indices: Sequence[int]) -> List[float]:
        """Per-query min(base, best subset view), single-execution hours."""
        if not view_indices:
            return self._base.tolist()
        rows = self._by_view.take(list(view_indices), axis=0)
        return np.minimum(self._base, rows.min(axis=0)).tolist()


Backend = Union[NumpyBackend, PurePythonBackend]


def make_backend(
    base_hours: Sequence[float],
    view_entries: Sequence[Sequence[ViewEntry]],
    n_views: int,
) -> Backend:
    """The fastest available backend for a world of this shape.

    Numpy for large worlds when it is installed, the pruned-list walk
    otherwise.
    """
    if HAVE_NUMPY and len(base_hours) * n_views >= _NUMPY_MIN_AREA:
        return NumpyBackend(base_hours, view_entries, n_views)
    return PurePythonBackend(base_hours, view_entries, n_views)
