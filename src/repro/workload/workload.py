"""Workloads: ordered query sets with result-size accounting.

The paper's experiment (Section 6.1) runs "10 queries that calculate
the total profit per day, month, year and per country, department, and
region", in sub-workloads of 3, 5 and 10 queries.
:func:`paper_sales_workload` reconstructs that family: the nine
(time level x geography level) combinations plus the yearly total,
ordered coarse-to-fine so the 3- and 5-query workloads are prefixes —
consistent with the paper's per-query time limits growing from 0.19 h
(m=3) to 0.22 h (m=10) as finer queries join.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import replace
from itertools import accumulate, chain
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from .query import AggregateQuery
from ..errors import SchemaError
from ..schema.hierarchy import ALL
from ..schema.star import StarSchema

__all__ = ["Workload", "paper_sales_workload", "cross_workload"]

#: Queries per block of a workload.  A drift copies the blocks it
#: touches and the tuple of blocks, O(_BLOCK + queries / _BLOCK), not
#: the whole workload; a block that grows past twice this is re-cut.
_BLOCK = 256

#: Maps a query name to its rank (see :meth:`Workload.spliced`).
RankOf = Callable[[str], int]


class _Block:
    """A run of consecutive workload queries, with their names.

    Its queries never change, so the workloads a drift derives share
    every block it does not touch, together with the indexes built
    lazily on it: the name -> offset map, and the queries' ranks under
    one rank function with their maximum.  A touched block is rebuilt
    by slicing.
    """

    __slots__ = ("queries", "names", "_offsets", "_ranked")

    def __init__(
        self,
        queries: Tuple[AggregateQuery, ...],
        names: Tuple[str, ...],
        rank_of: Optional[RankOf] = None,
        ranks: Tuple[int, ...] = (),
    ) -> None:
        self.queries = queries
        self.names = names
        self._offsets: Optional[Dict[str, int]] = None
        self._ranked = None if rank_of is None else (rank_of, ranks, max(ranks))

    @property
    def offsets(self) -> Dict[str, int]:
        """Query name -> offset in the block."""
        if self._offsets is None:
            self._offsets = dict(zip(self.names, range(len(self.names))))
        return self._offsets

    def ranked(self, rank_of: RankOf) -> Tuple[Tuple[int, ...], int]:
        """``rank_of`` of each query, in block order, and their maximum."""
        ranked = self._ranked
        if ranked is None or ranked[0] != rank_of:
            ranks = tuple(map(rank_of, self.names))
            ranked = self._ranked = (rank_of, ranks, max(ranks))
        return ranked[1], ranked[2]

    def without(self, offsets: Iterable[int]) -> "_Block":
        """The block minus the queries at ``offsets`` (not all of them)."""
        cuts = sorted(offsets)
        spans = list(zip((0, *(c + 1 for c in cuts)), (*cuts, len(self.names))))

        def kept(items: Tuple) -> Tuple:
            return tuple(chain.from_iterable(items[a:b] for a, b in spans))

        if self._ranked is None:
            return _Block(kept(self.queries), kept(self.names))
        rank_of, ranks, _ = self._ranked
        return _Block(kept(self.queries), kept(self.names), rank_of, kept(ranks))


def _cut(
    queries: Tuple[AggregateQuery, ...],
    names: Optional[Tuple[str, ...]] = None,
    rank_of: Optional[RankOf] = None,
    ranks: Tuple[int, ...] = (),
) -> Tuple[_Block, ...]:
    """``queries`` as blocks: one if it fits two, else ``_BLOCK`` each,
    carrying ``ranks`` already known under ``rank_of``."""
    if names is None:
        names = tuple(q.name for q in queries)
    if len(queries) <= 2 * _BLOCK:
        return (_Block(queries, names, rank_of, ranks),)
    return tuple(
        _Block(
            queries[start : start + _BLOCK],
            names[start : start + _BLOCK],
            rank_of,
            ranks[start : start + _BLOCK],
        )
        for start in range(0, len(queries), _BLOCK)
    )


class Workload:
    """An ordered, duplicate-free set of aggregate queries.

    **Validate once.**  The public constructor is the boundary: it
    checks that there is at least one query, that the names are unique
    and that every query's grain and filters fit the schema.  A
    workload never changes, so its queries stay valid.  The drift
    operations (:meth:`with_queries`, :meth:`spliced`, :meth:`without`,
    :meth:`reweighted`, :meth:`prefix`) therefore build their result
    from the already-validated queries and check only what *arrives*:
    new queries' grains, filters and names, and the names a drop or a
    reweight refers to.

    The queries are held in blocks of up to a few hundred, each with
    its own name index, and a drift re-cuts only the blocks it touches;
    the rest are shared with the workload it derives from.  A drift
    therefore costs time in proportion to what changes plus one block,
    not to the workload's size, which is what keeps a fleet of ``n``
    churning tenants linear in ``n``.  :attr:`queries` joins the blocks
    on first use.
    """

    def __init__(self, schema: StarSchema, queries: Iterable[AggregateQuery]) -> None:
        queries = tuple(queries)
        if not queries:
            raise SchemaError("a workload needs at least one query")
        names = tuple(q.name for q in queries)
        if len(set(names)) != len(names):
            raise SchemaError("workload query names must be unique")
        for query in queries:
            query.validate_against(schema)
        self._schema = schema
        self._blocks = _cut(queries, names)
        self._size = len(queries)
        self._queries: Optional[Tuple[AggregateQuery, ...]] = queries

    @classmethod
    def _derived(
        cls, schema: StarSchema, blocks: Tuple[_Block, ...], size: int
    ) -> "Workload":
        """A workload over blocks a drift operation already checked."""
        workload = cls.__new__(cls)
        workload._schema = schema
        workload._blocks = blocks
        workload._size = size
        workload._queries = None
        return workload

    @property
    def schema(self) -> StarSchema:
        """The star schema the queries run against."""
        return self._schema

    @property
    def queries(self) -> Sequence[AggregateQuery]:
        """The queries, in workload order."""
        if self._queries is None:
            self._queries = tuple(
                chain.from_iterable(block.queries for block in self._blocks)
            )
        return self._queries

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[AggregateQuery]:
        return iter(self.queries)

    def __eq__(self, other: object) -> bool:
        """Equal workloads query the same schema object (drift never
        changes the star) with equal queries, in the same order."""
        if not isinstance(other, Workload):
            return NotImplemented
        return self is other or (
            self._schema is other._schema and self.queries == other.queries
        )

    def __hash__(self) -> int:
        return hash(self.queries)

    def prefix(self, m: int) -> "Workload":
        """The first ``m`` queries as a workload (paper's m=3/5/10)."""
        if not 1 <= m <= self._size:
            raise SchemaError(f"prefix size {m} outside [1, {self._size}]")
        return self._derived(self._schema, _cut(self.queries[:m]), m)

    # -- drift operations (used by the lifecycle simulator) ------------

    def _find(self, name: str) -> Optional[Tuple[int, int]]:
        """``(block, offset)`` of the named query, or ``None``."""
        for index, block in enumerate(self._blocks):
            offset = block.offsets.get(name)
            if offset is not None:
                return index, offset
        return None

    def _locate(self, names: Iterable[str], verb: str) -> Dict[int, List[int]]:
        """Block -> offsets of the named queries; every name must exist."""
        found: Dict[int, List[int]] = {}
        unknown = []
        for name in set(names):
            where = self._find(name)
            if where is None:
                unknown.append(name)
            else:
                found.setdefault(where[0], []).append(where[1])
        if unknown:
            raise SchemaError(
                f"cannot {verb} unknown queries: {sorted(unknown)}"
            )
        return found

    def _arriving(
        self, queries: Iterable[AggregateQuery]
    ) -> Tuple[Tuple[AggregateQuery, ...], Tuple[str, ...]]:
        """Check queries joining this workload: the only validation a
        drift runs.  Their names must be unique and new, their grains
        and filters must fit the schema (in the constructor's order)."""
        arriving = tuple(queries)
        names = tuple(q.name for q in arriving)
        taken = sorted(
            {name for name in names if self._find(name) is not None}
        )
        if taken or len(set(names)) != len(names):
            raise SchemaError(
                "workload query names must be unique"
                + (f"; already present: {taken}" if taken else "")
            )
        for query in arriving:
            query.validate_against(self._schema)
        return arriving, names

    def _replaced(self, index: int, blocks: Tuple[_Block, ...], size: int) -> "Workload":
        """This workload with block ``index`` replaced by ``blocks``."""
        return self._derived(
            self._schema,
            self._blocks[:index] + blocks + self._blocks[index + 1 :],
            size,
        )

    def with_queries(self, queries: Iterable[AggregateQuery]) -> "Workload":
        """This workload plus ``queries`` appended, as a new workload."""
        arriving, names = self._arriving(queries)
        last = self._blocks[-1]
        return self._replaced(
            len(self._blocks) - 1,
            _cut(last.queries + arriving, last.names + names),
            self._size + len(arriving),
        )

    def spliced(
        self, queries: Iterable[AggregateQuery], rank: int, rank_of: RankOf
    ) -> "Workload":
        """This workload with ``queries`` inserted, in order, right
        before the first query ranked above ``rank`` (appended when no
        query is).

        ``rank_of`` maps a query name to its rank and must give every
        arriving query ``rank``.  The first query ranked above ``rank``
        is the first place the running maximum of the ranks exceeds it,
        whatever order the workload is in, so the insertion point is a
        bisection: over the blocks' running maximum, then inside one
        block.  Ranks are computed once per block and shared with the
        derived workloads.
        """
        arriving, names = self._arriving(queries)
        misranked = sorted(name for name in names if rank_of(name) != rank)
        if misranked:
            raise SchemaError(
                f"spliced queries {misranked} do not rank {rank}"
            )
        tops = accumulate((b.ranked(rank_of)[1] for b in self._blocks), max)
        index = min(bisect_right(tuple(tops), rank), len(self._blocks) - 1)
        block = self._blocks[index]
        ranks, _ = block.ranked(rank_of)
        # Every block before ``index`` peaks at most at ``rank``, so the
        # first query ranked above it is where the block's own running
        # maximum first exceeds ``rank`` (the block's end if none does).
        at = bisect_right(tuple(accumulate(ranks, max)), rank)
        return self._replaced(
            index,
            _cut(
                block.queries[:at] + arriving + block.queries[at:],
                block.names[:at] + names + block.names[at:],
                rank_of,
                ranks[:at] + (rank,) * len(arriving) + ranks[at:],
            ),
            self._size + len(arriving),
        )

    def without(self, names: Iterable[str]) -> "Workload":
        """This workload minus the named queries, as a new workload.

        Every name must exist, and at least one query must survive —
        both enforced so a drift event that mistypes a query name fails
        loudly instead of silently dropping nothing.
        """
        found = self._locate(names, "drop")
        dropped = sum(len(offsets) for offsets in found.values())
        if dropped == self._size:
            raise SchemaError("cannot drop every query from a workload")
        blocks = list(self._blocks)
        for index, offsets in found.items():
            block = blocks[index]
            blocks[index] = (
                None
                if len(offsets) == len(block.queries)
                else block.without(offsets)
            )
        return self._derived(
            self._schema,
            tuple(block for block in blocks if block is not None),
            self._size - dropped,
        )

    def reweighted(self, frequencies: "dict[str, float]") -> "Workload":
        """A workload with the named queries' frequencies replaced."""
        blocks = list(self._blocks)
        for index, offsets in self._locate(frequencies, "reweight").items():
            block = blocks[index]
            queries = list(block.queries)
            for offset in offsets:
                query = queries[offset]
                queries[offset] = replace(
                    query, frequency=frequencies[query.name]
                )
            blocks[index] = _Block(tuple(queries), block.names)
        return self._derived(self._schema, tuple(blocks), self._size)

    def __repr__(self) -> str:
        return f"Workload({self._schema.name!r}, {[q.name for q in self.queries]})"


#: The reconstructed 10-query paper workload, as (time, geography) grains,
#: coarse-to-fine.  Prefixes of 3 and 5 form the smaller workloads.
_PAPER_GRAINS: List[Tuple[str, str]] = [
    ("year", "country"),      # Q1, quoted verbatim in Section 2.1
    ("month", "country"),
    ("year", "region"),       # --- 3-query workload ends here
    ("month", "region"),
    ("year", "department"),   # --- 5-query workload ends here
    ("day", "country"),
    ("month", "department"),
    ("day", "region"),
    ("day", "department"),
    ("year", ALL),            # the yearly total: the 10th "per year" query
]


def paper_sales_workload(schema: StarSchema, m: int = 10) -> Workload:
    """The paper's experimental workload family over the sales schema.

    ``m`` selects the 3-, 5- or 10-query sub-workload (any prefix size
    in [1, 10] is allowed; the paper uses 3, 5 and 10).
    """
    queries = [
        AggregateQuery(f"Q{i + 1}", schema.validate_grain(grain))
        for i, grain in enumerate(_PAPER_GRAINS)
    ]
    return Workload(schema, queries).prefix(m)


def cross_workload(schema: StarSchema, frequency: float = 1.0) -> Workload:
    """Every non-apex grain combination as a workload.

    For wider schemas (SSB) this enumerates the full cross product of
    named levels — the "dice every way" analyst workload used by the
    SSB experiments.
    """
    grains: List[Tuple[str, ...]] = [()]
    for dim in schema.dimensions:
        grains = [
            g + (level,)
            for g in grains
            for level in dim.hierarchy.levels_with_all
        ]
    queries = [
        AggregateQuery(f"Q{i + 1}", schema.validate_grain(grain), frequency)
        for i, grain in enumerate(g for g in grains if g != schema.apex_grain)
    ]
    return Workload(schema, queries)
