"""Columnar tables at a grain, and hierarchy code maps.

The engine stores data column-wise in numpy arrays.  A
:class:`GrainTable` holds one table *at a grain*: integer member codes
for every non-ALL dimension plus one float column per measure.  The
base fact table is simply the grain table at the schema's finest grain;
a materialized view is the grain table at its own grain.

Rolling codes up a hierarchy (day -> month -> year) uses
:class:`HierarchyIndex`: per-dimension parent maps, the columnar
equivalent of the tiny dimension tables a star schema would join.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence

from ..compat import np, require_numpy
from ..errors import EngineError, SchemaError
from ..schema.hierarchy import ALL, Dimension
from ..schema.star import Grain, StarSchema

__all__ = ["GrainTable", "HierarchyIndex"]


class HierarchyIndex:
    """Parent-code maps for one dimension.

    ``parent_maps[i][c]`` is the code at level ``i+1`` of the member
    whose code at level ``i`` is ``c`` (levels indexed finest-first, as
    in :class:`~repro.schema.hierarchy.Hierarchy`).
    """

    def __init__(self, dimension: Dimension, parent_maps: Sequence["np.ndarray"]) -> None:
        require_numpy("columnar hierarchy indexes")
        levels = dimension.hierarchy.levels
        if len(parent_maps) != len(levels) - 1:
            raise SchemaError(
                f"dimension {dimension.name!r} with {len(levels)} levels "
                f"needs {len(levels) - 1} parent maps, got {len(parent_maps)}"
            )
        for i, pmap in enumerate(parent_maps):
            child_card = dimension.cardinality(levels[i])
            parent_card = dimension.cardinality(levels[i + 1])
            if len(pmap) != child_card:
                raise SchemaError(
                    f"parent map {levels[i]}->{levels[i + 1]} has "
                    f"{len(pmap)} entries, expected {child_card}"
                )
            if len(pmap) and (pmap.min() < 0 or pmap.max() >= parent_card):
                raise SchemaError(
                    f"parent map {levels[i]}->{levels[i + 1]} contains "
                    f"codes outside [0, {parent_card})"
                )
        self._dimension = dimension
        self._parent_maps: List[np.ndarray] = [
            np.ascontiguousarray(pmap, dtype=np.int64) for pmap in parent_maps
        ]

    @property
    def dimension(self) -> Dimension:
        """The dimension these maps belong to."""
        return self._dimension

    def map_codes(self, codes: np.ndarray, from_level: str, to_level: str) -> np.ndarray:
        """Roll ``codes`` at ``from_level`` up to ``to_level``.

        ``to_level`` may be ALL (returns zeros); mapping *down* a
        hierarchy is impossible and raises ``EngineError``.
        """
        hierarchy = self._dimension.hierarchy
        if to_level == ALL:
            return np.zeros(len(codes), dtype=np.int64)
        src = hierarchy.index_of(from_level)
        dst = hierarchy.index_of(to_level)
        if from_level == ALL or src > dst:
            raise EngineError(
                f"cannot map {self._dimension.name!r} codes downward: "
                f"{from_level!r} -> {to_level!r}"
            )
        result = np.asarray(codes, dtype=np.int64)
        for i in range(src, dst):
            result = self._parent_maps[i][result]
        return result

    @classmethod
    def evenly_nested(cls, dimension: Dimension) -> "HierarchyIndex":
        """Maps where children divide evenly among parents.

        Child code ``c`` at a level of cardinality ``n`` maps to parent
        ``c * m // n`` at the parent level of cardinality ``m`` —
        consistent, order-preserving nesting used by the synthetic
        generators for dimensions without a natural calendar.
        """
        levels = dimension.hierarchy.levels
        maps = []
        for child, parent in zip(levels, levels[1:]):
            n = dimension.cardinality(child)
            m = dimension.cardinality(parent)
            codes = np.arange(n, dtype=np.int64)
            maps.append(codes * m // n)
        return cls(dimension, maps)


class GrainTable:
    """A columnar table whose rows live at one grain of a star schema.

    Invariants enforced at construction: every non-ALL grain entry has
    a code column, every measure has a value column, all columns share
    one length, and codes are within the level's cardinality.
    """

    def __init__(
        self,
        schema: StarSchema,
        grain: Sequence[str],
        dim_codes: Mapping[str, "np.ndarray"],
        measures: Mapping[str, "np.ndarray"],
    ) -> None:
        require_numpy("columnar grain tables")
        self._schema = schema
        self._grain: Grain = schema.validate_grain(grain)
        self._dim_codes: Dict[str, np.ndarray] = {}
        self._measures: Dict[str, np.ndarray] = {}

        expected_dims = {
            d.name for d, lv in zip(schema.dimensions, self._grain) if lv != ALL
        }
        if set(dim_codes) != expected_dims:
            raise EngineError(
                f"grain {self._grain} expects code columns {sorted(expected_dims)}, "
                f"got {sorted(dim_codes)}"
            )
        expected_measures = {m.name for m in schema.measures}
        if set(measures) != expected_measures:
            raise EngineError(
                f"schema {schema.name!r} expects measure columns "
                f"{sorted(expected_measures)}, got {sorted(measures)}"
            )

        lengths = {len(col) for col in dim_codes.values()}
        lengths |= {len(col) for col in measures.values()}
        if len(lengths) > 1:
            raise EngineError(f"ragged columns: lengths {sorted(lengths)}")
        self._n_rows = lengths.pop() if lengths else 0

        for dim, level in zip(schema.dimensions, self._grain):
            if level == ALL:
                continue
            codes = np.ascontiguousarray(dim_codes[dim.name], dtype=np.int64)
            card = dim.cardinality(level)
            if len(codes) and (codes.min() < 0 or codes.max() >= card):
                raise EngineError(
                    f"codes for {dim.name!r} at level {level!r} outside "
                    f"[0, {card})"
                )
            self._dim_codes[dim.name] = codes
        for name, values in measures.items():
            self._measures[name] = np.ascontiguousarray(values, dtype=np.float64)

    # -- structure ----------------------------------------------------

    @property
    def schema(self) -> StarSchema:
        """The star schema this table belongs to."""
        return self._schema

    @property
    def grain(self) -> Grain:
        """The grain (one level or ALL per dimension) of the rows."""
        return self._grain

    @property
    def n_rows(self) -> int:
        """Number of rows."""
        return self._n_rows

    def level_of(self, dim_name: str) -> str:
        """The grain level of ``dim_name`` in this table."""
        for dim, level in zip(self._schema.dimensions, self._grain):
            if dim.name == dim_name:
                return level
        raise SchemaError(f"no dimension {dim_name!r} in schema")

    def codes(self, dim_name: str) -> np.ndarray:
        """The member-code column of ``dim_name`` (absent for ALL)."""
        try:
            return self._dim_codes[dim_name]
        except KeyError:
            raise EngineError(
                f"dimension {dim_name!r} is aggregated away (ALL) in "
                f"grain {self._grain}"
            ) from None

    def measure(self, name: str) -> np.ndarray:
        """The value column of measure ``name``."""
        try:
            return self._measures[name]
        except KeyError:
            raise EngineError(f"no measure {name!r} in this table") from None

    # -- size accounting ----------------------------------------------

    @property
    def row_logical_bytes(self) -> int:
        """Logical stored width of one row at this table's grain."""
        return self._schema.row_logical_bytes(self._grain)

    def __repr__(self) -> str:
        return (
            f"GrainTable({self._schema.name!r}, grain={self._grain}, "
            f"rows={self._n_rows})"
        )
