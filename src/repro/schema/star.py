"""Star-schema descriptors.

A :class:`StarSchema` is the static shape of a dataset: dimensions with
hierarchies, measures, and the *logical* byte widths used by the size
model.  Byte widths are logical (what the data occupies as stored text
or packed records on the cluster) rather than in-memory numpy widths,
because the paper's cost models bill logical gigabytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Sequence, Tuple

from .hierarchy import ALL, Dimension
from ..errors import SchemaError

__all__ = ["Measure", "StarSchema", "Grain"]

#: A grain assigns one level (or ALL) to every dimension, in schema
#: dimension order — the coordinate of a cuboid in the lattice.
Grain = Tuple[str, ...]


@dataclass(frozen=True)
class Measure:
    """A numeric fact column aggregated by SUM.

    The paper's workload is "total profit per <levels>", so SUM is the
    only aggregate the engine needs; ``logical_bytes`` is the stored
    width of one value.
    """

    name: str
    logical_bytes: int = 8

    def __post_init__(self) -> None:
        if self.logical_bytes <= 0:
            raise SchemaError(f"measure {self.name!r}: bytes must be positive")


class StarSchema:
    """Dimensions + measures + logical widths for one dataset family.

    Parameters
    ----------
    name:
        Schema identifier (``"sales"``, ``"ssb"``).
    dimensions:
        The dimensions in canonical order; grains and cuboid
        coordinates follow this order.
    measures:
        Fact measures (all SUM-aggregated).
    level_bytes:
        Logical stored width of one value of each level column,
        keyed ``"dimension.level"``.  Defaults to 8 bytes per level
        value when a level is not listed.
    """

    def __init__(
        self,
        name: str,
        dimensions: Iterable[Dimension],
        measures: Iterable[Measure],
        level_bytes: Mapping[str, int] = (),
    ) -> None:
        self._name = name
        self._dimensions: Tuple[Dimension, ...] = tuple(dimensions)
        self._measures: Tuple[Measure, ...] = tuple(measures)
        if not self._dimensions:
            raise SchemaError(f"schema {name!r} needs at least one dimension")
        if not self._measures:
            raise SchemaError(f"schema {name!r} needs at least one measure")
        names = [d.name for d in self._dimensions]
        if len(set(names)) != len(names):
            raise SchemaError(f"schema {name!r} has duplicate dimension names")
        mnames = [m.name for m in self._measures]
        if len(set(mnames)) != len(mnames):
            raise SchemaError(f"schema {name!r} has duplicate measure names")
        self._by_name: Dict[str, Dimension] = {d.name: d for d in self._dimensions}
        # Answers about grains, remembered only once the grains validated.
        self._answers: Dict[Tuple[Grain, Grain], bool] = {}
        self._sizes: Dict[Grain, Tuple[int, float]] = {}
        self._level_bytes = dict(level_bytes)
        for key in self._level_bytes:
            dim_name, _, level = key.partition(".")
            if dim_name not in self._by_name:
                raise SchemaError(f"level_bytes references unknown dimension {key!r}")
            if level not in self._by_name[dim_name].hierarchy:
                raise SchemaError(f"level_bytes references unknown level {key!r}")

    # -- structure ----------------------------------------------------

    @property
    def name(self) -> str:
        """The schema identifier."""
        return self._name

    @property
    def dimensions(self) -> Sequence[Dimension]:
        """Dimensions in canonical (grain) order."""
        return self._dimensions

    @property
    def measures(self) -> Sequence[Measure]:
        """Fact measures."""
        return self._measures

    @property
    def dimension_names(self) -> Tuple[str, ...]:
        """Dimension names in canonical order."""
        return tuple(d.name for d in self._dimensions)

    def dimension(self, name: str) -> Dimension:
        """Look up a dimension by name."""
        try:
            return self._by_name[name]
        except KeyError:
            raise SchemaError(
                f"schema {self._name!r} has no dimension {name!r}; "
                f"known: {', '.join(self.dimension_names)}"
            ) from None

    # -- grains -------------------------------------------------------

    @property
    def base_grain(self) -> Grain:
        """The finest grain: every dimension at its finest level."""
        return tuple(d.hierarchy.finest for d in self._dimensions)

    @property
    def apex_grain(self) -> Grain:
        """The coarsest grain: every dimension fully aggregated."""
        return tuple(ALL for _ in self._dimensions)

    def validate_grain(self, grain: Sequence[str]) -> Grain:
        """Check a grain names one valid level per dimension."""
        grain = tuple(grain)
        if len(grain) != len(self._dimensions):
            raise SchemaError(
                f"grain {grain} has {len(grain)} entries; schema "
                f"{self._name!r} has {len(self._dimensions)} dimensions"
            )
        for dim, level in zip(self._dimensions, grain):
            if level not in dim.hierarchy:
                raise SchemaError(
                    f"dimension {dim.name!r} has no level {level!r}"
                )
        return grain

    def grain_from_mapping(self, levels: Mapping[str, str]) -> Grain:
        """Build a grain from a {dimension: level} mapping.

        Dimensions not mentioned default to ALL — matching how the
        paper phrases queries ("sales per year and country" leaves
        nothing else grouped).
        """
        unknown = set(levels) - set(self.dimension_names)
        if unknown:
            raise SchemaError(
                f"unknown dimensions in grain mapping: {sorted(unknown)}"
            )
        return self.validate_grain(
            tuple(levels.get(d.name, ALL) for d in self._dimensions)
        )

    def grain_answers(self, source: Sequence[str], target: Sequence[str]) -> bool:
        """True iff data at ``source`` grain can compute ``target`` grain.

        This is the lattice's partial order: the source must be
        finer-or-equal on *every* dimension (SUM is distributive, so
        rolling up per dimension is always sound).  Each pair is
        answered once per schema; only pairs whose grains both
        validated are remembered, so a malformed grain raises
        :class:`SchemaError` on every call.
        """
        key = (tuple(source), tuple(target))
        answer = self._answers.get(key)
        if answer is None:
            source = self.validate_grain(key[0])
            target = self.validate_grain(key[1])
            answer = all(
                dim.hierarchy.is_finer_or_equal(s_level, t_level)
                for dim, s_level, t_level in zip(
                    self._dimensions, source, target
                )
            )
            self._answers[key] = answer
        return answer

    # -- size model ---------------------------------------------------

    def level_logical_bytes(self, dim_name: str, level: str) -> int:
        """Stored width of one value of ``dim.level`` (ALL stores nothing)."""
        if level == ALL:
            return 0
        return self._level_bytes.get(f"{dim_name}.{level}", 8)

    def row_logical_bytes(self, grain: Sequence[str]) -> int:
        """Stored width of one row at ``grain`` (levels + all measures)."""
        return self._grain_sizes(grain)[0]

    def grain_space(self, grain: Sequence[str]) -> float:
        """Size of the group-key space at ``grain``.

        The product of level cardinalities (ALL contributes 1), as a
        float because SSB's fine cuboids overflow int ranges.
        """
        return self._grain_sizes(grain)[1]

    def _grain_sizes(self, grain: Sequence[str]) -> Tuple[int, float]:
        """(row width, key space) at ``grain``, computed once per grain.

        Remembered only once the grain validated, like
        :meth:`grain_answers`: a malformed grain raises
        :class:`SchemaError` on every call.
        """
        key = tuple(grain)
        sizes = self._sizes.get(key)
        if sizes is None:
            grain = self.validate_grain(key)
            level_part = sum(
                self.level_logical_bytes(d.name, lv)
                for d, lv in zip(self._dimensions, grain)
            )
            measure_part = sum(m.logical_bytes for m in self._measures)
            space = 1.0
            for dim, level in zip(self._dimensions, grain):
                if level != ALL:
                    space *= dim.cardinality(level)
            sizes = self._sizes[key] = (level_part + measure_part, space)
        return sizes

    @property
    def fact_row_bytes(self) -> int:
        """Stored width of one base fact row (finest grain)."""
        return self.row_logical_bytes(self.base_grain)

    def __repr__(self) -> str:
        dims = ", ".join(self.dimension_names)
        return f"StarSchema({self._name!r}, dims=[{dims}])"
