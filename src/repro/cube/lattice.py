"""The cuboid lattice: every grain of a star schema, partially ordered.

Harinarayan, Rajaraman and Ullman's data-cube lattice is the standard
search space for view selection: nodes are grains (one level or ALL per
dimension), and grain ``u`` precedes grain ``v`` when ``u`` can answer
``v`` (finer-or-equal on every dimension).  The paper takes its
candidate views from "an existing materialized view selection method";
this lattice is the generator of those candidates and the answerability
oracle the optimizer consults.

The lattice stores no edges.  :meth:`CuboidLattice.children` derives a
grain's *immediate* roll-ups (one dimension, one level step) from its
levels, so transitive answerability is reachability along them — and
is also answerable in O(dims) directly from level indexes, which is
what :meth:`CuboidLattice.answers` does.
"""

from __future__ import annotations

from typing import FrozenSet, Iterator, List, Sequence, Tuple

from ..errors import SchemaError
from ..schema.hierarchy import ALL
from ..schema.star import Grain, StarSchema

__all__ = ["CuboidLattice"]


class CuboidLattice:
    """All grains of a schema with the answerability partial order."""

    def __init__(self, schema: StarSchema) -> None:
        self._schema = schema
        self._cuboids: Tuple[Grain, ...] = tuple(self._enumerate_grains())
        self._members: FrozenSet[Grain] = frozenset(self._cuboids)

    def _enumerate_grains(self) -> Iterator[Grain]:
        grains: List[Tuple[str, ...]] = [()]
        for dim in self._schema.dimensions:
            grains = [
                g + (level,)
                for g in grains
                for level in dim.hierarchy.levels_with_all
            ]
        return iter(tuple(g) for g in grains)

    # -- structure ----------------------------------------------------

    @property
    def schema(self) -> StarSchema:
        """The schema this lattice spans."""
        return self._schema

    @property
    def cuboids(self) -> Sequence[Grain]:
        """Every grain, in deterministic enumeration order."""
        return self._cuboids

    @property
    def base(self) -> Grain:
        """The finest grain (the fact table itself)."""
        return self._schema.base_grain

    @property
    def apex(self) -> Grain:
        """The coarsest grain (the single global total)."""
        return self._schema.apex_grain

    def __len__(self) -> int:
        return len(self._cuboids)

    def __contains__(self, grain: object) -> bool:
        try:
            return grain in self._members
        except TypeError:  # unhashable, so not a grain
            return False

    def children(self, grain: Sequence[str]) -> List[Grain]:
        """Grains one roll-up step coarser: one dimension, one level up."""
        grain = self._schema.validate_grain(grain)
        children = []
        for i, (dim, level) in enumerate(zip(self._schema.dimensions, grain)):
            if level == ALL:
                continue
            levels = dim.hierarchy.levels_with_all
            coarser = levels[dim.hierarchy.index_of(level) + 1]
            children.append(grain[:i] + (coarser,) + grain[i + 1 :])
        return children

    # -- the partial order --------------------------------------------

    def answers(self, source: Sequence[str], target: Sequence[str]) -> bool:
        """True iff a view at ``source`` can compute ``target``."""
        return self._schema.grain_answers(source, target)

    def answerable_by(self, source: Sequence[str]) -> List[Grain]:
        """Every grain a view at ``source`` can answer (including itself)."""
        source = self._schema.validate_grain(source)
        return [g for g in self._cuboids if self.answers(source, g)]

    def answer_sources(self, target: Sequence[str]) -> List[Grain]:
        """Every grain that can answer ``target`` (including itself)."""
        target = self._schema.validate_grain(target)
        return [g for g in self._cuboids if self.answers(g, target)]

    def roll_up_path_exists(self, source: Sequence[str], target: Sequence[str]) -> bool:
        """Reachability along :meth:`children`; must agree with :meth:`answers`.

        Kept public because tests use it to cross-validate the direct
        level-index comparison against the roll-up edges.
        """
        source = self._schema.validate_grain(source)
        target = self._schema.validate_grain(target)
        seen = {source}
        frontier = [source]
        while frontier:
            grain = frontier.pop()
            if grain == target:
                return True
            for child in self.children(grain):
                if child not in seen:
                    seen.add(child)
                    frontier.append(child)
        return False

    def topological_order(self) -> List[Grain]:
        """Grains finest-first (a linear extension of the order).

        A roll-up step raises exactly one level index by one, so sorting
        by the summed level index puts every grain before its children.
        """
        dims = self._schema.dimensions
        return sorted(
            self._cuboids,
            key=lambda g: sum(d.hierarchy.index_of(lv) for d, lv in zip(dims, g)),
        )

    def describe(self, grain: Sequence[str]) -> str:
        """Short display form: '(month, country)' / '(month, *)'."""
        grain = self._schema.validate_grain(grain)
        parts = [lv if lv != ALL else "*" for lv in grain]
        return "(" + ", ".join(parts) + ")"

    def grain_by_name(self, text: str) -> Grain:
        """Parse the :meth:`describe` form back into a grain."""
        body = text.strip()
        if not (body.startswith("(") and body.endswith(")")):
            raise SchemaError(f"not a grain literal: {text!r}")
        parts = [p.strip() for p in body[1:-1].split(",")]
        grain = tuple(ALL if p == "*" else p for p in parts)
        return self._schema.validate_grain(grain)
