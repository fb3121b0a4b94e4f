"""Group-count estimation.

View sizes at paper scale cannot be measured by running the physical
table (a (year, country) view has 150 rows at *any* scale, but a
(day, department) view's row count saturates with the logical row
count).  The standard estimator is Cardenas' formula: drawing ``n``
rows uniformly over ``k`` possible group keys yields

    D(k, n) = k * (1 - (1 - 1/k)^n)

expected distinct keys.  Computed in log-space so it is stable for the
``k`` in the billions that SSB's fine cuboids produce.

Skewed data has *fewer* distinct groups than Cardenas predicts, so the
estimate is a (tight, well-understood) upper bound for our generators —
asserted as a property test.
"""

from __future__ import annotations

import math
from typing import Sequence

from ..errors import EngineError
from ..schema.star import StarSchema

__all__ = ["expected_distinct", "grain_space", "estimate_group_count"]


def expected_distinct(n_draws: float, n_possible: float) -> float:
    """Cardenas' estimate of distinct keys after uniform draws.

    >>> expected_distinct(0, 100)
    0.0
    >>> round(expected_distinct(1_000_000, 150), 1)
    150.0
    """
    if n_possible < 1:
        raise EngineError(f"key space must have >=1 key, got {n_possible}")
    if n_draws < 0:
        raise EngineError(f"draw count cannot be negative: {n_draws}")
    if n_draws == 0:
        return 0.0
    if n_possible == 1:
        return 1.0
    # k * (1 - exp(n * log(1 - 1/k))), with log1p for precision.
    log_miss = n_draws * math.log1p(-1.0 / n_possible)
    if log_miss < -700:  # exp underflow: every key is surely hit
        return float(n_possible)
    return float(n_possible * -math.expm1(log_miss))


def grain_space(schema: StarSchema, grain: Sequence[str]) -> float:
    """Size of the group-key space at ``grain``.

    The product of level cardinalities (ALL contributes 1).  Returned
    as a float because SSB's fine cuboids overflow int ranges.  An
    alias of :meth:`StarSchema.grain_space`, which computes it once
    per grain.
    """
    return schema.grain_space(grain)


def estimate_group_count(
    schema: StarSchema,
    grain: Sequence[str],
    n_rows: float,
) -> float:
    """Expected result rows of a roll-up to ``grain`` over ``n_rows`` facts."""
    return expected_distinct(n_rows, schema.grain_space(grain))
