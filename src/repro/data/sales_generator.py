"""Generator for the paper's supply-chain sales dataset (Section 2.1).

Produces a :class:`~repro.data.generator.Dataset` over
:func:`repro.schema.sales.sales_schema`: daily profit facts with a
seasonal calendar and a skewed geography, 2000 onwards.

The calendar uses 365-day years with real month lengths (no leap
days): day -> month -> year maps are exact, so a view at month grain
aggregates day-grain data the way a Pig ``GROUP BY`` on a date prefix
would.
"""

from __future__ import annotations

import functools
from typing import Optional

from ..compat import np, require_numpy
from .generator import Dataset, make_rng, seasonal_day_codes, skewed_codes
from .sizing import LogicalSizeModel
from .table import GrainTable, HierarchyIndex
from ..errors import DataGenerationError
from ..schema.hierarchy import Dimension
from ..schema.sales import GEOGRAPHY, PROFIT, TIME, sales_schema
from ..schema.star import StarSchema

__all__ = ["generate_sales", "calendar_time_index", "sales_dataset"]

#: Month lengths of a 365-day (non-leap) year.
_MONTH_LENGTH_DAYS = (31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31)
_MONTH_LENGTHS = (
    np.array(_MONTH_LENGTH_DAYS, dtype=np.int64) if np is not None else None
)


def calendar_time_index(time_dim: Dimension) -> HierarchyIndex:
    """Day -> month -> year maps for a 365-day/year calendar.

    The time dimension's cardinalities must be (365*y, 12*y, y) for
    some year count ``y``; that is what ``sales_schema`` declares.
    """
    require_numpy("the sales calendar index")
    n_days = time_dim.cardinality("day")
    n_months = time_dim.cardinality("month")
    n_years = time_dim.cardinality("year")
    if n_days != 365 * n_years or n_months != 12 * n_years:
        raise DataGenerationError(
            "calendar_time_index needs day/month/year cardinalities of "
            f"(365y, 12y, y); got ({n_days}, {n_months}, {n_years})"
        )
    month_of_day_one_year = np.repeat(np.arange(12, dtype=np.int64), _MONTH_LENGTHS)
    day_to_month = np.concatenate(
        [month_of_day_one_year + 12 * year for year in range(n_years)]
    )
    month_to_year = np.arange(n_months, dtype=np.int64) // 12
    return HierarchyIndex(time_dim, [day_to_month, month_to_year])


def generate_sales(
    n_rows: int = 200_000,
    schema: Optional[StarSchema] = None,
    seed: int = 42,
    target_gb: Optional[float] = None,
    geography_skew: float = 0.8,
    seasonality: float = 0.3,
) -> Dataset:
    """Generate the sales dataset.

    Parameters
    ----------
    n_rows:
        Physical fact rows to materialize in memory.
    schema:
        A sales schema; defaults to :func:`sales_schema` with its
        paper-shaped defaults.
    seed:
        RNG seed; identical parameters + seed give identical bytes.
    target_gb:
        If given, the size model scales so the fact table *bills* as
        this many GB (the paper's experiment uses 10 GB); otherwise
        physical and logical sizes coincide.
    geography_skew:
        Zipf exponent of department popularity (0 = uniform).
    seasonality:
        Amplitude of the yearly sales wave (0 = uniform calendar).
    """
    if n_rows <= 0:
        raise DataGenerationError("n_rows must be positive")
    schema = schema if schema is not None else sales_schema()
    time_dim = schema.dimension(TIME)
    geo_dim = schema.dimension(GEOGRAPHY)
    rng = make_rng(seed)

    day_codes = seasonal_day_codes(
        rng, n_rows, time_dim.cardinality("day"), amplitude=seasonality
    )
    dept_codes = skewed_codes(
        rng, n_rows, geo_dim.cardinality("department"), skew=geography_skew
    )
    # Profit per (day, department) fact: lognormal around ~$30k, matching
    # the magnitude of Table 1's example rows.
    profit = rng.lognormal(mean=np.log(30_000.0), sigma=0.6, size=n_rows)
    profit = np.round(profit, 2)

    fact = GrainTable(
        schema,
        schema.base_grain,
        dim_codes={TIME: day_codes, GEOGRAPHY: dept_codes},
        measures={PROFIT: profit},
    )
    size_model = (
        LogicalSizeModel.for_target_size(schema, n_rows, target_gb)
        if target_gb is not None
        else LogicalSizeModel(schema)
    )
    return Dataset(
        schema=schema,
        fact=fact,
        hierarchy_indexes={
            TIME: calendar_time_index(time_dim),
            GEOGRAPHY: HierarchyIndex.evenly_nested(geo_dim),
        },
        size_model=size_model,
        seed=seed,
        name="sales",
    )


# Datasets are immutable (events derive new ones via
# dataclasses.replace), so every experiment context and preset of one
# process shares one instance per key: Monte Carlo trials vary only the
# drift seed and an experiment's variants only the deployment, so each
# would otherwise regenerate the identical dataset.
@functools.lru_cache(maxsize=4)
def sales_dataset(n_rows: int, seed: int, dataset_gb: float) -> Dataset:
    """The sales dataset billed as ``dataset_gb``, generated once per process."""
    return generate_sales(n_rows=n_rows, seed=seed, target_gb=dataset_gb)
