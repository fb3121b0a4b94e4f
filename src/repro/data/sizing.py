"""The logical size model: physical rows to billable gigabytes.

The paper's experiments run on a 10 GB dataset; regenerating its
numbers does not require materializing 10 GB in RAM.  The generators
produce a *physically small, statistically faithful* table (hundreds of
thousands of rows) and :class:`LogicalSizeModel` maps row counts to the
logical gigabytes the cost models bill, via a single declared scale
factor.

The substitution is sound: view-selection decisions depend on
*relative* sizes (view rows x view row width vs. fact rows x fact row
width), which the scale factor preserves exactly because it
multiplies both sides.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .table import GrainTable
from ..errors import DataGenerationError
from ..schema.star import StarSchema
from ..units import BYTES_PER_GB

__all__ = ["LogicalSizeModel"]


@dataclass(frozen=True)
class LogicalSizeModel:
    """Maps (grain, row count) to logical gigabytes.

    ``row_scale`` is the number of logical rows each physical row
    stands for; 1.0 means the dataset is generated at full size.
    """

    schema: StarSchema
    row_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.row_scale <= 0:
            raise DataGenerationError(
                f"row_scale must be positive, got {self.row_scale}"
            )

    @classmethod
    def for_target_size(
        cls,
        schema: StarSchema,
        physical_rows: int,
        target_gb: float,
    ) -> "LogicalSizeModel":
        """Scale so ``physical_rows`` fact rows represent ``target_gb``.

        This is how the experiments pin the paper's "10 GB dataset"
        onto a laptop-sized table.
        """
        if physical_rows <= 0:
            raise DataGenerationError("physical_rows must be positive")
        if target_gb <= 0:
            raise DataGenerationError("target_gb must be positive")
        full_rows = target_gb * BYTES_PER_GB / schema.fact_row_bytes
        return cls(schema, row_scale=full_rows / physical_rows)

    def rows_to_gb(self, grain: Sequence[str], n_physical_rows: int) -> float:
        """Logical GB of ``n_physical_rows`` rows at ``grain``."""
        if n_physical_rows < 0:
            raise DataGenerationError("row count cannot be negative")
        row_bytes = self.schema.row_logical_bytes(grain)
        return n_physical_rows * self.row_scale * row_bytes / BYTES_PER_GB

    def table_gb(self, table: GrainTable) -> float:
        """Logical GB of a grain table."""
        return self.rows_to_gb(table.grain, table.n_rows)

    def logical_rows(self, n_physical_rows: int) -> float:
        """How many logical rows ``n_physical_rows`` stand for."""
        return n_physical_rows * self.row_scale
