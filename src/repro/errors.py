"""Exception hierarchy for the :mod:`repro` library.

Every error raised deliberately by this library derives from
:class:`ReproError`, so callers can catch one base class at an API
boundary.  Subclasses mirror the package layout: pricing, schema/data,
engine, cost-model and optimizer errors are distinct types because they
signal different caller mistakes (a bad price sheet vs. an infeasible
optimization problem).
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "PricingError",
    "SchemaError",
    "DataGenerationError",
    "EngineError",
    "CostModelError",
    "OptimizationError",
    "ScenarioMismatchError",
    "InfeasibleProblemError",
    "ExperimentError",
    "SimulationError",
    "ExplainError",
]


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class PricingError(ReproError):
    """A pricing schedule or billing request is invalid.

    Raised for malformed tier schedules (unordered bounds, negative
    rates), unknown instance types, or billing requests with negative
    quantities.
    """


class SchemaError(ReproError):
    """A star-schema, hierarchy or query definition is inconsistent.

    Raised when a query references levels that do not exist in the
    schema, or when a hierarchy is declared with duplicate level names.
    """


class DataGenerationError(ReproError):
    """Synthetic data generation was asked for impossible parameters."""


class EngineError(ReproError):
    """Query execution failed (missing columns, empty group-by, ...)."""


class CostModelError(ReproError):
    """Cost-model inputs are inconsistent (negative sizes/times, ...)."""


class OptimizationError(ReproError):
    """The optimizer was configured incorrectly."""


class ScenarioMismatchError(OptimizationError):
    """An algorithm was paired with a scenario it cannot optimize.

    Names both sides — the algorithm and the scenario type — so the
    caller knows which half of the pairing to change.  Raised instead
    of letting the mismatch fall through to a generic error deep in
    the algorithm (the old behaviour: a custom scenario handed to the
    knapsack died with "unknown scenario type" long after the kwargs
    were accepted).
    """

    def __init__(self, algorithm: str, scenario, reason: str = "") -> None:
        detail = f" ({reason})" if reason else ""
        super().__init__(
            f"algorithm {algorithm!r} cannot optimize scenario "
            f"{type(scenario).__name__} ({scenario.describe()}){detail}"
        )
        self.algorithm = algorithm
        self.scenario = scenario


class InfeasibleProblemError(OptimizationError):
    """No candidate subset satisfies the scenario's constraint.

    MV1 raises this when even the empty view set exceeds the budget;
    MV2 raises it when even materializing every candidate cannot meet
    the response-time limit.
    """


class ExperimentError(ReproError):
    """An experiment was configured with unknown ids or parameters."""


class SimulationError(ReproError):
    """A lifecycle simulation was configured inconsistently.

    Raised for empty clocks, events scheduled past the horizon, unknown
    re-selection policies, or event parameters that cannot be applied
    to the warehouse state.
    """


class ExplainError(ReproError):
    """A provenance query could not be answered.

    Raised when an explain export lacks the records a ``repro
    explain`` subcommand asks about — an epoch outside the run, a
    tenant the log never saw, a view no decision ever touched —
    rather than printing an empty report that reads like "nothing
    happened".
    """
