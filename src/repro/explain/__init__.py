"""``repro.explain`` — decision provenance and exact cost lineage.

A passive, deterministic provenance layer over the lifecycle stack:
every policy trigger, optimizer solve, arbitrage assessment, and
build outcome emits a frozen decision record, and a ledger-diff
engine decomposes each epoch's cost change into exact ``Money`` terms
that sum byte-exactly to the ledger delta (fleet and per-tenant).
Off by default behind the ambient seam it shares with
:mod:`repro.telemetry` (:mod:`repro.ambient`; described in
``docs/TELEMETRY.md``); see :mod:`repro.explain.delta` for the
exactness argument and ``docs/EXPLAIN.md`` for the operator's tour.
"""

from .core import NULL, ExplainLog, NullExplain, activate, current, install
from .delta import (
    FLEET_CAUSES,
    TENANT_CAUSES,
    TenantDeltaFold,
    chain_subterms,
    decompose_fleet,
    decompose_tenant,
    event_cause,
    fleet_epoch_delta,
    tenant_epoch_delta,
)
from .export import explain_lines, write_explain
from .queries import diff_epochs, load_explain, why_bill, why_reselect, why_view
from .records import (
    RECORD_KINDS,
    ArbitrageAssessmentRecord,
    BuildOutcomeRecord,
    DeltaTerm,
    EpochDeltaRecord,
    OptimizerSolveRecord,
    PolicyTriggerRecord,
    record_to_json,
)

__all__ = [
    "NULL",
    "ArbitrageAssessmentRecord",
    "BuildOutcomeRecord",
    "DeltaTerm",
    "EpochDeltaRecord",
    "ExplainLog",
    "FLEET_CAUSES",
    "NullExplain",
    "OptimizerSolveRecord",
    "PolicyTriggerRecord",
    "RECORD_KINDS",
    "TENANT_CAUSES",
    "TenantDeltaFold",
    "activate",
    "chain_subterms",
    "current",
    "decompose_fleet",
    "decompose_tenant",
    "diff_epochs",
    "event_cause",
    "explain_lines",
    "fleet_epoch_delta",
    "install",
    "load_explain",
    "record_to_json",
    "tenant_epoch_delta",
    "why_bill",
    "why_reselect",
    "why_view",
    "write_explain",
]
