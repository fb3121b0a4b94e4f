"""The query surface behind the ``repro explain`` CLI subcommands.

All queries run over the parsed ``--explain-out`` JSON-lines export
(not over live logs), so an audit file written months ago answers the
same questions byte-for-byte.  Each function returns a rendered text
report; missing data raises :class:`~repro.errors.ExplainError`
rather than printing an empty report that reads like "nothing
happened".
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ExplainError
from ..money import Money

__all__ = [
    "diff_epochs",
    "load_explain",
    "why_bill",
    "why_reselect",
    "why_view",
]


def load_explain(path: str) -> List[dict]:
    """Parse an ``--explain-out`` JSON-lines export.

    Args:
        path: Filesystem path of the export.

    Returns:
        One dict per line, in file order.

    Raises:
        ExplainError: If the file cannot be read or a line is not
            valid JSON.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    except OSError as exc:
        raise ExplainError(f"cannot read explain log {path!r}: {exc}") from exc
    entries = []
    for number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            entries.append(json.loads(line))
        except ValueError as exc:
            raise ExplainError(
                f"{path}:{number}: not a JSON record: {exc}"
            ) from exc
    return entries


def _stamp(entry: dict) -> str:
    """The policy/trial/tenant prefix of a report line, when present.

    An export can hold several policies' and trials' series side by
    side (``--policy all``, Monte Carlo), so every line names its own.
    """
    parts = []
    if entry.get("policy") is not None:
        parts.append(f"policy {entry['policy']}")
    if entry.get("trial") is not None:
        parts.append(f"trial {entry['trial']}")
    if entry.get("tenant") is not None:
        parts.append(f"tenant {entry['tenant']}")
    return f" [{', '.join(parts)}]" if parts else ""


def _term_lines(terms: Sequence[dict], indent: str = "  ") -> List[str]:
    """Delta terms (and their sub-terms) rendered one per line."""
    lines = []
    for term in terms:
        detail = f"  ({term['detail']})" if term.get("detail") else ""
        lines.append(f"{indent}{term['cause']:<18} {term['amount']}{detail}")
        lines.extend(_term_lines(term.get("subterms", ()), indent + "  "))
    return lines


def why_bill(
    entries: Sequence[dict], epoch: int, tenant: Optional[str] = None
) -> str:
    """Why the (fleet or tenant) bill changed at one epoch.

    Args:
        entries: Parsed explain export (:func:`load_explain`).
        epoch: The epoch whose delta to explain.
        tenant: A tenant name for the attributed view; ``None`` asks
            about the fleet bill.

    Returns:
        A report with one delta record per matching series (one per
        policy, and per Monte Carlo trial, when the export holds
        several), each listing its exact cause terms.

    Raises:
        ExplainError: If the export has no matching delta record.
    """
    matches = [
        e
        for e in entries
        if e.get("kind") == "epoch-delta"
        and e.get("epoch") == epoch
        and e.get("tenant") == tenant
    ]
    if not matches:
        scope = f"tenant {tenant!r}" if tenant is not None else "the fleet"
        raise ExplainError(
            f"no delta record for {scope} at epoch {epoch}; "
            "was the run exported with --explain-out?"
        )
    lines = []
    for entry in matches:
        if entry.get("previous_total") is None:
            headline = f"first billed epoch: total {entry['total']}"
        else:
            delta = Money(entry["total"]) - Money(entry["previous_total"])
            headline = (
                f"total {entry['previous_total']} -> {entry['total']} "
                f"(delta {delta.amount})"
            )
        lines.append(f"epoch {epoch}{_stamp(entry)}: {headline}")
        lines.extend(_term_lines(entry["terms"]))
    return "\n".join(lines)


def why_reselect(entries: Sequence[dict], epoch: Optional[int] = None) -> str:
    """Why the policy did (or did not) re-select.

    Args:
        entries: Parsed explain export.
        epoch: Restrict to one epoch; ``None`` reports every epoch.

    Returns:
        One line per policy trigger (reason, regret, streak, subset
        churn), each followed by the optimizer solves that served it.

    Raises:
        ExplainError: If no policy-trigger records match.
    """
    triggers = [
        e
        for e in entries
        if e.get("kind") == "policy-trigger"
        and (epoch is None or e.get("epoch") == epoch)
    ]
    if not triggers:
        where = f"epoch {epoch}" if epoch is not None else "this export"
        raise ExplainError(f"no policy-trigger records for {where}")
    solves = [e for e in entries if e.get("kind") == "optimizer-solve"]
    lines = []
    for trig in triggers:
        verdict = "re-selected" if trig["reoptimized"] else "held"
        extras = [f"trigger={trig['trigger']}"]
        if trig["regret"]:
            extras.append(f"regret={trig['regret']}")
        if trig["streak"]:
            extras.append(f"streak={trig['streak']}")
        lines.append(
            f"epoch {trig['epoch']}{_stamp(trig)}: {verdict} "
            f"({', '.join(extras)}) subset={{{','.join(trig['subset'])}}}"
        )
        for solve in solves:
            if (
                solve.get("epoch") == trig["epoch"]
                and solve.get("trial") == trig.get("trial")
                and solve.get("policy") == trig.get("policy")
            ):
                churn = []
                if solve["added"]:
                    churn.append("+{" + ",".join(solve["added"]) + "}")
                if solve["dropped"]:
                    churn.append("-{" + ",".join(solve["dropped"]) + "}")
                lines.append(
                    f"  solve {solve['algorithm']}: "
                    f"{' '.join(churn) if churn else 'no churn'} "
                    f"({solve['evaluations']} evaluations, "
                    f"{solve['priced']} priced, "
                    f"{solve['cache_hits']} cache hits)"
                )
    return "\n".join(lines)


def why_view(entries: Sequence[dict], view: str) -> str:
    """Every decision that touched one view, chronologically.

    Args:
        entries: Parsed explain export.
        view: The candidate view's name.

    Returns:
        One line per touch: solves that added or dropped it, builds
        that landed it, cancellations that abandoned it.

    Raises:
        ExplainError: If no record in the export mentions the view.
    """
    lines = []
    for entry in entries:
        kind = entry.get("kind")
        stamp = _stamp(entry)
        if kind == "optimizer-solve":
            if view in entry["added"]:
                lines.append(
                    f"epoch {entry['epoch']}{stamp}: added by "
                    f"{entry['algorithm']} solve for {entry['policy']}"
                )
            elif view in entry["dropped"]:
                lines.append(
                    f"epoch {entry['epoch']}{stamp}: dropped by "
                    f"{entry['algorithm']} solve for {entry['policy']}"
                )
        elif kind == "build-outcome":
            if view in entry["landed"]:
                lines.append(
                    f"epoch {entry['epoch']}{stamp}: build landed "
                    f"(epoch build cost {entry['build_cost']})"
                )
            if view in entry["cancelled"]:
                lines.append(
                    f"epoch {entry['epoch']}{stamp}: build cancelled "
                    f"(epoch sunk cost {entry['cancelled_cost']})"
                )
    if not lines:
        raise ExplainError(f"no decision in this export touched {view!r}")
    return "\n".join(lines)


def diff_epochs(entries: Sequence[dict], from_epoch: int, to_epoch: int) -> str:
    """The fleet bill's exact drivers between two epochs.

    Folds the fleet delta records over ``(from_epoch, to_epoch]`` into
    one amount per cause; the causes sum exactly to
    ``total(to) - total(from)`` because each is a fold of exact terms.
    An export holding several series (one per policy, and per Monte
    Carlo trial) gets one block per series, in export order.

    Args:
        entries: Parsed explain export.
        from_epoch: The baseline epoch.
        to_epoch: The target epoch (must be greater).

    Returns:
        Per series, a per-cause summary plus the closing total line.

    Raises:
        ExplainError: If the range is empty, inverted, or a series (or
            the whole export) lacks fleet delta records covering it.
    """
    if to_epoch <= from_epoch:
        raise ExplainError(
            f"--to epoch ({to_epoch}) must be greater than --from "
            f"({from_epoch})"
        )
    series: Dict[Tuple[Optional[str], Optional[int]], Dict[int, dict]] = {}
    for e in entries:
        if e.get("kind") == "epoch-delta" and e.get("tenant") is None:
            key = (e.get("policy"), e.get("trial"))
            series.setdefault(key, {})[e["epoch"]] = e
    span = range(from_epoch, to_epoch + 1)
    if not series:
        raise ExplainError(
            f"export lacks fleet delta records for epochs "
            f"{from_epoch}..{to_epoch} (missing: {list(span)})"
        )
    lines: List[str] = []
    for (policy, trial), deltas in series.items():
        stamp = _stamp({"policy": policy, "trial": trial})
        missing = [i for i in span if i not in deltas]
        if missing:
            raise ExplainError(
                f"export lacks fleet delta records{stamp} for epochs "
                f"{from_epoch}..{to_epoch} (missing: {missing})"
            )
        sums: Dict[str, Money] = {}
        for index in span[1:]:
            for term in deltas[index]["terms"]:
                amount, cause = Money(term["amount"]), term["cause"]
                sums[cause] = sums[cause] + amount if cause in sums else amount
        lines.append(f"fleet bill{stamp}, epoch {from_epoch} -> {to_epoch}:")
        for cause, amount in sums.items():
            lines.append(f"  {cause:<18} {amount.amount}")
        start = deltas[from_epoch]["total"]
        end = deltas[to_epoch]["total"]
        delta = Money(end) - Money(start)
        lines.append(
            f"  {'epoch total':<18} {start} -> {end} (delta {delta.amount})"
        )
    return "\n".join(lines)
