"""Async lifecycle: builds take wall-clock time, billing follows.

The paper — and every example so far — prices a materialized view as
if it exists the instant it is selected.  This example runs the same
drifting warehouse with a *build queue* between deciding and existing
(:mod:`repro.simulate.builds`): a decided view's materialization hours
elapse on the wall clock before it lands, queries are answered from
the previous holdings until then, and the landed view is billed
storage and maintenance only for the fraction of the billing period
it actually existed (partial-period proration).

Three runs of the same scenario under the ``periodic`` policy:

* **sync**     — the classic regime: a decided view is a live view;
* **instant**  — the async machinery with zero-latency builds, which
                 must reproduce the sync ledger *byte for byte* (the
                 parity invariant every async feature is tested
                 against);
* **slow**     — half a compute-hour of build progress per month, so
                 selections land mid-epoch (watch the ``build:...
                 live@...`` markers and the split epochs).

Run:  python examples/async_lifecycle.py
"""

from __future__ import annotations

from repro.simulate import BuildConfig, drifting_sales_simulator, make_policy

EPOCHS = 19
ROWS = 8_000


def main() -> None:
    policy = "periodic"

    sync_sim = drifting_sales_simulator(n_epochs=EPOCHS, n_rows=ROWS)
    sync_ledger = sync_sim.run(make_policy(policy))

    instant_sim = drifting_sales_simulator(
        n_epochs=EPOCHS,
        n_rows=ROWS,
        builds=BuildConfig(slots=2, hours_per_month=float("inf")),
    )
    instant_ledger = instant_sim.run(make_policy(policy))

    parity = instant_ledger.render() == sync_ledger.render()
    print(
        "Sync-parity invariant (instant builds == classic ledger, "
        f"byte for byte): {parity}"
    )
    assert parity, "zero-latency async must reproduce the sync ledger"

    slow_sim = drifting_sales_simulator(
        n_epochs=EPOCHS,
        n_rows=ROWS,
        # A 1-hour build takes two monthly epochs.
        builds=BuildConfig(slots=1, hours_per_month=0.5),
    )
    slow_ledger = slow_sim.run(make_policy(policy))

    print("\nSlow builds (0.5 compute-hours of progress per month):\n")
    print(slow_ledger.render())

    split = [r for r in slow_ledger if r.segments]
    print(
        f"\n{len(split)} epoch(s) split at mid-epoch landings; "
        f"total build latency "
        f"{slow_ledger.total_build_latency_months:.3f} months; "
        f"{slow_ledger.cancel_count} build(s) cancelled at sunk cost "
        f"{slow_ledger.total_cancelled_cost}"
    )
    for record in split:
        shares = ", ".join(s.describe() for s in record.segments)
        print(f"  epoch {record.epoch}: {shares}")

    print("\nLifetime comparison:")
    print(f"  sync    {sync_ledger.summary()}")
    print(f"  slow    {slow_ledger.summary()}")
    print(
        "\nSame decisions, same views, same total materialization "
        f"({slow_ledger.total_build_cost} vs "
        f"{sync_ledger.total_build_cost}) — what changes is *when* "
        "views exist, and therefore what each period is billed."
    )


if __name__ == "__main__":
    main()
