"""Pinned bytes of a Monte Carlo run under every observation setting.

One small config (three trials of an arbitrage policy over a slow build
queue) runs at ``jobs=1`` with telemetry and explain each on or off.
Each run hashes what a reader of it sees: the summary rows, the
Prometheus dump (telemetry on) and the explain export (explain on).

The summary rows are the same in all four settings and the explain
export is the same with telemetry on or off: both layers are passive.
The dump is not the same with explain on or off.  A trial's explain
log resolves its deferred records after the trial's telemetry scope
has closed, so the pricing they do lands in the caller's collector,
and the evaluations made through kernel worlds the trial built are
not counted at all.  The fix for that (ROADMAP item 1: take the log's
snapshot first) is a change to the benchmark's pinned metrics; it
moves the both-on ``prom`` digest below (kernel evaluations 1383 ->
1385) and re-pins it on purpose.  The other digests stay.
"""

from __future__ import annotations

import contextlib
import hashlib

import pytest

from repro import explain, telemetry
from repro.simulate import MonteCarloConfig, PolicySpec, run_monte_carlo

CONFIG = MonteCarloConfig(
    n_trials=3,
    n_epochs=8,
    n_rows=5_000,
    seed=11,
    build_slots=2,
    policies=(PolicySpec("regret", arbitrage=True),),
)

ROWS = "71902e144fced0a4e26ceb0aab82deecc236ef7c567fb5b7229fb8c0fad2d258"
EXPLAIN = "c191f494f5658ae86cf199490b507babeaa5354394d2e4036038e5288a19a67a"

#: Digests by (telemetry on, explain on).
GOLDEN = {
    (False, False): {"rows": ROWS},
    (False, True): {"rows": ROWS, "explain": EXPLAIN},
    (True, False): {
        "rows": ROWS,
        "prom": "91f6963087c5a37902b6ee4abad561a3ee39bd0517dcb170295a8219b9a8254d",
    },
    (True, True): {
        "rows": ROWS,
        "prom": "5b9bc239e3286cd686a10098a8535e4cb3bbc8210ce9a9ea5f6718ad8d3ed64e",
        "explain": EXPLAIN,
    },
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _observed(telemetry_on: bool, explain_on: bool):
    """The run's result, collector and log (``None`` where off)."""
    with contextlib.ExitStack() as stack:
        collector = (
            stack.enter_context(telemetry.activate()) if telemetry_on else None
        )
        log = stack.enter_context(explain.activate()) if explain_on else None
        result = run_monte_carlo(CONFIG, jobs=1)
    return result, collector, log


@pytest.mark.parametrize("explain_on", [False, True])
@pytest.mark.parametrize("telemetry_on", [False, True])
def test_bytes_match_the_pinned_digests(telemetry_on, explain_on):
    result, collector, log = _observed(telemetry_on, explain_on)
    digests = {"rows": _sha("".join(",".join(row) + "\n" for row in result.rows()))}
    if collector is not None:
        digests["prom"] = _sha(telemetry.prometheus_text(collector.registry))
        assert collector.registry.counter("montecarlo.trials") == CONFIG.n_trials
        assert collector.registry.counter("arbitrage.migrations") > 0
        assert collector.registry.counter("builds.completed") > 0
    if log is not None:
        digests["explain"] = _sha("".join(line + "\n" for line in explain.explain_lines(log)))
        kinds = {entry["kind"] for entry in log.entries}
        assert {"arbitrage-assessment", "build-outcome", "epoch-delta"} <= kinds
    assert digests == GOLDEN[telemetry_on, explain_on]
