"""End-to-end kernel identity: every preset's output, byte for byte.

The kernel is a pure accelerator, so running any simulation with
every problem priced on the exact-Decimal oracle (``kernel=False``,
through the ``oracle_pricing`` fixture) must reproduce the default run
exactly: rendered ledgers, summary lines, cache-traffic lines, Monte
Carlo CSVs, and the deterministic metrics dump (modulo the kernel's
own counters, which exist only when the kernel runs).
"""

from __future__ import annotations

import pytest

from repro.cli import main


def _run(capsys, argv):
    assert main(argv) == 0
    return capsys.readouterr().out


SCENARIOS = {
    "single-tenant": [
        "simulate", "--rows", "5000", "--epochs", "20", "--policy", "all",
    ],
    "multi-tenant": [
        "simulate", "--rows", "5000", "--epochs", "20",
        "--tenants", "2", "--policy", "regret",
    ],
    "stochastic": [
        "simulate", "--rows", "5000", "--epochs", "8",
        "--generator", "mixed", "--seed", "7", "--policy", "regret",
    ],
    "async-builds": [
        "simulate", "--rows", "5000", "--epochs", "20",
        "--build-slots", "1", "--policy", "regret",
    ],
    "arbitrage": [
        "simulate", "--rows", "5000", "--epochs", "20",
        "--arbitrage", "--policy", "regret",
    ],
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_ledgers_are_identical_with_and_without_kernel(
    name, capsys, oracle_pricing
):
    """Full renders (ledgers, events, cache traffic) match exactly."""
    argv = SCENARIOS[name]
    with_kernel = _run(capsys, argv)
    with oracle_pricing():
        without_kernel = _run(capsys, argv)
    assert with_kernel == without_kernel
    assert "epoch" in with_kernel  # the run actually rendered ledgers


def test_monte_carlo_summary_csv_is_kernel_agnostic(
    tmp_path, capsys, oracle_pricing
):
    args = [
        "simulate",
        "--trials", "3",
        "--epochs", "8",
        "--rows", "5000",
        "--seed", "7",
        "--policy", "regret",
    ]
    fast_csv = tmp_path / "fast.csv"
    slow_csv = tmp_path / "slow.csv"
    fast_out = _run(capsys, args + ["--summary-csv", str(fast_csv)])
    with oracle_pricing():
        slow_out = _run(capsys, args + ["--summary-csv", str(slow_csv)])
    assert fast_csv.read_bytes() == slow_csv.read_bytes()
    # stdout differs only in the csv path it reports.
    strip = lambda out: out.replace(str(fast_csv), "").replace(
        str(slow_csv), ""
    )
    assert strip(fast_out) == strip(slow_out)


def _metric_lines(path):
    """The dump's lines, minus the kernel's own instrumentation.

    ``kernel_builds`` / ``kernel_evaluations`` counters and the
    ``kernel.build`` span-call line exist only when the kernel runs;
    everything else — every simulator, optimizer, cache, and billing
    metric — must be byte-identical.
    """
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    return [line for line in lines if "kernel" not in line]


def test_metrics_dump_is_kernel_agnostic_modulo_kernel_counters(
    tmp_path, capsys, oracle_pricing
):
    args = [
        "simulate",
        "--rows", "5000",
        "--epochs", "20",
        "--policy", "regret",
        "--quiet",
    ]
    fast = tmp_path / "fast.prom"
    slow = tmp_path / "slow.prom"
    _run(capsys, args + ["--metrics-out", str(fast)])
    with oracle_pricing():
        _run(capsys, args + ["--metrics-out", str(slow)])
    assert _metric_lines(fast) == _metric_lines(slow)
    # The kernel run really did record its counters...
    assert any("kernel" in line for line in fast.read_text().splitlines())
    # ...and the opt-out run really did not.
    assert "kernel" not in slow.read_text()


def test_experiment_tables_are_kernel_agnostic(capsys, oracle_pricing):
    """The paper-table pipeline is covered too, not just simulations."""
    argv = ["run", "running-example", "--rows", "5000"]
    with_kernel = _run(capsys, argv)
    with oracle_pricing():
        assert _run(capsys, argv) == with_kernel
