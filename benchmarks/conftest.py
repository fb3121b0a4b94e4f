"""Shared benchmark fixtures.

Every benchmark regenerating a paper artifact writes its table to
``benchmarks/results/<name>.txt`` (rendered) and ``.csv`` (data), so the
paper-vs-measured comparison (``PAPER_RATES`` in
``repro.experiments.tables``) can be re-checked from artifacts rather
than scrollback.

Benchmarks on the telemetry-instrumented lifecycle stack can also
record a **per-phase wall-clock breakdown** (``phase_breakdown``): one
extra run under a live collector, with each span's total seconds
stored in the report's ``extra_info`` — so when the CI regression gate
trips, ``check_regression.py`` can say *which phase* slowed down, not
just which benchmark.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.experiments import ExperimentConfig, ExperimentContext
from repro.telemetry import Telemetry, activate

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def context():
    """The Section 6 world, sized for quick benchmark rounds."""
    return ExperimentContext(ExperimentConfig(n_rows=30_000, seed=42))


@pytest.fixture(scope="session")
def save_table():
    """Write a ReportTable to the results directory (txt + csv)."""

    def _save(name, table):
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"{name}.txt").write_text(table.render() + "\n")
        table.to_csv(RESULTS_DIR / f"{name}.csv")
        return table

    return _save


@pytest.fixture()
def phase_breakdown(benchmark):
    """Record a span-level timing breakdown into the benchmark report.

    Runs ``fn`` once more under a live telemetry collector (outside
    the timed rounds, so the gate's mean is untouched) and stores each
    span's call count and total seconds under ``extra_info["phases"]``
    — which pytest-benchmark serializes into the ``BENCH_*.json``
    artifact.
    """

    def _record(fn):
        with activate(Telemetry()) as collector:
            fn()
        benchmark.extra_info["phases"] = {
            name: {"calls": stats.count, "seconds": round(stats.seconds, 6)}
            for name, stats in sorted(collector.registry.spans.items())
        }

    return _record


def parse_rate(cell: str) -> float:
    """'60%' -> 0.60 (shared by shape assertions)."""
    assert cell.endswith("%")
    return float(cell[:-1]) / 100.0
