"""One sales dataset per process: every reader shares ``sales_dataset``.

The experiments' contexts (the base one and every ablation variant)
and the sales presets all read the same per-process cache, so a run
that varies only the deployment or the drift generates the dataset
once.
"""

from __future__ import annotations

import pytest

from repro.data import sales_generator
from repro.experiments import ExperimentConfig, ExperimentContext, run_all
from repro.simulate import (
    drifting_sales_simulator,
    elastic_multi_tenant_simulator,
    multi_tenant_sales_simulator,
    stochastic_sales_simulator,
)


@pytest.fixture
def generations(monkeypatch):
    """Each ``generate_sales`` call's keyword arguments, from an empty cache."""
    calls = []
    generate = sales_generator.generate_sales

    def counting(*args, **kwargs):
        calls.append(kwargs)
        return generate(*args, **kwargs)

    monkeypatch.setattr(sales_generator, "generate_sales", counting)
    sales_generator.sales_dataset.cache_clear()
    return calls


def test_same_key_same_dataset(generations):
    first = sales_generator.sales_dataset(2_000, 5, 1.0)
    assert sales_generator.sales_dataset(2_000, 5, 1.0) is first
    assert sales_generator.sales_dataset(2_000, 6, 1.0) is not first
    assert len(generations) == 2


def test_run_all_generates_the_sales_dataset_once(generations):
    run_all(ExperimentContext(ExperimentConfig(n_rows=30_000, seed=42)))
    assert generations == [{"n_rows": 30_000, "seed": 42, "target_gb": 10.0}]


def test_sales_presets_share_one_dataset(generations):
    world = dict(n_rows=2_000, seed=42, dataset_gb=10.0)
    drifting_sales_simulator(**world)
    multi_tenant_sales_simulator(**world)
    stochastic_sales_simulator(**world)
    elastic_multi_tenant_simulator(**world)
    assert generations == [{"n_rows": 2_000, "seed": 42, "target_gb": 10.0}]
