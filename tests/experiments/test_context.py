"""One Section 6 world: a context holds one deployment and varies it.

:class:`ExperimentConfig` describes the dataset only; the cluster and
billing period are the context's :class:`DeploymentSpec`, by default
:func:`sales_deployment`, and every ablation variant comes from
:meth:`ExperimentContext.with_deployment`.
"""

from __future__ import annotations

from dataclasses import fields, replace

from repro.costmodel.params import sales_deployment
from repro.experiments import ExperimentConfig, ExperimentContext
from repro.pricing.providers import flat_cloud

CONFIG = ExperimentConfig(n_rows=30_000, seed=42)


def test_config_describes_only_the_dataset():
    assert [f.name for f in fields(ExperimentConfig)] == [
        "n_rows",
        "dataset_gb",
        "seed",
    ]


def test_default_deployment_is_the_section_6_one():
    deployment = ExperimentContext(CONFIG).deployment
    assert deployment == sales_deployment()


class TestWithDeployment:
    def test_changes_only_the_named_fields_and_keeps_the_dataset(self):
        context = ExperimentContext(CONFIG)
        sibling = context.with_deployment(n_instances=3, runs_per_period=1.0)
        assert sibling.deployment == replace(
            context.deployment, n_instances=3, runs_per_period=1.0
        )
        assert sibling.config == context.config
        assert sibling.dataset is context.dataset
        assert context.deployment.n_instances == 5
        assert context.deployment.runs_per_period == 30.0

    def test_siblings_keep_the_parents_price_book(self):
        context = ExperimentContext(
            CONFIG, replace(sales_deployment(), provider=flat_cloud())
        )
        sibling = context.with_deployment(n_instances=3)
        assert sibling.deployment.provider.name == "flat-cloud"
        assert sibling.problem(5).inputs.deployment.provider.name == "flat-cloud"

    def test_elastic_problems_bill_on_the_parents_price_book(self):
        context = ExperimentContext(
            CONFIG, replace(sales_deployment(), provider=flat_cloud())
        )
        problems = context.elastic_problems(3, [1, 2])
        assert sorted(problems) == [1, 2]
        for n, problem in problems.items():
            deployment = problem.inputs.deployment
            assert deployment.provider.name == "flat-cloud"
            assert deployment.n_instances == n
