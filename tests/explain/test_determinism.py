"""The export is deterministic: --jobs and --shards never move a byte.

The JSON-lines export a run writes must be byte-identical however the
work was parallelized: Monte Carlo trials across worker processes
(explain snapshots are folded in trial order, whatever order workers
finish in) and sharded attribution across tenant shards (the fold is
fed in the parent from the globally-ordered merge stream).  The CLI
round trip — ``simulate --explain-out`` then the ``explain`` query
family — is exercised end to end on the same files.
"""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.explain import ExplainLog, activate, explain_lines, load_explain
from repro.money import ZERO, Money
from repro.simulate import (
    MonteCarloConfig,
    NeverReselect,
    run_monte_carlo,
)
from repro.simulate.presets import multi_tenant_sales_simulator

MC_CONFIG = MonteCarloConfig(n_trials=3, n_epochs=6, n_rows=4_000, seed=11)


def _mc_lines(jobs: int):
    with activate(ExplainLog()) as log:
        run_monte_carlo(MC_CONFIG, jobs=jobs)
    return explain_lines(log)


def _sharded_lines(shards: int, jobs: int = 1):
    simulator = multi_tenant_sales_simulator(
        n_tenants=3, n_epochs=17, n_rows=6_000, dataset_gb=2.0
    )
    with activate(ExplainLog()) as log:
        simulator.run_sharded(NeverReselect(), shards=shards, jobs=jobs)
    return explain_lines(log)


class TestMonteCarloInvariance:
    def test_jobs_never_change_the_export(self):
        serial = _mc_lines(jobs=1)
        parallel = _mc_lines(jobs=4)
        assert serial, "Monte Carlo must emit explain records"
        assert serial == parallel

    def test_trials_are_stamped_in_order(self):
        lines = _mc_lines(jobs=1)
        import json

        trials = [json.loads(line)["trial"] for line in lines]
        assert trials == sorted(trials)
        assert set(trials) == {0, 1, 2}


class TestShardedInvariance:
    def test_shards_never_change_the_export(self):
        narrow = _sharded_lines(shards=1)
        wide = _sharded_lines(shards=8)
        assert narrow, "sharded runs must emit explain records"
        assert narrow == wide

    def test_worker_processes_never_change_the_export(self):
        serial = _sharded_lines(shards=4, jobs=1)
        parallel = _sharded_lines(shards=4, jobs=2)
        assert serial == parallel


class TestCliRoundTrip:
    @pytest.fixture(scope="class")
    def export(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("explain") / "run.jsonl"
        code = main(
            [
                "simulate",
                "--epochs",
                "19",
                "--policy",
                "regret",
                "--quiet",
                "--rows",
                "8000",
                "--explain-out",
                str(path),
            ]
        )
        assert code == 0
        return path

    def test_export_rewrites_identically(self, export, tmp_path):
        twin = tmp_path / "twin.jsonl"
        code = main(
            [
                "simulate",
                "--epochs",
                "19",
                "--policy",
                "regret",
                "--quiet",
                "--rows",
                "8000",
                "--explain-out",
                str(twin),
            ]
        )
        assert code == 0
        assert twin.read_bytes() == export.read_bytes()

    def test_why_bill(self, export, capsys):
        assert main(["explain", "why-bill", str(export), "--epoch", "5"]) == 0
        out = capsys.readouterr().out
        assert "epoch 5" in out and "operating" in out

    def test_why_reselect(self, export, capsys):
        assert main(["explain", "why-reselect", str(export)]) == 0
        out = capsys.readouterr().out
        assert "trigger=initial" in out

    def test_why_view(self, export, capsys):
        import json

        first_added = None
        for line in export.read_text().splitlines():
            entry = json.loads(line)
            if entry.get("kind") == "optimizer-solve" and entry["added"]:
                first_added = entry["added"][0]
                break
        assert first_added is not None
        assert main(["explain", "why-view", str(export), first_added]) == 0
        assert "added by" in capsys.readouterr().out

    def test_diff(self, export, capsys):
        code = main(
            ["explain", "diff", str(export), "--from", "2", "--to", "7"]
        )
        assert code == 0
        assert "epoch 2 -> 7" in capsys.readouterr().out

    def test_bad_queries_exit_nonzero(self, export, capsys):
        assert main(["explain", "why-bill", str(export), "--epoch", "99"]) == 1
        assert main(["explain", "why-view", str(export), "NOPE"]) == 1
        assert (
            main(["explain", "diff", str(export), "--from", "7", "--to", "2"])
            == 1
        )
        assert main(["explain", "why-bill", "/no/such/file", "--epoch", "1"]) == 1
        err = capsys.readouterr().err
        assert "error:" in err


def _fleet_series(path):
    """Each fleet series' delta totals by epoch, keyed by (policy,
    trial), in export order."""
    series = {}
    for entry in load_explain(str(path)):
        if entry["kind"] == "epoch-delta" and entry["tenant"] is None:
            key = (entry["policy"], entry["trial"])
            series.setdefault(key, {})[entry["epoch"]] = entry["total"]
    return series


def _assert_diff_blocks(out, series, start, end):
    """One labelled block per series, closing on its own totals, with
    cause amounts that sum to its delta."""
    lines = out.splitlines()
    heads = [i for i, line in enumerate(lines) if line.startswith("fleet bill")]
    assert len(heads) == len(series)
    for (key, totals), first, stop in zip(
        series.items(), heads, heads[1:] + [len(lines)]
    ):
        policy, trial = key
        stamp = f"policy {policy}" + ("" if trial is None else f", trial {trial}")
        assert lines[first] == f"fleet bill [{stamp}], epoch {start} -> {end}:"
        closing = lines[stop - 1].split()
        assert closing[:5] == ["epoch", "total", totals[start], "->", totals[end]]
        causes = sum(
            (Money(line.split()[1]) for line in lines[first + 1 : stop - 1]), ZERO
        )
        assert causes == Money(totals[end]) - Money(totals[start])


class TestMultiSeriesExports:
    """Exports holding several policies or trials: every query names the
    series it reports, and ``diff`` reports each one."""

    @pytest.fixture(scope="class")
    def all_policies(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("explain") / "all.jsonl"
        code = main(
            [
                "simulate",
                "--rows",
                "4000",
                "--epochs",
                "20",
                "--quiet",
                "--explain-out",
                str(path),
            ]
        )
        assert code == 0
        return path

    def test_diff_closes_each_policy_on_its_own_totals(self, all_policies, capsys):
        series = _fleet_series(all_policies)
        assert len(series) == 3
        assert main(["explain", "diff", str(all_policies), "--from", "5", "--to", "10"]) == 0
        _assert_diff_blocks(capsys.readouterr().out, series, 5, 10)

    def test_why_bill_names_each_policy(self, all_policies, capsys):
        series = _fleet_series(all_policies)
        assert main(["explain", "why-bill", str(all_policies), "--epoch", "5"]) == 0
        heads = [
            line.split(": total")[0]
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("epoch")
        ]
        assert heads == [f"epoch 5 [policy {policy}]" for policy, _ in series]

    def test_diff_reports_every_monte_carlo_trial(self, tmp_path, capsys):
        path = tmp_path / "mc.jsonl"
        code = main(
            [
                "simulate",
                "--trials",
                "2",
                "--rows",
                "4000",
                "--epochs",
                "8",
                "--quiet",
                "--explain-out",
                str(path),
            ]
        )
        assert code == 0
        series = _fleet_series(path)
        assert {trial for _, trial in series} == {0, 1}
        capsys.readouterr()
        assert main(["explain", "diff", str(path), "--from", "2", "--to", "5"]) == 0
        _assert_diff_blocks(capsys.readouterr().out, series, 2, 5)
