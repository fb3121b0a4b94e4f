"""The command-line interface."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.experiments.runner import EXPERIMENTS


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_requires_known_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "nonsense"])


class TestList:
    def test_lists_every_experiment(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert sorted(out) == sorted(EXPERIMENTS)


class TestRun:
    def test_running_example_prints_tables(self, capsys):
        assert main(["run", "running-example"]) == 0
        out = capsys.readouterr().out
        assert "Running example" in out
        assert "$12.00" in out

    def test_csv_dir_writes_files(self, tmp_path, capsys):
        code = main(
            ["run", "ablation-tiers", "--csv-dir", str(tmp_path)]
        )
        assert code == 0
        assert (tmp_path / "ablation-tiers.csv").exists()

    def test_small_rows_run_fast(self, capsys):
        # A tiny dataset still regenerates table6 end to end.
        assert main(["run", "table6", "--rows", "5000"]) == 0
        out = capsys.readouterr().out
        assert "Table 6" in out


class TestSimulate:
    def test_python_dash_m_repro_simulate_help(self):
        """``python -m repro simulate --help`` exits 0 and shows options."""
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            f"{src}{os.pathsep}{env['PYTHONPATH']}"
            if env.get("PYTHONPATH")
            else str(src)
        )
        result = subprocess.run(
            [sys.executable, "-m", "repro", "simulate", "--help"],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert "--policy" in result.stdout
        assert "--epochs" in result.stdout

    def test_help_via_parser(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["simulate", "--help"])
        assert excinfo.value.code == 0
        assert "lifecycle" in capsys.readouterr().out

    def test_unknown_policy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--policy", "sometimes"])

    def test_small_simulation_end_to_end(self, capsys):
        code = main(
            [
                "simulate",
                "--rows", "5000",
                "--epochs", "20",
                "--quiet",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        for policy in ("never", "periodic", "regret"):
            assert policy in out
        assert "subset evaluations" in out

    def test_multi_tenant_simulation_end_to_end(self, capsys):
        code = main(
            [
                "simulate",
                "--tenants", "3",
                "--rows", "5000",
                "--epochs", "20",
                "--policy", "regret",
                "--quiet",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "3 tenants" in out
        for tenant in ("t1", "t2", "t3"):
            assert tenant in out
        assert "proportional" in out

    def test_attribution_mode_flag(self, capsys):
        code = main(
            [
                "simulate",
                "--tenants", "2",
                "--attribution", "even",
                "--rows", "5000",
                "--epochs", "20",
                "--policy", "never",
                "--quiet",
            ]
        )
        assert code == 0
        assert "even" in capsys.readouterr().out

    def test_unknown_attribution_mode_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["simulate", "--tenants", "2", "--attribution", "karma"]
            )

    def test_fair_slack_flag(self, capsys):
        code = main(
            [
                "simulate",
                "--tenants", "2",
                "--fair-slack", "0.5",
                "--rows", "5000",
                "--epochs", "20",
                "--policy", "periodic",
                "--quiet",
            ]
        )
        assert code == 0
        assert "t1" in capsys.readouterr().out

    def test_tenant_flags_without_tenants_error_cleanly(self, capsys):
        """--fair-slack / --attribution without --tenants must be loud,
        not silently ignored."""
        code = main(
            ["simulate", "--fair-slack", "0.5", "--rows", "5000", "--quiet"]
        )
        assert code == 1
        assert "--tenants" in capsys.readouterr().err
        code = main(
            ["simulate", "--attribution", "even", "--rows", "5000", "--quiet"]
        )
        assert code == 1
        assert "--tenants" in capsys.readouterr().err
        # The explicit default must be caught too, not just non-defaults.
        code = main(
            [
                "simulate",
                "--attribution", "proportional",
                "--rows", "5000",
                "--quiet",
            ]
        )
        assert code == 1
        assert "--tenants" in capsys.readouterr().err

    def test_stochastic_generator_single_run(self, capsys):
        code = main(
            [
                "simulate",
                "--generator", "spot",
                "--rows", "4000",
                "--epochs", "6",
                "--policy", "regret",
                "--quiet",
            ]
        )
        assert code == 0
        assert "regret" in capsys.readouterr().out

    def test_unknown_generator_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--generator", "chaos"])

    def test_monte_carlo_summary_and_csv(self, tmp_path, capsys):
        csv_path = tmp_path / "summary.csv"
        argv = [
            "simulate",
            "--trials", "2",
            "--rows", "4000",
            "--epochs", "6",
            "--seed", "7",
            "--quiet",
            "--summary-csv", str(csv_path),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "2 trials" in out
        assert "clairvoyant" in out
        first = csv_path.read_bytes()
        assert first.startswith(b"policy,metric,n,mean")
        # Re-running with the same seed must reproduce the CSV bytes.
        assert main(argv) == 0
        assert csv_path.read_bytes() == first

    def test_monte_carlo_multi_tenant(self, capsys):
        code = main(
            [
                "simulate",
                "--trials", "2",
                "--tenants", "2",
                "--rows", "4000",
                "--epochs", "6",
                "--policy", "never",
                "--quiet",
            ]
        )
        assert code == 0
        assert "tenants=2" in capsys.readouterr().out

    def test_monte_carlo_flags_without_trials_error_cleanly(self, capsys):
        code = main(["simulate", "--jobs", "4", "--rows", "4000", "--quiet"])
        assert code == 1
        assert "--trials" in capsys.readouterr().err
        code = main(
            [
                "simulate",
                "--summary-csv", "out.csv",
                "--rows", "4000",
                "--quiet",
            ]
        )
        assert code == 1
        assert "--trials" in capsys.readouterr().err

    def test_monte_carlo_attribution_without_tenants_errors(self, capsys):
        """--attribution must not be silently swallowed by a
        single-warehouse Monte Carlo run."""
        code = main(
            [
                "simulate",
                "--trials", "2",
                "--attribution", "even",
                "--rows", "4000",
                "--quiet",
            ]
        )
        assert code == 1
        assert "--tenants" in capsys.readouterr().err

    def test_monte_carlo_rejects_fair_slack(self, capsys):
        code = main(
            [
                "simulate",
                "--trials", "2",
                "--tenants", "2",
                "--fair-slack", "0.5",
                "--rows", "4000",
                "--quiet",
            ]
        )
        assert code == 1
        assert "--fair-slack" in capsys.readouterr().err

    def test_hysteresis_flag_reaches_the_policy(self, capsys):
        code = main(
            [
                "simulate",
                "--rows", "4000",
                "--epochs", "20",
                "--policy", "regret",
                "--hysteresis", "3",
                "--quiet",
            ]
        )
        assert code == 0
        assert "hold 3" in capsys.readouterr().out

    def test_too_many_tenants_for_horizon_errors_cleanly(self, capsys):
        code = main(
            [
                "simulate",
                "--tenants", "30",
                "--rows", "5000",
                "--epochs", "20",
                "--quiet",
            ]
        )
        assert code == 1
        assert "n_epochs" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        (
            ["--algorithm", "beam", "--search-budget", "0", "--tenants", "3"],
            ["--migration-hold", "3", "--tenants", "2"],
        ),
        ids=("search-budget", "migration-hold"),
    )
    def test_bad_policy_flags_fail_before_the_fleet_prints(
        self, capsys, flags
    ):
        code = main(["simulate", *flags, "--rows", "5000", "--quiet"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1

    def test_tenant_csv_needs_no_shards(self, tmp_path, capsys):
        """The in-memory route writes the sharded route's CSV bytes."""
        argv = [
            "simulate",
            "--tenants", "3",
            "--tenant-churn", "0.4",
            "--seed", "7",
            "--rows", "5000",
            "--epochs", "6",
            "--quiet",
        ]
        in_memory = tmp_path / "memory.csv"
        sharded = tmp_path / "sharded.csv"
        one = ["--policy", "never"]
        assert main(argv + one + ["--tenant-csv", str(in_memory)]) == 0
        assert main(
            argv + one + ["--shards", "2", "--tenant-csv", str(sharded)]
        ) == 0
        capsys.readouterr()
        assert in_memory.read_bytes() == sharded.read_bytes()
        assert main(argv + ["--tenant-csv", str(in_memory)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "single --policy" in captured.err


class TestNoOracleFlag:
    """The oracle switch is ``SelectionProblem(inputs, kernel=False)``
    alone: a script still passing the old ``--no-kernel`` flag fails
    loudly instead of being silently accepted."""

    @pytest.mark.parametrize(
        "argv",
        [["run", "running-example"], ["all"], ["simulate"]],
        ids=["run", "all", "simulate"],
    )
    def test_no_kernel_is_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv + ["--no-kernel"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --no-kernel" in capsys.readouterr().err


class TestSimulateBuildFlags:
    def test_async_single_run_end_to_end(self, capsys):
        code = main(
            [
                "simulate",
                "--rows", "5000",
                "--epochs", "19",
                "--policy", "regret",
                "--build-slots", "2",
                "--build-discipline", "shortest",
                "--quiet",
            ]
        )
        assert code == 0
        assert "regret" in capsys.readouterr().out

    def test_sync_flag_is_the_default_and_runs(self, capsys):
        code = main(
            [
                "simulate",
                "--rows", "5000",
                "--epochs", "19",
                "--policy", "never",
                "--sync",
                "--quiet",
            ]
        )
        assert code == 0
        assert "never" in capsys.readouterr().out

    def test_sync_contradicts_build_knobs(self, capsys):
        code = main(
            [
                "simulate",
                "--rows", "5000",
                "--sync",
                "--build-slots", "2",
                "--quiet",
            ]
        )
        assert code == 1
        assert "--sync contradicts" in capsys.readouterr().err
        code = main(
            [
                "simulate",
                "--rows", "5000",
                "--sync",
                "--build-discipline", "fifo",
                "--quiet",
            ]
        )
        assert code == 1
        assert "--sync contradicts" in capsys.readouterr().err

    def test_async_monte_carlo_summary_is_deterministic(
        self, tmp_path, capsys
    ):
        args = [
            "simulate",
            "--trials", "3",
            "--epochs", "8",
            "--rows", "5000",
            "--seed", "7",
            "--policy", "regret",
            "--build-slots", "1",
            "--quiet",
        ]
        first = tmp_path / "first.csv"
        second = tmp_path / "second.csv"
        assert main(args + ["--jobs", "1", "--summary-csv", str(first)]) == 0
        assert main(args + ["--jobs", "2", "--summary-csv", str(second)]) == 0
        capsys.readouterr()
        assert first.read_bytes() == second.read_bytes()
        assert b"build_latency_months" in first.read_bytes()

    def test_help_groups_the_flags(self, capsys):
        with pytest.raises(SystemExit):
            main(["simulate", "--help"])
        out = capsys.readouterr().out
        for group in (
            "lifecycle:",
            "tenants:",
            "stochastic:",
            "arbitrage:",
            "builds:",
            "telemetry:",
        ):
            assert group in out


class TestTelemetryFlags:
    def test_single_run_prints_cache_hit_line(self, capsys):
        assert main(["simulate", "--rows", "5000", "--epochs", "20"]) == 0
        out = capsys.readouterr().out
        assert "cache hits/priced per epoch:" in out
        assert "hit rate" in out

    def test_metrics_out_writes_a_prometheus_dump(self, tmp_path, capsys):
        dump = tmp_path / "metrics.prom"
        code = main(
            [
                "simulate",
                "--rows", "5000",
                "--epochs", "20",
                "--policy", "regret",
                "--quiet",
                "--metrics-out", str(dump),
            ]
        )
        assert code == 0
        assert "metrics dump written to" in capsys.readouterr().out
        text = dump.read_text()
        assert "repro_simulator_epochs_total 20" in text
        assert "repro_cache_hits_total" in text
        # Wall-clock span seconds never reach the deterministic dump.
        assert "seconds" not in text

    def test_trace_out_writes_json_lines(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        code = main(
            [
                "simulate",
                "--rows", "5000",
                "--epochs", "20",
                "--policy", "regret",
                "--quiet",
                "--trace-out", str(trace),
            ]
        )
        assert code == 0
        assert "trace spans written to" in capsys.readouterr().out
        events = [
            json.loads(line)
            for line in trace.read_text().splitlines()
        ]
        assert events
        assert {"epoch.decide", "optimizer.solve"} <= {
            e["name"] for e in events
        }

    def test_telemetry_summary_prints_the_table(self, capsys):
        code = main(
            [
                "simulate",
                "--rows", "5000",
                "--epochs", "20",
                "--policy", "regret",
                "--quiet",
                "--telemetry-summary",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "telemetry summary" in out
        assert "epoch.decide" in out

    def test_monte_carlo_metrics_dump_is_jobs_invariant(
        self, tmp_path, capsys
    ):
        args = [
            "simulate",
            "--trials", "3",
            "--epochs", "8",
            "--rows", "5000",
            "--seed", "7",
            "--policy", "regret",
            "--quiet",
        ]
        first = tmp_path / "jobs1.prom"
        second = tmp_path / "jobs2.prom"
        assert main(args + ["--jobs", "1", "--metrics-out", str(first)]) == 0
        assert main(args + ["--jobs", "2", "--metrics-out", str(second)]) == 0
        capsys.readouterr()
        assert first.read_bytes() == second.read_bytes()
        assert b"repro_montecarlo_trials_total 3" in first.read_bytes()

    def test_no_flags_means_no_telemetry_output(self, capsys):
        assert main(
            ["simulate", "--rows", "5000", "--epochs", "20", "--quiet"]
        ) == 0
        out = capsys.readouterr().out
        assert "telemetry" not in out
        assert "metrics dump" not in out


class TestSearchFlags:
    def test_algorithm_choices_come_from_registry(self):
        from repro.optimizer import registered_algorithms

        parser = build_parser()
        for name in registered_algorithms():
            args = parser.parse_args(["simulate", "--algorithm", name])
            assert args.algorithm == name

    def test_unregistered_algorithm_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--algorithm", "quantum"])

    def test_search_knobs_build_a_tuned_spec(self):
        from repro.cli import _optimizer_spec

        args = build_parser().parse_args(
            [
                "simulate",
                "--algorithm", "beam",
                "--search-budget", "64",
                "--search-seed", "5",
            ]
        )
        spec = _optimizer_spec(args)
        assert spec.name == "beam"
        assert spec.budget == 64
        assert spec.seed == 5

    def test_search_knobs_without_search_algorithm_error(self, capsys):
        code = main(
            [
                "simulate",
                "--rows", "5000",
                "--epochs", "20",
                "--search-budget", "64",
                "--quiet",
            ]
        )
        assert code != 0
        assert "--algorithm beam" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "algorithm, budget", [("beam", "-1"), ("beam", "0"), ("local", "0")]
    )
    def test_search_budget_below_one_is_one_error_line(
        self, capsys, algorithm, budget
    ):
        code = main(
            [
                "simulate",
                "--rows", "5000",
                "--algorithm", algorithm,
                "--search-budget", budget,
                "--quiet",
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"error: a search budget must be positive, got {budget}\n"

    def test_beam_simulation_end_to_end(self, capsys):
        code = main(
            [
                "simulate",
                "--rows", "5000",
                "--epochs", "20",
                "--algorithm", "beam",
                "--search-budget", "32",
                "--policy", "periodic",
                "--quiet",
            ]
        )
        assert code == 0
        assert "periodic" in capsys.readouterr().out
