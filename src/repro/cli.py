"""Command-line interface: regenerate the paper's artifacts.

Usage::

    repro-experiments list
    repro-experiments run figure5a [--csv-dir out/]
    repro-experiments all [--csv-dir out/]
    repro-experiments simulate --epochs 24 --policy all
    repro-experiments simulate --tenants 3 [--attribution even]
    repro-experiments simulate --tenants 3 --tenant-churn 0.5
    repro-experiments simulate --tenants 100 --shards 8 --jobs 4
    repro-experiments simulate --generator spot
    repro-experiments simulate --arbitrage --generator spot
    repro-experiments simulate --trials 32 --seed 7 --jobs 4

(or ``python -m repro ...`` / ``python -m repro.cli ...``).

``simulate`` steps the drifting-warehouse lifecycle scenario
(:func:`repro.simulate.drifting_sales_simulator`) under one or all
re-selection policies and prints each policy's cost ledger.  With
``--tenants N`` it runs the multi-tenant scenario
(:func:`repro.simulate.multi_tenant_sales_simulator`) instead: N
workloads share the warehouse, each epoch's bill is attributed into
per-tenant ledgers, and ``--fair-slack`` adds a soft fairness
preference to the selection itself (``--slo-hours`` composes a
per-tenant latency ceiling with it).  ``--generator`` or
``--tenant-churn`` switches the fleet to sampled drift
(:func:`repro.simulate.presets.elastic_multi_tenant_simulator`);
``--tenant-churn`` also makes it *elastic* — sampled tenants arrive
and depart mid-lifecycle, billed through onboarding/offboarding
events — and ``--shards K``
switches to the population-scale path: each epoch's attribution is
partitioned across K tenant shards (``--jobs`` worker processes) and
streamed into per-tenant lifetime totals.  ``--tenant-csv`` writes
those totals, byte-identical for any K and without ``--shards``.

``--arbitrage`` quotes a multi-provider market and wraps every policy
in the migration layer (:mod:`repro.simulate.arbitrage`): each epoch
the holdings are priced on every quoted book, and the warehouse
migrates — paying dataset + view egress and re-materialization — when
the amortized savings over ``--migration-horizon`` epochs beat the
switch cost for ``--migration-hold`` consecutive epochs.

``--build-slots`` / ``--build-discipline`` turn on asynchronous
builds (:mod:`repro.simulate.builds`): decided views enter a build
queue, land only after their materialization hours have elapsed on
the wall clock, and are billed by partial-period proration from the
landing instant; ``--sync`` names the default explicitly: the same
epoch loop with instant builds, each landing at its own epoch's
start.

``--generator NAME`` swaps the hand-written drift for sampled drift
(:mod:`repro.simulate.stochastic`), and ``--trials N`` evaluates the
policies over *N* sampled futures at once — the Monte Carlo harness
(:mod:`repro.simulate.montecarlo`), parallel across ``--jobs``
processes, printing distribution summaries and optionally writing
them as CSV (``--summary-csv``).  Identical ``--seed`` means
identical output, whatever ``--jobs`` is.

``--metrics-out`` / ``--trace-out`` / ``--telemetry-summary`` turn on
the observability layer (:mod:`repro.telemetry`) for any simulate
run: counters, gauges and histograms from every subsystem land in a
deterministic Prometheus text dump, completed spans in a JSON-lines
trace, and a human rollup on stdout — with zero effect on the
ledgers and summaries themselves (telemetry is strictly passive).

``--explain-out PATH`` records decision provenance for any simulate
run (:mod:`repro.explain`): every policy trigger, optimizer solve,
arbitrage assessment and build outcome, plus an exact epoch-over-epoch
cost decomposition whose terms sum byte-exactly to each delta — as a
deterministic JSON-lines export, byte-identical for identical
``--seed`` whatever ``--jobs``/``--shards`` are.  The ``explain``
subcommand answers queries over such an export: ``why-bill`` (exact
cost lineage for one epoch, fleet-wide or per tenant),
``why-reselect`` (triggers and solves), ``why-view`` (one view's
history) and ``diff`` (cause-level change between two epochs).  Like
telemetry, the recorder is strictly passive: with the flag absent the
ledgers, summaries and CSVs are byte-identical to a run without it.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from contextlib import ExitStack
from functools import partial
from typing import List, Optional

from .errors import ReproError, SimulationError
from .experiments.context import ExperimentConfig, ExperimentContext
from .experiments.runner import EXPERIMENTS, run_all, run_experiment
from .explain import (
    ExplainLog,
    activate as activate_explain,
    diff_epochs,
    load_explain,
    why_bill,
    why_reselect,
    why_view,
    write_explain,
)
from .telemetry import (
    Telemetry,
    activate,
    prometheus_text,
    summary_table,
    write_trace,
)
from .optimizer.registry import registered_algorithms, resolve as resolve_optimizer
from .simulate.arbitrage import ArbitrageAware
from .simulate.attribution import ATTRIBUTION_MODES
from .simulate.montecarlo import (
    MonteCarloConfig,
    PolicySpec,
    run_monte_carlo,
)
from .simulate.builds import BUILD_DISCIPLINES, BuildConfig
from .simulate.policy import POLICY_NAMES, make_policy
from .simulate.presets import (
    DRIFT_MIN_EPOCHS,
    default_market,
    drifting_sales_simulator,
    elastic_multi_tenant_simulator,
    multi_tenant_sales_simulator,
    stochastic_sales_simulator,
)
from .simulate.simulator import compare_policies
from .simulate.stochastic import GENERATOR_PRESETS, FleetChurn

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=(
            "Regenerate the tables and figures of 'Cost Models for View "
            "Materialization in the Cloud' (Nguyen et al., DanaC 2012)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list experiment ids")

    run = sub.add_parser("run", help="run one experiment")
    run.add_argument("experiment", choices=sorted(EXPERIMENTS))
    _add_common(run)

    everything = sub.add_parser("all", help="run every experiment")
    _add_common(everything)

    simulate = sub.add_parser(
        "simulate",
        help="run the drifting-warehouse lifecycle simulation",
        description=(
            "Step the Section 6 warehouse through a drifting lifecycle "
            "(queries arriving/leaving, data growth, a provider price "
            "change, a node loss) and compare re-selection policies. "
            "With --tenants N, N workloads share the warehouse and every "
            "epoch's bill is attributed across per-tenant ledgers."
        ),
    )
    lifecycle = simulate.add_argument_group(
        "lifecycle", "the epoch grid, the world, and the policies"
    )
    lifecycle.add_argument(
        "--epochs",
        type=int,
        default=24,
        help=(
            "billing periods to simulate; the drifting scenario needs "
            f">= {DRIFT_MIN_EPOCHS} (default %(default)s)"
        ),
    )
    lifecycle.add_argument(
        "--policy",
        choices=(*POLICY_NAMES, "all"),
        default="all",
        help="re-selection policy to run (default %(default)s)",
    )
    lifecycle.add_argument(
        "--period",
        type=int,
        default=PolicySpec.period,
        help="epochs between periodic re-selections (default %(default)s)",
    )
    lifecycle.add_argument(
        "--threshold",
        type=float,
        default=PolicySpec.threshold,
        help="relative regret that triggers re-selection (default %(default)s)",
    )
    lifecycle.add_argument(
        "--hysteresis",
        type=int,
        default=PolicySpec.hysteresis,
        metavar="N",
        help=(
            "epochs the regret must stay above the threshold before "
            "the regret policy churns (default %(default)s)"
        ),
    )
    lifecycle.add_argument(
        "--algorithm",
        choices=registered_algorithms(),
        default="greedy",
        help="selection algorithm used by every policy (default %(default)s)",
    )
    lifecycle.add_argument(
        "--search-budget",
        type=int,
        default=None,
        metavar="N",
        help=(
            "exact subset evaluations an anytime search may spend per "
            "solve (needs --algorithm beam or local)"
        ),
    )
    lifecycle.add_argument(
        "--search-seed",
        type=int,
        default=None,
        metavar="S",
        help=(
            "seed for the search's move sampling (needs --algorithm "
            "beam or local; default 0)"
        ),
    )
    lifecycle.add_argument(
        "--rows",
        type=int,
        default=60_000,
        help="physical fact rows to generate (default %(default)s)",
    )
    lifecycle.add_argument(
        "--seed",
        type=int,
        default=42,
        help="dataset RNG seed (default %(default)s)",
    )
    lifecycle.add_argument(
        "--quiet",
        action="store_true",
        help="print only the per-policy summary lines",
    )

    tenant_group = simulate.add_argument_group(
        "tenants", "multi-tenant sharing and cost attribution"
    )
    tenant_group.add_argument(
        "--tenants",
        type=int,
        default=0,
        metavar="N",
        help=(
            "share the warehouse between N tenants and attribute every "
            "epoch's charges into per-tenant ledgers (default: single "
            "workload, no attribution)"
        ),
    )
    tenant_group.add_argument(
        "--attribution",
        choices=ATTRIBUTION_MODES,
        default=None,
        help=(
            "how shared view/storage charges are split between tenants "
            "(default proportional; needs --tenants)"
        ),
    )
    tenant_group.add_argument(
        "--fair-slack",
        type=float,
        default=None,
        metavar="S",
        help=(
            "select views under a soft fairness preference: minimize how "
            "far any tenant's attributed share exceeds (1+S)x the even "
            "split before minimizing cost (needs --tenants)"
        ),
    )
    tenant_group.add_argument(
        "--slo-hours",
        type=float,
        default=None,
        metavar="H",
        help=(
            "per-tenant latency SLO: prefer subsets keeping every "
            "tenant's own processing hours under H per epoch, composed "
            "with the fairness preference (needs --tenants)"
        ),
    )
    tenant_group.add_argument(
        "--tenant-churn",
        type=float,
        default=None,
        metavar="RATE",
        help=(
            "make the fleet elastic: tenants arrive at RATE per epoch "
            "(Poisson) with exponential stays, billed through "
            "onboarding/offboarding events (needs --tenants; samples "
            "drift from --generator, default mixed)"
        ),
    )
    tenant_group.add_argument(
        "--tenant-stay",
        type=float,
        default=None,
        metavar="EPOCHS",
        help=(
            "expected stay of churned tenants in epochs (needs "
            f"--tenant-churn; default {FleetChurn.mean_stay:g})"
        ),
    )
    tenant_group.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="K",
        help=(
            "attribute each epoch across K tenant shards with "
            "streaming ledger merges (population-scale path; "
            "byte-identical totals for any K; needs --tenants; "
            "combine with --jobs J for worker processes)"
        ),
    )
    tenant_group.add_argument(
        "--tenant-csv",
        default=None,
        metavar="PATH",
        help=(
            "write the per-tenant lifetime totals as CSV (needs a "
            "single --policy); byte-identical with or without --shards, "
            "for any --shards/--jobs combination"
        ),
    )

    stochastic = simulate.add_argument_group(
        "stochastic", "sampled drift and Monte Carlo evaluation"
    )
    stochastic.add_argument(
        "--generator",
        choices=sorted(GENERATOR_PRESETS),
        default=None,
        help=(
            "sample the drift from a seeded stochastic generator "
            "bundle instead of the hand-written scenario"
        ),
    )
    stochastic.add_argument(
        "--trials",
        type=int,
        default=0,
        metavar="N",
        help=(
            "evaluate the policies over N sampled futures (Monte "
            "Carlo; implies --generator mixed unless one is named) "
            "and print distribution summaries (default: one "
            "deterministic run)"
        ),
    )
    stochastic.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="J",
        help=(
            "worker processes for --trials; never changes the result "
            "(default %(default)s)"
        ),
    )
    stochastic.add_argument(
        "--summary-csv",
        default=None,
        metavar="PATH",
        help=(
            "also write the Monte Carlo distribution summary as CSV "
            "(needs --trials); byte-identical for identical --seed"
        ),
    )

    arbitrage = simulate.add_argument_group(
        "arbitrage", "multi-provider markets and billed migrations"
    )
    arbitrage.add_argument(
        "--arbitrage",
        action="store_true",
        help=(
            "quote a multi-provider market (AWS + flat-rate + archive "
            "books) and wrap every policy in the arbitrage layer: "
            "migrate providers when amortized savings beat the switch "
            "cost (dataset + view egress, re-materialization)"
        ),
    )
    arbitrage.add_argument(
        "--migration-horizon",
        type=int,
        default=None,
        metavar="H",
        help=(
            "epochs the per-epoch savings are amortized over before "
            "being compared with the switch cost (needs --arbitrage; "
            f"default {PolicySpec.migration_horizon})"
        ),
    )
    arbitrage.add_argument(
        "--migration-hold",
        type=int,
        default=None,
        metavar="N",
        help=(
            "consecutive epochs a candidate provider must stay "
            "worthwhile before the arbitrage layer migrates (needs "
            f"--arbitrage; default {PolicySpec.migration_hold})"
        ),
    )

    builds = simulate.add_argument_group(
        "builds", "asynchronous builds: wall-clock latency and proration"
    )
    builds.add_argument(
        "--build-slots",
        type=int,
        default=None,
        metavar="K",
        help=(
            "run builds asynchronously on K concurrent slots: a "
            "decided view enters the build queue, lands after its "
            "materialization hours have elapsed on the wall clock, "
            "and is billed by partial-period proration from the "
            f"landing (default {BuildConfig.slots} once any build "
            "flag is typed)"
        ),
    )
    builds.add_argument(
        "--build-discipline",
        choices=BUILD_DISCIPLINES,
        default=None,
        help=(
            "scheduling discipline for queued builds (implies "
            f"asynchronous execution; default {BuildConfig.discipline})"
        ),
    )
    builds.add_argument(
        "--sync",
        action="store_true",
        help=(
            "force instant builds (every decided view lands at its own "
            "epoch's start, so views live the instant they are "
            "decided) — the default; contradicts the other build flags"
        ),
    )

    observability = simulate.add_argument_group(
        "telemetry", "metrics, span traces, and profiling exports"
    )
    observability.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help=(
            "write the run's merged metrics as a Prometheus text-format "
            "dump; deterministic — byte-identical for identical --seed, "
            "whatever --jobs is"
        ),
    )
    observability.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help=(
            "write completed spans (epoch stepping, optimizer solves, "
            "arbitrage assessments, trials) as a JSON-lines trace file "
            "with wall-clock timings"
        ),
    )
    observability.add_argument(
        "--telemetry-summary",
        action="store_true",
        help=(
            "print a human-readable rollup of the run's spans, "
            "counters, gauges, and histograms after the ledgers"
        ),
    )

    provenance = simulate.add_argument_group(
        "explain", "decision provenance and exact cost lineage"
    )
    provenance.add_argument(
        "--explain-out",
        default=None,
        metavar="PATH",
        help=(
            "record every decision (policy triggers, optimizer solves, "
            "arbitrage assessments, build outcomes) and the exact "
            "epoch-over-epoch cost decomposition, and write them as a "
            "JSON-lines export; deterministic — byte-identical for "
            "identical --seed, whatever --jobs/--shards are (query it "
            "with the 'explain' subcommand)"
        ),
    )

    _add_explain_parser(sub)

    return parser


def _add_explain_parser(sub) -> None:
    """The ``explain`` subcommand: queries over an --explain-out export."""
    explain = sub.add_parser(
        "explain",
        help="answer provenance queries over an --explain-out export",
        description=(
            "Answer 'why' questions about a recorded simulate run: why a "
            "bill moved epoch-over-epoch (exact cost lineage, terms that "
            "sum byte-exactly to the delta), why a policy re-selected, "
            "what happened to one view, and how two epochs differ. "
            "Reads the JSON-lines file a 'simulate --explain-out PATH' "
            "run wrote."
        ),
    )
    queries = explain.add_subparsers(dest="explain_command", required=True)

    why_bill_cmd = queries.add_parser(
        "why-bill",
        help="decompose one epoch's cost delta into exact causal terms",
    )
    why_bill_cmd.add_argument("log", help="an --explain-out JSONL file")
    why_bill_cmd.add_argument(
        "--epoch",
        type=int,
        required=True,
        metavar="E",
        help="the epoch whose delta to explain",
    )
    why_bill_cmd.add_argument(
        "--tenant",
        default=None,
        metavar="NAME",
        help="explain one tenant's attributed delta instead of the fleet's",
    )

    why_reselect_cmd = queries.add_parser(
        "why-reselect",
        help="show what each policy decided and why (triggers + solves)",
    )
    why_reselect_cmd.add_argument("log", help="an --explain-out JSONL file")
    why_reselect_cmd.add_argument(
        "--epoch",
        type=int,
        default=None,
        metavar="E",
        help="restrict to one epoch (default: every epoch)",
    )

    why_view_cmd = queries.add_parser(
        "why-view",
        help="trace one view's history: selections, drops, builds",
    )
    why_view_cmd.add_argument("log", help="an --explain-out JSONL file")
    why_view_cmd.add_argument("view", help="the view name to trace")

    diff_cmd = queries.add_parser(
        "diff",
        help="attribute the cost change between two epochs to causes",
    )
    diff_cmd.add_argument("log", help="an --explain-out JSONL file")
    diff_cmd.add_argument(
        "--from",
        dest="from_epoch",
        type=int,
        required=True,
        metavar="E",
        help="the baseline epoch",
    )
    diff_cmd.add_argument(
        "--to",
        dest="to_epoch",
        type=int,
        required=True,
        metavar="E",
        help="the epoch to compare against the baseline",
    )


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--csv-dir", default=None, help="also write each table as CSV here"
    )
    sub.add_argument(
        "--rows",
        type=int,
        default=ExperimentConfig().n_rows,
        help="physical fact rows to generate (default %(default)s)",
    )
    sub.add_argument(
        "--seed",
        type=int,
        default=ExperimentConfig().seed,
        help="dataset RNG seed (default %(default)s)",
    )


def _context(args: argparse.Namespace) -> ExperimentContext:
    return ExperimentContext(
        ExperimentConfig(n_rows=args.rows, seed=args.seed)
    )


def _migration_knobs(args: argparse.Namespace):
    """Resolve the arbitrage knobs as ``(horizon, hold)``.

    A knob typed without ``--arbitrage`` — whatever its value — is an
    error rather than a silent no-op; untyped knobs resolve to
    :class:`PolicySpec`'s defaults.
    """
    typed = (
        args.migration_horizon is not None
        or args.migration_hold is not None
    )
    if not args.arbitrage:
        if typed:
            raise SimulationError(
                "--migration-horizon and --migration-hold apply to "
                "arbitrage runs; add --arbitrage"
            )
        return None, None
    horizon = (
        PolicySpec.migration_horizon
        if args.migration_horizon is None
        else args.migration_horizon
    )
    hold = (
        PolicySpec.migration_hold
        if args.migration_hold is None
        else args.migration_hold
    )
    return horizon, hold


def _build_config(args: argparse.Namespace):
    """Resolve the build flags to a ``BuildConfig`` (``None`` = sync).

    Asynchronous execution turns on as soon as any build knob is
    typed; ``--sync`` states the default regime explicitly, so typing
    it *alongside* a build knob is a contradiction, not a tiebreak.
    """
    typed = (
        args.build_slots is not None or args.build_discipline is not None
    )
    if args.sync:
        if typed:
            raise SimulationError(
                "--sync contradicts --build-slots/--build-discipline; "
                "drop one side"
            )
        return None
    if not typed:
        return None
    return BuildConfig(
        slots=(
            BuildConfig.slots
            if args.build_slots is None
            else args.build_slots
        ),
        discipline=(
            BuildConfig.discipline
            if args.build_discipline is None
            else args.build_discipline
        ),
    )


def _tenant_churn(args: argparse.Namespace):
    """Resolve the churn knobs to a ``FleetChurn`` (``None`` = fixed).

    Same sentinel convention as :func:`_migration_knobs`:
    ``--tenant-stay`` typed without ``--tenant-churn`` is an error,
    never a silent no-op.
    """
    if args.tenant_stay is not None and args.tenant_churn is None:
        raise SimulationError(
            "--tenant-stay applies to elastic fleets; add "
            "--tenant-churn RATE"
        )
    if args.tenant_churn is None:
        return None
    return FleetChurn(
        arrival_rate=args.tenant_churn,
        mean_stay=(
            FleetChurn.mean_stay
            if args.tenant_stay is None
            else args.tenant_stay
        ),
    )


#: Algorithms the --search-* knobs configure.
SEARCH_ALGORITHMS = ("beam", "local")


def _optimizer_spec(args: argparse.Namespace):
    """Resolve ``--algorithm`` plus the search knobs to one spec.

    Follows the sentinel-knob convention (:func:`_migration_knobs`):
    a ``--search-*`` knob typed alongside a non-search algorithm is an
    error, never a silent no-op.
    """
    typed = args.search_budget is not None or args.search_seed is not None
    spec = resolve_optimizer(args.algorithm)
    if args.algorithm not in SEARCH_ALGORITHMS:
        if typed:
            raise SimulationError(
                "--search-budget and --search-seed apply to the anytime "
                "search algorithms; add --algorithm beam or --algorithm local"
            )
        return spec
    replacements = {}
    if args.search_budget is not None:
        replacements["budget"] = args.search_budget
    if args.search_seed is not None:
        replacements["seed"] = args.search_seed
    return dataclasses.replace(spec, **replacements) if replacements else spec


def _policy_flags(args: argparse.Namespace):
    """Resolve the policy flags as ``(optimizer, horizon, hold)``, so a
    bad flag fails before anything is built or printed."""
    horizon, hold = _migration_knobs(args)
    return _optimizer_spec(args), horizon, hold


def _simulate_policies(
    args: argparse.Namespace, flags, scenario_factory=None
):
    """The run's policies, from :func:`_policy_flags`' resolution."""
    optimizer, horizon, hold = flags
    names = POLICY_NAMES if args.policy == "all" else (args.policy,)
    policies = [
        make_policy(
            name,
            optimizer=optimizer,
            period=args.period,
            threshold=args.threshold,
            scenario_factory=scenario_factory,
            hysteresis=args.hysteresis,
        )
        for name in names
    ]
    if args.arbitrage:
        policies = [
            ArbitrageAware(policy, horizon=horizon, hysteresis=hold)
            for policy in policies
        ]
    return policies


def _simulate_market(args: argparse.Namespace):
    """The provider market the run quotes (None = single provider)."""
    return default_market() if args.arbitrage else None


def _print_cache_stats(builder) -> None:
    stats = builder.evaluation_stats()
    print(
        f"subset evaluations: {stats.calls} requested, "
        f"{stats.priced} priced, {stats.hits} served from cache; "
        f"{builder.queries_priced} queries priced across "
        f"{builder.problems_cached} epoch problems"
    )


def _print_ledger_cache(ledger) -> None:
    """The per-epoch cache traffic a ledger's records now carry."""
    per_epoch = " ".join(
        f"{r.cache_hits}/{r.subsets_priced}" for r in ledger.records
    )
    print(f"cache hits/priced per epoch: {per_epoch}")
    print(
        f"cache totals: {ledger.total_cache_hits} hits, "
        f"{ledger.total_subsets_priced} priced "
        f"({ledger.cache_hit_rate:.0%} hit rate)"
    )


def _telemetry_collector(args: argparse.Namespace):
    """A live collector when any telemetry flag was typed, else None."""
    wanted = (
        args.metrics_out is not None
        or args.trace_out is not None
        or args.telemetry_summary
    )
    if not wanted:
        return None
    return Telemetry(trace=args.trace_out is not None)


def _export_telemetry(
    collector: Telemetry, args: argparse.Namespace
) -> None:
    if args.telemetry_summary:
        print()
        print(summary_table(collector.registry))
    if args.metrics_out is not None:
        with open(
            args.metrics_out, "w", encoding="utf-8", newline="\n"
        ) as handle:
            handle.write(prometheus_text(collector.registry))
        print(f"metrics dump written to {args.metrics_out}")
    if args.trace_out is not None:
        with open(
            args.trace_out, "w", encoding="utf-8", newline="\n"
        ) as handle:
            spans = write_trace(collector, handle)
        print(f"{spans} trace spans written to {args.trace_out}")


def _export_explain(log: ExplainLog, args: argparse.Namespace) -> None:
    with open(
        args.explain_out, "w", encoding="utf-8", newline="\n"
    ) as handle:
        records = write_explain(log, handle)
    print(f"{records} explain records written to {args.explain_out}")


def _run_simulate(args: argparse.Namespace) -> int:
    collector = _telemetry_collector(args)
    log = None if args.explain_out is None else ExplainLog()
    with ExitStack() as stack:
        if collector is not None:
            stack.enter_context(activate(collector))
        if log is not None:
            stack.enter_context(activate_explain(log))
        code = _dispatch_simulate(args)
    if log is not None:
        _export_explain(log, args)
    if collector is not None:
        _export_telemetry(collector, args)
    return code


def _dispatch_simulate(args: argparse.Namespace) -> int:
    if args.trials:
        return _run_simulate_montecarlo(args)
    # Monte-Carlo-only flags must not be silently ignored either.
    if args.summary_csv is not None:
        raise SimulationError(
            "--summary-csv applies to Monte Carlo runs; add --trials N"
        )
    if args.jobs != 1 and args.shards is None:
        raise SimulationError(
            "--jobs applies to Monte Carlo runs or sharded attribution; "
            "add --trials N or --shards K"
        )
    if args.tenants:
        return _run_simulate_tenants(args)
    # Tenant-only flags must not be silently ignored: a user who types
    # --fair-slack but forgets --tenants would read an ordinary run as
    # a fairness-constrained one.
    if (
        args.fair_slack is not None
        or args.attribution is not None
        or args.slo_hours is not None
        or args.tenant_churn is not None
        or args.tenant_stay is not None
        or args.shards is not None
        or args.tenant_csv is not None
    ):
        raise SimulationError(
            "--attribution, --fair-slack, --slo-hours, --tenant-churn, "
            "--tenant-stay, --shards and --tenant-csv apply to "
            "multi-tenant runs; add --tenants N"
        )
    flags = _policy_flags(args)
    market = _simulate_market(args)
    builds = _build_config(args)
    if args.generator is not None:
        simulator = stochastic_sales_simulator(
            generator=args.generator,
            n_epochs=args.epochs,
            n_rows=args.rows,
            seed=args.seed,
            market=market,
            builds=builds,
        )
    else:
        simulator = drifting_sales_simulator(
            n_epochs=args.epochs, n_rows=args.rows, seed=args.seed,
            market=market,
            builds=builds,
        )
    ledgers = simulator.compare(_simulate_policies(args, flags))
    for ledger in ledgers.values():
        if args.quiet:
            print(ledger.summary())
        else:
            print(ledger.render())
            _print_ledger_cache(ledger)
            print()
    _print_cache_stats(simulator.builder)
    return 0


def _run_simulate_montecarlo(args: argparse.Namespace) -> int:
    if args.fair_slack is not None or args.slo_hours is not None:
        raise SimulationError(
            "--fair-slack and --slo-hours are not supported under "
            "--trials (scenario factories do not cross process "
            "boundaries); run single trials instead"
        )
    if args.shards is not None or args.tenant_csv is not None:
        raise SimulationError(
            "--shards and --tenant-csv apply to single sharded runs, "
            "not Monte Carlo; drop --trials"
        )
    if args.attribution is not None and not args.tenants:
        raise SimulationError(
            "--attribution applies to multi-tenant runs; add --tenants N"
        )
    churn = _tenant_churn(args)
    if churn is not None and not args.tenants:
        raise SimulationError(
            "--tenant-churn applies to multi-tenant runs; add --tenants N"
        )
    optimizer, horizon, hold = _policy_flags(args)
    builds = _build_config(args)
    arbitrage_knobs = (
        {
            "arbitrage": True,
            "migration_horizon": horizon,
            "migration_hold": hold,
        }
        if args.arbitrage
        else {}
    )
    names = POLICY_NAMES if args.policy == "all" else (args.policy,)
    config = MonteCarloConfig(
        generator=args.generator or "mixed",
        n_trials=args.trials,
        n_epochs=args.epochs,
        n_rows=args.rows,
        seed=args.seed,
        n_tenants=args.tenants,
        attribution=args.attribution or "proportional",
        tenant_churn=0.0 if churn is None else churn.arrival_rate,
        tenant_stay=(
            FleetChurn.mean_stay if churn is None else churn.mean_stay
        ),
        build_slots=0 if builds is None else builds.slots,
        build_discipline=(
            BuildConfig.discipline if builds is None else builds.discipline
        ),
        policies=tuple(
            PolicySpec(
                name,
                period=args.period,
                threshold=args.threshold,
                hysteresis=args.hysteresis,
                optimizer=optimizer,
                **arbitrage_knobs,
            )
            for name in names
        ),
    )
    result = run_monte_carlo(config, jobs=args.jobs)
    print(result.summary())
    if not args.quiet:
        print()
        for row in result.rows():
            print(",".join(row))
    if args.summary_csv is not None:
        result.to_csv(args.summary_csv)
        print(f"\nsummary csv written to {args.summary_csv}")
    return 0


def _run_simulate_tenants(args: argparse.Namespace) -> int:
    flags = _policy_flags(args)
    if args.tenant_csv is not None and args.policy == "all":
        raise SimulationError(
            "--tenant-csv writes one policy's per-tenant totals; name "
            "a single --policy"
        )
    market = _simulate_market(args)
    builds = _build_config(args)
    churn = _tenant_churn(args)
    if churn is not None or args.generator is not None:
        # Sampled drift: without --tenant-churn the fleet is fixed.
        simulator = elastic_multi_tenant_simulator(
            n_tenants=args.tenants,
            generator=args.generator or "mixed",
            churn=churn if churn is not None else FleetChurn(arrival_rate=0.0),
            n_epochs=args.epochs,
            n_rows=args.rows,
            seed=args.seed,
            attribution=args.attribution or "proportional",
            market=market,
            builds=builds,
        )
    else:
        simulator = multi_tenant_sales_simulator(
            n_tenants=args.tenants,
            n_epochs=args.epochs,
            n_rows=args.rows,
            seed=args.seed,
            attribution=args.attribution or "proportional",
            market=market,
            builds=builds,
        )
    factory = None
    if args.fair_slack is not None or args.slo_hours is not None:
        ceilings = None
        if args.slo_hours is not None:
            ceilings = {
                name: args.slo_hours
                for name in simulator.fleet.tenant_names
            }
        factory = simulator.fair_scenario_factory(
            max_share_slack=args.fair_slack,
            latency_ceilings=ceilings,
        )
    policies = _simulate_policies(args, flags, factory)
    print(
        f"fleet: {simulator.fleet.describe()}; "
        f"attribution: {simulator.attributor.describe()}\n"
    )
    # Without --shards the in-process route keeps every tenant record;
    # with it, the population-scale route streams them into totals.
    run = (
        simulator.run
        if args.shards is None
        else partial(simulator.run_sharded, shards=args.shards, jobs=args.jobs)
    )
    for books in compare_policies(run, policies).values():
        if args.quiet:
            print(books.summary())
        else:
            print(books.render())
            if args.shards is None:
                _print_ledger_cache(books.fleet)
            print()
        if args.tenant_csv is not None:
            with open(
                args.tenant_csv, "w", encoding="utf-8", newline="\n"
            ) as handle:
                handle.write(books.to_csv())
            print(f"tenant totals csv written to {args.tenant_csv}")
    _print_cache_stats(simulator.builder)
    return 0


def _run_explain(args: argparse.Namespace) -> int:
    entries = load_explain(args.log)
    if args.explain_command == "why-bill":
        print(why_bill(entries, args.epoch, tenant=args.tenant))
    elif args.explain_command == "why-reselect":
        print(why_reselect(entries, epoch=args.epoch))
    elif args.explain_command == "why-view":
        print(why_view(entries, args.view))
    else:  # diff
        print(diff_epochs(entries, args.from_epoch, args.to_epoch))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    try:
        if args.command == "simulate":
            return _run_simulate(args)
        if args.command == "explain":
            return _run_explain(args)
        if args.command == "list":
            for experiment_id in sorted(EXPERIMENTS):
                print(experiment_id)
            return 0
        if args.command == "run":
            tables = run_experiment(
                args.experiment, _context(args), csv_dir=args.csv_dir
            )
            for table in tables:
                print(table.render())
                print()
            return 0
        # args.command == "all"
        for experiment_id, tables in run_all(
            _context(args), csv_dir=args.csv_dir
        ).items():
            print(f"### {experiment_id}")
            for table in tables:
                print(table.render())
                print()
        return 0
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
