"""Monte Carlo policy evaluation: many sampled lifecycles, one verdict.

One stochastic trial answers "what did this policy cost in *that*
future"; a policy comparison needs the answer over the *distribution*
of futures.  :func:`run_monte_carlo` runs ``n_trials`` independent
lifecycle simulations — each trial samples its own drift timeline from
a per-trial child seed (:func:`~repro.simulate.stochastic.derive_seed`,
so trial *k* is the same future no matter how many trials run or in
what order) — and aggregates every policy's
:class:`~repro.simulate.ledger.SimulationLedger` /
:class:`~repro.simulate.ledger.FleetLedger` into per-metric
:class:`DistributionSummary`\\ s: mean, standard deviation and
quantiles of total cost, processing hours, churn, and regret against a
clairvoyant baseline that re-selects every epoch.

Trials are embarrassingly parallel and run through ``multiprocessing``
when ``jobs > 1``.  Because each trial is a pure function of
``(config, trial_index)``, the worker count can never change the
result: ``--jobs 1`` and ``--jobs 8`` produce byte-identical summary
CSVs — CI enforces exactly that.

Everything in a :class:`MonteCarloConfig` is a plain frozen dataclass
(policies are :class:`PolicySpec` value objects, generators are named
presets), so configs pickle cleanly into worker processes and a config
*is* the experiment's identity.
"""

from __future__ import annotations

import math
import multiprocessing
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .. import explain, telemetry
from ..errors import SimulationError
from ..money import Money
from ..optimizer.registry import OptimizerSpec
from .arbitrage import ArbitrageAware
from .builds import BUILD_DISCIPLINES, BuildConfig
from .ledger import SimulationLedger
from .policy import POLICY_NAMES, ReselectionPolicy, make_policy
from .presets import (
    default_market,
    elastic_multi_tenant_simulator,
    stochastic_sales_simulator,
)
from .stochastic import FleetChurn, derive_seed, generator_preset

__all__ = [
    "CLAIRVOYANT",
    "DistributionSummary",
    "MonteCarloConfig",
    "MonteCarloResult",
    "PolicySpec",
    "TrialOutcome",
    "run_monte_carlo",
    "run_trial",
]

#: Row label of the clairvoyant baseline (re-select every epoch).
CLAIRVOYANT = "clairvoyant"


@dataclass(frozen=True)
class PolicySpec:
    """A picklable recipe for a re-selection policy.

    Worker processes cannot receive live policy objects (policies may
    close over scenario factories), so the harness ships the recipe
    and builds the policy inside each trial.

    ``arbitrage=True`` wraps the policy in
    :class:`~repro.simulate.arbitrage.ArbitrageAware` (with
    ``migration_horizon`` / ``migration_hold``), and makes every trial
    of the config quote the multi-provider market — so an arbitrage
    spec and its stay-put twin compare over identical worlds.

    ``optimizer`` is a frozen
    :class:`~repro.optimizer.registry.OptimizerSpec` carrying the
    algorithm *and* its knobs (budgets, seeds, beam widths), which
    pickles into workers like every other field; ``None`` selects
    greedy.
    """

    name: str
    period: int = 4
    threshold: float = 0.05
    hysteresis: int = 1
    arbitrage: bool = False
    migration_horizon: int = 6
    migration_hold: int = 2
    optimizer: Optional[OptimizerSpec] = None

    def __post_init__(self) -> None:
        if self.name not in POLICY_NAMES:
            raise SimulationError(
                f"unknown policy {self.name!r}; choose from {POLICY_NAMES}"
            )
        if self.migration_horizon < 1:
            raise SimulationError(
                f"migration_horizon must be >= 1, got {self.migration_horizon}"
            )
        if self.migration_hold < 1:
            raise SimulationError(
                f"migration_hold must be >= 1, got {self.migration_hold}"
            )

    def build(self) -> ReselectionPolicy:
        """A fresh policy instance for one trial."""
        policy = make_policy(
            self.name,
            period=self.period,
            threshold=self.threshold,
            hysteresis=self.hysteresis,
            optimizer=self.optimizer,
        )
        if self.arbitrage:
            return ArbitrageAware(
                policy,
                horizon=self.migration_horizon,
                hysteresis=self.migration_hold,
            )
        return policy

    def label(self) -> str:
        """The result-row label (the built policy's describe())."""
        return self.build().describe()


def _default_policies() -> Tuple[PolicySpec, ...]:
    return (
        PolicySpec("never"),
        PolicySpec("periodic"),
        PolicySpec("regret"),
    )


@dataclass(frozen=True)
class MonteCarloConfig:
    """One Monte Carlo experiment's full identity.

    ``seed`` fixes the starting world (dataset) shared by every trial;
    trial *k* samples its drift from ``derive_seed(seed, "trial:k")``.
    ``n_tenants = 0`` runs single-warehouse lifecycles; with tenants,
    every trial runs the multi-tenant simulator and per-tenant
    attributed totals join the aggregated metrics.
    """

    generator: str = "mixed"
    n_trials: int = 16
    n_epochs: int = 12
    n_rows: int = 20_000
    seed: int = 42
    dataset_gb: float = 10.0
    n_tenants: int = 0
    attribution: str = "proportional"
    #: Expected tenant arrivals per epoch (Poisson); ``0`` keeps the
    #: fleet fixed.  Requires ``n_tenants >= 1`` (founders anchor the
    #: warehouse).  Each trial resamples the fleet trajectory from its
    #: drift seed, so churn is part of the sampled future.
    tenant_churn: float = 0.0
    #: Expected churned-tenant stay in epochs (exponential).
    tenant_stay: float = FleetChurn.mean_stay
    policies: Tuple[PolicySpec, ...] = field(
        default_factory=_default_policies
    )
    #: Build-queue concurrency for the trials' simulators; 0 keeps the
    #: classic synchronous execution (a decided view is a live view).
    build_slots: int = 0
    #: Scheduling discipline when ``build_slots >= 1``.
    build_discipline: str = BuildConfig.discipline

    def __post_init__(self) -> None:
        generator_preset(self.generator)  # fail fast on unknown presets
        if self.build_slots < 0:
            raise SimulationError(
                f"build_slots cannot be negative, got {self.build_slots}"
            )
        if self.build_discipline not in BUILD_DISCIPLINES:
            raise SimulationError(
                f"unknown build discipline {self.build_discipline!r}; "
                f"choose from {BUILD_DISCIPLINES}"
            )
        if self.n_trials < 1:
            raise SimulationError(
                f"a Monte Carlo run needs >= 1 trial, got {self.n_trials}"
            )
        if self.n_tenants < 0:
            raise SimulationError(
                f"n_tenants cannot be negative, got {self.n_tenants}"
            )
        if self.tenant_churn < 0:
            raise SimulationError(
                f"tenant_churn cannot be negative, got {self.tenant_churn}"
            )
        if self.tenant_stay <= 0:
            raise SimulationError(
                f"tenant_stay must be positive epochs, got {self.tenant_stay}"
            )
        if self.tenant_churn and not self.n_tenants:
            raise SimulationError(
                "tenant_churn needs a multi-tenant config (n_tenants >= 1): "
                "founding tenants anchor the warehouse the churned "
                "tenants join"
            )
        if not self.policies:
            raise SimulationError("compare at least one policy")
        labels = [spec.label() for spec in self.policies]
        if len(set(labels)) != len(labels):
            raise SimulationError(
                f"two policy specs describe identically: {labels}; give "
                "them distinct parameters"
            )
        if CLAIRVOYANT in labels:
            raise SimulationError(
                f"{CLAIRVOYANT!r} names the built-in baseline row"
            )

    @property
    def quotes_market(self) -> bool:
        """Whether trials quote the multi-provider market.

        True as soon as any policy spec is arbitrage-aware.  The
        market is quoted for *every* policy of the config (it is inert
        to non-arbitrage policies), so stay-put and arbitrage rows
        describe the same sampled worlds.
        """
        return any(spec.arbitrage for spec in self.policies)

    @property
    def builds(self) -> "BuildConfig | None":
        """The trials' build-queue configuration (``None`` = sync)."""
        if not self.build_slots:
            return None
        return BuildConfig(
            slots=self.build_slots, discipline=self.build_discipline
        )

    def labels(self) -> Tuple[str, ...]:
        """Result-row labels: the policies, then the baseline."""
        return tuple(s.label() for s in self.policies) + (CLAIRVOYANT,)

    def trial_seed(self, trial: int) -> int:
        """The drift seed trial ``trial`` samples its future from."""
        return derive_seed(self.seed, f"trial:{trial}")


@dataclass(frozen=True)
class TrialOutcome:
    """One policy's ledger totals in one sampled future."""

    trial: int
    policy: str
    total_cost: Money
    build_cost: Money
    teardown_cost: Money
    hours: float
    rebuilds: int
    teardowns: int
    reoptimizations: int
    #: Relative lifetime-cost gap to the clairvoyant baseline in the
    #: same future (0.0 for the baseline itself).
    regret: float
    #: Attributed per-tenant lifetime totals (multi-tenant runs only).
    tenant_costs: Tuple[Tuple[str, Money], ...] = ()
    #: Provider switches fired over the lifetime (arbitrage runs).
    migrations: int = 0
    #: Lifetime migration transfer charges.
    migration_cost: Money = Money(0)
    #: Lifetime sunk compute of cancelled builds (async runs).
    cancelled_cost: Money = Money(0)
    #: Lifetime submit-to-landing wall-clock months (async runs).
    build_latency_months: float = 0.0
    #: Tenant arrivals billed over the lifetime (elastic runs).
    arrivals: int = 0
    #: Tenant departures settled over the lifetime (elastic runs).
    departures: int = 0


def _outcome(
    trial: int,
    label: str,
    ledger: SimulationLedger,
    clairvoyant_cost: Money,
    tenant_costs: Tuple[Tuple[str, Money], ...] = (),
) -> TrialOutcome:
    if clairvoyant_cost == Money(0):
        regret = 0.0 if ledger.total_cost == Money(0) else float("inf")
    else:
        regret = ledger.total_cost.ratio_to(clairvoyant_cost) - 1.0
    return TrialOutcome(
        trial=trial,
        policy=label,
        total_cost=ledger.total_cost,
        build_cost=ledger.total_build_cost,
        teardown_cost=ledger.total_teardown_cost,
        hours=ledger.total_hours,
        rebuilds=ledger.rebuild_count,
        teardowns=ledger.teardown_count,
        reoptimizations=ledger.reoptimization_count,
        regret=regret,
        tenant_costs=tenant_costs,
        migrations=ledger.migration_count,
        migration_cost=ledger.total_migration_cost,
        cancelled_cost=ledger.total_cancelled_cost,
        build_latency_months=ledger.total_build_latency_months,
        arrivals=ledger.arrival_count,
        departures=ledger.departure_count,
    )


def run_trial(config: MonteCarloConfig, trial: int) -> Tuple[TrialOutcome, ...]:
    """One trial: one sampled future, every policy plus the baseline.

    Pure in ``(config, trial)`` — the property the ``--jobs``
    determinism guarantee rests on.  All policies (and the clairvoyant
    baseline) run over *one* simulator, so the trial's subset pricings
    are shared through its problem cache.
    """
    if not 0 <= trial < config.n_trials:
        raise SimulationError(
            f"trial index {trial} outside [0, {config.n_trials})"
        )
    drift_seed = config.trial_seed(trial)
    market = default_market() if config.quotes_market else None
    builds = config.builds
    if config.n_tenants:
        simulator = elastic_multi_tenant_simulator(
            n_tenants=config.n_tenants,
            generator=config.generator,
            churn=FleetChurn(config.tenant_churn, config.tenant_stay),
            n_epochs=config.n_epochs,
            n_rows=config.n_rows,
            seed=config.seed,
            drift_seed=drift_seed,
            dataset_gb=config.dataset_gb,
            attribution=config.attribution,
            market=market,
            builds=builds,
        )
        # Under churn the sampled tenants differ per trial, so
        # per-tenant metric columns cover only the founding tenants —
        # the names every trial shares.
        reported = simulator.fleet.tenant_names[: config.n_tenants]

        def run(policy):
            fleet_ledger = simulator.run(policy)
            tenant_costs = tuple(
                (name, fleet_ledger.tenant(name).total_cost)
                for name in reported
            )
            return fleet_ledger.fleet, tenant_costs
    else:
        simulator = stochastic_sales_simulator(
            generator=config.generator,
            n_epochs=config.n_epochs,
            n_rows=config.n_rows,
            seed=config.seed,
            drift_seed=drift_seed,
            dataset_gb=config.dataset_gb,
            market=market,
            builds=builds,
        )

        def run(policy):
            return simulator.run(policy), ()

    ledgers = [(spec.label(), *run(spec.build())) for spec in config.policies]
    clairvoyant, clairvoyant_tenants = run(
        make_policy("periodic", period=1)
    )
    outcomes = [
        _outcome(trial, label, ledger, clairvoyant.total_cost, tenants)
        for label, ledger, tenants in ledgers
    ]
    outcomes.append(
        _outcome(
            trial,
            CLAIRVOYANT,
            clairvoyant,
            clairvoyant.total_cost,
            clairvoyant_tenants,
        )
    )
    return tuple(outcomes)


def _trial_with_snapshot(
    config: MonteCarloConfig,
    trial: int,
    collect: bool,
    collect_explain: bool,
):
    """Run one trial under fresh telemetry/explain collectors.

    Returns ``(outcomes, snapshot, explain_snapshot)``: the trial's
    registry and explain-log snapshots, each ``None`` when its
    collection flag is false and the layer's ``NULL`` ran the trial.
    Every trial — serial or pooled — records into *fresh* collectors
    whose snapshots the parent merges in trial order, so the merged
    telemetry and the merged provenance are byte-identical for any
    ``jobs``: the serial path must not write straight into the parent
    collectors, or its fold order would differ from the pooled path's.
    The flags travel as arguments rather than being read ambiently so
    spawn-start pools (whose workers reset the ambient objects to the
    no-op singletons) behave exactly like fork-start ones.

    Order matters: the registry snapshot is taken inside the telemetry
    scope, the log's after that scope closes.  Pricing done while the
    log resolves its deferred records therefore lands in the caller's
    collector (at ``jobs=1``; a worker's is discarded), so with both
    layers on the merged metrics still depend on ``jobs``.  Taking the
    log's snapshot first removes that and moves the pinned metrics.
    """
    with explain.activate(
        explain.ExplainLog() if collect_explain else explain.NULL
    ) as log:
        with telemetry.activate(
            telemetry.Telemetry() if collect else telemetry.NULL
        ) as collector:
            with collector.span("montecarlo.trial", trial=trial):
                outcomes = run_trial(config, trial)
            collector.inc("montecarlo.trials")
            collector.inc("montecarlo.outcomes", len(outcomes))
            snapshot = collector.snapshot()
        explain_snapshot = log.snapshot()
    return outcomes, snapshot, explain_snapshot


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def _quantile(ordered: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile of an already-sorted sequence."""
    if not ordered:
        raise SimulationError("quantile of an empty sample")
    position = q * (len(ordered) - 1)
    below = math.floor(position)
    above = min(below + 1, len(ordered) - 1)
    weight = position - below
    return ordered[below] * (1.0 - weight) + ordered[above] * weight


@dataclass(frozen=True)
class DistributionSummary:
    """A sample's descriptive statistics (sample stdev, n-1)."""

    n: int
    mean: float
    stdev: float
    minimum: float
    p10: float
    median: float
    p90: float
    maximum: float

    @classmethod
    def from_values(cls, values: Sequence[float]) -> "DistributionSummary":
        """Summarize a non-empty sample."""
        if not values:
            raise SimulationError("cannot summarize an empty sample")
        ordered = sorted(values)
        n = len(ordered)
        mean = sum(ordered) / n
        if n > 1:
            stdev = math.sqrt(
                sum((v - mean) ** 2 for v in ordered) / (n - 1)
            )
        else:
            stdev = 0.0
        return cls(
            n=n,
            mean=mean,
            stdev=stdev,
            minimum=ordered[0],
            p10=_quantile(ordered, 0.10),
            median=_quantile(ordered, 0.50),
            p90=_quantile(ordered, 0.90),
            maximum=ordered[-1],
        )

    def describe(self) -> str:
        """``mean±stdev [p10 p50 p90]`` in compact form."""
        return (
            f"{self.mean:.4g}±{self.stdev:.3g} "
            f"[{self.p10:.4g} {self.median:.4g} {self.p90:.4g}]"
        )


#: Metric name -> extractor, in CSV column order.
_METRICS: Tuple[Tuple[str, Callable[[TrialOutcome], float]], ...] = (
    ("total_cost", lambda o: o.total_cost.to_float()),
    ("build_cost", lambda o: o.build_cost.to_float()),
    ("teardown_cost", lambda o: o.teardown_cost.to_float()),
    ("hours", lambda o: o.hours),
    ("rebuilds", lambda o: float(o.rebuilds)),
    ("teardowns", lambda o: float(o.teardowns)),
    ("reoptimizations", lambda o: float(o.reoptimizations)),
    ("regret", lambda o: o.regret),
    ("migrations", lambda o: float(o.migrations)),
    ("migration_cost", lambda o: o.migration_cost.to_float()),
    ("cancelled_cost", lambda o: o.cancelled_cost.to_float()),
    ("build_latency_months", lambda o: o.build_latency_months),
)

#: Elastic-fleet metrics, appended only when the config churns tenants
#: so churn-free configs keep their exact pre-elastic CSV columns.
_CHURN_METRICS: Tuple[Tuple[str, Callable[[TrialOutcome], float]], ...] = (
    ("arrivals", lambda o: float(o.arrivals)),
    ("departures", lambda o: float(o.departures)),
)


class MonteCarloResult:
    """Aggregated trial outcomes, queryable per policy and metric."""

    def __init__(
        self, config: MonteCarloConfig, outcomes: Sequence[TrialOutcome]
    ) -> None:
        expected = config.n_trials * len(config.labels())
        if len(outcomes) != expected:
            raise SimulationError(
                f"{len(outcomes)} outcomes for {config.n_trials} trials "
                f"x {len(config.labels())} policies (expected {expected})"
            )
        self._config = config
        self._outcomes = tuple(outcomes)
        self._by_policy: Dict[str, List[TrialOutcome]] = {
            label: [] for label in config.labels()
        }
        for outcome in self._outcomes:
            self._by_policy[outcome.policy].append(outcome)
        for label, rows in self._by_policy.items():
            rows.sort(key=lambda o: o.trial)

    # -- access ---------------------------------------------------------

    @property
    def config(self) -> MonteCarloConfig:
        """The experiment this result answers."""
        return self._config

    @property
    def outcomes(self) -> Tuple[TrialOutcome, ...]:
        """Every (trial, policy) outcome."""
        return self._outcomes

    @property
    def policies(self) -> Tuple[str, ...]:
        """Result-row labels, config order then the baseline."""
        return self._config.labels()

    def metric_names(self) -> Tuple[str, ...]:
        """Aggregated metrics, in CSV order (tenant totals last)."""
        names = [name for name, _ in _METRICS]
        if self._config.tenant_churn:
            names += [name for name, _ in _CHURN_METRICS]
        if self._config.n_tenants:
            sample = self._by_policy[self.policies[0]][0]
            names += [
                f"tenant_total_cost[{tenant}]"
                for tenant, _ in sample.tenant_costs
            ]
        return tuple(names)

    def metric(self, policy: str, metric: str) -> DistributionSummary:
        """The distribution of ``metric`` under ``policy``."""
        try:
            rows = self._by_policy[policy]
        except KeyError:
            raise SimulationError(
                f"no policy {policy!r}; rows are {list(self.policies)}"
            ) from None
        for name, extract in (*_METRICS, *_CHURN_METRICS):
            if name == metric:
                return DistributionSummary.from_values(
                    [extract(o) for o in rows]
                )
        if metric.startswith("tenant_total_cost[") and metric.endswith("]"):
            tenant = metric[len("tenant_total_cost["):-1]
            values = [
                cost.to_float()
                for o in rows
                for name, cost in o.tenant_costs
                if name == tenant
            ]
            if values:
                return DistributionSummary.from_values(values)
        raise SimulationError(
            f"unknown metric {metric!r}; metrics are "
            f"{list(self.metric_names())}"
        )

    # -- display --------------------------------------------------------

    def rows(self) -> List[Tuple[str, ...]]:
        """Deterministic CSV rows: one per (policy, metric)."""
        header = (
            "policy", "metric", "n", "mean", "stdev",
            "min", "p10", "median", "p90", "max",
        )
        out: List[Tuple[str, ...]] = [header]
        for policy in self.policies:
            for metric in self.metric_names():
                s = self.metric(policy, metric)
                out.append(
                    (
                        policy,
                        metric,
                        str(s.n),
                        *(
                            format(v, ".12g")
                            for v in (
                                s.mean, s.stdev, s.minimum,
                                s.p10, s.median, s.p90, s.maximum,
                            )
                        ),
                    )
                )
        return out

    def to_csv(self, path) -> None:
        """Write the summary CSV (byte-stable for a given config)."""
        lines = [",".join(row) for row in self.rows()]
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write("\n".join(lines) + "\n")

    def summary(self) -> str:
        """One line per policy: cost and regret distributions."""
        lines = [
            f"{self._config.n_trials} trials x "
            f"{self._config.n_epochs} epochs, "
            f"generator={self._config.generator}, "
            f"seed={self._config.seed}"
            + (
                f", tenants={self._config.n_tenants}"
                f" ({self._config.attribution})"
                if self._config.n_tenants
                else ""
            )
            + (
                f", churn={self._config.tenant_churn:g}/epoch"
                f" (stay {self._config.tenant_stay:g})"
                if self._config.tenant_churn
                else ""
            )
            + (
                f", builds={self._config.build_slots}x"
                f" {self._config.build_discipline}"
                if self._config.build_slots
                else ""
            )
        ]
        for policy in self.policies:
            cost = self.metric(policy, "total_cost")
            regret = self.metric(policy, "regret")
            churn = self.metric(policy, "rebuilds")
            migrations = ""
            if self._config.quotes_market:
                moved = self.metric(policy, "migrations")
                migrations = f"  migrations {moved.mean:.1f}"
            lines.append(
                f"{policy:<22} cost ${cost.mean:,.2f}±{cost.stdev:,.2f} "
                f"[p10 ${cost.p10:,.2f} p90 ${cost.p90:,.2f}]  "
                f"regret {regret.mean:+.2%} (p90 {regret.p90:+.2%})  "
                f"rebuilds {churn.mean:.1f}"
                + migrations
            )
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# The harness
# ---------------------------------------------------------------------------


def _pool_context():
    """Fork where available (cheap), spawn otherwise (Windows/macOS)."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


def run_monte_carlo(config: MonteCarloConfig, jobs: int = 1) -> MonteCarloResult:
    """Run every trial and aggregate — identically for any ``jobs``.

    ``jobs`` bounds worker processes (clamped to the trial count);
    results are collected in trial order whatever the completion
    order, so parallelism can never reorder the aggregation.
    """
    if jobs < 1:
        raise SimulationError(f"jobs must be >= 1, got {jobs}")
    collector = telemetry.current()
    log = explain.current()
    collect = collector.enabled
    collect_explain = log.enabled
    trials = range(config.n_trials)
    if jobs == 1 or config.n_trials == 1:
        bundles = []
        for trial in trials:
            bundles.append(
                _trial_with_snapshot(config, trial, collect, collect_explain)
            )
    else:
        with _pool_context().Pool(min(jobs, config.n_trials)) as pool:
            bundles = pool.starmap(
                _trial_with_snapshot,
                [
                    (config, trial, collect, collect_explain)
                    for trial in trials
                ],
            )
    # Fold the per-trial snapshots in trial order — the one order both
    # execution paths share — so the merged telemetry and provenance
    # are byte-identical whatever the worker count.  Explain entries
    # are stamped with their trial index.
    flat = []
    for trial, (outcomes, snapshot, explain_snapshot) in zip(trials, bundles):
        collector.merge(snapshot)
        log.merge(explain_snapshot, trial=trial)
        flat.extend(outcomes)
    return MonteCarloResult(config, flat)
