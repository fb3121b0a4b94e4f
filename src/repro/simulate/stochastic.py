"""Seeded stochastic drift: event-stream generators over the timeline.

The deterministic :class:`~repro.simulate.events.EventTimeline` replays
one hand-written future.  The generators here sample *families* of
futures — Poisson query arrival and churn, seasonal frequency waves,
geometric fact-table growth, spot-price random walks — and compile
each sample down to the same deterministic timeline the simulator
already runs.  Stochasticity lives entirely in the compilation step:
given a seed, :func:`compile_timeline` always produces the identical
:class:`EventTimeline`, so a Monte Carlo trial is reproducible from
``(scenario, seed)`` alone and parallel trials cannot race.

Two scopes of drift (mirroring the tenant/fleet split in
:mod:`repro.simulate.tenants`):

* ``workload`` generators (:class:`PoissonQueryChurn`,
  :class:`SeasonalWave`) emit query events and may be attached to a
  single tenant;
* ``warehouse`` generators (:class:`GeometricGrowth`,
  :class:`SpotPriceWalk`) mutate the shared world and belong to the
  fleet.

Seeding is hierarchical and hash-based (:func:`derive_seed`): every
generator draws from its own child stream, so adding a generator to a
scenario never perturbs the samples of the others, and per-trial child
seeds in :mod:`repro.simulate.montecarlo` are stable across platforms
and Python versions (``hashlib``, not ``hash()``).
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, replace
from typing import Dict, List, Sequence, Tuple

from ..errors import SimulationError
from ..pricing.providers import Provider
from ..workload.query import AggregateQuery
from ..workload.workload import Workload
from .events import (
    AddQueries,
    DropQueries,
    EventTimeline,
    GrowFactTable,
    MarketReprice,
    ReweightQueries,
    SimulationEvent,
)

__all__ = [
    "DriftGenerator",
    "FleetChurn",
    "GENERATOR_PRESETS",
    "GeneratorContext",
    "GeometricGrowth",
    "PoissonQueryChurn",
    "SeasonalWave",
    "SpotPriceWalk",
    "TenantLifecycle",
    "compile_timeline",
    "derive_seed",
    "generator_preset",
    "sample_fleet_churn",
    "split_by_scope",
    "spot_repriced",
]


def derive_seed(seed: int, label: str) -> int:
    """A stable child seed for ``label`` under ``seed``.

    Hash-based (SHA-256) rather than ``hash()``-based so the derivation
    is identical across processes, platforms and Python versions —
    the property the Monte Carlo harness's ``--jobs`` determinism
    guarantee rests on.
    """
    digest = hashlib.sha256(f"{seed}/{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def _poisson(rng: random.Random, rate: float) -> int:
    """One Poisson(``rate``) draw (Knuth's product-of-uniforms)."""
    if rate <= 0:
        return 0
    bound = math.exp(-rate)
    count = 0
    product = rng.random()
    while product > bound:
        count += 1
        product *= rng.random()
    return count


def spot_repriced(provider: Provider, multiplier: float) -> Provider:
    """``provider`` with every compute rate scaled by ``multiplier``.

    Models a spot/market reprice: storage and transfer books are kept
    (those prices move on different clocks), only instance-hours move.
    The provider name records the multiplier for ledgers; a book is
    compared by every rate, not by name, so two walks that happen to
    print the same rounded name still price distinctly.
    """
    if multiplier <= 0:
        raise SimulationError(
            f"a price multiplier must be positive, got {multiplier}"
        )
    compute = provider.compute
    scaled = replace(
        compute,
        types=[
            replace(itype, hourly_rate=itype.hourly_rate * multiplier)
            for itype in compute.types
        ],
    )
    return replace(
        provider,
        name=f"{provider.name}~x{multiplier:.3f}",
        compute=scaled,
    )


@dataclass(frozen=True)
class GeneratorContext:
    """Everything a generator may condition its samples on.

    ``base_workload`` is the workload the simulation *starts* from
    (seasonal waves modulate its frequencies; churn must not collide
    with its names); ``provider`` is the price book spot walks reprice.
    """

    schema: object
    base_workload: Workload
    provider: Provider
    n_epochs: int

    def __post_init__(self) -> None:
        if self.n_epochs < 2:
            raise SimulationError(
                "stochastic drift needs at least 2 epochs (epoch 0 is "
                f"the baseline selection), got {self.n_epochs}"
            )


@dataclass(frozen=True)
class DriftGenerator:
    """Base generator: samples a stream of events from a seeded RNG.

    ``scope`` declares what the events touch — ``"workload"`` streams
    can be attached to one tenant, ``"warehouse"`` streams belong to
    the shared world (see :func:`split_by_scope`).
    """

    scope = "warehouse"

    def events(
        self, rng: random.Random, context: GeneratorContext
    ) -> List[SimulationEvent]:
        """The sampled event stream (epochs in ``[1, n_epochs)``)."""
        raise NotImplementedError

    def describe(self) -> str:
        """Short display form for CLI output and logs."""
        return type(self).__name__


@dataclass(frozen=True)
class PoissonQueryChurn(DriftGenerator):
    """Queries arrive Poisson per epoch and churn out geometrically.

    Each epoch draws ``Poisson(arrival_rate)`` new ad-hoc queries at
    uniformly sampled (non-apex) grains with a uniform frequency in
    ``[frequency_low, frequency_high]``; each arrival lives an
    exponential number of epochs (mean ``mean_lifetime``) and is then
    dropped.  Arrivals are named ``{prefix}{n}`` — give two churn
    generators in one scenario distinct prefixes.
    """

    scope = "workload"

    arrival_rate: float = 0.8
    mean_lifetime: float = 6.0
    frequency_low: float = 1.0
    frequency_high: float = 4.0
    prefix: str = "S"

    def __post_init__(self) -> None:
        if self.arrival_rate < 0:
            raise SimulationError("arrival_rate cannot be negative")
        if self.mean_lifetime <= 0:
            raise SimulationError("mean_lifetime must be positive")
        if not 0 < self.frequency_low <= self.frequency_high:
            raise SimulationError(
                "need 0 < frequency_low <= frequency_high, got "
                f"[{self.frequency_low}, {self.frequency_high}]"
            )
        if not self.prefix:
            raise SimulationError("arrivals need a non-empty name prefix")

    def _random_grain(self, rng: random.Random, schema) -> Tuple[str, ...]:
        while True:
            grain = tuple(
                rng.choice(dim.hierarchy.levels_with_all)
                for dim in schema.dimensions
            )
            if grain != schema.apex_grain:
                return grain

    def events(
        self, rng: random.Random, context: GeneratorContext
    ) -> List[SimulationEvent]:
        """Sampled arrivals and their scheduled departures."""
        taken = {q.name for q in context.base_workload}
        arrivals: Dict[int, List[AggregateQuery]] = {}
        departures: Dict[int, List[str]] = {}
        serial = 0
        for epoch in range(1, context.n_epochs):
            for _ in range(_poisson(rng, self.arrival_rate)):
                serial += 1
                name = f"{self.prefix}{serial}"
                if name in taken:
                    raise SimulationError(
                        f"arrival name {name!r} collides with the base "
                        f"workload; pick a different prefix than "
                        f"{self.prefix!r}"
                    )
                query = AggregateQuery(
                    name,
                    context.schema.validate_grain(
                        self._random_grain(rng, context.schema)
                    ),
                    frequency=rng.uniform(
                        self.frequency_low, self.frequency_high
                    ),
                )
                arrivals.setdefault(epoch, []).append(query)
                lifetime = max(
                    1, round(rng.expovariate(1.0 / self.mean_lifetime))
                )
                if epoch + lifetime < context.n_epochs:
                    departures.setdefault(epoch + lifetime, []).append(name)
        events: List[SimulationEvent] = []
        for epoch in sorted(set(arrivals) | set(departures)):
            # Departures fire before arrivals so one epoch's churn
            # never grows the workload just to shrink it again.
            if epoch in departures:
                events.append(
                    DropQueries(epoch=epoch, names=tuple(departures[epoch]))
                )
            if epoch in arrivals:
                events.append(
                    AddQueries(epoch=epoch, queries=tuple(arrivals[epoch]))
                )
        return events

    def describe(self) -> str:
        """``poisson-churn(rate, mean life)``."""
        return (
            f"poisson-churn(λ={self.arrival_rate:g}, "
            f"life~{self.mean_lifetime:g})"
        )


@dataclass(frozen=True)
class SeasonalWave(DriftGenerator):
    """The base workload's frequencies ride a (jittered) seasonal wave.

    Epoch *e* reweights every base query to ``base_frequency x
    (1 + amplitude x sin(2 pi (e + phase) / period))``, with an optional
    multiplicative jitter drawn per epoch — the demand seasonality that
    makes a static selection alternately over- and under-provisioned.
    """

    scope = "workload"

    period: float = 12.0
    amplitude: float = 0.5
    phase: float = 0.0
    jitter: float = 0.1

    def __post_init__(self) -> None:
        if self.period <= 0:
            raise SimulationError("the seasonal period must be positive")
        if not 0 <= self.amplitude < 1:
            raise SimulationError(
                f"amplitude must be in [0, 1), got {self.amplitude} "
                "(>= 1 would drive frequencies non-positive)"
            )
        if not 0 <= self.jitter < 1:
            raise SimulationError(
                f"jitter must be in [0, 1), got {self.jitter}"
            )

    def events(
        self, rng: random.Random, context: GeneratorContext
    ) -> List[SimulationEvent]:
        """One ``ReweightQueries`` per epoch, riding the wave."""
        base = [(q.name, q.frequency) for q in context.base_workload]
        events: List[SimulationEvent] = []
        for epoch in range(1, context.n_epochs):
            wave = 1.0 + self.amplitude * math.sin(
                2.0 * math.pi * (epoch + self.phase) / self.period
            )
            noise = 1.0 + rng.uniform(-self.jitter, self.jitter)
            factor = wave * noise
            events.append(
                ReweightQueries(
                    epoch=epoch,
                    frequencies=tuple(
                        (name, frequency * factor)
                        for name, frequency in base
                    ),
                )
            )
        return events

    def describe(self) -> str:
        """``seasonal(period, +/-amplitude)``."""
        return f"seasonal(T={self.period:g}, ±{self.amplitude:g})"


@dataclass(frozen=True)
class GeometricGrowth(DriftGenerator):
    """The fact table compounds: lognormal growth shocks per epoch.

    Epoch factors are ``exp(N(ln(1 + monthly_rate), sigma))``, clamped
    to ``[min_factor, max_factor]`` — steady data landing with noisy
    months, occasionally a purge when sigma dwarfs the drift.
    """

    monthly_rate: float = 0.03
    sigma: float = 0.02
    min_factor: float = 0.5
    max_factor: float = 2.0

    def __post_init__(self) -> None:
        if self.monthly_rate <= -1:
            raise SimulationError(
                "monthly_rate must stay above -100% (the table cannot "
                f"lose everything), got {self.monthly_rate}"
            )
        if self.sigma < 0:
            raise SimulationError("sigma cannot be negative")
        if not 0 < self.min_factor <= self.max_factor:
            raise SimulationError(
                "need 0 < min_factor <= max_factor, got "
                f"[{self.min_factor}, {self.max_factor}]"
            )

    def events(
        self, rng: random.Random, context: GeneratorContext
    ) -> List[SimulationEvent]:
        """One (clamped) lognormal ``GrowFactTable`` per epoch."""
        mu = math.log1p(self.monthly_rate)
        events: List[SimulationEvent] = []
        for epoch in range(1, context.n_epochs):
            factor = min(
                self.max_factor,
                max(self.min_factor, rng.lognormvariate(mu, self.sigma)),
            )
            if abs(factor - 1.0) > 1e-12:
                events.append(GrowFactTable(epoch=epoch, factor=factor))
        return events

    def describe(self) -> str:
        """``growth(rate, sigma)``."""
        return (
            f"growth({self.monthly_rate:+.1%}/epoch, "
            f"σ={self.sigma:g})"
        )


@dataclass(frozen=True)
class SpotPriceWalk(DriftGenerator):
    """Compute rates follow a clamped geometric random walk.

    The walk multiplies the *base* provider's instance-hour rates by a
    multiplier that moves ``exp(N(0, volatility))`` per epoch, clamped
    to ``[floor, ceiling]`` — a spot-market price process.  Every step
    emits a :class:`MarketReprice` carrying the repriced book (see
    :func:`spot_repriced`): the quote moves the warehouse only while
    it is on the walked provider's family, so a warehouse that
    migrated away keeps seeing the quote in its market without being
    yanked back.
    """

    volatility: float = 0.08
    floor: float = 0.5
    ceiling: float = 2.0

    def __post_init__(self) -> None:
        if self.volatility < 0:
            raise SimulationError("volatility cannot be negative")
        if not 0 < self.floor <= 1 <= self.ceiling:
            raise SimulationError(
                "the walk starts at 1.0, so need 0 < floor <= 1 <= "
                f"ceiling, got [{self.floor}, {self.ceiling}]"
            )

    def events(
        self, rng: random.Random, context: GeneratorContext
    ) -> List[SimulationEvent]:
        """The walk, one ``MarketReprice`` per moved epoch."""
        multiplier = 1.0
        events: List[SimulationEvent] = []
        for epoch in range(1, context.n_epochs):
            step = math.exp(rng.normalvariate(0.0, self.volatility))
            moved = min(self.ceiling, max(self.floor, multiplier * step))
            if abs(moved - multiplier) <= 1e-12:
                continue
            multiplier = moved
            events.append(
                MarketReprice(
                    epoch=epoch,
                    provider=spot_repriced(context.provider, multiplier),
                )
            )
        return events

    def describe(self) -> str:
        """``spot-walk(volatility, [floor, ceiling])``."""
        return (
            f"spot-walk(σ={self.volatility:g}, "
            f"[{self.floor:g}, {self.ceiling:g}])"
        )


def compile_timeline(
    generators: Sequence[DriftGenerator],
    seed: int,
    context: GeneratorContext,
) -> EventTimeline:
    """Sample every generator and compile one deterministic timeline.

    Each generator draws from its own child stream
    (``derive_seed(seed, "gen:<index>")``), so the samples of one are
    independent of the presence — and draw counts — of the others.
    Events are merged stably by epoch: within an epoch, generator
    order is preserved, which fixes the event application order the
    simulator will replay.
    """
    merged: List[SimulationEvent] = []
    for index, generator in enumerate(generators):
        rng = random.Random(derive_seed(seed, f"gen:{index}"))
        merged.extend(generator.events(rng, context))
    merged.sort(key=lambda event: event.epoch)
    timeline = EventTimeline(merged)
    timeline.check_within(context.n_epochs)
    return timeline


def split_by_scope(
    generators: Sequence[DriftGenerator],
) -> Tuple[Tuple[DriftGenerator, ...], Tuple[DriftGenerator, ...]]:
    """``(workload_generators, warehouse_generators)``, order kept.

    Multi-tenant scenarios attach workload-scoped streams to each
    tenant (namespaced query names) and run warehouse-scoped streams
    once, on the shared world.
    """
    workload = tuple(g for g in generators if g.scope == "workload")
    warehouse = tuple(g for g in generators if g.scope == "warehouse")
    return workload, warehouse


#: Named generator bundles the CLI and Monte Carlo presets accept.
GENERATOR_PRESETS: Dict[str, Tuple[DriftGenerator, ...]] = {
    "mixed": (
        PoissonQueryChurn(),
        SeasonalWave(),
        GeometricGrowth(),
        SpotPriceWalk(),
    ),
    "churn": (PoissonQueryChurn(),),
    "seasonal": (SeasonalWave(),),
    "growth": (GeometricGrowth(),),
    "spot": (SpotPriceWalk(),),
}


def generator_preset(name: str) -> Tuple[DriftGenerator, ...]:
    """Look up a preset bundle, failing loudly on unknown names."""
    try:
        return GENERATOR_PRESETS[name]
    except KeyError:
        raise SimulationError(
            f"unknown generator preset {name!r}; choose from "
            f"{sorted(GENERATOR_PRESETS)}"
        ) from None


# ---------------------------------------------------------------------------
# Tenant-fleet churn
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FleetChurn:
    """The fleet-level churn process: tenant arrivals and stays.

    Unlike the :class:`DriftGenerator` family — which samples
    :class:`~repro.simulate.events.SimulationEvent` streams — fleet
    churn is sampled as *lifecycles* (arrival / departure epochs per
    tenant) because the churn events themselves are compiled by
    :class:`~repro.simulate.tenants.TenantFleet` from each tenant's
    window, together with the tenant's workload.

    Parameters
    ----------
    arrival_rate:
        Expected tenant arrivals per epoch (Poisson).
    mean_stay:
        Expected stay in epochs (exponential, floored at 2 so every
        sampled tenant is billed for at least one full epoch before
        its settlement).
    """

    arrival_rate: float = 0.4
    mean_stay: float = 8.0

    def __post_init__(self) -> None:
        if self.arrival_rate < 0:
            raise SimulationError(
                f"arrival_rate cannot be negative, got {self.arrival_rate}"
            )
        if self.mean_stay <= 0:
            raise SimulationError(
                f"mean_stay must be positive epochs, got {self.mean_stay}"
            )

    def describe(self) -> str:
        """Short display form."""
        return (
            f"churn(arrivals~Po({self.arrival_rate:g}/epoch), "
            f"stay~Exp({self.mean_stay:g} epochs))"
        )


@dataclass(frozen=True)
class TenantLifecycle:
    """One sampled tenant window: when it joins, when it leaves.

    ``departure_epoch`` is ``None`` when the sampled stay reaches the
    horizon — the tenant never departs within the simulated lifetime.
    Feed these straight into :class:`~repro.simulate.tenants.Tenant`'s
    ``arrival_epoch`` / ``departure_epoch``.
    """

    name: str
    arrival_epoch: int
    departure_epoch: int | None


def sample_fleet_churn(
    churn: FleetChurn,
    seed: int,
    n_epochs: int,
    prefix: str = "c",
) -> Tuple[TenantLifecycle, ...]:
    """Sample a fleet trajectory: churned-tenant lifecycles.

    Epochs 1..n-1 each draw ``Poisson(arrival_rate)`` arrivals (epoch
    0 belongs to the founding tenants); each arrival's stay is an
    exponential draw floored at 2 epochs, and a departure falling at
    or beyond the horizon becomes ``None`` (the tenant stays).  Names
    are ``{prefix}{serial}`` in arrival order.  Like every sampler
    here, the result is a pure function of ``(churn, seed, n_epochs,
    prefix)`` — Monte Carlo trials resample fleets reproducibly from
    child seeds.
    """
    if n_epochs < 2:
        raise SimulationError(
            f"fleet churn needs n_epochs >= 2, got {n_epochs}"
        )
    rng = random.Random(seed)
    lifecycles: List[TenantLifecycle] = []
    serial = 0
    for epoch in range(1, n_epochs):
        for _ in range(_poisson(rng, churn.arrival_rate)):
            stay = max(2, round(rng.expovariate(1.0 / churn.mean_stay)))
            departure: int | None = epoch + stay
            if departure >= n_epochs:
                departure = None
            lifecycles.append(
                TenantLifecycle(
                    name=f"{prefix}{serial}",
                    arrival_epoch=epoch,
                    departure_epoch=departure,
                )
            )
            serial += 1
    return tuple(lifecycles)
