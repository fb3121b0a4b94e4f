"""Billing parity: one raw-Decimal rule per formula, byte for byte.

The instance bill, the tiered charge and Formula 5's storage fold each
have one raw-``Decimal`` implementation (``instance_bill``,
``tier_cost``, ``storage_fold``).  The oracle's ``ComputePricing.cost``,
``TierSchedule.cost`` and ``storage_cost*`` wrap them, and
:class:`~repro.kernel.KernelWorld` calls them with operands it reads
once per world.  This suite keeps the earlier ``Money``-chain versions
of the three rules as the reference and asserts ``repr``-equal results
from the rules, the oracle and the kernel.  It covers every billing
granularity, slab and marginal schedules with volumes on band edges,
1–8 instances, zero-hour activities, and timelines of several
intervals (inserts at month 0, mid-horizon and at the horizon), which
the generative worlds never build.  It also pins the breakdowns'
summed-once totals and the schemas' per-grain memos.
"""

from __future__ import annotations

import dataclasses
import math
import pickle
import random
from typing import List, Tuple

import pytest

from repro.costmodel import CloudCostModel, StorageTimeline
from repro.costmodel.computing import ComputingBreakdown
from repro.costmodel.storage import (
    storage_cost,
    storage_cost_with_views,
    storage_fold,
)
from repro.costmodel.total import CostBreakdown
from repro.engine.cardinality import grain_space
from repro.errors import CostModelError, PricingError, SchemaError
from repro.kernel import KernelWorld
from repro.money import MONEY_CONTEXT, ZERO, Money, dollars, to_decimal
from repro.optimizer import SelectionProblem
from repro.pricing import (
    BillingGranularity,
    StoragePricing,
    TierMode,
    aws_2012,
    aws_2012_marginal,
    flat_cloud,
)
from repro.pricing.compute import ComputePricing, instance_bill
from repro.pricing.providers import archive_cloud
from repro.pricing.tiers import tier_cost
from repro.simulate.stochastic import spot_repriced

# -- the reference: the Money-chain rules the raw ones replaced ---------


def reference_instance_cost(pricing, instance, hours, n_instances) -> Money:
    """Rate x billable hours x instances, one ``Money`` per product."""
    rate = pricing.instance(instance).hourly_rate
    return rate * pricing.granularity.billable_hours(hours) * n_instances


def reference_tier_cost(schedule, volume_gb: float) -> Money:
    """Slab or marginal tiered charge, folded on ``Money``."""
    if volume_gb == 0:
        return ZERO
    if schedule.mode is TierMode.SLAB:
        for tier in schedule.tiers:
            if tier.upper_gb is None or volume_gb < tier.upper_gb:
                return tier.rate * volume_gb
    total = ZERO
    lower = 0.0
    for tier in schedule.tiers:
        upper = tier.upper_gb if tier.upper_gb is not None else volume_gb
        band_volume = min(volume_gb, upper) - lower
        if band_volume <= 0:
            break
        total = total + tier.rate * band_volume
        lower = upper
        if volume_gb <= upper:
            break
    return total


def reference_intervals(timeline) -> List[Tuple[float, float, float]]:
    """(start, end, volume) per constant-volume interval."""
    result = []
    volume = timeline.initial_volume_gb
    start = 0.0
    for month, delta_gb in timeline.inserts:
        if month > start:
            result.append((start, month, volume))
            start = month
        volume += delta_gb
    if timeline.horizon_months > start or not result:
        result.append((start, timeline.horizon_months, volume))
    return result


def reference_storage_cost(pricing, timeline) -> Money:
    """Formula 5: each interval's monthly charge x its months."""
    total = ZERO
    for start, end, volume in reference_intervals(timeline):
        total = total + reference_tier_cost(pricing.schedule, volume) * (end - start)
    return total


def _sequential(values) -> float:
    total = 0.0
    for value in values:
        total += value
    return total


def reference_ledger(model: CloudCostModel, plan) -> Tuple[str, ...]:
    """Formula 1 on the reference rules, as the reprs a ledger shows."""
    dep = model.deployment

    def bill(hours: float) -> Money:
        if hours == 0:
            return ZERO
        return reference_instance_cost(
            dep.provider.compute, dep.instance_type, hours, dep.n_instances
        )

    processing = bill(_sequential(plan.billed_query_hours))
    materialization = bill(_sequential(plan.materialization_hours))
    maintenance = bill(_sequential(plan.maintenance_hours))
    storage = reference_storage_cost(
        dep.provider.storage,
        plan.base_timeline.with_extra_volume(plan.views_total_gb),
    )
    transfer = reference_tier_cost(
        dep.provider.transfer.outbound,
        _sequential(plan.billed_result_sizes_gb),
    )
    computing = processing + maintenance + materialization
    total = computing + storage + transfer
    return tuple(
        repr(m)
        for m in (
            processing,
            materialization,
            maintenance,
            computing,
            storage,
            transfer,
            total,
        )
    )


def ledger(breakdown: CostBreakdown) -> Tuple[str, ...]:
    """The same reprs, read off a priced breakdown."""
    computing = breakdown.computing
    return tuple(
        repr(m)
        for m in (
            computing.processing_cost,
            computing.materialization_cost,
            computing.maintenance_cost,
            computing.total,
            breakdown.storage,
            breakdown.transfer,
            breakdown.total,
        )
    )


# -- inputs ------------------------------------------------------------

GRANULARITIES = list(BillingGranularity)

#: Durations around every rounding edge: zero, sub-second, a second,
#: a minute, just under/at/over whole hours, large fleets of hours.
HOURS = [
    0.0,
    1e-9,
    1.0 / 3600,
    1.0 / 60,
    math.nextafter(1.0 / 60, 2.0),
    0.1,
    0.5,
    math.nextafter(1.0, 0.0),
    1.0,
    math.nextafter(1.0, 2.0),
    2.0000001,
    49.99,
    50.0,
    123.456789012345,
    1e4 / 3,
    9.87654321e7,
]


def _providers():
    return [
        aws_2012(),
        aws_2012_marginal(BillingGranularity.PER_MINUTE),
        flat_cloud(),
        archive_cloud(),
        # A market reprice: rates with a float's worth of digits.
        spot_repriced(aws_2012(BillingGranularity.PER_SECOND), 0.7312345678901234),
    ]


def _schedules():
    """Every slab and marginal schedule the providers carry."""
    schedules = []
    for provider in _providers():
        for schedule in (
            provider.storage.schedule,
            provider.transfer.outbound,
        ):
            schedules.append(schedule)
            other = (
                TierMode.MARGINAL
                if schedule.mode is TierMode.SLAB
                else TierMode.SLAB
            )
            schedules.append(dataclasses.replace(schedule, mode=other))
    return schedules


def _edge_volumes(schedule) -> List[float]:
    """Zero, fractions, and each band edge from below, on and above."""
    volumes = [0.0, 1e-7, 0.5, 1.0, 3.3, 550.0, 2560.0]
    for tier in schedule.tiers:
        if tier.upper_gb is not None:
            edge = float(tier.upper_gb)
            volumes += [
                math.nextafter(edge, 0.0),
                edge,
                math.nextafter(edge, math.inf),
                edge - 0.25,
                edge + 0.25,
            ]
    return volumes


# -- the instance bill -------------------------------------------------


@pytest.mark.parametrize("granularity", GRANULARITIES, ids=lambda g: g.value)
@pytest.mark.parametrize("n_instances", range(1, 9))
def test_instance_bill_matches_the_money_chain(granularity, n_instances):
    for provider in _providers():
        pricing = dataclasses.replace(provider.compute, granularity=granularity)
        for name, itype in sorted(pricing.instance_types.items()):
            rate = itype.hourly_rate.amount
            for hours in HOURS:
                want = repr(reference_instance_cost(pricing, name, hours, n_instances))
                assert repr(pricing.cost(name, hours, n_instances)) == want
                billable = pricing.granularity.billable_hours(hours)
                raw = instance_bill(rate, billable, n_instances)
                assert repr(Money(raw)) == want


def _long_rate_provider(granularity):
    """A book with a 120-digit rate, on which every product rounds."""
    base = aws_2012(granularity)
    small = base.compute.instance("small")
    long = dataclasses.replace(small, name="long", hourly_rate=dollars("100") / 730)
    compute = ComputePricing(
        list(base.compute.instance_types.values()) + [long], granularity
    )
    return dataclasses.replace(base, compute=compute)


@pytest.mark.parametrize("granularity", GRANULARITIES, ids=lambda g: g.value)
def test_a_long_rate_is_billed_in_the_money_chains_order(
    granularity, random_world_factory
):
    provider = _long_rate_provider(granularity)
    rate = provider.compute.instance("long").hourly_rate.amount
    assert len(rate.as_tuple().digits) == 120
    reordered = 0
    for n_instances in range(1, 9):
        world = random_world_factory(n_instances)
        dep = dataclasses.replace(
            world.deployment,
            provider=provider,
            instance_type="long",
            n_instances=n_instances,
        )
        inputs = dataclasses.replace(world.inputs, deployment=dep)
        kernel = KernelWorld.build(inputs)
        assert kernel is not None
        for hours in HOURS[1:]:
            want = repr(
                reference_instance_cost(provider.compute, "long", hours, n_instances)
            )
            assert repr(provider.compute.cost("long", hours, n_instances)) == want
            assert repr(kernel._bill(hours)) == want
            # Billing the fleet's rate first would round differently.
            fleet = MONEY_CONTEXT.multiply(rate, to_decimal(n_instances))
            billable = provider.compute.billable_hours(hours)
            other = MONEY_CONTEXT.multiply(fleet, to_decimal(billable))
            reordered += repr(Money(other)) != want
    assert reordered > 0


def test_instance_bill_keeps_the_oracles_errors():
    pricing = aws_2012().compute
    with pytest.raises(PricingError, match="usage cannot be negative: -1.0"):
        pricing.cost("small", -1.0, 2)
    with pytest.raises(PricingError, match="unknown instance type 'tiny'"):
        pricing.cost("tiny", 1.0, 2)
    with pytest.raises(PricingError, match="instance count cannot be negative: -1"):
        pricing.cost("small", 1.0, -1)


# -- the tiered charge -------------------------------------------------


def test_tier_cost_matches_the_money_chain_on_band_edges():
    checked = 0
    for schedule in _schedules():
        for volume in _edge_volumes(schedule):
            want = repr(reference_tier_cost(schedule, volume))
            assert repr(schedule.cost(volume)) == want, (schedule, volume)
            raw = tier_cost(schedule.rate_table, schedule.mode, volume)
            assert repr(Money(raw)) == want
            checked += 1
    assert checked > 200


def test_tier_cost_keeps_the_oracles_errors():
    schedule = aws_2012().storage.schedule
    with pytest.raises(PricingError, match="volume cannot be negative: -0.5"):
        schedule.cost(-0.5)
    with pytest.raises(PricingError, match="volume cannot be negative"):
        aws_2012().transfer.outbound_cost(-1.0)


# -- Formula 5 ---------------------------------------------------------


def _timelines(schedule) -> List[StorageTimeline]:
    """One- and several-interval timelines crossing the band edges."""
    edges = [t.upper_gb for t in schedule.tiers if t.upper_gb is not None]
    edge = float(edges[0]) if edges else 1024.0
    return [
        StorageTimeline(0.0, 0.0),
        StorageTimeline(0.0, 12.0),
        StorageTimeline(512.0, 12.0),
        StorageTimeline(512, 12, [(7, 2048)]),  # the paper's Example 3
        StorageTimeline(edge, 3.0, [(0.0, 0.0), (1.5, 1.0)]),
        StorageTimeline(
            math.nextafter(edge, 0.0), 12.0, [(0.0, 0.5), (6.0, edge), (12.0, 9.0)]
        ),
        StorageTimeline(
            10.0, 7.5, [(0.0, 100.0), (2.5, edge - 110.0), (2.5, 3.3), (7.5, 1.0)]
        ),
        StorageTimeline(0.1, 1.0, [(1.0 / 3, 0.2), (2.0 / 3, 0.3), (1.0, 0.4)]),
    ]


def test_timeline_intervals_are_unchanged():
    for schedule in _schedules()[:2]:
        for timeline in _timelines(schedule):
            got = [
                (iv.start_month, iv.end_month, iv.volume_gb)
                for iv in timeline.intervals()
            ]
            assert got == reference_intervals(timeline)
            # Repeated reads give the same intervals.
            again = [
                (iv.start_month, iv.end_month, iv.volume_gb)
                for iv in timeline.intervals()
            ]
            assert again == got


def test_storage_fold_matches_the_money_chain():
    multi = 0
    for provider in _providers():
        for schedule in (
            provider.storage.schedule,
            dataclasses.replace(provider.storage.schedule, mode=TierMode.SLAB),
            dataclasses.replace(provider.storage.schedule, mode=TierMode.MARGINAL),
        ):
            pricing = StoragePricing(schedule)
            for timeline in _timelines(schedule):
                multi += len(timeline.intervals()) > 1
                want = repr(reference_storage_cost(pricing, timeline))
                assert repr(storage_cost(pricing, timeline)) == want
                raw = storage_fold(
                    schedule.rate_table,
                    schedule.mode,
                    timeline.initial_volume_gb,
                    timeline.steps(),
                )
                assert repr(Money(raw)) == want
                for views_gb in [0.0, 0.25] + _edge_volumes(schedule)[-5:]:
                    shifted = timeline.with_extra_volume(views_gb)
                    want = repr(reference_storage_cost(pricing, shifted))
                    got = storage_cost_with_views(pricing, timeline, views_gb)
                    assert repr(got) == want
    assert multi > 0


def test_storage_keeps_the_oracles_errors():
    pricing = aws_2012().storage
    timeline = StorageTimeline(10.0, 12.0, [(6.0, 1.0)])
    with pytest.raises(CostModelError, match="extra volume cannot be negative"):
        storage_cost_with_views(pricing, timeline, -1.0)
    with pytest.raises(CostModelError, match="deletions are not modelled"):
        StorageTimeline(10.0, 12.0, [(6.0, -1.0)])
    with pytest.raises(CostModelError, match="outside"):
        StorageTimeline(10.0, 12.0, [(13.0, 1.0)])


# -- the kernel --------------------------------------------------------


@pytest.mark.parametrize("granularity", GRANULARITIES, ids=lambda g: g.value)
@pytest.mark.parametrize("n_instances", range(1, 9))
def test_kernel_bills_match_the_rules_and_the_money_chain(
    granularity, n_instances, random_world_factory
):
    world = random_world_factory(n_instances)
    # Slab storage on odd fleets, marginal on even ones.
    book = aws_2012 if n_instances % 2 else aws_2012_marginal
    provider = book(granularity)
    dep = dataclasses.replace(
        world.deployment,
        provider=provider,
        instance_type="large",
        n_instances=n_instances,
    )
    inputs = dataclasses.replace(world.inputs, deployment=dep)
    kernel = KernelWorld.build(inputs)
    assert kernel is not None
    for hours in HOURS:
        got = kernel._bill(hours)
        if hours == 0:
            assert got is ZERO
            continue
        want = repr(
            reference_instance_cost(provider.compute, "large", hours, n_instances)
        )
        assert repr(got) == want
        assert repr(provider.compute.cost("large", hours, n_instances)) == want
    for views_gb in _edge_volumes(provider.storage.schedule):
        shifted = inputs.base_timeline.with_extra_volume(views_gb)
        want = repr(reference_storage_cost(provider.storage, shifted))
        assert repr(kernel._storage(views_gb)) == want
        oracle = storage_cost_with_views(
            provider.storage, inputs.base_timeline, views_gb
        )
        assert repr(oracle) == want


def _subsets(candidates, rng):
    names = [c.name for c in candidates]
    subsets = [frozenset(), frozenset(names)]
    subsets += [frozenset({name}) for name in names]
    for _ in range(3):
        if names:
            subsets.append(frozenset(rng.sample(names, rng.randint(1, len(names)))))
    return subsets


def _multi_interval(inputs, rng) -> StorageTimeline:
    """A several-interval timeline over the world's dataset size."""
    initial = inputs.dataset_gb
    horizon = rng.choice([1.0, 3.0, 12.0])
    inserts = [
        (0.0, initial * rng.choice([0.0, 0.5])),
        (horizon / rng.choice([2.0, 3.0, 7.0]), rng.choice([1.0, 1024.0, 4096.0])),
        (horizon, rng.choice([0.0, 2.0])),
    ]
    return StorageTimeline(initial, horizon, inserts)


@pytest.mark.parametrize("seed", range(40))
def test_kernel_oracle_and_reference_price_identical_ledgers(
    seed, random_world_factory
):
    world = random_world_factory(seed)
    rng = random.Random(seed)
    providers = _providers()
    variants = []
    for granularity in GRANULARITIES:
        provider = rng.choice(providers)
        provider = dataclasses.replace(
            provider,
            compute=dataclasses.replace(provider.compute, granularity=granularity),
        )
        dep = dataclasses.replace(
            world.deployment,
            provider=provider,
            instance_type=rng.choice(sorted(provider.compute.instance_types)),
            n_instances=rng.randint(1, 8),
            # 0 cycles: a zero-hour maintenance activity.
            maintenance_cycles=rng.choice([0, 30]),
        )
        inputs = dataclasses.replace(world.inputs, deployment=dep)
        variants.append(inputs)
        variants.append(
            dataclasses.replace(inputs, base_timeline=_multi_interval(inputs, rng))
        )
    for inputs in variants:
        oracle = SelectionProblem(inputs, kernel=False)
        fast = SelectionProblem(inputs, kernel=True)
        model = oracle.cost_model
        for subset in _subsets(world.candidates, rng):
            want = reference_ledger(model, inputs.plan_for(subset))
            slow = oracle.evaluate(subset).breakdown
            got = fast.evaluate(subset).breakdown
            assert ledger(slow) == want, (seed, sorted(subset))
            assert ledger(got) == want, (seed, sorted(subset))
            assert repr(got) == repr(slow)
        assert fast._kernel_world is not None


# -- breakdown totals --------------------------------------------------


def _breakdown() -> CostBreakdown:
    compute = aws_2012().compute
    computing = ComputingBreakdown(
        processing_hours=40.0,
        materialization_hours=1.0,
        maintenance_hours=5.0,
        processing_cost=compute.cost("small", 40.0, 2),
        materialization_cost=compute.cost("small", 1.0, 2),
        maintenance_cost=compute.cost("small", 5.0, 2),
    )
    return CostBreakdown(
        computing=computing,
        storage=Money("924.00"),
        transfer=Money("1.080"),
        processing_hours=40.0,
    )


def test_breakdown_totals_are_not_fields():
    breakdown = _breakdown()
    assert [f.name for f in dataclasses.fields(ComputingBreakdown)] == [
        "processing_hours",
        "materialization_hours",
        "maintenance_hours",
        "processing_cost",
        "materialization_cost",
        "maintenance_cost",
    ]
    assert [f.name for f in dataclasses.fields(CostBreakdown)] == [
        "computing",
        "storage",
        "transfer",
        "processing_hours",
    ]
    assert "total" not in repr(breakdown)
    assert repr(breakdown.total) == "Money('936.120')"
    assert repr(breakdown.computing.total) == "Money('11.040')"


def test_replace_recomputes_breakdown_totals():
    breakdown = _breakdown()
    cheaper = dataclasses.replace(breakdown, storage=Money("0.5"))
    assert repr(cheaper.total) == "Money('12.620')"
    computing = dataclasses.replace(
        breakdown.computing, maintenance_cost=Money("0")
    )
    assert repr(computing.total) == "Money('9.840')"
    rebuilt = dataclasses.replace(breakdown, computing=computing)
    assert repr(rebuilt.total) == "Money('934.920')"
    assert breakdown.total == Money("936.12")  # the original is untouched


def test_breakdown_survives_a_pickle_round_trip():
    breakdown = _breakdown()
    copy = pickle.loads(pickle.dumps(breakdown))
    assert copy == breakdown
    assert repr(copy) == repr(breakdown)
    assert repr(copy.total) == repr(breakdown.total)
    assert repr(copy.computing.total) == repr(breakdown.computing.total)
    assert hash(copy) == hash(breakdown)


# -- per-grain memos ---------------------------------------------------


def test_malformed_grain_raises_on_every_call(random_world_factory):
    schema = random_world_factory(5).schema
    good = schema.base_grain
    width = schema.row_logical_bytes(good)
    space = grain_space(schema, good)
    malformed = ("not-a-level",) * len(schema.dimensions)
    short = good[1:]
    for _ in range(3):
        for grain in (malformed, short, list(malformed)):
            with pytest.raises(SchemaError):
                schema.row_logical_bytes(grain)
            with pytest.raises(SchemaError):
                grain_space(schema, grain)
            with pytest.raises(SchemaError):
                schema.grain_space(grain)
    assert schema.row_logical_bytes(list(good)) == width
    assert grain_space(schema, list(good)) == space


@pytest.mark.parametrize("seed", range(10))
def test_grain_memos_give_the_computed_answers(seed, random_world_factory):
    schema = random_world_factory(seed).schema
    for view in random_world_factory(seed).candidates:
        grain = view.grain
        want_space = 1.0
        want_width = sum(m.logical_bytes for m in schema.measures)
        for dim, level in zip(schema.dimensions, grain):
            want_space *= dim.cardinality(level)
            want_width += schema.level_logical_bytes(dim.name, level)
        for _ in range(2):
            assert grain_space(schema, grain) == want_space
            assert schema.row_logical_bytes(grain) == want_width
