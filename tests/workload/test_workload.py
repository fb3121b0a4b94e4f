"""Queries and workloads."""

from __future__ import annotations

import itertools
import random
from dataclasses import replace

import pytest

import repro.workload.workload as workload_module
from repro.errors import SchemaError
from repro.schema import ALL, sales_schema
from repro.simulate.events import TenantRoster
from repro.workload import AggregateQuery, Workload, cross_workload, paper_sales_workload


@pytest.fixture(scope="module")
def schema():
    return sales_schema()


class TestAggregateQuery:
    def test_per_constructor(self, schema):
        q = AggregateQuery.per(
            schema, "Q1", {"time": "year", "geography": "country"}
        )
        assert q.grain == ("year", "country")

    def test_per_defaults_to_all(self, schema):
        q = AggregateQuery.per(schema, "Q", {"time": "month"})
        assert q.grain == ("month", ALL)

    def test_describe(self, schema):
        q = AggregateQuery.per(
            schema, "Q1", {"time": "year", "geography": "country"}
        )
        assert q.describe(schema) == "profit per year, country"
        apex = AggregateQuery("T", (ALL, ALL))
        assert apex.describe(schema) == "total profit"

    def test_validation(self, schema):
        with pytest.raises(SchemaError):
            AggregateQuery("", ("year", ALL))
        with pytest.raises(SchemaError):
            AggregateQuery("Q", ("year", ALL), frequency=0)


class TestWorkload:
    def test_needs_queries(self, schema):
        with pytest.raises(SchemaError):
            Workload(schema, [])

    def test_duplicate_names_rejected(self, schema):
        q = AggregateQuery("Q1", ("year", ALL))
        with pytest.raises(SchemaError):
            Workload(schema, [q, q])

    def test_prefix(self, schema):
        workload = paper_sales_workload(schema, 10)
        assert len(workload.prefix(3)) == 3
        assert list(workload.prefix(3))[0].name == "Q1"
        with pytest.raises(SchemaError):
            workload.prefix(0)
        with pytest.raises(SchemaError):
            workload.prefix(11)


class TestWorkloadValue:
    """Two workloads built alike are one value: ``==``, ``hash`` and
    set membership agree, so planning inputs and warehouse states
    holding them compare by value too."""

    def test_workloads_built_alike_are_one_value(self, schema):
        first = paper_sales_workload(schema, 5)
        second = paper_sales_workload(schema, 5)
        assert first is not second
        assert first == second
        assert hash(first) == hash(second)
        assert len({first, second}) == 1

    def test_queries_their_order_and_the_schema_object_count(self, schema):
        workload = paper_sales_workload(schema, 5)
        assert workload != workload.reweighted({"Q1": 7.0})
        assert workload != paper_sales_workload(schema, 3)
        assert workload != Workload(schema, reversed(workload.queries))
        # Drift never changes the star, so a workload on another schema
        # object is another workload, as ``with_workload`` requires.
        assert workload != Workload(sales_schema(), workload.queries)
        assert workload != tuple(workload.queries)


class TestPrefixEdges:
    def test_prefix_of_one_is_just_q1(self, schema):
        one = paper_sales_workload(schema, 10).prefix(1)
        assert [q.name for q in one] == ["Q1"]

    def test_full_prefix_preserves_order_and_content(self, schema):
        workload = paper_sales_workload(schema, 10)
        full = workload.prefix(len(workload))
        assert tuple(full.queries) == tuple(workload.queries)
        assert full.schema is workload.schema

    def test_prefix_is_a_new_workload(self, schema):
        workload = paper_sales_workload(schema, 10)
        assert workload.prefix(3) is not workload
        assert len(workload) == 10  # the original is untouched

    def test_negative_prefix_rejected(self, schema):
        with pytest.raises(SchemaError, match="outside"):
            paper_sales_workload(schema, 10).prefix(-1)

    def test_prefix_keeps_frequencies_and_filters(self, schema):
        hot = AggregateQuery("H", ("year", ALL), frequency=5.0)
        cold = AggregateQuery("C", ("month", ALL), frequency=0.5)
        workload = Workload(schema, [hot, cold])
        assert workload.prefix(1).queries[0].frequency == 5.0

    def test_prefix_of_prefix(self, schema):
        workload = paper_sales_workload(schema, 10)
        assert [q.name for q in workload.prefix(5).prefix(2)] == ["Q1", "Q2"]


class TestDriftHelpers:
    def test_with_queries_appends(self, schema):
        base = paper_sales_workload(schema, 3)
        extra = AggregateQuery("X", ("day", ALL))
        grown = base.with_queries([extra])
        assert [q.name for q in grown] == ["Q1", "Q2", "Q3", "X"]
        assert len(base) == 3

    def test_with_queries_rejects_duplicates(self, schema):
        base = paper_sales_workload(schema, 3)
        with pytest.raises(SchemaError):
            base.with_queries([AggregateQuery("Q1", ("day", ALL))])

    def test_without_and_reweighted(self, schema):
        base = paper_sales_workload(schema, 3)
        assert [q.name for q in base.without(["Q2"])] == ["Q1", "Q3"]
        hot = base.reweighted({"Q1": 4.0})
        assert hot.queries[0].frequency == 4.0
        assert base.queries[0].frequency == 1.0
        with pytest.raises(SchemaError):
            base.without(["nope"])
        with pytest.raises(SchemaError):
            base.without(["Q1", "Q2", "Q3"])
        with pytest.raises(SchemaError):
            base.reweighted({"nope": 2.0})


class TestDriftMatchesFlatReference:
    """Random drift chains over many tiny blocks agree, query for query,
    with a plain list (the spliced arrival placed by a linear scan for
    the first query a later tenant owns) — and every intermediate
    workload still reads as it did, however many blocks later drifts
    shared and replaced."""

    @pytest.mark.parametrize("seed", range(25))
    def test_random_drift_chains(self, schema, seed, monkeypatch):
        monkeypatch.setattr(workload_module, "_BLOCK", 2)
        rng = random.Random(seed)
        tenants = [f"t{i}" for i in range(8)]
        roster = TenantRoster(tenants)
        grains = [("year", ALL), ("month", "country"), (ALL, "region")]
        counter = itertools.count()

        def fresh(owner):
            # ``None`` owns nothing: an unscoped name ranks below everyone.
            name = f"{owner}/Q{next(counter)}" if owner else f"U{next(counter)}"
            return AggregateQuery(name, rng.choice(grains), rng.choice([0.5, 2.0]))

        reference = [
            fresh(rng.choice([*tenants, None])) for _ in range(rng.randint(1, 9))
        ]
        workload = Workload(schema, reference)
        history = [(workload, reference)]
        for _ in range(60):
            op = rng.choice(["add", "splice", "splice", "drop", "reweight", "prefix"])
            if op == "add":
                arriving = [fresh(rng.choice([*tenants, None])) for _ in range(3)]
                workload = workload.with_queries(arriving)
                reference = reference + arriving
            elif op == "splice":
                rank = rng.randrange(len(tenants))
                arriving = [fresh(tenants[rank]) for _ in range(rng.randint(1, 3))]
                workload = workload.spliced(arriving, rank, roster.rank_of)
                later = set(tenants[rank + 1 :])
                at = next(
                    (
                        i
                        for i, q in enumerate(reference)
                        if q.name.partition("/")[2]
                        and q.name.partition("/")[0] in later
                    ),
                    len(reference),
                )
                reference = reference[:at] + arriving + reference[at:]
            elif op == "drop" and len(reference) > 1:
                gone = rng.sample(reference, rng.randint(1, len(reference) - 1))
                names = {q.name for q in gone}
                workload = workload.without(names)
                reference = [q for q in reference if q.name not in names]
            elif op == "reweight":
                picked = rng.sample(reference, min(3, len(reference)))
                weights = {q.name: rng.choice([0.25, 7.0]) for q in picked}
                workload = workload.reweighted(weights)
                reference = [
                    replace(q, frequency=weights[q.name]) if q.name in weights else q
                    for q in reference
                ]
            elif op == "prefix":
                m = rng.randint(max(1, len(reference) - 2), len(reference))
                workload = workload.prefix(m)
                reference = reference[:m]
            assert list(workload) == reference
            history.append((workload, reference))
        for version, expected in history:
            assert tuple(version.queries) == tuple(expected)
            assert len(version) == len(expected)


class TestPaperWorkload:
    def test_q1_is_the_quoted_query(self, schema):
        # Section 2.1: Q1 = "sales per year and country".
        workload = paper_sales_workload(schema, 10)
        assert workload.queries[0].grain == ("year", "country")

    def test_sizes_are_prefixes(self, schema):
        ten = paper_sales_workload(schema, 10)
        three = paper_sales_workload(schema, 3)
        assert tuple(q.name for q in three) == tuple(
            q.name for q in ten.queries[:3]
        )

    def test_ten_distinct_grains(self, schema):
        workload = paper_sales_workload(schema, 10)
        grains = [q.grain for q in workload]
        assert len(set(grains)) == 10

    def test_covers_all_nine_level_combinations(self, schema):
        # "per day, month, year and per country, department, region".
        workload = paper_sales_workload(schema, 10)
        crossed = {
            q.grain
            for q in workload
            if ALL not in q.grain
        }
        assert len(crossed) == 9


class TestCrossWorkload:
    def test_excludes_apex(self, schema):
        workload = cross_workload(schema)
        assert (ALL, ALL) not in {q.grain for q in workload}

    def test_size_is_lattice_minus_apex(self, schema):
        assert len(cross_workload(schema)) == 16 - 1

    def test_grains_are_unique_and_valid(self, schema):
        workload = cross_workload(schema)
        grains = [q.grain for q in workload]
        assert len(set(grains)) == len(grains)
        for grain in grains:
            assert schema.validate_grain(grain) == grain

    def test_enumerates_the_full_level_cross_product(self, schema):
        expected = {
            (t, g)
            for t in ("day", "month", "year", ALL)
            for g in ("department", "country", "region", ALL)
        } - {(ALL, ALL)}
        assert {q.grain for q in cross_workload(schema)} == expected

    def test_includes_base_grain(self, schema):
        # Unlike candidate enumeration, the *workload* may ask for the
        # base grain (the finest roll-up is a legitimate query).
        assert schema.base_grain in {q.grain for q in cross_workload(schema)}

    def test_names_follow_enumeration_order(self, schema):
        names = [q.name for q in cross_workload(schema)]
        assert names == [f"Q{i + 1}" for i in range(len(names))]

    def test_frequency_propagates_to_every_query(self, schema):
        workload = cross_workload(schema, frequency=2.5)
        assert all(q.frequency == 2.5 for q in workload)
        default = cross_workload(schema)
        assert all(q.frequency == 1.0 for q in default)

    def test_ssb_cross_product_counts(self):
        from repro.schema import ssb_schema

        schema = ssb_schema()
        workload = cross_workload(schema)
        expected = 1
        for dim in schema.dimensions:
            expected *= len(dim.hierarchy.levels_with_all)
        assert len(workload) == expected - 1
