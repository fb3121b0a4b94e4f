"""Pricing inputs are values: equal contents compare and hash alike.

A price book, a deployment and a storage timeline are the inputs a
bill is a pure function of, so two built alike are the same input:
``==``, ``hash`` and set membership agree with what they bill.
"""

from __future__ import annotations

from repro.costmodel.params import StorageTimeline, sales_deployment
from repro.money import dollars
from repro.pricing import (
    BillingGranularity,
    ComputePricing,
    InstanceType,
    archive_cloud,
    aws_2012,
    aws_2012_marginal,
    flat_cloud,
)
from repro.simulate.stochastic import spot_repriced

PRESETS = (aws_2012, aws_2012_marginal, flat_cloud, archive_cloud)


def test_deployments_built_alike_are_one_value():
    first, second = sales_deployment(), sales_deployment()
    assert first == second
    assert hash(first) == hash(second)
    assert len({first, second}) == 1


def test_each_preset_book_equals_a_fresh_build_of_itself_and_no_other():
    for build in PRESETS:
        book = build()
        assert [book == other() for other in PRESETS] == [
            other is build for other in PRESETS
        ]
        assert hash(book) == hash(build())


def test_same_named_books_differ_by_billing_granularity():
    hourly = aws_2012(BillingGranularity.PER_HOUR)
    per_second = aws_2012(BillingGranularity.PER_SECOND)
    assert hourly.name == per_second.name
    assert hourly == aws_2012()
    assert hourly != per_second
    books = {aws_2012(g) for g in BillingGranularity for _ in range(2)}
    assert len(books) == len(BillingGranularity)


def test_compute_pricing_ignores_the_listing_order():
    small = InstanceType("small", dollars("0.12"), 1.0, 1.7, 160)
    large = InstanceType("large", dollars("0.48"), 4.0, 7.5, 850)
    forward = ComputePricing([small, large])
    backward = ComputePricing([large, small])
    assert forward == backward
    assert hash(forward) == hash(backward)
    assert dict(forward.instance_types) == {"small": small, "large": large}
    assert forward != ComputePricing([small, large], BillingGranularity.PER_SECOND)


def test_a_spot_reprice_is_a_new_book():
    book = aws_2012()
    repriced = spot_repriced(book, 1.37)
    assert repriced == spot_repriced(aws_2012(), 1.37)
    assert repriced != book
    assert (repriced.storage, repriced.transfer) == (book.storage, book.transfer)


def test_storage_timeline_ignores_the_insert_order():
    forward = StorageTimeline(10, 12, [(3, 2.0), (9, 1.0)])
    backward = StorageTimeline(10.0, 12.0, [(9, 1.0), (3, 2.0)])
    assert forward == backward
    assert hash(forward) == hash(backward)
    assert forward != StorageTimeline(10, 12, [(3, 2.0)])
