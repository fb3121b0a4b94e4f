"""Money: exact arithmetic, rounding, and type discipline."""

from __future__ import annotations

import random
from decimal import Decimal

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.money import ZERO, Money, cents, dollars

money_amounts = st.decimals(
    min_value=Decimal("-10000"),
    max_value=Decimal("10000"),
    places=4,
    allow_nan=False,
    allow_infinity=False,
)


class TestConstruction:
    def test_from_string_is_exact(self):
        assert Money("0.1").amount == Decimal("0.1")

    def test_from_float_uses_decimal_literal(self):
        # 0.1 as a float is not exactly representable; Money must treat
        # it as the written literal, not the binary expansion.
        assert Money(0.1).amount == Decimal("0.1")

    def test_from_int(self):
        assert Money(3).amount == Decimal(3)

    def test_dollars_and_cents_roundtrip(self):
        assert cents(dollars("1.23").to_cents()) == dollars("1.23")

    def test_zero_is_falsy(self):
        assert not ZERO
        assert Money("0.01")


class TestArithmetic:
    def test_addition(self):
        assert Money("1.10") + Money("2.05") == Money("3.15")

    def test_sum_builtin_starts_from_int_zero(self):
        assert sum([Money(1), Money(2)]) == Money(3)

    def test_subtraction_can_go_negative(self):
        assert Money(1) - Money(3) == Money(-2)

    def test_multiplication_by_scalar(self):
        assert Money("0.12") * 9 == Money("1.08")
        assert 9 * Money("0.12") == Money("1.08")

    def test_money_times_money_is_rejected(self):
        with pytest.raises(TypeError):
            Money(2) * Money(3)

    def test_division_by_scalar(self):
        assert Money("1.08") / 9 == Money("0.12")

    def test_division_by_money_is_rejected(self):
        with pytest.raises(TypeError):
            Money(4) / Money(2)

    def test_ratio_to(self):
        assert Money(3).ratio_to(Money(4)) == pytest.approx(0.75)

    def test_ratio_to_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            Money(3).ratio_to(ZERO)

    def test_negation_and_abs(self):
        assert -Money(5) == Money(-5)
        assert abs(Money(-5)) == Money(5)


class TestRounding:
    def test_quantized_half_up(self):
        assert Money("1.005").quantized() == Money("1.01")
        assert Money("1.004").quantized() == Money("1.00")

    def test_to_cents_half_up(self):
        assert Money("1.005").to_cents() == 101

    def test_str_is_invoice_style(self):
        assert str(Money("9.6")) == "$9.60"

    def test_format_with_spec_uses_float(self):
        assert f"{Money('1.5'):.1f}" == "1.5"


#: The int64 range, where the largest cent counts a bill could plausibly
#: reach live; ``to_cents`` returns Python ints, so nothing bounds it there.
INT64_MAX = 2**63 - 1


def _random_cents(rng: random.Random) -> int:
    """Cent counts across the int64 range, biased toward the edges."""
    magnitude = rng.choice(
        [
            rng.randint(0, 10_000),
            rng.randint(0, 10**9),
            rng.randint(0, INT64_MAX),
            INT64_MAX - rng.randint(0, 3),
        ]
    )
    return -magnitude if rng.random() < 0.5 else magnitude


class TestCentGrid:
    """``to_cents`` and ``cents``: the knapsack's integer weights.

    The knapsack prices each view's weight and the budget's capacity as
    ``Money.to_cents()``, so a cent-representable amount must come back
    from the grid exactly, and rounding onto it must be half-up on both
    signs.
    """

    @pytest.mark.parametrize("seed", range(20))
    def test_cent_grid_round_trip_is_exact(self, seed):
        rng = random.Random(seed)
        for _ in range(500):
            count = _random_cents(rng)
            assert cents(count).to_cents() == count

    @pytest.mark.parametrize("seed", range(10))
    def test_cent_representable_money_survives_round_trip(self, seed):
        rng = random.Random(1000 + seed)
        for _ in range(300):
            base = Decimal(_random_cents(rng)).scaleb(-2)
            # Several spellings of the same amount: plain, a trailing
            # zero, and normalized (exponent form for round dollars).
            for spelling in (base, Decimal(str(base) + "0"), base.normalize()):
                money = Money(spelling)
                assert cents(money.to_cents()) == money

    @pytest.mark.parametrize(
        "amount, expected",
        [
            ("10.005", 1001),
            ("-10.005", -1001),
            ("0.004", 0),
            ("-0.005", -1),
            ("1.999", 200),
        ],
    )
    def test_to_cents_rounds_half_up_on_both_signs(self, amount, expected):
        assert Money(amount).to_cents() == expected
        assert Money(amount).quantized() == cents(expected)

    def test_counts_past_int64_do_not_wrap(self):
        for count in (INT64_MAX, INT64_MAX + 1, -INT64_MAX - 1, -INT64_MAX - 2):
            weight = cents(count).to_cents()
            assert type(weight) is int
            assert weight == count


class TestOrderingAndHashing:
    def test_total_ordering(self):
        assert Money(1) < Money(2) <= Money(2) < Money(3)

    def test_trailing_zeros_do_not_affect_equality_or_hash(self):
        assert Money("1.0") == Money("1.00")
        assert hash(Money("1.0")) == hash(Money("1.00"))

    @given(
        amount=st.decimals(
            min_value=Decimal("-1e12"),
            max_value=Decimal("1e12"),
            places=12,
            allow_nan=False,
            allow_infinity=False,
        )
    )
    @example(amount=Decimal("-0"))
    @example(amount=Decimal("0E-19"))
    @example(amount=Decimal("1.0"))
    @example(amount=Decimal("1.00"))
    @example(amount=Decimal("1E+3"))
    def test_hash_is_the_normalized_amounts_hash(self, amount):
        # Hashing by value needs no normalized copy: every amount
        # hashes like its normalized form, trailing zeros or not.
        assert hash(Money(amount)) == hash(amount.normalize())
        assert hash(Money(amount)) == hash(Money(amount.normalize()))

    def test_comparison_with_non_money_fails(self):
        with pytest.raises(TypeError):
            _ = Money(1) < 2  # noqa: B015 — the comparison is the test


class TestProperties:
    @given(a=money_amounts, b=money_amounts)
    def test_addition_commutes_exactly(self, a, b):
        assert Money(a) + Money(b) == Money(b) + Money(a)

    @given(a=money_amounts, b=money_amounts, c=money_amounts)
    def test_addition_associates_exactly(self, a, b, c):
        left = (Money(a) + Money(b)) + Money(c)
        right = Money(a) + (Money(b) + Money(c))
        assert left == right

    @given(a=money_amounts)
    def test_subtracting_self_is_zero(self, a):
        assert Money(a) - Money(a) == ZERO

    @given(a=money_amounts, k=st.integers(min_value=0, max_value=1000))
    def test_scalar_multiplication_matches_repeated_addition(self, a, k):
        total = ZERO
        for _ in range(min(k, 50)):  # keep the loop bounded
            total = total + Money(a)
        if k <= 50:
            assert Money(a) * k == total

    @given(a=money_amounts)
    def test_cents_roundtrip_within_half_cent(self, a):
        money = Money(a)
        back = cents(money.to_cents())
        assert abs(back - money) <= Money("0.005")
