"""Exact monetary arithmetic.

Cloud bills are money, and money must never be a float.  :class:`Money`
wraps :class:`decimal.Decimal` with a small, closed set of operations:
addition/subtraction with other :class:`Money`, multiplication/division
by dimensionless numbers, comparisons, and explicit rounding to cents.

The paper's cost models (Formulas 1-12) produce dollar amounts from
per-GB and per-hour rates; keeping the arithmetic in ``Decimal`` means
the worked examples of the paper ($1.08, $9.6, $924, ...) are matched
digit-for-digit rather than to within float epsilon.

Two deliberately missing operations:

* ``Money * Money`` — dollars squared has no meaning in a bill;
* implicit float construction — ``Money(0.1)`` would smuggle binary
  rounding error into the ledger, so floats are converted via ``str``.
"""

from __future__ import annotations

import functools
from decimal import Context, ROUND_HALF_UP, Decimal
from typing import Union

__all__ = ["Money", "ZERO", "MONEY_CONTEXT", "dollars", "cents", "to_decimal"]

_Number = Union[int, str, float, Decimal]

# Bill arithmetic must never round silently.  The default context's 28
# significant digits are not enough once float-derived factors enter a
# product: ``str(float)`` carries up to 17 significant digits, and the
# longest chain this library builds — an asynchronous fleet's
# per-tenant share, cost-model amount x segment fraction x weight
# ratio — reaches about 70.  A rounded product would leave per-tenant
# shares summing to the fleet bill only approximately.  Money therefore
# runs all its arithmetic through its own 120-digit context — exact
# headroom for that chain, identical in every thread, and invisible to
# the host application's own ``decimal`` context.  (Exact results do
# not depend on the precision, so widening it changes no exact bytes.)
# Hot loops may fold raw ``Decimal`` amounts through this same context
# and wrap the result in Money once: the same operations on the same
# operands in the same order give the same bytes.
MONEY_CONTEXT = Context(prec=120)

# One cent: the resolution every bill is quantized to on request.
_CENT = Decimal("0.01")


def to_decimal(value: _Number) -> Decimal:
    """Convert a supported numeric type to ``Decimal`` exactly.

    Floats are routed through ``str`` so that ``0.1`` becomes
    ``Decimal('0.1')`` rather than the 55-digit binary expansion —
    callers passing floats mean the decimal literal they wrote.
    """
    if isinstance(value, Decimal):
        return value
    if isinstance(value, float):
        return Decimal(str(value))
    return Decimal(value)


@functools.total_ordering
class Money:
    """An exact dollar amount.

    ``Money`` is immutable and hashable.  Arithmetic keeps full
    precision; call :meth:`quantized` to round to cents (half-up, the
    convention invoices use).

    Examples
    --------
    >>> Money("0.12") * 9
    Money('1.08')
    >>> (Money("0.14") * 550 * 12).quantized()
    Money('924.00')
    """

    __slots__ = ("_amount",)

    def __init__(self, amount: _Number = 0) -> None:
        self._amount = to_decimal(amount)

    # -- accessors ----------------------------------------------------

    @property
    def amount(self) -> Decimal:
        """The underlying ``Decimal`` dollar amount."""
        return self._amount

    def to_float(self) -> float:
        """Lossy float view, for plotting and quick display only."""
        return float(self._amount)

    def to_cents(self) -> int:
        """The amount in integer cents, rounded half-up.

        This is the discretization used by the knapsack dynamic
        program, which needs integer weights.
        """
        return int(self._amount.quantize(_CENT, rounding=ROUND_HALF_UP) * 100)

    def quantized(self) -> "Money":
        """This amount rounded to whole cents (half-up)."""
        return Money(self._amount.quantize(_CENT, rounding=ROUND_HALF_UP))

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "Money") -> "Money":
        if not isinstance(other, Money):
            return NotImplemented
        return Money(MONEY_CONTEXT.add(self._amount, other._amount))

    def __radd__(self, other: object) -> "Money":
        # Support sum() which starts from int 0.
        if other == 0:
            return self
        return NotImplemented  # type: ignore[return-value]

    def __sub__(self, other: "Money") -> "Money":
        if not isinstance(other, Money):
            return NotImplemented
        return Money(MONEY_CONTEXT.subtract(self._amount, other._amount))

    def __mul__(self, factor: _Number) -> "Money":
        if isinstance(factor, Money):
            raise TypeError("cannot multiply Money by Money")
        return Money(MONEY_CONTEXT.multiply(self._amount, to_decimal(factor)))

    def __rmul__(self, factor: _Number) -> "Money":
        return self.__mul__(factor)

    def __truediv__(self, divisor: _Number) -> "Money":
        if isinstance(divisor, Money):
            raise TypeError(
                "Money / Money is a ratio; use .ratio_to() for that"
            )
        return Money(MONEY_CONTEXT.divide(self._amount, to_decimal(divisor)))

    def __neg__(self) -> "Money":
        return Money(MONEY_CONTEXT.minus(self._amount))

    def __abs__(self) -> "Money":
        return Money(MONEY_CONTEXT.abs(self._amount))

    def ratio_to(self, other: "Money") -> float:
        """Dimensionless ratio ``self / other`` as a float.

        Used for improvement *rates* (Tables 6-8 of the paper), which
        are percentages, not dollar amounts.
        """
        if not isinstance(other, Money):
            raise TypeError("ratio_to expects Money")
        if other._amount == 0:
            raise ZeroDivisionError("ratio to zero Money")
        return float(MONEY_CONTEXT.divide(self._amount, other._amount))

    # -- comparisons / hashing ---------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Money):
            return NotImplemented
        return self._amount == other._amount

    def __lt__(self, other: "Money") -> bool:
        if not isinstance(other, Money):
            return NotImplemented
        return self._amount < other._amount

    def __hash__(self) -> int:
        # Decimal hashes by value, so Money('1.0') and Money('1.00')
        # hash identically, matching __eq__ (Decimal("1.0") ==
        # Decimal("1.00")), with no normalized copy per hash.
        return hash(self._amount)

    def __bool__(self) -> bool:
        return self._amount != 0

    # -- display ------------------------------------------------------

    def __repr__(self) -> str:
        return f"Money('{self._amount}')"

    def __str__(self) -> str:
        return f"${self._amount.quantize(_CENT, rounding=ROUND_HALF_UP)}"

    def __format__(self, spec: str) -> str:
        if not spec:
            return str(self)
        return format(self.to_float(), spec)


#: The zero dollar amount, handy as a fold seed.
ZERO = Money(0)


def dollars(amount: _Number) -> Money:
    """Shorthand constructor: ``dollars('0.12')``."""
    return Money(amount)


def cents(amount: int) -> Money:
    """Construct Money from integer cents (inverse of ``to_cents``)."""
    return Money(Decimal(amount) / 100)
