"""Exact evaluation of sums d / (q^(d/2) - 1) in Q(sqrt q).

A multiset of closed-point degrees d contributes, per degree,

    d / (q^(d/2) - 1)

which is rational for even d and, for odd d, rationalizes to

    d * (c*sqrt(q) + 1) / (c^2 * q - 1),   c = q^((d-1)/2).

Values are carried as a + b*sqrt(q) with Fraction coefficients; when q is a
perfect square the irrational part folds into a and b stays 0.  Comparisons
against rational thresholds are decided exactly by sign analysis on
A + B*sqrt(q) (squaring only when the signs of A and B differ), never by
floating point.  A 50-digit decimal rendering is provided for display and
cross-checks only; the exact path is authoritative.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from decimal import Decimal, getcontext
from fractions import Fraction

from .errors import CurveClassError
from .record import FrozenRecord

DECIMAL_DIGITS = 50


def _is_perfect_square(q: int) -> bool:
    r = math.isqrt(q)
    return r * r == q


class QSqrtValue(FrozenRecord):
    """The number a + b*sqrt(q), coefficients exact rationals.

    Construction makes a and b Fractions and, for square q, folds b*sqrt(q)
    into a, so b is 0 whenever sqrt(q) is rational.
    """

    __slots__ = ("a", "b", "q")

    def __init__(self, a, b, q: int):
        a, b = Fraction(a), Fraction(b)
        if b and _is_perfect_square(q):
            a, b = a + b * math.isqrt(q), Fraction(0)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "q", q)

    def __add__(self, other: "QSqrtValue") -> "QSqrtValue":
        if self.q != other.q:
            raise CurveClassError("cannot add values over different q")
        return QSqrtValue(self.a + other.a, self.b + other.b, self.q)

    def sign(self) -> int:
        """Exact sign of a + b*sqrt(q): -1, 0 or +1."""
        a, b, q = self.a, self.b, self.q
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return 1 if b > 0 else -1
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        d = a * a - b * b * q  # same sign as (a - |b| sqrt q)(a + |b| sqrt q)
        if d == 0:
            raise CurveClassError("sqrt(q) cannot be rational for non-square q")
        if a > 0:  # b < 0: positive iff a > |b| sqrt q
            return 1 if d > 0 else -1
        return 1 if d < 0 else -1  # a < 0, b > 0

    def compare(self, threshold) -> int:
        """Sign of (self - threshold) for a rational threshold."""
        return QSqrtValue(self.a - Fraction(threshold), self.b, self.q).sign()

    def approx(self) -> str:
        ctx_prec = getcontext().prec
        try:
            getcontext().prec = DECIMAL_DIGITS
            val = _fraction_to_decimal(self.a)
            if self.b:
                val += _fraction_to_decimal(self.b) * Decimal(self.q).sqrt()
            return str(+val)
        finally:
            getcontext().prec = ctx_prec

    def to_json(self) -> dict:
        return {
            "a": f"{self.a.numerator}/{self.a.denominator}",
            "b": f"{self.b.numerator}/{self.b.denominator}",
            "q": self.q,
            "approx": self.approx(),
        }


def _fraction_to_decimal(fr: Fraction) -> Decimal:
    return Decimal(fr.numerator) / Decimal(fr.denominator)


def degree_term(d: int, q: int) -> QSqrtValue:
    """The exact value d / (q^(d/2) - 1)."""
    if d < 1:
        raise CurveClassError("degrees must be positive")
    if d % 2 == 0:
        return QSqrtValue(Fraction(d, q ** (d // 2) - 1), 0, q)
    c = q ** ((d - 1) // 2)
    den = c * c * q - 1
    return QSqrtValue(Fraction(d, den), Fraction(d * c, den), q)


def ihara_sum(degrees: Iterable[int], q: int) -> QSqrtValue:
    total = QSqrtValue(0, 0, q)
    count = 0
    for d in degrees:
        total = total + degree_term(d, q)
        count += 1
    if count == 0:
        raise CurveClassError("degree multiset must be nonempty")
    return total


class IharaResult(FrozenRecord):
    __slots__ = ("exceeds", "value", "threshold", "approx")

    def __init__(self, exceeds: bool, value: QSqrtValue, threshold: int, approx: str):
        object.__setattr__(self, "exceeds", exceeds)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "threshold", threshold)
        object.__setattr__(self, "approx", approx)

    def to_json(self) -> dict:
        return {
            "exceeds": self.exceeds,
            "value": self.value.to_json(),
            "threshold": self.threshold,
            "approx": self.approx,
        }


def ihara_sum_exceeds(degrees: Iterable[int], q: int, g: int) -> IharaResult:
    """Decide sum_d d/(q^(d/2)-1) > max(g-1, 0), exactly.

    The strict threshold max(g-1, 0) is the finiteness threshold for the
    geometric bound at genus g; for g >= 1 it coincides with g-1.
    """
    value = ihara_sum(degrees, q)
    threshold = max(g - 1, 0)
    return IharaResult(
        exceeds=value.compare(threshold) > 0,
        value=value,
        threshold=threshold,
        approx=value.approx(),
    )
