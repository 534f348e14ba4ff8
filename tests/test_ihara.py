import math
import random
from decimal import Decimal, getcontext
from fractions import Fraction

import pytest

from curveclass import QSqrtValue, degree_term, ihara_sum, ihara_sum_exceeds
from curveclass.errors import CurveClassError


def test_degree_term_values():
    # d / (q^{d/2} - 1): even d rational, odd d lands in Q(sqrt q)
    t = degree_term(2, 3)
    assert (t.a, t.b) == (Fraction(1), Fraction(0))
    t = degree_term(1, 3)
    # 1/(sqrt3 - 1) = (sqrt3 + 1)/2
    assert (t.a, t.b) == (Fraction(1, 2), Fraction(1, 2))
    t = degree_term(4, 2)
    assert (t.a, t.b) == (Fraction(4, 3), Fraction(0))


def test_square_q_collapses_to_rational():
    # q = 4: sqrt q = 2 is rational, b must fold into a
    t = degree_term(1, 4)
    assert t.b == 0 and t.a == Fraction(1)
    t = degree_term(3, 4)
    assert t.b == 0 and t.a == Fraction(3, 7)
    # the odd-d rationalization d(1 + c sqrt q)/(c^2 q - 1) folds to d/(s^d - 1)
    for s in (3, 5, 7):
        for d in (1, 3, 5, 7):
            t = degree_term(d, s * s)
            assert t.b == 0 and t.a == Fraction(d, s**d - 1), (s, d)


def test_sum_and_compare():
    v = ihara_sum([2, 2], 3)
    assert (v.a, v.b) == (Fraction(2), Fraction(0))
    assert v.compare(2) == 0
    assert v.compare(1) > 0
    assert v.compare(3) < 0


def test_exceeds_is_strict():
    # exact tie: 2/(3-1) = 1 = g-1 for g = 2
    res = ihara_sum_exceeds([2], 3, 2)
    assert not res.exceeds
    assert res.threshold == 1
    res = ihara_sum_exceeds([1], 3, 1)
    assert res.exceeds  # 1.366... > 0


def test_result_json_shape():
    res = ihara_sum_exceeds([1, 2], 3, 1)
    data = res.to_json()
    assert list(data) == ["exceeds", "value", "threshold", "approx"]
    assert list(data["value"]) == ["a", "b", "q", "approx"]
    assert data["exceeds"] is True
    assert data["threshold"] == 0


def test_empty_degrees_rejected():
    with pytest.raises(CurveClassError):
        ihara_sum_exceeds([], 3, 1)
    with pytest.raises(CurveClassError):
        ihara_sum_exceeds([0], 3, 1)


def test_exact_vs_decimal_seeded():
    rng = random.Random(0xA11CE)
    getcontext().prec = 80
    for _ in range(60):
        q = rng.choice([2, 3, 4, 5, 7, 9])
        degrees = [rng.randrange(1, 12) for _ in range(rng.randrange(1, 6))]
        v = ihara_sum(degrees, q)
        # recompute at higher precision than the published 50 digits
        ref = (Decimal(v.a.numerator) / Decimal(v.a.denominator)
               + Decimal(v.b.numerator) / Decimal(v.b.denominator)
               * Decimal(q).sqrt())
        got = Decimal(v.approx())
        assert abs(got - ref) < Decimal("1e-45")
        # sign of v - threshold must match the exact comparison
        g = rng.randrange(0, 4)
        res = ihara_sum_exceeds(degrees, q, g)
        assert res.exceeds == (v.compare(max(g - 1, 0)) > 0)


def test_qsqrtvalue_folds_square_q_on_construction():
    # 1 + sqrt(9) = 4
    direct = QSqrtValue(1, 1, 9)
    assert direct == QSqrtValue(4, 0, 9)
    assert (direct.a, direct.b) == (Fraction(4), Fraction(0))
    assert direct.sign() == 1
    assert QSqrtValue(1, Fraction(-1, 2), 4).sign() == 0


def test_qsqrtvalue_add_exact():
    x = QSqrtValue(Fraction(1, 3), Fraction(1, 7), 5)
    y = QSqrtValue(Fraction(2, 3), Fraction(6, 7), 5)
    z = x + y
    assert (z.a, z.b, z.q) == (Fraction(1), Fraction(1), 5)


def test_values_over_different_q_do_not_add():
    with pytest.raises(CurveClassError, match="cannot add values over different q"):
        QSqrtValue(1, 1, 5) + QSqrtValue(1, 1, 7)


def _reference_sign(a, b, q, root):
    # the sign of a + b sqrt(q) against a^2 and b^2 q, or with the integer
    # root when q is a square
    if root is not None:
        v = a + b * root
        return (v > 0) - (v < 0)
    sa, sb = (a > 0) - (a < 0), (b > 0) - (b < 0)
    if not sb or sa == sb:
        return sa
    if not sa:
        return sb
    return sa if a * a > b * b * q else sb


def test_qsqrtvalue_sign_on_every_sign_pattern_seeded():
    # a and b each zero, positive or negative, with |a| near |b| sqrt(q) where
    # the signs differ, over square and non-square q
    rng = random.Random(0x5167)
    seen = set()
    for q in (2, 3, 5, 7, 8, 27, 4, 9, 25, 49):
        root = math.isqrt(q) if math.isqrt(q) ** 2 == q else None
        for _ in range(200):
            b = Fraction(rng.randint(-30, 30), rng.randint(1, 9))
            near = b * (root if root is not None else Fraction(math.isqrt(100 * q), 10))
            a = rng.choice([Fraction(0), -near, near + Fraction(rng.randint(-3, 3), 7),
                            Fraction(rng.randint(-30, 30), rng.randint(1, 9))])
            got = QSqrtValue(a, b, q).sign()
            assert got == _reference_sign(a, b, q, root), (a, b, q)
            seen.add(((a > 0) - (a < 0), (b > 0) - (b < 0), root is None, got))
    # every (sign a, sign b) pair with non-square q, and both outcomes where
    # the signs differ
    patterns = {(sa, sb) for sa, sb, nonsquare, _ in seen if nonsquare}
    assert patterns == {(sa, sb) for sa in (-1, 0, 1) for sb in (-1, 0, 1)}
    for sa, sb in ((1, -1), (-1, 1)):
        assert {got for a_, b_, ns, got in seen if (a_, b_, ns) == (sa, sb, True)} == {-1, 1}
