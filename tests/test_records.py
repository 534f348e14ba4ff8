"""Value semantics of the package's eleven records: equal fields make equal
records, the frozen ten hash by value and refuse assignment, and the
mutable ClassificationReport takes assignment and refuses hashing."""

import copy
import pickle
from fractions import Fraction

import pytest

from curveclass import (
    AbelianGroupStructure,
    ClassificationReport,
    ClosedPoint,
    Coinvariants,
    Curve,
    DoubleCover,
    IharaResult,
    LPolynomial,
    MarkedInstance,
    Poly,
    ProjectiveLine,
    QSqrtValue,
    field_create,
)
from curveclass.errors import CurveClassError
from curveclass.zeta import l_polynomial
from util import build

F5 = field_create(5, 1)
F7 = field_create(7, 1)
LINE = ProjectiveLine(field=F5)
POINT = ClosedPoint(id="d1#0", degree=1, kind="plain")
CURVE = Curve(model=LINE, genus=0, infinity=(POINT,))
TRIVIAL = AbelianGroupStructure(order=1, invariant_factors=())

# (class, fields of the instance, one field to vary, a different value for it)
RECORDS = [
    (ProjectiveLine, {"field": F5}, "field", F7),
    (
        DoubleCover,
        {"field": F5, "f": Poly(F5, [1, 0, 0, 1]), "h": Poly(F5, [])},
        "f",
        Poly(F5, [2, 0, 0, 1]),
    ),
    (
        ClosedPoint,
        {
            "id": "d1#0",
            "degree": 1,
            "kind": "split",
            "pi": Poly(F5, [0, 1]),
            "y_rep": Poly(F5, [1]),
        },
        "y_rep",
        Poly(F5, [2]),
    ),
    (Curve, {"model": LINE, "genus": 0, "infinity": (POINT,)}, "genus", 1),
    (MarkedInstance, {"curve": CURVE, "S": frozenset({"d1#0"}), "T": frozenset(), "p": 2}, "p", 3),
    (
        ClassificationReport,
        {
            "case": 1,
            "verdict": "true",
            "cd_bound": "1",
            "pi1_description": "unknown",
            "pi1_r": None,
            "invariants": {"genus": 0},
            "euler": None,
            "note": None,
        },
        "note",
        "a note",
    ),
    (QSqrtValue, {"a": Fraction(1, 2), "b": Fraction(1, 2), "q": 3}, "b", Fraction(1)),
    (
        IharaResult,
        {"exceeds": True, "value": QSqrtValue(1, 1, 3), "threshold": 0, "approx": "2.73"},
        "threshold",
        1,
    ),
    (AbelianGroupStructure, {"order": 4, "invariant_factors": (2, 2)}, "invariant_factors", (4,)),
    (LPolynomial, {"q": 5, "genus": 1, "coeffs": (1, 1, 5)}, "coeffs", (1, 2, 5)),
    (Coinvariants, {"free_rank": 1, "torsion": TRIVIAL}, "free_rank", 2),
]


@pytest.mark.parametrize("cls, fields, name, other", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_record_value_semantics(cls, fields, name, other):
    a, b = cls(**fields), cls(**fields)
    assert a == b and not a != b
    c = cls(**{**fields, name: other})
    assert a != c and not a == c
    assert a != (name, fields[name])
    assert repr(a).startswith(cls.__name__ + "(")
    assert pickle.loads(pickle.dumps(a)) == a
    if cls is ClassificationReport:
        a.note = other
        assert a.note == other and a == c
        with pytest.raises(TypeError):
            hash(b)
    else:
        assert hash(a) == hash(b)
        with pytest.raises(AttributeError):
            setattr(a, name, other)
        assert a == b


def test_qsqrt_value_folds_square_q():
    # sqrt 4 = 2 is rational, so 1 + 1*sqrt(4) is stored as 3 + 0*sqrt(4)
    v = QSqrtValue(1, 1, 4)
    assert (v.a, v.b) == (Fraction(3), Fraction(0))
    assert isinstance(QSqrtValue(1, 0, 3).a, Fraction)
    assert v == QSqrtValue(3, 0, 4)


def test_l_polynomial_checks_run_at_construction():
    with pytest.raises(CurveClassError, match="functional equation"):
        LPolynomial(q=5, genus=1, coeffs=(1, 1, 4))
    assert LPolynomial(q=5, genus=1, coeffs=(1, 1, 5)).class_number == 7


def test_counted_curve_pickles_and_copies():
    # a count leaves tables in the field, a memoryview among them; they are
    # caches, so the field travels as its description alone
    curve = build(5, f=[1, 0, 0, 1])  # y^2 = x^3 + 1
    l_polynomial(curve)
    assert curve.field._tiles is not None
    for twin in (pickle.loads(pickle.dumps(curve)), copy.deepcopy(curve)):
        assert twin == curve
        assert twin.field.mul_idx(2, 3) == 1
