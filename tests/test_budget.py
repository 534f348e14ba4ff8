"""The one budget check (``budget.check_budget``) at every public entry."""

import pytest

from curveclass import (
    BudgetExceeded,
    CurveClassError,
    MarkedInstance,
    class_number,
    classify,
    closed_point_counts,
    closed_points,
    count_points,
    irreducibles,
    l_polynomial,
)
from curveclass.gf import Field
from curveclass.classify import resolve_point_degrees
from util import E_Z4_F3, build


def test_l_polynomial_checks_q_to_the_g_first(monkeypatch):
    # g = 3 over F_101: q^3 is past the default budget, so neither F_101 nor
    # F_{101^2} is built for N_1 and N_2 before N_3 is refused
    c = build(101, f=[1, 1, 0, 0, 0, 0, 0, 1])
    assert c.genus == 3
    calls = []
    real = Field.extension

    def counting(self, n):
        calls.append(n)
        return real(self, n)

    monkeypatch.setattr(Field, "extension", counting)
    with pytest.raises(BudgetExceeded) as exc:
        l_polynomial(c)
    assert str(exc.value) == "q^d = 1030301 exceeds budget 1000000"
    assert calls == []


ENTRIES = {
    "classify": lambda c, b: classify(MarkedInstance(c, [], [], 3), budget=b),
    "resolve_point_degrees": lambda c, b: resolve_point_degrees(c, ["d1#0"], budget=b),
    "count_points": lambda c, b: count_points(c, 1, budget=b),
    "irreducibles": lambda c, b: irreducibles(c.field, 1, budget=b),
    "closed_points": lambda c, b: closed_points(c, 1, budget=b),
    "closed_point_counts": lambda c, b: closed_point_counts(c, 1, budget=b),
    "l_polynomial": lambda c, b: l_polynomial(c, budget=b),
    "class_number": lambda c, b: class_number(c, budget=b),
}


@pytest.mark.parametrize("budget", [0, -1, True, 1.5, "5"])
@pytest.mark.parametrize("entry", ENTRIES.values(), ids=ENTRIES.keys())
def test_invalid_budget_is_an_input_error(entry, budget):
    c = build(3, f=E_Z4_F3)
    with pytest.raises(CurveClassError) as exc:
        entry(c, budget)
    assert not isinstance(exc.value, BudgetExceeded)
    assert str(exc.value) == f"budget {budget!r} is not an integer >= 1"
