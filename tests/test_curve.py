import random

import pytest

import curveclass.curve as curve_mod
from curveclass import (
    BudgetExceeded,
    GeometricallyReducible,
    SingularModel,
    UnsupportedModel,
    CurveClassError,
    census,
    closed_point_counts,
    closed_points,
    count_points,
    curve_to_json,
    model_from_json,
    necklace_count,
    validate,
)
from util import E_Z4_F3, G2_X5PX, build, curve_json


# ---------------------------------------------------------------------------
# validation

def test_projective_line():
    c = build(2)
    assert c.genus == 0
    assert len(c.infinity) == 1
    assert c.infinity[0].degree == 1


def test_odd_char_genus_formula():
    assert build(3, f=[0, 1, 0, 1]).genus == 1      # deg 3
    assert build(3, f=[1, 0, 0, 0, 1]).genus == 1   # deg 4
    assert build(3, f=G2_X5PX).genus == 2           # deg 5
    assert build(5, f=[1, 1, 0, 0, 0, 0, 1]).genus == 2  # deg 6


def test_odd_char_rejects_h():
    with pytest.raises(UnsupportedModel):
        build(3, f=[0, 1, 0, 1], h=[1])


def test_char2_requires_h():
    with pytest.raises(UnsupportedModel):
        build(2, f=[1, 0, 0, 1], h=[])


def test_zero_f_not_reduced():
    with pytest.raises(SingularModel):
        build(3, f=[0])


def test_constant_f_reducible():
    with pytest.raises(GeometricallyReducible):
        build(3, f=[1])
    with pytest.raises(GeometricallyReducible):
        build(3, f=[2])


def test_repeated_root_rejected():
    with pytest.raises(SingularModel):
        build(3, f=[0, 0, 1])          # y^2 = x^2
    with pytest.raises(SingularModel):
        build(3, f=[1, 1, 0, 0, 0, 1])  # x^5+x+1 = (x+2)^2 (x^3+2x^2+1) over F_3


def test_char2_singular_node():
    with pytest.raises(SingularModel):
        build(2, f=[0, 0, 0, 1], h=[0, 1])  # y^2 + xy = x^3, node at origin


def test_char2_artin_schreier_reducible():
    # y^2 + y = x^2 + x splits as (y+x)(y+x+1) = 0
    with pytest.raises(GeometricallyReducible):
        build(2, f=[0, 1, 1], h=[1])


def test_char2_genus_values():
    assert build(2, f=[1, 0, 0, 1], h=[0, 1]).genus == 1   # y^2+xy = x^3+1
    assert build(2, f=[0, 0, 0, 0, 0, 1], h=[1]).genus == 2  # y^2+y = x^5
    assert build(2, f=[0, 0, 0, 1], h=[1]).genus == 1      # y^2+y = x^3
    assert build(2, f=[0, 1], h=[1]).genus == 0            # y^2+y = x


# ---------------------------------------------------------------------------
# points at infinity

def test_infinity_odd_degree_ramified():
    c = build(3, f=[0, 1, 0, 1])
    assert [(pt.degree, pt.kind) for pt in c.infinity] == [(1, "infinity")]


def test_infinity_even_degree_square_lc_splits():
    c = build(3, f=[1, 0, 0, 0, 1])  # lc 1 is a square mod 3
    assert [(pt.degree, pt.kind) for pt in c.infinity] == [
        (1, "infinity"), (1, "infinity")]


def test_infinity_even_degree_nonsquare_lc_inert():
    c = build(3, f=[1, 1, 0, 0, 2])  # lc 2 is not a square mod 3
    assert [(pt.degree, pt.kind) for pt in c.infinity] == [(2, "infinity")]


def test_char2_infinity_split_vs_inert():
    # y^2 + xy = x^3 + 1: at infinity u has a pole, one ramified place
    c = build(2, f=[1, 0, 0, 1], h=[0, 1])
    assert len(c.infinity) == 1


# ---------------------------------------------------------------------------
# rational point counts

def test_count_projective_line():
    c = build(3)
    for n in range(1, 5):
        assert count_points(c, n) == 3**n + 1


def test_count_supersingular_cubic():
    c = build(3, f=E_Z4_F3)
    assert [count_points(c, n) for n in (1, 2, 3, 4)] == [4, 16, 28, 64]


def test_count_char2_cubic():
    c = build(2, f=[1, 0, 0, 1], h=[0, 1])
    assert [count_points(c, n) for n in (1, 2, 3, 4)] == [4, 8, 4, 16]


def test_count_char2_quintic():
    c = build(2, f=[0, 0, 0, 0, 0, 1], h=[1])
    assert [count_points(c, n) for n in (1, 2, 3, 4)] == [3, 5, 9, 33]


def test_count_over_extension_base():
    # same curve viewed over F_9: N_n(F_9) = N_{2n}(F_3)
    c3 = build(3, f=E_Z4_F3)
    c9 = build(3, m=2, f=[0, 1, 0, 1])
    assert count_points(c9, 1) == count_points(c3, 2)
    assert count_points(c9, 2) == count_points(c3, 4)


def test_count_budget():
    c = build(3, f=E_Z4_F3)
    with pytest.raises(BudgetExceeded):
        count_points(c, 20, budget=10**4)


# ---------------------------------------------------------------------------
# closed points

def test_closed_points_projective_line_f2():
    pts = closed_points(build(2), 3)
    by_deg = {}
    for pt in pts:
        by_deg.setdefault(pt.degree, []).append(pt)
    assert len(by_deg[1]) == 3      # x, x+1, infinity
    assert len(by_deg[2]) == 1      # x^2+x+1
    assert len(by_deg[3]) == 2
    assert [pt.id for pt in by_deg[1]] == ["d1#0", "d1#1", "d1#inf0"]


def test_closed_points_kinds_cubic():
    pts = closed_points(build(3, f=E_Z4_F3), 1)
    kinds = sorted(pt.kind for pt in pts)
    # x = 0 ramified, x = 2 gives two split sheets over f(2) = 1, x = 1 inert
    assert kinds == ["infinity", "ramified", "split", "split"]
    split = [pt for pt in pts if pt.kind == "split"]
    assert split[0].pi == split[1].pi
    assert split[0].y_rep != split[1].y_rep


def test_census_matches_counts():
    for kwargs in [
        dict(p=2),
        dict(p=3, f=E_Z4_F3),
        dict(p=2, f=[1, 0, 0, 1], h=[0, 1]),
        dict(p=2, f=[0, 0, 0, 0, 0, 1], h=[1]),
        dict(p=3, f=[1, 1, 0, 0, 2]),
        dict(p=3, m=2, f=[0, 1, 0, 1]),
    ]:
        c = build(**kwargs)
        pts = closed_points(c, 4)
        for n in range(1, 5):
            assert census(pts, n) == count_points(c, n), kwargs


def test_closed_points_deterministic():
    c = build(3, f=G2_X5PX)
    a = [(pt.id, pt.degree, pt.kind) for pt in closed_points(c, 3)]
    b = [(pt.id, pt.degree, pt.kind) for pt in closed_points(c, 3)]
    assert a == b
    ids = [pt.id for pt in closed_points(c, 2)]
    assert ids == sorted(ids, key=lambda s: (int(s[1]), "inf" in s, s))


def test_closed_points_budget_checked_first(monkeypatch):
    # over F_3, degree 13 is the first past the default budget: no field is
    # built, by the enumeration or by the count
    monkeypatch.delenv("CURVECLASS_BUDGET", raising=False)
    c = build(3, f=E_Z4_F3)
    calls = []
    real = curve_mod._extension

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(curve_mod, "_extension", counting)
    for enumerate_or_count in (closed_points, closed_point_counts):
        with pytest.raises(BudgetExceeded, match=r"q\^d = 1594323 exceeds budget 1000000"):
            enumerate_or_count(c, 10**6)
    assert calls == []


def test_closed_point_counts_match_enumeration_seeded():
    # (p, m, largest degree): both characteristics, prime and non-prime q
    rng = random.Random(0xC0DE)
    places = set()
    for p, m, top in [(2, 1, 5), (3, 1, 4), (2, 2, 3), (5, 1, 3), (7, 1, 3),
                      (2, 3, 3), (3, 2, 3), (3, 3, 2)]:
        q = p**m
        assert closed_point_counts(build(p, m), top) == [0] + [
            necklace_count(q, d) for d in range(1, top + 1)]
        for degree in (3, 4, 5, 6, 3, 4, 5, 6):
            while True:
                # a random lead makes both kinds of even-degree model occur
                f = [rng.randrange(q) for _ in range(degree)] + [rng.randrange(1, q)]
                h = [] if p != 2 else [rng.randrange(q) for _ in range(degree // 2)] + [1]
                try:
                    c = build(p, m, f=f, h=h)
                    break
                except CurveClassError:
                    continue
            places |= {(p == 2, pt.id) for pt in c.infinity}
            pts = closed_points(c, top)
            want = [0] + [sum(1 for pt in pts if pt.degree == d and pt.kind != "infinity")
                          for d in range(1, top + 1)]
            assert closed_point_counts(c, top) == want, (p, m, f, h)
    assert {(False, "d2#inf0"), (True, "d2#inf0"), (False, "d1#inf1")} <= places


def test_closed_point_ids_shape():
    for pt in closed_points(build(5), 2):
        deg, rest = pt.id[1:].split("#")
        assert int(deg) == pt.degree
        if pt.kind == "infinity":
            assert rest.startswith("inf")


# ---------------------------------------------------------------------------
# wire format

def test_curve_json_round_trip():
    data = curve_json(3, f=list(E_Z4_F3))
    c = validate(model_from_json(data))
    out = curve_to_json(c)
    assert out["field"] == {"p": 3, "m": 1}
    assert out["model"] == {"kind": "double_cover", "f": [0, 1, 0, 1], "h": []}
    assert out["genus"] == 1
    c2 = validate(model_from_json(out))
    assert c2.genus == c.genus


def test_extension_field_json_includes_modulus():
    data = curve_json(3, m=2, f=[0, 1, 0, 1])
    c = validate(model_from_json(data))
    out = curve_to_json(c)
    assert out["field"]["modulus"] == [1, 0, 1]
