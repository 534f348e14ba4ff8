import importlib
import random
from fractions import Fraction

import pytest

curve_mod = importlib.import_module("curveclass.curve")
zeta_mod = importlib.import_module("curveclass.zeta")
from curveclass import (
    BudgetExceeded,
    LPolynomial,
    MarkedInstance,
    Poly,
    class_number,
    classify,
    closed_point_counts,
    closed_points,
    count_points,
    field_create,
    irreducibles,
    l_polynomial,
    pic_p_nontrivial,
    resolve_point_degrees,
)
from curveclass.errors import CurveClassError
from curveclass.gf import Field
from util import E_H3_F3, E_H6_F3, E_Z4_F3, G2_X5PX, S2_F3, build


def test_projective_line_trivial():
    lp = l_polynomial(build(3))
    assert lp.coeffs == (1,)
    assert lp.class_number == 1


def test_pinned_elliptic():
    lp = l_polynomial(build(3, f=E_Z4_F3))
    assert lp.coeffs == (1, 0, 3)       # supersingular, trace 0
    assert lp.class_number == 4
    lp = l_polynomial(build(3, f=E_H3_F3))
    assert lp.coeffs == (1, -1, 3)
    assert lp.class_number == 3
    lp = l_polynomial(build(3, f=E_H6_F3))
    assert lp.coeffs == (1, 2, 3)
    assert lp.class_number == 6


def test_pinned_char2():
    lp = l_polynomial(build(2, f=[1, 0, 0, 1], h=[0, 1]))
    assert lp.coeffs == (1, 1, 2)
    assert lp.class_number == 4
    lp = l_polynomial(build(2, f=[0, 0, 0, 0, 0, 1], h=[1]))
    assert lp.coeffs == (1, 0, 0, 0, 4)
    assert lp.class_number == 5


def test_pinned_genus2_family():
    for q, want_l, want_h in [
        (3, (1, 0, 2, 0, 9), 12),
        (5, (1, 0, 10, 0, 25), 36),
        (7, (1, 0, 14, 0, 49), 64),
    ]:
        lp = l_polynomial(build(q, f=G2_X5PX))
        assert lp.coeffs == want_l
        assert lp.class_number == want_h


def test_functional_equation_enforced():
    # a_2 must equal q for genus 1; 5 violates it for q = 3
    with pytest.raises(CurveClassError):
        LPolynomial(q=3, genus=1, coeffs=(1, 0, 5))


def test_weil_bound_enforced():
    # |a_1| <= 2 sqrt(3) < 4
    with pytest.raises(CurveClassError):
        LPolynomial(q=3, genus=1, coeffs=(1, 4, 3))


def test_positive_class_number_enforced():
    with pytest.raises(CurveClassError):
        LPolynomial(q=2, genus=1, coeffs=(1, -4, 2))


def test_predicted_counts_match_direct():
    for kwargs in [
        dict(p=3, f=list(E_Z4_F3)),
        dict(p=3, f=list(G2_X5PX)),
        dict(p=2, f=[1, 0, 0, 1], h=[0, 1]),
    ]:
        c = build(**kwargs)
        lp = l_polynomial(c)
        for n in range(1, 2 * c.genus + 3):
            assert lp.predicted_count(n) == count_points(c, n), (kwargs, n)


def test_evaluate_exact():
    lp = l_polynomial(build(3, f=E_Z4_F3))
    assert lp.evaluate(1) == 4
    assert lp.evaluate(Fraction(1, 3)) == Fraction(4, 3)


def test_class_number_helper():
    assert class_number(build(2)) == 1
    assert class_number(build(3, f=E_H6_F3)) == 6


def test_pic_p():
    lp = l_polynomial(build(3, f=E_H6_F3))
    assert pic_p_nontrivial(lp, 2)
    assert pic_p_nontrivial(lp, 3)
    assert not pic_p_nontrivial(lp, 5)


def test_zeta_budget():
    with pytest.raises(BudgetExceeded):
        l_polynomial(build(3, f=G2_X5PX), budget=5)


def test_json_shape():
    lp = l_polynomial(build(3, f=E_Z4_F3))
    data = lp.to_json()
    assert data == {
        "q": 3,
        "genus": 1,
        "coefficients": [1, 0, 3],
        "class_number": 4,
    }


# ---------------------------------------------------------------------------
# identities that hold in every model of the fields involved


def _random_model(rng, p, m, degree):
    # squarefree f of the given degree with a random (not only monic) lead
    q = p**m
    while True:
        f = [rng.randrange(q) for _ in range(degree)] + [rng.randrange(1, q)]
        try:
            return build(p, m, f=f)
        except CurveClassError:
            continue


def _subfield_map(p, m, n, modulus=None):
    # F_{p^m} -> F_{p^n} by a root of the smaller modulus, found by search
    # with the larger field's own arithmetic (not through Extension)
    small, big = field_create(p, m), field_create(p, n, modulus)

    def horner(coeffs, x):
        acc = 0
        for c in reversed(coeffs):
            acc = big.add_idx(big.mul_idx(acc, x), c)
        return acc

    root = next(r for r in range(big.q) if horner(small.modulus, r) == 0)
    return lambda c: horner(small.digits(c), root)


def test_quadratic_twist_is_l_of_minus_u_seeded():
    # y^2 = c*f with c a non-square has L(-u): a_i changes sign with i
    rng = random.Random(0x7157)
    for p, m in [(3, 1), (5, 1), (7, 1), (3, 2), (11, 1), (13, 1)]:
        field = field_create(p, m)
        c = next(x for x in range(1, field.q) if not field.is_square_idx(x))
        for degree in (3, 4, 5, 6):
            curve = _random_model(rng, p, m, degree)
            twist = build(p, m, f=[field.mul_idx(c, a) for a in curve.model.f.coeffs])
            want = tuple((-1) ** i * a for i, a in enumerate(l_polynomial(curve).coeffs))
            assert l_polynomial(twist).coeffs == want, (p, m, curve.model.f.coeffs)


def test_char2_quadratic_twist_is_l_of_minus_u_seeded():
    # in characteristic 2 the quadratic twist of y^2 + hy = f is
    # y^2 + hy = f + c*h^2 with Tr(c) = 1: z = y + w*h, w^2 + w = c, takes
    # one to the other over F_{q^2} only
    rng = random.Random(0x7C2)
    for m in (1, 2, 3, 4):
        field = field_create(2, m)
        c = next(x for x in range(1, field.q) if field.trace_to_prime_idx(x) == 1)
        wanted = {1: 2, 2: 2}
        while any(wanted.values()):
            h = [rng.randrange(field.q) for _ in range(rng.randint(0, 3))]
            h.append(rng.randrange(1, field.q))
            f = [rng.randrange(field.q) for _ in range(rng.randint(1, 7))]
            try:
                curve = build(2, m, f=f, h=h)
            except CurveClassError:
                continue
            if not wanted.get(curve.genus):
                continue
            wanted[curve.genus] -= 1
            ch2 = (Poly(field, h) * Poly(field, h)).scale(c)
            twist = build(2, m, f=list((Poly(field, f) + ch2).coeffs), h=h)
            want = tuple((-1) ** i * a for i, a in enumerate(l_polynomial(curve).coeffs))
            assert l_polynomial(twist).coeffs == want, (m, f, h)


def test_char2_genus_agrees_with_l_polynomial_seeded():
    # validation reads the genus off the model; l_polynomial takes 2g from
    # it and checks the Weil bound, the functional equation and N_{g+1},
    # which a wrong g breaks: an independent check of the genus
    rng = random.Random(0x6E2)
    for m in (1, 2, 3):
        q, found = 2**m, 0
        while found < 40:
            f = [rng.randrange(q) for _ in range(rng.randint(1, 10))]
            h = [rng.randrange(q) for _ in range(rng.randint(1, 6))]
            try:
                curve = build(2, m, f=f, h=h)
            except CurveClassError:
                continue
            if curve.genus < 1 or q ** (curve.genus + 2) > 10**6:
                continue
            found += 1
            assert l_polynomial(curve).genus == curve.genus, (m, f, h)


def test_base_change_is_l_of_u_times_l_of_minus_u_seeded():
    # over F_{q^2} the same equation has L(u) * L(-u), read in u^2; F_9
    # goes to F_81 through a root of its modulus found by search
    rng = random.Random(0xBA5E)
    cases = [(p, 1, d) for p in (3, 5, 7) for d in (3, 4, 5, 6)]
    cases += [(p, 1, d) for p in (11, 13) for d in (3, 4)] + [(3, 2, 3), (3, 2, 4)]
    for p, m, degree in cases:
        curve = _random_model(rng, p, m, degree)
        up = _subfield_map(p, m, 2 * m)
        lifted = build(p, 2 * m, f=[up(a) for a in curve.model.f.coeffs])
        a = l_polynomial(curve).coeffs
        prod = [0] * (2 * len(a) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(a):
                prod[i + j] += x * y * (-1) ** j
        assert all(x == 0 for x in prod[1::2])
        assert l_polynomial(lifted).coeffs == tuple(prod[::2]), (p, m, curve.model.f.coeffs)


def test_field_isomorphism_keeps_counts_and_verdicts_seeded():
    # a curve over F_q, q = p^m with m > 1, moved to the lex-last other
    # modulus of degree m through a root of the canonical one: the same
    # curve in another model of F_q
    rng = random.Random(0x150)
    for p, m, top in [(3, 2, 3), (5, 2, 2), (3, 3, 2)]:
        canonical = field_create(p, m).modulus
        other = next(tuple(pi.coeffs) for pi in reversed(irreducibles(field_create(p, 1), m))
                     if tuple(pi.coeffs) != canonical)
        move = _subfield_map(p, m, m, other)
        primes = [p] + [ell for ell in (2, 3, 5, 7, 13) if ell != p and (p**m - 1) % ell == 0]
        for degree in (3, 4, 5, 6):
            curve = _random_model(rng, p, m, degree)
            moved = build(p, m, f=[move(a) for a in curve.model.f.coeffs], modulus=other)
            assert moved.field.modulus == other
            g = curve.genus
            assert [count_points(moved, n) for n in range(1, g + 2)] == [
                count_points(curve, n) for n in range(1, g + 2)]
            assert l_polynomial(moved).coeffs == l_polynomial(curve).coeffs
            assert sorted(pt.degree for pt in closed_points(moved, top)) == sorted(
                pt.degree for pt in closed_points(curve, top))
            assert closed_point_counts(moved, top) == closed_point_counts(curve, top)
            # ids name different points in the two models, but a verdict
            # reads only their degrees
            marks = [([], []), (["d1#0"], []), ([], ["d1#0"]), ([], ["d2#0", "d2#1"])]
            for ell in primes:
                for S, T in marks if ell == p else marks[:1]:
                    reports = [classify(MarkedInstance(c, S, T, ell)).to_json()
                               for c in (curve, moved)]
                    assert reports[0] == reports[1], (p, m, curve.model.f.coeffs, ell, S, T)


# ---------------------------------------------------------------------------
# closed-point counts past the genus from L(u)


def _random_genus_model(rng, p, m, g, even):
    # odd characteristic: deg f = 2g + 1, or 2g + 2 with a random lead;
    # characteristic 2: deg h = g + 1 and deg f = 2g + 1 or 2g + 2, kept
    # when the genus comes out as g
    q = p**m
    while True:
        f = [rng.randrange(q) for _ in range(2 * g + 1 + even)] + [rng.randrange(1, q)]
        h = [] if p != 2 else [rng.randrange(q) for _ in range(g + 1)] + [1]
        try:
            curve = build(p, m, f=f, h=h)
        except CurveClassError:
            continue
        if curve.genus == g:
            return curve


def test_closed_point_counts_from_l_polynomial_seeded():
    # N_e for e > g from L(u) against N_e counted over F_{q^e}, up to g + 3
    rng = random.Random(0x1F0)
    fields = [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (3, 2)]
    places = set()
    for p, m in fields:
        q = p**m
        p1 = build(p, m)
        assert closed_point_counts(p1, 3, lp=l_polynomial(p1)) == closed_point_counts(p1, 3)
        for g in (1, 2, 3):
            if q ** (g + 3) > 10**5:
                continue
            for even in (0, 1, 0, 1):
                c = _random_genus_model(rng, p, m, g, even)
                places |= {(p == 2, pt.id) for pt in c.infinity}
                lp = l_polynomial(c)
                for top in range(1, g + 4):
                    assert closed_point_counts(c, top, lp=lp) == closed_point_counts(c, top), (
                        p, m, c.model.f.coeffs, c.model.h.coeffs, top)
    # both kinds of even-degree model, in both characteristics
    assert {(False, "d2#inf0"), (True, "d2#inf0"), (False, "d1#inf1"), (True, "d1#inf1")} <= places


def test_closed_point_counts_with_l_polynomial_count_nothing(monkeypatch):
    # L(u) is built from N_1 .. N_g, so given it no N_e, e <= g among them,
    # is counted again; the counts equal the ones made without it
    curves = [build(5), build(3, f=E_Z4_F3), build(5, f=G2_X5PX), build(3, f=S2_F3),
              _random_genus_model(random.Random(0x1F1), 2, 2, 1, 1)]
    want = [(l_polynomial(c), [closed_point_counts(c, top) for top in range(1, 6)])
            for c in curves]

    def no_count(*args):
        raise AssertionError("counted with L(u) given")

    monkeypatch.setattr(curve_mod, "count_points", no_count)
    for c, (lp, counts) in zip(curves, want):
        assert [closed_point_counts(c, top, lp=lp) for top in range(1, 6)] == counts, c


def test_closed_point_counts_refuses_another_curves_l_polynomial():
    c = build(3, f=E_Z4_F3)
    with pytest.raises(CurveClassError, match="another curve"):
        closed_point_counts(c, 3, lp=l_polynomial(build(3, f=G2_X5PX)))
    with pytest.raises(CurveClassError, match="another curve"):
        closed_point_counts(c, 3, lp=l_polynomial(build(5, f=E_Z4_F3)))
    # the same q and g: without the check the counts would read [0, 2, 6, 11]
    # in place of [0, 3, 6, 8]
    assert closed_point_counts(c, 3, lp=l_polynomial(c)) == [0, 3, 6, 8]
    with pytest.raises(CurveClassError, match="another curve"):
        closed_point_counts(c, 3, lp=l_polynomial(build(3, f=E_H3_F3)))
    # an L-polynomial built by hand belongs to no curve
    with pytest.raises(CurveClassError, match="another curve"):
        closed_point_counts(c, 3, lp=LPolynomial(q=3, genus=1, coeffs=(1, 0, 3)))


@pytest.mark.parametrize("p, m, f, h", [
    (3, 1, E_Z4_F3, None),
    (5, 1, G2_X5PX, None),
    (2, 1, [1, 0, 0, 1], [0, 1]),
    (3, 1, [1, 0, 0, 0, 0, 0, 0, 1], None),
])
def test_resolving_an_id_builds_no_field_past_g_plus_1(monkeypatch, p, m, f, h):
    # d{g+3}#0, by itself and as a mark: the extensions built stop at the
    # N_{g+1} recount of L(u)
    c = build(p, m, f=f, h=h)
    g = c.genus
    pid = f"d{g + 3}#0"
    real = Field.extension
    for resolve in (lambda: resolve_point_degrees(c, [pid]),
                    lambda: classify(MarkedInstance(c, [], [pid], p))):
        degrees = set()
        monkeypatch.setattr(Field, "extension", lambda k, n: degrees.add(n) or real(k, n))
        resolve()
        assert degrees and max(degrees) <= g + 1, (degrees, g)


def _count_off_by_one(monkeypatch, module, degree):
    # module.count_points, one point too many over F_{q^degree}
    real = module.count_points

    def wrong(curve, n, budget=None):
        return real(curve, n, budget) + (n == degree)

    monkeypatch.setattr(module, "count_points", wrong)


def test_recount_catches_a_wrong_next_count(monkeypatch):
    # L(u) comes from N_1 alone for g = 1, so a wrong N_2 shows in the recount
    c = build(3, f=E_Z4_F3)
    _count_off_by_one(monkeypatch, zeta_mod, c.genus + 1)
    with pytest.raises(CurveClassError, match="internal: L-polynomial fails to predict"):
        l_polynomial(c)


def test_newton_recursion_catches_a_wrong_count(monkeypatch):
    # for g = 2, 2 a_2 = s_1^2 - s_2 with s_n = q^n + 1 - N_n: N_2 off by one
    # makes it odd
    c = build(5, f=G2_X5PX)
    assert c.genus == 2
    _count_off_by_one(monkeypatch, zeta_mod, 2)
    with pytest.raises(CurveClassError, match="internal: Newton recursion must divide exactly"):
        l_polynomial(c)


def test_recount_runs_at_a_budget_of_exactly_q_to_the_g_plus_1(monkeypatch):
    # q^(g+1) = 9 for g = 1 over F_3: a budget of 9 affords the recount,
    # one of 8 does not
    c = build(3, f=E_Z4_F3)
    seen = []
    real = zeta_mod.count_points

    def counted(curve, n, budget=None):
        seen.append(n)
        return real(curve, n, budget)

    monkeypatch.setattr(zeta_mod, "count_points", counted)
    for budget, degrees in [(9, [1, 2]), (8, [1])]:
        seen.clear()
        assert l_polynomial(c, budget=budget).coeffs == (1, 0, 3)
        assert seen == degrees, budget


def test_closed_point_counts_check_divisibility(monkeypatch):
    # closed points of degree 2 number (N_2 - N_1) / 2: N_2 off by one
    # leaves a remainder
    c = build(3, f=E_Z4_F3)
    _count_off_by_one(monkeypatch, curve_mod, 2)
    with pytest.raises(CurveClassError, match=r"internal: point counts give \d+/2 closed points"):
        closed_point_counts(c, 2)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: LPolynomial(3, 1, (1, 0)), "must have degree exactly 2g"),
        (lambda: LPolynomial(3, 1, (2, 0, 6)), "must have constant term 1"),
        # Weil bounds and functional equation hold, but L(1) = -10
        (lambda: LPolynomial(2, 2, (1, -5, 0, -10, 4)), "class number must be positive"),
        (lambda: LPolynomial(3, 1, (1, 0, 3)).power_sum(0), "power sum index must be >= 1"),
        (lambda: pic_p_nontrivial(LPolynomial(3, 1, (1, 0, 3)), 1), "p must be a prime"),
    ],
    ids=["length", "constant-term", "class-number", "power-sum-0", "p-1"],
)
def test_bad_l_polynomial_input_is_refused(call, message):
    with pytest.raises(CurveClassError, match=message):
        call()
