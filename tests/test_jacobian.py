import itertools
import math
import random

import pytest

from curveclass import (
    BudgetExceeded,
    CurveClassError,
    OracleUnsupportedModel,
    jacobian_group,
    l_polynomial,
)
from curveclass import jacobian as jacobian_mod
from curveclass.gf import Extension, Poly, monic_polys, prime_factors
from curveclass.jacobian import _sqrt_mod, p_sylow_rank, p_torsion_dim
from util import (
    E_33_F7,
    E_9_F7,
    E_H3_F3,
    E_H6_F3,
    E_V4_F3,
    E_Z4_F3,
    G2_X5PX,
    build,
)


def test_projective_line_trivial():
    s = jacobian_group(build(5))
    assert s.order == 1
    assert s.invariant_factors == ()


def test_distinguishes_equal_order_groups():
    # both have h = 4 but different shapes
    z4 = jacobian_group(build(3, f=E_Z4_F3))
    v4 = jacobian_group(build(3, f=E_V4_F3))
    assert z4.order == v4.order == 4
    assert z4.invariant_factors == (4,)
    assert v4.invariant_factors == (2, 2)
    # the same with a repeated odd prime
    z9 = jacobian_group(build(7, f=E_9_F7))
    v9 = jacobian_group(build(7, f=E_33_F7))
    assert z9.order == v9.order == 9
    assert z9.invariant_factors == (9,)
    assert v9.invariant_factors == (3, 3)


def _random_odd_degree_curve(rng, p, m, g):
    q = p**m
    while True:
        f = [rng.randrange(q) for _ in range(2 * g + 1)] + [1]
        try:
            return build(p, m, f=f)
        except CurveClassError:
            continue  # f not squarefree


def test_torsion_counts_match_factors_on_random_curves():
    # every l^j-torsion count, recounted by brute force, must agree with the
    # returned invariant factors: #G[n] = prod gcd(n, d_i)
    rng = random.Random(0x7025)
    shapes = [(3, 1, 1), (3, 1, 2), (3, 1, 3), (5, 1, 1), (5, 1, 2),
              (7, 1, 1), (7, 1, 2), (3, 2, 1), (3, 2, 2)]
    for p, m, g in shapes * 4:
        c = _random_odd_degree_curve(rng, p, m, g)
        s = jacobian_group(c)
        assert s.order == l_polynomial(c).class_number, (p, m, g)
        f = c.model.f
        elements = list(jacobian_mod._mumford_walk(f, g))
        identity = elements[0]
        for l in prime_factors(s.order):
            n = l
            while s.order % n == 0:
                killed = sum(
                    1 for x in elements
                    if jacobian_mod._scalar(n, x, f, g, identity) == identity
                )
                want = math.prod(math.gcd(n, d) for d in s.invariant_factors)
                assert killed == want, (p, m, g, s.invariant_factors, n)
                n *= l


def _brute_force_walk(f, g):
    # every monic u of degree <= g, and every v with deg v < deg u and
    # u | v^2 - f, each in Poly.sort_key order
    k = f.field
    for d in range(g + 1):
        for u in monic_polys(k, d):
            vs = (Poly(k, t) for t in itertools.product(range(k.q), repeat=d))
            for v in sorted(vs, key=Poly.sort_key):
                if ((v * v - f) % u).is_zero:
                    yield (u, v)


def test_walk_matches_brute_force_seeded():
    # the walk builds each u from its factorization; the brute-force walk
    # tries every u and v, so it also sees the u with no v
    rng = random.Random(0x3A1C)
    shapes = [(3, 1, 1), (3, 1, 2), (5, 1, 1), (5, 1, 2), (7, 1, 1), (7, 1, 2),
              (3, 2, 1), (3, 2, 2)]
    curves = [_random_odd_degree_curve(rng, p, m, g) for p, m, g in shapes * 2]
    curves += [build(3, f=E_Z4_F3), build(7, f=E_9_F7), build(5, f=G2_X5PX)]
    for c in curves:
        f, g = c.model.f, c.genus
        walked = list(jacobian_mod._mumford_walk(f, g))
        assert walked == list(_brute_force_walk(f, g)), (c.field.q, f)
        assert len(walked) == l_polynomial(c).class_number


def _identity(field):
    return (Poly(field, (1,)), Poly(field))


def _patched_compose(monkeypatch, wrong):
    real = jacobian_mod._compose
    monkeypatch.setattr(
        jacobian_mod, "_compose", lambda D1, D2, f, g: wrong(real, D1, D2, f, g)
    )


def test_group_sanity_catches_a_wrong_identity_law(monkeypatch):
    _patched_compose(monkeypatch, lambda real, D1, D2, f, g: D2)
    with pytest.raises(CurveClassError, match="internal: identity law fails"):
        jacobian_group(build(3, f=E_Z4_F3))


def test_group_sanity_catches_a_wrong_inverse_law(monkeypatch):
    # x + e = x still holds, but x + y = x for every other y
    def wrong(real, D1, D2, f, g):
        return real(D1, D2, f, g) if D2 == _identity(f.field) else D1

    _patched_compose(monkeypatch, wrong)
    with pytest.raises(CurveClassError, match="internal: inverse law fails"):
        jacobian_group(build(3, f=E_Z4_F3))


def test_group_sanity_catches_a_sum_outside_the_set(monkeypatch):
    # the identity and inverse laws hold; any other sum has deg v = deg u
    def wrong(real, D1, D2, f, g):
        D = real(D1, D2, f, g)
        if D2 in (_identity(f.field), jacobian_mod._negate(D1, f)):
            return D
        return (D[0], D[0])

    _patched_compose(monkeypatch, wrong)
    with pytest.raises(CurveClassError, match="internal: composition left the divisor set"):
        jacobian_group(build(3, f=E_Z4_F3))


def test_group_sanity_catches_a_wrong_associative_law(monkeypatch):
    # x o y = x - y unless y is e or -x: closed, with identity and inverses,
    # but on Z/4 (1 o 1) o 1 = -1 while 1 o (1 o 1) = 1
    def wrong(real, D1, D2, f, g):
        if D2 in (_identity(f.field), jacobian_mod._negate(D1, f)):
            return real(D1, D2, f, g)
        return real(D1, jacobian_mod._negate(D2, f), f, g)

    _patched_compose(monkeypatch, wrong)
    with pytest.raises(CurveClassError, match="internal: associativity fails"):
        jacobian_group(build(3, f=E_Z4_F3))


def test_sqrt_mod_refuses_moduli_with_a_common_factor():
    # f = x^3 + x over F_3 has f(2) = 1, a square, so x + 1 has local
    # roots; repeated, its two moduli are not coprime
    f = build(3, f=E_Z4_F3).model.f
    pi = Poly(f.field, [1, 1])
    assert len(_sqrt_mod(f, [(pi, 1)], {})) == 2
    with pytest.raises(CurveClassError, match="internal: moduli must be coprime"):
        _sqrt_mod(f, [(pi, 1), (pi, 1)], {})


def test_hensel_lift_is_checked(monkeypatch):
    # a residue of 0 is no square root of f where f is a nonzero square
    monkeypatch.setattr(Extension, "residue", lambda self, beta, alpha, pi: Poly(self.base))
    with pytest.raises(CurveClassError, match="internal: Hensel lift failed"):
        jacobian_group(build(3, f=E_Z4_F3))


def test_scalar_is_repeated_composition():
    # _scalar(n, x) must equal x composed with itself n times, n = 0 giving
    # the identity, up to n = N + 1 on every element of Z/4 and Z/9
    for p, fc in [(3, E_Z4_F3), (7, E_9_F7)]:
        c = build(p, f=fc)
        f, g = c.model.f, c.genus
        elements = list(jacobian_mod._mumford_walk(f, g))
        identity = elements[0]
        for x in elements:
            acc = identity
            for n in range(len(elements) + 2):
                assert jacobian_mod._scalar(n, x, f, g, identity) == acc, (p, x, n)
                acc = jacobian_mod._compose(acc, x, f, g)


def test_multiplication_leaving_the_set_is_an_error(monkeypatch):
    real = jacobian_mod._scalar

    def leaky(n, D, f, g, identity):
        y = real(n, D, f, g, identity)
        if y != identity:
            return (y[0], y[0])  # deg v = deg u: not a reduced Mumford pair
        return y

    monkeypatch.setattr(jacobian_mod, "_scalar", leaky)
    with pytest.raises(CurveClassError, match="left the divisor set"):
        jacobian_group(build(3, f=E_Z4_F3))


def test_pinned_elliptic_structures():
    assert jacobian_group(build(3, f=E_H3_F3)).invariant_factors == (3,)
    assert jacobian_group(build(3, f=E_H6_F3)).invariant_factors == (6,)


def test_pinned_genus2_structures():
    for q, want in [(3, (2, 6)), (5, (6, 6)), (7, (8, 8))]:
        s = jacobian_group(build(q, f=G2_X5PX))
        assert s.invariant_factors == want
        assert s.order == l_polynomial(build(q, f=G2_X5PX)).class_number


def test_order_always_matches_class_number():
    for kwargs in [
        dict(p=3, f=list(E_Z4_F3)),
        dict(p=5, f=[0, 1, 0, 1]),
        dict(p=5, f=[2, 1, 0, 1]),
        dict(p=7, f=[3, 0, 1, 1]),
    ]:
        c = build(**kwargs)
        assert jacobian_group(c).order == l_polynomial(c).class_number, kwargs


def test_p_torsion_dim():
    s = jacobian_group(build(5, f=G2_X5PX))  # Z/6 x Z/6
    assert p_torsion_dim(s, 2) == 2
    assert p_torsion_dim(s, 3) == 2
    assert p_torsion_dim(s, 5) == 0


def test_invariant_factor_chain():
    for kwargs in [dict(p=3, f=list(G2_X5PX)), dict(p=7, f=list(G2_X5PX))]:
        s = jacobian_group(build(**kwargs))
        fac = s.invariant_factors
        prod = 1
        for i, d in enumerate(fac):
            assert d > 1
            prod *= d
            if i + 1 < len(fac):
                assert fac[i + 1] % d == 0
        assert prod == s.order


def test_p_sylow_walk_matches_enumeration_seeded():
    # the walk's s against the full oracle's, for every prime l | h, on
    # seeded odd-degree curves and on pinned groups: Z/9 against (Z/3)^2,
    # and (Z/6)^2 for both of its primes
    rng = random.Random(0x5710)
    shapes = [(3, 1, 1), (3, 1, 2), (5, 1, 1), (5, 1, 2),
              (7, 1, 1), (7, 1, 2), (3, 2, 1), (3, 2, 2)]
    curves = [_random_odd_degree_curve(rng, p, m, g) for p, m, g in shapes * 2]
    curves += [build(7, f=E_9_F7), build(7, f=E_33_F7), build(5, f=G2_X5PX)]
    dims = set()
    for c in curves:
        h = l_polynomial(c).class_number
        structure = jacobian_group(c)
        assert structure.order == h
        for l in prime_factors(h):
            want = p_torsion_dim(structure, l)
            assert p_sylow_rank(c, l, h) == want, (c.field.q, c.model.f, l)
            dims.add(want)
    assert dims >= {1, 2}
    assert p_sylow_rank(build(7, f=E_9_F7), 3, 9) == 1
    assert p_sylow_rank(build(7, f=E_33_F7), 3, 9) == 2
    assert p_sylow_rank(build(5, f=G2_X5PX), 2, 36) == 2
    assert p_sylow_rank(build(5, f=G2_X5PX), 3, 36) == 2
    # l coprime to h: the Sylow subgroup is trivial and nothing is walked
    assert p_sylow_rank(build(5, f=G2_X5PX), 5, 36) == 0


def test_p_sylow_walk_checks(monkeypatch):
    # a walk capped one element short of the one that fills the Sylow
    # subgroup runs out, and h + 1 fails h*x = 0 on the first element walked
    real = jacobian_mod._mumford_walk
    for q, fc, l in [(7, E_9_F7, 3), (7, E_33_F7, 3), (5, G2_X5PX, 2), (5, G2_X5PX, 3)]:
        c = build(q, f=fc)
        h = l_polynomial(c).class_number
        pulled = []

        def counting(f, g):
            for x in real(f, g):
                pulled.append(x)
                yield x

        monkeypatch.setattr(jacobian_mod, "_mumford_walk", counting)
        p_sylow_rank(c, l, h)
        need = len(pulled)

        def capped(f, g):
            for i, x in enumerate(real(f, g)):
                if i == need - 1:
                    return
                yield x

        monkeypatch.setattr(jacobian_mod, "_mumford_walk", capped)
        with pytest.raises(CurveClassError, match="internal: the walk ran out"):
            p_sylow_rank(c, l, h)
        monkeypatch.setattr(jacobian_mod, "_mumford_walk", real)
        for k in prime_factors(h + 1):
            with pytest.raises(CurveClassError, match=r"internal: h\*x is not zero"):
                p_sylow_rank(c, k, h + 1)


def test_unsupported_models():
    with pytest.raises(OracleUnsupportedModel):
        jacobian_group(build(2, f=[1, 0, 0, 1], h=[0, 1]))  # char 2
    with pytest.raises(OracleUnsupportedModel):
        jacobian_group(build(3, f=[1, 0, 0, 0, 1]))  # even degree (real model)


def test_enum_cap():
    # q^g = 37^2 = 1369 is past the enumeration cap
    with pytest.raises(BudgetExceeded):
        jacobian_group(build(37, f=list(G2_X5PX)))


def test_json_key_order():
    s = jacobian_group(build(3, f=E_Z4_F3))
    assert list(s.to_json()) == ["invariant_factors", "order"]
    assert s.to_json() == {"invariant_factors": [4], "order": 4}
