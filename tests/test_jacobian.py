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
from curveclass.gf import prime_factors
from curveclass.jacobian import p_sylow_rank, p_torsion_dim
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
