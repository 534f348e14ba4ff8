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
from curveclass.curve import Curve, DoubleCover
from curveclass.gf import Extension, Poly, field_create, monic_polys, prime_factors
from curveclass.jacobian import _crt_step, _sqrt_mod_prime_power, p_sylow_rank, p_torsion_dim
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


@pytest.mark.parametrize(
    "model, message",
    [
        ("plane quartic", "no oracle for 'plane quartic'"),
        (DoubleCover(field_create(7, 1), Poly(field_create(7, 1), E_9_F7),
                     Poly(field_create(7, 1), (0, 1))),
         r"oracle needs a completed square \(h = 0\)"),
    ],
    ids=["not-a-double-cover", "odd-characteristic-h"],
)
def test_oracle_gate_refuses_models_it_cannot_walk(model, message):
    # validate refuses both models, so the curves are built by hand
    with pytest.raises(OracleUnsupportedModel, match=message):
        jacobian_mod.oracle_gate(Curve(model, 1, ()))


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
    roots = _sqrt_mod_prime_power(f, pi, 1)
    assert len(roots) == 2
    with pytest.raises(CurveClassError, match="internal: moduli must be coprime"):
        _crt_step(pi, roots, pi, roots)


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


def test_identity_must_be_the_only_zero_torsion_element(monkeypatch):
    # a walk that yields the identity twice: the group laws still hold on
    # the set, but N = 10 and two elements are 0-torsion
    real = jacobian_mod._mumford_walk

    def doubled(f, g):
        walk = real(f, g)
        identity = next(walk)
        yield identity
        yield identity
        yield from walk

    monkeypatch.setattr(jacobian_mod, "_mumford_walk", doubled)
    with pytest.raises(CurveClassError, match="internal: identity must be the only 0-torsion"):
        jacobian_group(build(7, f=E_9_F7))


@pytest.mark.parametrize(
    "fc, image, message",
    [
        # x_1 -> 0 alone: #G[3] = 2 is no power of 3
        (E_9_F7, {1: 0}, "torsion ratio not an l-power"),
        # x_1, x_2 -> 0 and x_3 -> x_1: #G[3] = 3 does not divide #G[9] = 4
        (E_9_F7, {1: 0, 2: 0, 3: 1}, "torsion counts must nest"),
        # every x fixed: #G[9] = 1, not 9
        (E_9_F7, {}, r"l-Sylow subgroup must have l\^a elements"),
        # on (Z/8)^2, x_1 -> 0, x_2..x_7 -> x_1 and the rest -> x_2:
        # #G[2^j] = 2, 8, 64, so the profile starts 1, 2, 3
        (G2_X5PX, {1: 0, **dict.fromkeys(range(2, 8), 1),
                   **dict.fromkeys(range(8, 64), 2)},
         "exponent profile must be non-increasing"),
    ],
)
def test_torsion_profile_checks(monkeypatch, fc, image, message):
    # a wrong _scalar, given as a map on the walk's indices (0 the identity,
    # any index not named fixed), makes x -> l*x into that map
    c = build(7, f=fc)
    elements = list(jacobian_mod._mumford_walk(c.model.f, c.genus))
    index = {x: i for i, x in enumerate(elements)}

    def wrong(n, D, f, g, identity):
        i = index[D]
        return elements[image.get(i, i)]

    monkeypatch.setattr(jacobian_mod, "_scalar", wrong)
    with pytest.raises(CurveClassError, match="internal: " + message):
        jacobian_group(c)


def test_p_sylow_walk_on_the_projective_line_runs_out():
    # P^1 has one divisor class, so no h divisible by p can be filled
    with pytest.raises(CurveClassError, match="internal: the walk ran out"):
        p_sylow_rank(build(5), 5, 5)


def test_p_sylow_cosets_must_not_overlap(monkeypatch):
    # e + y = e: the first coset e + y lands back on the identity
    def wrong(real, D1, D2, f, g):
        return D1 if D1 == _identity(f.field) else real(D1, D2, f, g)

    _patched_compose(monkeypatch, wrong)
    with pytest.raises(CurveClassError, match="internal: cosets of the p-Sylow walk overlap"):
        p_sylow_rank(build(7, f=E_9_F7), 3, 9)


def test_p_sylow_subgroup_must_not_outgrow_p_to_the_a(monkeypatch):
    # on (Z/6)^2 with p = 3 (m = 4, p^a = 9), a _scalar with m*x = x and
    # 9*y = 0 for every y lets elements of order 2 and 6 into the subgroup
    real = jacobian_mod._scalar

    def wrong(n, D, f, g, identity):
        if n == 4:
            return D
        return identity if n == 9 else real(n, D, f, g, identity)

    monkeypatch.setattr(jacobian_mod, "_scalar", wrong)
    with pytest.raises(CurveClassError, match=r"internal: the p-Sylow subgroup outgrew p\^a"):
        p_sylow_rank(build(5, f=G2_X5PX), 3, 36)


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


def test_a_collapsed_scalar_is_caught(monkeypatch):
    # l*x = 0 for every x passes every torsion-profile check, as the group
    # would then be (Z/3)^2 of order 9; the Z/9 curve has elements of order 9
    def collapsed(n, D, f, g, identity):
        return identity

    monkeypatch.setattr(jacobian_mod, "_scalar", collapsed)
    with pytest.raises(CurveClassError, match="internal: l\\*x is not x composed l times"):
        jacobian_group(build(7, f=E_9_F7))
