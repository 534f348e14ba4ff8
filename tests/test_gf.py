import itertools
import random
from array import array

import pytest

from curveclass import (
    BudgetExceeded,
    CurveClassError,
    Poly,
    ReducibleModulus,
    ZeroPolynomial,
    field_create,
    irreducibles,
    is_irreducible,
    necklace_count,
    poly_factor,
    poly_gcd,
)
from curveclass.curve import _extension
from curveclass.gf import (
    Extension,
    Field,
    _fp_is_irreducible,
    det_rank,
    is_prime,
    mobius,
    monic_polys,
    prime_factors,
    primitive_modulus,
    squarefree,
    x_poly,
)
from curveclass.snf import mat_det


def test_canonical_moduli():
    # lex-least irreducible: t^2+t+1 for F_4, t^2+1 for F_9
    assert field_create(2, 2).modulus == (1, 1, 1)
    assert field_create(3, 2).modulus == (1, 0, 1)
    assert field_create(2, 1).modulus == (0, 1)


def test_bad_modulus_rejected():
    with pytest.raises(ReducibleModulus):
        field_create(2, 2, [1, 0, 1])  # t^2+1 = (t+1)^2 over F_2


@pytest.mark.parametrize("modulus", [["1", "0", "1"], [1.0, 0, 1], [True, 0, 1]])
def test_modulus_entries_must_be_ints(modulus):
    # the library entry checks types as the wire format does
    with pytest.raises(CurveClassError, match="must be a list of integers"):
        field_create(3, 2, modulus)


def test_field_axioms_seeded():
    rng = random.Random(101)
    for p, m in [(2, 1), (3, 1), (5, 1), (2, 3), (3, 2), (7, 1)]:
        k = field_create(p, m)
        q = k.q
        assert q == p**m
        for _ in range(60):
            a = rng.randrange(q)
            b = rng.randrange(q)
            c = rng.randrange(q)
            assert k.add_idx(a, b) == k.add_idx(b, a)
            assert k.mul_idx(a, b) == k.mul_idx(b, a)
            assert k.mul_idx(a, k.add_idx(b, c)) == k.add_idx(
                k.mul_idx(a, b), k.mul_idx(a, c))
            assert k.add_idx(a, k.neg_idx(a)) == 0
            if a != 0:
                assert k.mul_idx(a, k.inv_idx(a)) == 1
        # Frobenius fixes exactly the prime field
        fixed = [a for a in range(q) if k.pow_idx(a, p) == a]
        assert len(fixed) == p


def _check_against_digits(k, pairs):
    """Table arithmetic of k against its digit arithmetic: digit-wise
    addition and ``_mul_digits_raw``."""
    p = k.p
    one = k.digits(1)
    squares = {k._mul_digits_raw(k.digits(a), k.digits(a)) for a in range(k.q)}
    for a in range(k.q):
        da = k.digits(a)
        assert k.digits(k.neg_idx(a)) == tuple((p - c) % p for c in da), (k, a)
        assert k.is_square_idx(a) == (da in squares), (k, a)
        if a:
            assert k._mul_digits_raw(da, k.digits(k.inv_idx(a))) == one, (k, a)
    for a, b in pairs:
        da, db = k.digits(a), k.digits(b)
        assert k.digits(k.add_idx(a, b)) == tuple((x + y) % p for x, y in zip(da, db)), (k, a, b)
        assert k.digits(k.mul_idx(a, b)) == k._mul_digits_raw(da, db), (k, a, b)


def test_tables_match_digit_arithmetic():
    for q, (p, m) in {2: (2, 1), 3: (3, 1), 4: (2, 2), 8: (2, 3), 9: (3, 2), 16: (2, 4),
                      25: (5, 2), 27: (3, 3), 49: (7, 2), 64: (2, 6), 121: (11, 2),
                      125: (5, 3)}.items():
        k = field_create(p, m)
        assert k.q == q
        _check_against_digits(k, itertools.product(range(q), repeat=2))


def test_count_point_tables_match_digit_arithmetic_seeded():
    # F_243 over its primitive modulus, as count_points builds it (tables
    # from the multiply-by-t index table), and F_256 over the canonical modulus, whose root t
    # has order 51 (tables by multiplying digit vectors)
    rng = random.Random(243)
    for k in [Field(3, 5, primitive_modulus(3, 5)), field_create(2, 8)]:
        assert k.q > 128
        k.tables()
        pairs = [(rng.randrange(k.q), rng.randrange(k.q)) for _ in range(3000)]
        _check_against_digits(k, pairs)


def _reference_tables(k):
    # exp by stepping x -> t*x one element at a time on digit vectors, log
    # and zech straight from their definitions
    p, n = k.p, k.q - 1
    t = k.digits(p)
    exp, x = [], 1
    for _ in range(n):
        exp.append(x)
        x = k.index_of(k._mul_digits_raw(k.digits(x), t))
    assert x == 1
    log = [0] * k.q
    for i, a in enumerate(exp):
        log[a] = i
    zech = []
    for a in exp:
        d = list(k.digits(a))
        d[0] = (d[0] + 1) % p
        b = k.index_of(d)
        zech.append(log[b] if b else -1)
    return array("i", exp + exp), array("i", log), array("i", zech)


def test_shift_tables_match_reference_walk():
    # tables built from the multiply-by-t index table, byte for byte; over
    # F_{7^5} t^5 = red0 has two nonzero digits
    for p, m in [(7, 5), (2, 12), (3, 7), (13, 3), (5, 6)]:
        k = Field(p, m, primitive_modulus(p, m))
        assert k.q > 128 and k._exp is None
        if (p, m) == (7, 5):
            assert sum(1 for r in k._red[0] if r) == 2
        want = _reference_tables(k)
        got = k.tables()
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want], (p, m)
        # the single -1 of zech: 1 + g^k = 0 at g^k = -1, which is 1 for p = 2
        zech = got[2]
        assert zech.count(-1) == 1
        assert zech[0 if p == 2 else (k.q - 1) // 2] == -1


def test_primitive_modulus_makes_t_the_generator_untested(monkeypatch):
    # a modulus from primitive_modulus has t proven primitive, so no power
    # of t is taken to find the generator
    k = Field(5, 4, primitive_modulus(5, 4))

    def no_pow(*args):
        raise AssertionError("generator tested again")

    monkeypatch.setattr(Field, "pow_idx", no_pow)
    assert k._primitive_element() == 5
    k.tables()


def test_walk_from_t_checks_its_order(monkeypatch):
    # t = i has order 4 in F_9 = F_3[t]/(t^2 + 1); recorded as primitive,
    # its walk returns to 1 at step 4 and the table build refuses it
    from curveclass import gf

    monkeypatch.setitem(gf._PRIMITIVE_MODULI, (3, 2), (1, 0, 1))
    with pytest.raises(CurveClassError, match="first return to 1"):
        Field(3, 2, (1, 0, 1))


def test_extension_rho_is_least_linear_factor_root():
    # the image of the base field's t, found among the subfield elements,
    # is the least root of the base modulus that poly_factor finds
    for p, m in [(2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3), (2, 5), (5, 3)]:
        base = field_create(p, m)
        for n in (2, 3):
            big = Field(p, m * n, primitive_modulus(p, m * n))
            ext = Extension(base, n, big)
            roots = [big.neg_idx(fac.coeffs[0])
                     for fac, _ in poly_factor(Poly(big, base.modulus)) if fac.degree == 1]
            assert len(roots) == m
            assert ext._rho == min(roots), (p, m, n)


def _x_has_full_order(f, p):
    # x^n = 1 and x^(n/r) != 1 for the primes r | n, n = p^m - 1, in
    # F_p[x]/(f), by square-and-multiply on coefficient lists
    m = len(f) - 1
    n = p**m - 1

    def mulmod(a, b):
        out = [0] * (2 * m - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        for top in range(2 * m - 2, m - 1, -1):
            c = out[top] % p
            if c:
                for i in range(m + 1):
                    out[top - m + i] -= c * f[i]
        return [c % p for c in out[:m]]

    def x_pow(e):
        r, b = [1] + [0] * (m - 1), [0, 1] + [0] * (m - 2)
        while e:
            if e & 1:
                r = mulmod(r, b)
            b = mulmod(b, b)
            e >>= 1
        return r

    one = [1] + [0] * (m - 1)
    return x_pow(n) == one and all(x_pow(n // r) != one for r in prime_factors(n))


def test_primitive_modulus_is_lex_least():
    # a plain search over every monic f in the canonical order, with no
    # filter on f(0) or on roots in F_p: the first one in which x has order
    # p^m - 1; t then generates, so its index p is the primitive element
    cases = [(2, m) for m in range(2, 13)] + [(3, m) for m in range(2, 8)]
    cases += [(p, m) for p in (5, 7) for m in range(2, 6)]
    cases += [(p, m) for p in (11, 13) for m in range(2, 4)]
    for p, m in cases:
        want = next(tail + (1,) for tail in itertools.product(range(p), repeat=m)
                    if _x_has_full_order(tail + (1,), p))
        assert primitive_modulus(p, m) == want, (p, m)
        assert Field(p, m, want)._primitive_element() == p, (p, m)


def test_index_digit_round_trip():
    k = field_create(3, 2)
    for idx in range(9):
        assert k.index_of(k.digits(idx)) == idx


def test_squares_and_roots():
    # F_131 and F_243 are past the table limit: their squares come from
    # digit arithmetic, and they build their tables on the first sqrt_idx
    # call; the others read the log tables from the start
    for p, m in [(3, 1), (5, 1), (7, 1), (3, 2), (2, 2), (131, 1), (3, 5)]:
        k = field_create(p, m)
        squares = {k.mul_idx(a, a) for a in range(k.q)}
        if k.q > 128:
            assert k._exp is None
            assert k.sqrt_idx(1) == 1
            assert k._exp is not None
        for a in range(k.q):
            assert k.is_square_idx(a) == (a in squares)
            r = k.sqrt_idx(a)
            if a in squares:
                assert r is not None and k.mul_idx(r, r) == a
            else:
                assert r is None


def _kernel_size(rows, k):
    """#{v in k^n : rows v = 0}, by walking all of k^n."""
    return sum(
        all(_dot(row, v, k) == 0 for row in rows)
        for v in itertools.product(range(k.q), repeat=len(rows))
    )


def _kernel_size_mod_p(rows, p):
    """The same count over F_p in plain integer arithmetic."""
    return sum(
        all(sum(x * y for x, y in zip(row, v)) % p == 0 for row in rows)
        for v in itertools.product(range(p), repeat=len(rows))
    )


def _dot(row, v, k):
    acc = 0
    for x, y in zip(row, v):
        acc = k.add_idx(acc, k.mul_idx(x, y))
    return acc


def _leibniz_det(rows, k):
    """The determinant as a signed sum over permutations."""
    det = 0
    for perm in itertools.permutations(range(len(rows))):
        term = 1
        for i, j in enumerate(perm):
            term = k.mul_idx(term, rows[i][j])
        inversions = sum(perm[i] > perm[j] for i, j in itertools.combinations(range(len(perm)), 2))
        det = k.sub_idx(det, term) if inversions % 2 else k.add_idx(det, term)
    return det


def _seeded_matrices(rng, n, count):
    """Integer n x n matrices: dense ones, products of rank r <= n, and ones
    with a zero top-left corner, so that elimination must swap rows."""
    for _ in range(count):
        r = rng.randrange(n + 1)
        b = [[rng.randrange(-4, 5) for _ in range(r)] for _ in range(n)]
        c = [[rng.randrange(-4, 5) for _ in range(n)] for _ in range(r)]
        yield [[sum(b[i][t] * c[t][j] for t in range(r)) for j in range(n)] for i in range(n)]
        dense = [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(n)]
        yield dense
        yield [[0] + dense[0][1:]] + dense[1:]


@pytest.mark.parametrize("p", [2, 3, 5, 7, 131])
def test_det_rank_over_prime_fields_seeded(p):
    k = field_create(p, 1)
    rng = random.Random(7000 + p)
    for n in range(1, 6):
        for mat in _seeded_matrices(rng, n, 12):
            rows = [[x % p for x in row] for row in mat]
            det, rank = det_rank(rows, k)
            assert det == mat_det(mat) % p, (p, mat)
            assert (det == 0) == (rank < n)
            if p**n <= 10**4:
                assert _kernel_size_mod_p(rows, p) == p ** (n - rank), (p, mat)


def test_det_rank_over_f9_seeded():
    k = field_create(3, 2)
    rng = random.Random(9009)
    for n in range(1, 4):
        for _ in range(40):
            r = rng.randrange(n + 1)
            b = [[rng.randrange(9) for _ in range(r)] for _ in range(n)]
            c = [[rng.randrange(9) for _ in range(n)] for _ in range(r)]
            low = [[_dot(b[i], [c[t][j] for t in range(r)], k) for j in range(n)]
                   for i in range(n)]
            dense = [[rng.randrange(9) for _ in range(n)] for _ in range(n)]
            for rows in (low, dense, [[0] + dense[0][1:]] + dense[1:]):
                det, rank = det_rank(rows, k)
                assert det == _leibniz_det(rows, k), rows
                assert _kernel_size(rows, k) == 9 ** (n - rank), rows


def test_trace_surjective_onto_prime_field():
    k = field_create(2, 3)
    traces = {k.trace_to_prime_idx(a) for a in range(k.q)}
    assert traces == {0, 1}
    # trace is F_2-linear
    for a in range(k.q):
        for b in range(k.q):
            lhs = k.trace_to_prime_idx(k.add_idx(a, b))
            rhs = (k.trace_to_prime_idx(a) + k.trace_to_prime_idx(b)) % 2
            assert lhs == rhs


def test_poly_divmod_seeded():
    rng = random.Random(55)
    k = field_create(5, 1)
    for _ in range(80):
        a = Poly(k, [rng.randrange(5) for _ in range(rng.randrange(1, 8))])
        b = Poly(k, [rng.randrange(5) for _ in range(rng.randrange(1, 5))])
        if b.is_zero:
            continue
        qq, r = divmod(a, b)
        assert qq * b + r == a
        assert r.is_zero or r.degree < b.degree


def test_poly_json_round_trip():
    k = field_create(3, 2)
    f = Poly(k, [0, 4, 7, 1])
    assert Poly.from_json(k, f.to_json()) == f


def test_gcd_and_squarefree():
    k = field_create(3, 1)
    x = x_poly(k)
    one = Poly(k, [1])
    f = (x + one) * (x + one) * x
    g = poly_gcd(f, f.derivative())
    assert g.degree == 1
    assert not squarefree(f)
    assert squarefree(x * (x + one))


def test_irreducibles_lex_and_necklace():
    k = field_create(2, 1)
    deg2 = irreducibles(k, 2)
    assert [p.to_json() for p in deg2] == [[1, 1, 1]]
    deg3 = irreducibles(k, 3)
    assert [p.to_json() for p in deg3] == [[1, 0, 1, 1], [1, 1, 0, 1]]
    for q, d in [(2, 1), (2, 4), (3, 3), (5, 2)]:
        kk = field_create(q, 1)
        assert len(irreducibles(kk, d)) == necklace_count(q, d)


def test_irreducibles_budget():
    k = field_create(5, 1)
    with pytest.raises(BudgetExceeded):
        irreducibles(k, 10, budget=100)


def test_poly_factor_deterministic_and_correct():
    rng = random.Random(202)
    k = field_create(3, 1)
    for _ in range(40):
        coeffs = [rng.randrange(3) for _ in range(rng.randrange(2, 9))]
        f = Poly(k, coeffs)
        if f.is_zero or f.degree < 1:
            continue
        fac1 = poly_factor(f)
        fac2 = poly_factor(f)
        assert fac1 == fac2
        prod = Poly(k, [1]).scale(f.leading())
        for pi, e in fac1:
            assert pi.is_monic and is_irreducible(pi)
            prod = prod * pi**e
        assert prod == f
        # deterministic order: sorted by (degree, coeff tuple)
        keys = [pi.sort_key() for pi, _ in fac1]
        assert keys == sorted(keys)


def test_poly_factor_rejects_zero():
    k = field_create(3, 1)
    with pytest.raises(ZeroPolynomial):
        poly_factor(Poly(k, []))


def test_monic_polys_count():
    k = field_create(3, 1)
    assert len(list(monic_polys(k, 2))) == 9


def _residues(k, d):
    """Every residue modulo a degree-d polynomial: the polys of degree < d."""
    return [Poly(k, t) for t in itertools.product(range(k.q), repeat=d)]


def test_residue_field_basics():
    # mul, inv and sqrt on every element of F_q[x]/(pi), done in F_{q^d} at a
    # root of pi, against Poly arithmetic mod pi
    for p, m, pi in [
        (3, 1, [1, 0, 1]),      # F_3[x]/(x^2+1)
        (3, 1, [1, 2, 0, 1]),   # F_3[x]/(x^3+2x+1)
        (2, 2, [2, 1, 1]),      # F_4[x]/(x^2+x+t), characteristic 2
        (3, 2, [2, 4, 1]),      # F_9[x]/(x^2+(1+t)x+2), a non-prime base field
        (5, 1, [3, 1]),         # F_5[x]/(x+3), degree 1
    ]:
        _check_residue_field(p, m, pi)


def _check_residue_field(p, m, pi):
    k = field_create(p, m)
    pi = Poly(k, pi)
    d = pi.degree
    ext = _extension(k, d)
    big = ext.big
    alpha = ext.root(pi)
    res = _residues(k, d)
    val = {r: ext.evaluate(r, alpha) for r in res}
    assert sorted(val.values()) == list(range(big.q))  # a bijection onto F_{q^d}
    squares = {(r * r) % pi for r in res}
    for r in res:
        a = val[r]
        assert ext.residue(a, alpha, pi) == r
        for s in res:
            assert ext.residue(big.mul_idx(a, val[s]), alpha, pi) == (r * s) % pi
        if not r.is_zero:
            assert (ext.residue(big.inv_idx(a), alpha, pi) * r) % pi == Poly(k, [1])
        root = big.sqrt_idx(a)
        if r in squares:
            assert root is not None
            y = ext.residue(root, alpha, pi)
            assert (y * y) % pi == r
        else:
            assert root is None


def test_residue_field_rejects_reducible():
    k = field_create(3, 1)
    ext = _extension(k, 2)
    for bad in ([2, 0, 1],   # x^2+2 = x^2-1 factors
                [2, 0, 2],   # 2(x^2+1): irreducible but not monic
                [1, 1]):     # degree 1, not 2
        with pytest.raises(ReducibleModulus):
            ext.root(Poly(k, bad))


def test_root_table_holds_every_irreducible():
    # the root table against an irreducibility test on every monic polynomial
    for p, m, d in [(2, 1, 1), (2, 1, 4), (3, 1, 3), (5, 1, 2), (2, 2, 3), (3, 2, 2), (2, 3, 2)]:
        k = field_create(p, m)
        ext = _extension(k, d)
        pis = irreducibles(k, d)
        assert pis == [pi for pi in monic_polys(k, d) if is_irreducible(pi)]
        for pi in pis:
            assert ext.evaluate(pi, ext.root(pi)) == 0


def test_orbit_table_against_brute_force():
    # the orbits of x -> x^q, with x^q by repeated digit multiplication, against
    # the table's least logs and lengths
    for p, m, n in [(2, 1, 1), (5, 1, 1), (2, 1, 4), (2, 1, 6), (3, 1, 4), (5, 1, 3),
                    (7, 1, 2), (2, 2, 3), (2, 2, 4), (3, 2, 2), (2, 3, 2)]:
        k = field_create(p, m)
        ext = _extension(k, n)
        big = ext.big
        log = big.tables()[1]

        def frob(x):
            y = x
            for _ in range(k.q - 1):
                y = big.index_of(big._mul_digits_raw(big.digits(y), big.digits(x)))
            return y

        orbits = set()
        for x in range(1, big.q):
            orbit = [x]
            while frob(orbit[-1]) != x:
                orbit.append(frob(orbit[-1]))
            orbits.add(frozenset(log[y] for y in orbit))
        ks, lens = ext.orbits()
        assert list(zip(ks, lens)) == sorted((min(o), len(o)) for o in orbits), (p, m, n)
        assert all(n % e == 0 for e in lens)
        # for n = 1 the irreducible x has the root 0, which has no log
        assert list(lens).count(n) + (n == 1) == necklace_count(k.q, n)


def test_artin_schreier_solve():
    k = field_create(2, 1)
    pi = Poly(k, [1, 1, 0, 1])  # x^3+x+1
    ext = _extension(k, 3)
    big = ext.big
    alpha = ext.root(pi)
    for r in _residues(k, 3):
        a = ext.evaluate(r, alpha)
        z = ext.artin_schreier(a)
        if big.trace_to_prime_idx(a) == 0:
            assert z is not None
            zr = ext.residue(z, alpha, pi)
            assert (zr * zr + zr) % pi == r
        else:
            assert z is None


def test_artin_schreier_every_element():
    # even absolute degree too, where the half-trace formula does not apply
    for m, d in [(1, 1), (1, 2), (2, 2), (1, 5), (2, 3), (3, 2)]:
        ext = _extension(field_create(2, m), d)
        big = ext.big
        solved = 0
        for u in range(big.q):
            z = ext.artin_schreier(u)
            if big.trace_to_prime_idx(u):
                assert z is None
            else:
                assert big.mul_idx(z, z) ^ z == u
                solved += 1
        assert solved == big.q // 2


def _canonical_modulus_reference(p, m):
    """The search before constant terms were restricted: every tail in order."""
    for tail in itertools.product(range(p), repeat=m):
        if _fp_is_irreducible(list(tail) + [1], p):
            return tail + (1,)


def test_canonical_modulus_matches_full_search():
    for p, m in [(2, 2), (2, 3), (2, 4), (2, 5), (2, 8), (3, 2), (3, 3), (3, 4), (3, 5),
                 (5, 2), (5, 3), (7, 2), (7, 3), (11, 2), (13, 2)]:
        assert field_create(p, m).modulus == _canonical_modulus_reference(p, m), (p, m)


def test_canonical_modulus_large_degree():
    mod = field_create(3, 40).modulus
    assert len(mod) == 41 and mod[-1] == 1
    assert _fp_is_irreducible(list(mod), 3)


def _is_prime_by_trial_division(n):
    return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))


def test_is_prime_miller_rabin():
    assert [n for n in range(10**5) if is_prime(n)] == [
        n for n in range(10**5) if _is_prime_by_trial_division(n)]
    assert is_prime(2**61 - 1)
    assert not is_prime(561)          # Carmichael number
    assert not is_prime(3215031751)   # strong pseudoprime to bases 2, 3, 5, 7
    # the least strong pseudoprime to all 13 bases: past the proven range
    with pytest.raises(BudgetExceeded):
        is_prime(3317044064679887385961981)


def test_number_theory_helpers():
    assert [n for n in range(2, 20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert [mobius(n) for n in range(1, 11)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]
    assert necklace_count(2, 1) == 2
    assert necklace_count(2, 2) == 1
    assert necklace_count(2, 3) == 2
    assert necklace_count(2, 4) == 3
