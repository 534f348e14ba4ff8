import hashlib
import itertools
import random
import time
from array import array

import pytest

from curveclass import (
    BudgetExceeded,
    CurveClassError,
    Poly,
    ReducibleModulus,
    field_create,
    irreducibles,
    necklace_count,
    poly_gcd,
)
from curveclass.curve import field_from_json, field_to_json
from curveclass.errors import NonPrimeCharacteristic, ZeroPolynomial
from curveclass.gf import (
    NEG_INF,
    Extension,
    Field,
    _fp_is_irreducible,
    det_rank,
    is_prime,
    mobius,
    monic_polys,
    poly_extgcd,
    prime_factors,
    primitive_modulus,
    squarefree,
    x_poly,
)
from curveclass.snf import mat_det
from util import is_irreducible_by_division, mul_digits


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
    """Table arithmetic of k against digit arithmetic: digit-wise addition
    and the schoolbook ``mul_digits``."""
    p = k.p
    one = k.digits(1)
    squares = {mul_digits(k, k.digits(a), k.digits(a)) for a in range(k.q)}
    for a in range(k.q):
        da = k.digits(a)
        assert k.digits(k.neg_idx(a)) == tuple((p - c) % p for c in da), (k, a)
        assert k.is_square_idx(a) == (da in squares), (k, a)
        if a:
            assert mul_digits(k, da, k.digits(k.inv_idx(a))) == one, (k, a)
    for a, b in pairs:
        da, db = k.digits(a), k.digits(b)
        assert k.digits(k.add_idx(a, b)) == tuple((x + y) % p for x, y in zip(da, db)), (k, a, b)
        assert k.digits(k.mul_idx(a, b)) == mul_digits(k, da, db), (k, a, b)


def test_tables_match_digit_arithmetic():
    for q, (p, m) in {2: (2, 1), 3: (3, 1), 4: (2, 2), 8: (2, 3), 9: (3, 2), 16: (2, 4),
                      25: (5, 2), 27: (3, 3), 49: (7, 2), 64: (2, 6), 121: (11, 2),
                      125: (5, 3)}.items():
        k = field_create(p, m)
        assert k.q == q
        _check_against_digits(k, itertools.product(range(q), repeat=2))


def test_count_point_tables_match_digit_arithmetic_seeded():
    # F_243 over its primitive modulus, as count_points builds it (tables
    # from the multiply-by-t index table), and F_256 over the canonical
    # modulus, whose root t has order 51 (tables from the five cosets of
    # <t>, each walked on the same table)
    rng = random.Random(243)
    for k in [Field(3, 5, primitive_modulus(3, 5)), field_create(2, 8)]:
        assert k.q > 128
        k.tables()
        pairs = [(rng.randrange(k.q), rng.randrange(k.q)) for _ in range(3000)]
        _check_against_digits(k, pairs)


def _reference_tables(k, g=None):
    # exp by stepping x -> g*x one element at a time on digit vectors (g is
    # t unless given), log and zech straight from their definitions
    p, n = k.p, k.q - 1
    dg = k.digits(p if g is None else g)
    exp, x = [], 1
    for _ in range(n):
        exp.append(x)
        x = k.index_of(mul_digits(k, k.digits(x), dg))
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
    # F_{7^5} t^5 = -(c_0 + ... + c_4 t^4) has two nonzero digits
    for p, m in [(7, 5), (2, 12), (3, 7), (13, 3), (5, 6)]:
        k = Field(p, m, primitive_modulus(p, m))
        assert k.q > 128 and k._exp is None
        if (p, m) == (7, 5):
            assert sum(1 for c in k.modulus[:m] if c) == 2
        want = _reference_tables(k)
        got = k.tables()
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want], (p, m)
        # the single -1 of zech: 1 + g^k = 0 at g^k = -1, which is 1 for p = 2
        zech = got[2]
        assert zech.count(-1) == 1
        assert zech[0 if p == 2 else (k.q - 1) // 2] == -1


def _untabled_ops(k, rng):
    """mul, add, neg, inv and pow_idx of k on seeded pairs, exponents of
    either sign and zero among them."""
    out = []
    for _ in range(300):
        a, b = rng.randrange(k.q), rng.randrange(k.q)
        e = rng.choice([0, 1, 2, k.p, k.q - 1, k.q, rng.randrange(-3 * k.q, 3 * k.q)])
        row = [k.mul_idx(a, b), k.add_idx(a, b), k.neg_idx(a)]
        if a:
            row += [k.inv_idx(a), k.pow_idx(a, e)]
        out.append(row)
    return out


@pytest.mark.parametrize("p, m, g", [(131, 1, 2), (2, 8, 6), (5, 4, 30), (3, 5, 3),
                                     (31, 2, 35), (13, 3, 18), (101, 2, 120)])
def test_untabled_arithmetic_matches_tables_seeded(p, m, g):
    # the same values before tables() (plain ints mod p, or the packed ring
    # for m > 1) and after (exp/log/Zech).  F_131 walks g on ints; F_{3^5}'s
    # t generates, and its tables are one walk on the multiply-by-t table.
    # In the other fields t does not generate: the powers of g fill the
    # c = (q - 1)/ord(t) cosets of <t>, each walked on the same table, with
    # c = 5, 8, 240, 18 and 3400 in turn
    k = Field(p, m)
    assert k.q > 128 and k._exp is None
    before = _untabled_ops(k, random.Random(p * 100 + m))
    got = k.tables()
    assert got[0][1] == g
    assert _untabled_ops(k, random.Random(p * 100 + m)) == before
    if g != p:
        want = _reference_tables(k, g)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want], (p, m)


def test_coset_walk_takes_few_ring_products(monkeypatch):
    # t has order 820 in F_{3^8} over its canonical modulus, so c = 8: the
    # tables take a ring product per coset leader, not one per element
    from curveclass import gf

    k = Field(3, 8)
    calls = []
    reduce = gf._FpRing.reduce

    def counted(self, c):
        calls.append(c)
        return reduce(self, c)

    monkeypatch.setattr(gf._FpRing, "reduce", counted)
    assert k.tables()[0][1] != 3  # g is not t
    assert len(calls) < (k.q - 1) // 4


@pytest.mark.parametrize("p, m", [(2**61 - 1, 1), (3, 100)])
def test_untabled_arithmetic_on_large_fields_seeded(p, m):
    # fields far past any table: products against the schoolbook reference,
    # inverses, and Frobenius a^q = a
    k = Field(p, m)
    rng = random.Random(61 + m)
    for i in range(20):
        a, b = rng.randrange(1, k.q), rng.randrange(k.q)
        assert k.digits(k.mul_idx(a, b)) == mul_digits(k, k.digits(a), k.digits(b)), (a, b)
        if i < 4:
            assert k.mul_idx(a, k.inv_idx(a)) == 1, a
            assert k.pow_idx(a, k.q) == a, a
    assert k._exp is None


@pytest.mark.parametrize("p, m", [(7, 1), (3, 2), (131, 1), (3, 5)])
def test_pow_idx_edge_cases(p, m):
    # e = 0 gives 1 (0^0 too), a = 0 gives 0 for e > 0, e < 0 inverts
    # first; untabled and tabled alike
    k = Field(p, m)
    for _ in range(2):
        for a in range(min(k.q, 40)):
            assert k.pow_idx(a, 0) == 1
            power = 1
            for e in range(1, 6):
                power = k.mul_idx(power, a)
                assert k.pow_idx(a, e) == power, (a, e)
                if a:
                    assert k.pow_idx(a, -e) == k.inv_idx(power), (a, e)
        with pytest.raises(ZeroDivisionError):
            k.pow_idx(0, -1)
        k.tables()


def test_primitive_modulus_makes_t_the_generator_untested(monkeypatch):
    # a modulus from primitive_modulus has t proven primitive, so no power
    # of t is taken to find the generator
    k = Field(5, 4, primitive_modulus(5, 4))

    def no_pow(*args):
        raise AssertionError("generator tested again")

    monkeypatch.setattr(Field, "pow_idx", no_pow)
    assert k._primitive_element() == 5
    k.tables()


def test_primitive_modulus_is_not_proven_irreducible_again(monkeypatch):
    # the searches proved their moduli irreducible.  F_{3^4}'s canonical and
    # primitive moduli differ, and a description of either, read back with
    # the table of fields forgotten, builds a new Field that finds its
    # modulus in the record; an explicit modulus not recorded is still tested
    from curveclass import gf

    fields = [field_create(3, 4), field_create(3, 4, primitive_modulus(3, 4))]
    assert fields[0].modulus != fields[1].modulus

    def no_test(*args):
        raise AssertionError("modulus tested again")

    monkeypatch.setattr(gf, "_FIELDS", {})
    monkeypatch.setattr(gf, "_fp_is_irreducible", no_test)
    monkeypatch.setattr(gf._FpRing, "has_small_factor", no_test)
    for k in fields:
        back = field_from_json(field_to_json(k))
        assert back == k and back is not k
    monkeypatch.undo()
    # x^4 + 1 = (x^2 + x + 2)(x^2 + 2x + 2) over F_3
    with pytest.raises(ReducibleModulus):
        Field(3, 4, (1, 0, 0, 0, 1))


def test_canonical_modulus_is_searched_once(monkeypatch):
    # a base field built again from its description reuses the modulus found
    from curveclass import gf

    first = Field(2, 4).modulus

    def no_test(*args):
        raise AssertionError("canonical modulus searched again")

    monkeypatch.setattr(gf, "_fp_is_irreducible", no_test)
    monkeypatch.setattr(gf, "_monic_candidates", no_test)
    assert Field(2, 4).modulus == first


def test_field_create_builds_each_description_once():
    # equal descriptions, and descriptions that reduce to the same modulus,
    # return one object; the class itself still builds a fresh one
    for p, m in [(5, 1), (2, 4), (3, 3), (7, 2)]:
        k = field_create(p, m)
        assert field_create(p, m) is k
        assert field_create(p, m, list(k.modulus)) is k
        assert field_create(p, m, (c + p for c in k.modulus)) is k
        assert Field(p, m) == k and Field(p, m) is not k
        # and each extension of a field is built once, on the field, over
        # the primitive modulus
        assert k.extension(2) is k.extension(2) and k.extension(1).big is k
        assert k.extension(2).big.modulus == primitive_modulus(p, 2 * m)
    # F_{2^8} reached from F_4 (n = 4) and from F_16 (n = 2) is one field
    assert field_create(2, 2).extension(4).big is field_create(2, 4).extension(2).big


def test_prime_field_has_one_description():
    # F_7[t]/(t + c) is F_7 with the same indices for every c, so each
    # modulus x + c gives the one F_7, which survives its own round trip
    assert Field(7, 1, (5, 1)).modulus == (0, 1)
    k = field_from_json({"p": 7, "m": 1, "modulus": [5, 1]})
    assert k is field_create(7, 1)
    assert field_from_json(field_to_json(k)) is k
    assert all(field_create(7, 1, (c, 1)) is k for c in range(-7, 14))


def test_description_read_again_builds_nothing(monkeypatch):
    # a second read runs no Ben-Or, no modulus search and no table build
    from curveclass import gf

    descriptions = [{"p": 7}, {"p": 2, "m": 6}, {"p": 3, "m": 5, "modulus": [1, 0, 0, 0, 2, 1]},
                    {"p": 5, "m": 3, "modulus": [3, 3, 0, 1]}]
    first = [field_from_json(d) for d in descriptions]

    def no_build(*args):
        raise AssertionError("field built again")

    monkeypatch.setattr(gf._FpRing, "has_small_factor", no_build)
    monkeypatch.setattr(gf, "_monic_candidates", no_build)
    monkeypatch.setattr(Field, "tables", no_build)
    for d, k in zip(descriptions, first):
        assert field_from_json(d) is k
        assert field_from_json(field_to_json(k)) is k


# field_create arguments, and the exception class and message they raise;
# a bool degree is refused like a bool p, since JSON writes true, not 1
MALFORMED = [
    ((7.0, 1), NonPrimeCharacteristic, "p = 7.0 is not prime"),
    ((True, 1), NonPrimeCharacteristic, "p = True is not prime"),
    (([7], 1), NonPrimeCharacteristic, "p = [7] is not prime"),
    ((7, True), CurveClassError, "extension degree m = True must be a positive integer"),
    ((7, 1.0), CurveClassError, "extension degree m = 1.0 must be a positive integer"),
    ((3, 2, (1.0, 0, 1)), CurveClassError, "modulus [1.0, 0, 1] must be a list of integers"),
    ((3, 2, [[1], 0, 1]), CurveClassError, "modulus [[1], 0, 1] must be a list of integers"),
    ((3, 2, (True, 0, 1)), CurveClassError, "modulus [True, 0, 1] must be a list of integers"),
    ((3, 2, (2, 0, 1)), ReducibleModulus, "modulus [2, 0, 1] is reducible over F_3"),
    ((7, 1, (5, 2)), ReducibleModulus, "modulus must be monic of degree 1"),
    ((7, 1, (1, 0, 1)), ReducibleModulus, "modulus must be monic of degree 1"),
    ((7, 1, (5.0, 1)), CurveClassError, "modulus [5.0, 1] must be a list of integers"),
]


def test_malformed_descriptions_are_refused_after_their_field_is_built():
    # the well-formed fields of the same values are built first: 7.0 or
    # True must not find them
    field_create(7, 1)
    field_create(3, 2, (1, 0, 1))
    for args, cls, message in MALFORMED:
        for _ in range(2):
            with pytest.raises(cls) as exc:
                field_create(*args)
            assert type(exc.value) is cls and str(exc.value) == message, args


def test_explicit_modulus_over_a_61_bit_prime():
    # lanes wider than 8 bytes: x^2 + 1 is irreducible since p = 3 mod 4,
    # and x^2 - 1 = (x - 1)(x + 1)
    p = 2**61 - 1
    assert Field(p, 2, (1, 0, 1)).modulus == (1, 0, 1)
    with pytest.raises(ReducibleModulus):
        Field(p, 2, (p - 1, 0, 1))


def test_walk_from_t_checks_its_order(monkeypatch):
    # t = i has order 4 in F_9 = F_3[t]/(t^2 + 1); recorded as primitive,
    # its walk returns to 1 at step 4 and the table build refuses it
    from curveclass import gf

    monkeypatch.setitem(gf._PROVEN_MODULI, (3, 2, True), (1, 0, 1))
    with pytest.raises(CurveClassError, match="first return to 1"):
        Field(3, 2, (1, 0, 1))


def test_coset_walk_checks_its_generator(monkeypatch):
    # t = i has order 4 in F_9 = F_3[t]/(t^2 + 1), so c = 2; a forged g = -1
    # has g^2 = 1 = t^0, and 0 has no inverse mod 4: an internal error, not
    # a ValueError
    monkeypatch.setattr(Field, "_primitive_element", lambda self: 2)
    with pytest.raises(CurveClassError, match="internal: g\\^c"):
        Field(3, 2)


def test_necklace_count_checks_its_sum(monkeypatch):
    # with mobius 0 past 1 the sum is q^d alone, and 2^3 = 8 is not a
    # multiple of 3
    from curveclass import gf

    monkeypatch.setattr(gf, "mobius", lambda n: int(n == 1))
    with pytest.raises(CurveClassError, match="internal: necklace sum not divisible"):
        necklace_count(2, 3)


def test_root_table_checks_its_size(monkeypatch):
    # F_2 has 2 monic irreducibles of degree 3; a necklace formula that
    # says 3 makes the table of roots refuse itself
    from curveclass import gf

    ext = Extension(field_create(2, 1), 3)
    monkeypatch.setattr(gf, "necklace_count", lambda q, d: 3)
    with pytest.raises(CurveClassError, match="internal: root table does not match"):
        ext.roots()


def test_extension_checks_that_the_base_modulus_splits(monkeypatch):
    # a Horner evaluation that never gives 0 finds no root of the modulus
    # of F_4 among the elements of its subfield in F_16
    monkeypatch.setattr(Extension, "_horner", lambda self, coeffs, alpha: 1)
    with pytest.raises(CurveClassError, match="internal: base modulus must split"):
        Extension(field_create(2, 2), 2)


def test_extension_checks_what_returns_to_the_base_field(monkeypatch):
    # with every index of F_16 outside the image of F_4, a minimal
    # polynomial and a residue's trace both seem to leave F_4
    ext = Extension(field_create(2, 2), 2)
    pi = Poly(ext.base, min(ext.roots()))
    alpha = ext.root(pi)
    monkeypatch.setattr(Extension, "_base_index", lambda self, idx: -1)
    with pytest.raises(CurveClassError, match="internal: trace left the base field"):
        ext.residue(alpha, alpha, pi)
    with pytest.raises(CurveClassError, match="internal: minimal polynomial left the base field"):
        Extension(field_create(2, 2), 2).roots()


def test_artin_schreier_checks_its_solution(monkeypatch):
    # a trace mask of 0 calls every u traceless, and the z it builds is 0;
    # 1 has trace 1 in F_8, so z^2 + z = 1 has no solution at all
    ext = Extension(field_create(2, 1), 3)
    monkeypatch.setattr(Field, "trace_mask", lambda self: 0)
    with pytest.raises(CurveClassError, match="internal: Artin-Schreier solution fails"):
        ext.artin_schreier(1)


def test_walk_from_t_checks_that_its_order_divides_q_minus_1(monkeypatch):
    # t = i is not primitive in F_3[t]/(t^2 + 1); a multiply-by-t table
    # whose cycle through 1 is 1 -> 3 -> 4 -> 1 gives t order 3, and 3
    # does not divide q - 1 = 8
    mul_t = list(range(9))
    mul_t[1], mul_t[3], mul_t[4] = 3, 4, 1
    monkeypatch.setattr(Field, "_mul_t", lambda self: mul_t)
    with pytest.raises(CurveClassError, match="internal: the order of t must divide q - 1"):
        Field(3, 2, (1, 0, 1))


def test_trace_to_prime_field_checks_where_it_lands(monkeypatch):
    # with x^3 taken as x, the trace of t over F_9 sums to t + t = 2t
    field = field_create(3, 2)
    monkeypatch.setattr(Field, "pow_idx", lambda self, a, e: a)
    with pytest.raises(CurveClassError, match="internal: trace did not land in the prime field"):
        field.trace_to_prime_idx(3)


def test_frobenius_orbits_check_their_total():
    # necklaces of 2 digits over F_3 cover 9 - 1 logs, not the 27 - 1 of
    # F_27; a wrong n above 3 runs the walk past N and never ends
    ext = Extension(field_create(3, 1), 3)
    ext.n = 2
    with pytest.raises(CurveClassError, match="internal: Frobenius orbit lengths do not sum"):
        ext.orbits()


def test_extension_rho_is_least_linear_factor_root():
    # the image of the base field's t, found among the subfield elements,
    # is the least root of the base modulus in a scan of all of F_{q^n};
    # its digits are prime-field constants, with index k in both fields
    for p, m in [(2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3), (2, 5), (5, 3)]:
        base = field_create(p, m)
        for n in (2, 3):
            ext = Extension(base, n)
            big = ext.big

            def at(r):
                acc = 0
                for c in reversed(base.modulus):
                    acc = big.add_idx(big.mul_idx(acc, r), c)
                return acc

            roots = [r for r in range(big.q) if at(r) == 0]
            assert len(roots) == m
            assert ext._rho == min(roots), (p, m, n)


def test_emb_keeps_each_image():
    # the second pass reads the images the first one kept
    for (p, m), n in [((2, 4), 3), ((3, 2), 2), ((2, 2), 5)]:
        ext = field_create(p, m).extension(n)
        for _ in range(2):
            for c in range(ext.base.q):
                assert ext.emb(c) == ext._horner(ext.base.digits(c), ext._rho), (p, m, n, c)


def _x_has_full_order(f, p):
    # x^n = 1 and x^(n/r) != 1 for the primes r | n, n = p^m - 1, in
    # F_p[x]/(f), by square-and-multiply on coefficient lists.  x^n = 1
    # needs x to be a unit, so f(0) = 0 answers False at once
    m = len(f) - 1
    n = p**m - 1
    if f[0] == 0:
        return False

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
        # left to right: square, and multiply by x as a shift less top * f
        r = [1] + [0] * (m - 1)
        for bit in bin(e)[2:]:
            r = mulmod(r, r)
            if bit == "1":
                r = [(c - r[-1] * fc) % p for c, fc in zip([0] + r[:-1], f)]
        return r

    one = [1] + [0] * (m - 1)
    return x_pow(n) == one and all(x_pow(n // r) != one for r in prime_factors(n))


def test_primitive_modulus_is_lex_least():
    # a plain search over every monic f in the canonical order, with no
    # filter on roots in F_p and none on f(0) beyond the f(0) != 0 that
    # x^n = 1 needs: the first one in which x has order p^m - 1; t then
    # generates, so its index p is the primitive element
    cases = [(2, m) for m in range(2, 13)] + [(3, m) for m in range(2, 8)]
    cases += [(p, m) for p in (5, 7) for m in range(2, 6)]
    cases += [(p, m) for p in (11, 13) for m in range(2, 4)]
    # larger fields, where the constant filter and the skip of primes
    # r | p - 1 leave the most untested
    cases += [(2, 16), (3, 8), (5, 6), (13, 4)]
    for p, m in cases:
        want = next(tail + (1,) for tail in itertools.product(range(p), repeat=m)
                    if _x_has_full_order(tail + (1,), p))
        assert primitive_modulus(p, m) == want, (p, m)
        assert Field(p, m, want)._primitive_element() == p, (p, m)


def test_primitive_modulus_factors_each_order_once(monkeypatch):
    # the constant terms come lazily, with p - 1 factored once: over
    # F_999983 the search stops at c_0 = 5 of 999982 candidates
    from curveclass import gf

    calls = []

    def counted(n):
        calls.append(n)
        return prime_factors(n)

    monkeypatch.setattr(gf, "prime_factors", counted)
    assert primitive_modulus(999983, 2) == (5, 1, 1)
    assert sorted(calls) == [999982, 999983**2 - 1]


def test_primitive_modulus_over_a_30_bit_prime_is_fast():
    # each candidate costs Ben-Or's O(log p) steps, not a scan of F_p for
    # roots, which took O(p) per candidate
    p = 10**9 + 7
    start = time.perf_counter()
    mod = primitive_modulus(p, 2)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, elapsed
    assert _x_has_full_order(mod, p)


def test_index_digit_round_trip():
    k = field_create(3, 2)
    for idx in range(9):
        assert k.index_of(k.digits(idx)) == idx


def test_squares_and_roots():
    # F_131 and F_243 are past the table limit: their squares come from
    # untabled arithmetic, and they build their tables on the first sqrt_idx
    # call; the others read the log tables from the start.  Field builds a
    # fresh object, where field_create may return one another test tabled
    for p, m in [(3, 1), (5, 1), (7, 1), (3, 2), (2, 2), (131, 1), (3, 5)]:
        k = Field(p, m)
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
    # wire digits are reduced mod p: [4, -1] is 1 + 2t, index 7
    assert Poly.from_json(k, [[4, -1], [2, 3]]).coeffs == (7, 2)


def test_gcd_and_squarefree():
    k = field_create(3, 1)
    x = x_poly(k)
    one = Poly(k, [1])
    f = (x + one) * (x + one) * x
    g = poly_gcd(f, f.derivative())
    assert g.degree == 1
    assert not squarefree(f)
    assert squarefree(x * (x + one))
    assert squarefree(one)
    zero = Poly(k)
    assert poly_gcd(zero, zero) == zero
    assert poly_extgcd(zero, zero) == (zero, one, zero)


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
    ext = k.extension(d)
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
    ext = k.extension(2)
    for bad in ([2, 0, 1],   # x^2+2 = x^2-1 factors
                [2, 0, 2],   # 2(x^2+1): irreducible but not monic
                [1, 1]):     # degree 1, not 2
        with pytest.raises(ReducibleModulus):
            ext.root(Poly(k, bad))


def test_root_table_holds_every_irreducible():
    # the root table against an irreducibility test on every monic polynomial
    for p, m, d in [(2, 1, 1), (2, 1, 4), (3, 1, 3), (5, 1, 2), (2, 2, 3), (3, 2, 2), (2, 3, 2)]:
        k = field_create(p, m)
        ext = k.extension(d)
        pis = irreducibles(k, d)
        assert pis == [pi for pi in monic_polys(k, d) if is_irreducible_by_division(pi)]
        for pi in pis:
            assert ext.evaluate(pi, ext.root(pi)) == 0


def test_orbit_table_against_brute_force():
    # the orbits of x -> x^q, with x^q by repeated schoolbook multiplication, against
    # the table's least logs and lengths
    for p, m, n in [(2, 1, 1), (5, 1, 1), (2, 1, 4), (2, 1, 6), (3, 1, 4), (5, 1, 3),
                    (7, 1, 2), (2, 2, 3), (2, 2, 4), (3, 2, 2), (2, 3, 2)]:
        k = field_create(p, m)
        ext = k.extension(n)
        big = ext.big
        log = big.tables()[1]

        def frob(x):
            y = x
            for _ in range(k.q - 1):
                y = big.index_of(mul_digits(big, big.digits(y), big.digits(x)))
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
    ext = k.extension(3)
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
        ext = field_create(2, m).extension(d)
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


# (p, m) pairs whose two moduli, canonical and primitive, are pinned below:
# any change to either search must leave every one of them as it was
MODULI_PAIRS = (
    [(2, m) for m in range(2, 21)] + [(3, m) for m in range(2, 11)]
    + [(5, m) for m in range(2, 7)] + [(7, m) for m in range(2, 6)]
    + [(p, m) for p in (11, 13) for m in (2, 3)]
    + [(101, 2), (999983, 2), (10**9 + 7, 2), (2**61 - 1, 2)]
)
MODULI_DIGEST = "42f19f91b6bec0923469c3644c0fa3cf7f007674d4c10e2d0a46b06d39f74227"


def test_moduli_digest():
    text = "".join(f"{p} {m} {field_create(p, m).modulus} {primitive_modulus(p, m)}\n"
                   for p, m in MODULI_PAIRS)
    assert len(MODULI_PAIRS) == 45
    assert text.endswith("2305843009213693951 2 (1, 0, 1) (37, 2, 1)\n")
    assert hashlib.sha256(text.encode()).hexdigest() == MODULI_DIGEST


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
    # mu by its defining sums: mu(1) = 1, and mu over the divisors of n > 1
    # sums to 0, so mu(n) is minus the sum over the proper divisors
    top = 10**4
    mu = [0, 1] + [0] * (top - 1)
    for d in range(1, top + 1):
        for n in range(2 * d, top + 1, d):
            mu[n] -= mu[d]
    assert [mobius(n) for n in range(1, top + 1)] == mu[1:]
    assert necklace_count(2, 1) == 2
    assert necklace_count(2, 2) == 1
    assert necklace_count(2, 3) == 2
    assert necklace_count(2, 4) == 3


def test_neg_inf_is_below_every_integer():
    # the degree of the zero polynomial, through every comparison
    for n in (0, 1, -5):
        assert NEG_INF < n and NEG_INF <= n and not NEG_INF > n and not NEG_INF >= n
        assert n > NEG_INF and n >= NEG_INF and not n < NEG_INF and not n <= NEG_INF
        assert not NEG_INF == n and NEG_INF != n
    assert NEG_INF == NEG_INF and NEG_INF <= NEG_INF and NEG_INF >= NEG_INF
    assert not NEG_INF < NEG_INF and not NEG_INF > NEG_INF
    assert Poly(field_create(3, 1)).degree is NEG_INF
    assert repr(NEG_INF) == "-inf"


F9 = field_create(3, 2)
ZERO5 = Poly(field_create(5, 1))


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: F9.element_from_json(9), CurveClassError, "element index 9 out of range"),
        (lambda: F9.element_from_json([0, 1, 2]), CurveClassError,
         "digit list longer than extension degree"),
        (lambda: ZERO5.leading(), ZeroPolynomial, "no leading coefficient"),
        (lambda: ZERO5.monic(), ZeroPolynomial, "cannot normalize the zero polynomial"),
        (lambda: squarefree(ZERO5), ZeroPolynomial, "squarefree test on the zero polynomial"),
        (lambda: divmod(x_poly(ZERO5.field), ZERO5), ZeroDivisionError,
         "polynomial division by zero"),
    ],
    ids=["index-out-of-range", "too-many-digits", "leading-of-zero", "monic-of-zero",
         "squarefree-of-zero", "division-by-zero"],
)
def test_bad_element_and_polynomial_input_is_refused(call, error, message):
    with pytest.raises(error, match=message):
        call()
