import ast
import itertools
import pathlib
import random
import tracemalloc

import pytest

from curveclass import counting
from curveclass.counting import BLOCK, affine_count, backend_name
from curveclass.curve import irreducibles
from curveclass.errors import CurveClassError
from curveclass.gf import Poly, field_create
from util import mul_digits


def plain_walk(k):
    """Every log of F_Q^* as an orbit of length 1: the walk over all of F_Q."""
    return range(k.q - 1), [1] * (k.q - 1)


def brute_count(k, fcoeffs, hcoeffs):
    """Reference count over the same field through digit arithmetic
    (``mul_digits`` and digit-wise addition), not its tables."""
    p = k.p

    def add(a, b):
        return tuple((x + y) % p for x, y in zip(a, b))

    def ev(coeffs, x):
        acc = k.digits(0)
        for c in reversed(coeffs):
            acc = add(mul_digits(k, acc, x), k.digits(c))
        return acc

    elems = [k.digits(i) for i in range(k.q)]
    n = 0
    for x in elems:
        fx = ev(fcoeffs, x)
        hx = ev(hcoeffs, x)
        for y in elems:
            if add(mul_digits(k, y, y), mul_digits(k, hx, y)) == fx:
                n += 1
    return n


def scalar_count(k, fcoeffs, hcoeffs, xs=None):
    """Reference count above each x in xs (all of F_Q by default), one x at
    a time through the field's products, square test and trace: fast
    enough for fields too large for ``brute_count``."""
    def ev(coeffs, x):
        acc = 0
        for c in reversed(coeffs):
            acc = k.add_idx(k.mul_idx(acc, x), c)
        return acc

    n = 0
    for x in range(k.q) if xs is None else xs:
        fx, hx = ev(fcoeffs, x), ev(hcoeffs, x)
        if k.p != 2:
            n += 1 if not fx else 2 if k.is_square_idx(fx) else 0
        elif not hx:
            n += 1
        else:
            u = k.mul_idx(fx, k.inv_idx(k.mul_idx(hx, hx)))
            n += 0 if k.trace_to_prime_idx(u) else 2
    return n


def random_instance(rng):
    p = rng.choice([2, 3, 5])
    d = rng.choice([1, 1, 2, 2, 3])
    if p == 5 and d == 3:
        d = 2
    k = field_create(p, d)
    deg = rng.randrange(1, 5)
    fcoeffs = [rng.randrange(k.q) for _ in range(deg + 1)]
    if p == 2:
        hdeg = rng.randrange(0, 3)
        hcoeffs = [rng.randrange(k.q) for _ in range(hdeg + 1)]
        if not any(hcoeffs):
            hcoeffs[-1] = 1
    else:
        hcoeffs = []
    return k, fcoeffs, hcoeffs


def test_pure_matches_brute_force_seeded():
    rng = random.Random(606)
    for _ in range(25):
        k, fc, hc = random_instance(rng)
        got = affine_count(k.p, k.m, k, fc, hc, plain_walk(k))
        assert got == brute_count(k, fc, hc), (k, fc, hc)


def test_q2_every_small_model():
    # F_2^* = {1}: the tables hold one log and the Zech entry for 1 + 1 = 0
    k = field_create(2, 1)
    for fc in itertools.product(range(2), repeat=4):
        for hc in itertools.product(range(2), repeat=3):
            assert affine_count(2, 1, k, fc, hc, plain_walk(k)) == brute_count(k, fc, hc), (fc, hc)


def test_zero_constant_terms():
    rng = random.Random(608)
    for p, d in [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (5, 2), (7, 1)]:
        k = field_create(p, d)
        for _ in range(4):
            fc = [0] + [rng.randrange(k.q) for _ in range(rng.randrange(1, 5))]
            hc = [0] + [rng.randrange(k.q) for _ in range(rng.randrange(0, 3))] if p == 2 else []
            assert affine_count(p, d, k, fc, hc, plain_walk(k)) == brute_count(k, fc, hc), (p, d, fc, hc)


def test_backend_reports_name():
    assert backend_name() == "exp-log-tables"


def test_count_refuses_a_field_of_another_size():
    with pytest.raises(CurveClassError, match="field F_49 is not F_7\\^1"):
        affine_count(7, 1, field_create(7, 2), [1], [], ([0], [1]))


def test_known_counts():
    # y^2 = x^3 + x over F_3: one point over x = 0, none over x = 1 (f = 2),
    # two over x = 2 (f = 1)
    k3 = field_create(3, 1)
    assert affine_count(3, 1, k3, [0, 1, 0, 1], [], plain_walk(k3)) == 3
    # y^2 + xy = x^3 + 1 over F_2: affine count 3 (N_1 = 4 with one at infinity)
    k2 = field_create(2, 1)
    assert affine_count(2, 1, k2, [1, 0, 0, 1], [0, 1], plain_walk(k2)) == 3


def _subfield_poly(rng, k, n, shape):
    """A random nonzero polynomial over F_q with a zero constant term
    (shape 0), with a root in a proper subfield of F_{q^n} (shape 1), or
    neither on purpose (shape 2)."""
    base = Poly(k, [rng.randrange(k.q) for _ in range(rng.randrange(0, 4))] + [1 + rng.randrange(k.q - 1)])
    if shape == 0:
        return (base * Poly(k, (0, 1))).coeffs
    if shape == 1:
        # an irreducible of the largest proper degree e | n, other than x
        e = max(d for d in range(1, n) if n % d == 0)
        pis = [pi for pi in irreducibles(k, e) if pi.coeffs != (0, 1)]
        return (base * rng.choice(pis)).coeffs
    return base.coeffs


@pytest.mark.parametrize("p, m", [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2)])
def test_orbit_weights_match_plain_walk_seeded(p, m):
    # curves over F_q counted in F_{q^n}: one Horner evaluation per orbit of
    # x -> x^q, weighted by its length, against the walk over every element
    rng = random.Random(610 + 10 * p + m)
    k = field_create(p, m)
    for n in range(2, 6):
        ext = k.extension(n)
        big = ext.big
        for shape in range(3):
            f = [ext.emb(c) for c in _subfield_poly(rng, k, n, shape)]
            h = [ext.emb(c) for c in _subfield_poly(rng, k, n, (shape + 1) % 3)] if p == 2 else []
            got = affine_count(p, big.m, big, f, h, ext.orbits())
            assert got == affine_count(p, big.m, big, f, h, plain_walk(big)), (p, m, n, f, h)


def test_runs_of_zero_coefficients_seeded():
    # most coefficients zero, so Horner takes runs of zero steps, and f or h
    # often vanishes at x; the zero polynomial comes up too
    rng = random.Random(612)
    for p, d in [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (5, 1), (7, 1)]:
        k = field_create(p, d)
        for _ in range(12):
            fc = [rng.randrange(k.q) if rng.random() < 0.3 else 0 for _ in range(rng.randrange(1, 10))]
            hc = [rng.randrange(k.q) if rng.random() < 0.4 else 0 for _ in range(rng.randrange(0, 5))] if p == 2 else []
            got = affine_count(p, d, k, fc, hc, plain_walk(k))
            ref = brute_count(k, fc, hc) if k.q <= 8 else scalar_count(k, fc, hc)
            assert got == ref, (p, d, fc, hc)
    # the same shapes over F_q counted in F_{q^n}, orbits against the plain walk
    for p, m, n in [(2, 1, 5), (2, 2, 3), (3, 1, 4), (5, 1, 3)]:
        k = field_create(p, m)
        ext = k.extension(n)
        big = ext.big
        for _ in range(6):
            fc = [rng.randrange(k.q) if rng.random() < 0.3 else 0 for _ in range(rng.randrange(1, 10))]
            hc = [rng.randrange(k.q) if rng.random() < 0.4 else 0 for _ in range(rng.randrange(0, 5))] if p == 2 else []
            f, h = [ext.emb(c) for c in fc], [ext.emb(c) for c in hc]
            got = affine_count(p, big.m, big, f, h, ext.orbits())
            assert got == affine_count(p, big.m, big, f, h, plain_walk(big)), (p, m, n, fc, hc)


@pytest.mark.parametrize("p, d", [(2, 1), (2, 3), (3, 1), (3, 2), (5, 1)])
def test_zero_polynomials(p, d):
    # f = 0 (odd p: one point above every x) and h = 0 (p = 2: y = sqrt f(x)),
    # with and without trailing zero coefficients
    k = field_create(p, d)
    for fc in ([], [0], [0, 0, 0]):
        assert affine_count(p, d, k, fc, [], plain_walk(k)) == k.q
    if p == 2:
        for hc in ([], [0, 0]):
            assert affine_count(p, d, k, [1, 1, 0, 1], hc, plain_walk(k)) == k.q
        for fc in ([], [0, 0]):
            hc = [1, 0, 1]
            assert affine_count(p, d, k, fc, hc, plain_walk(k)) == brute_count(k, fc, hc)


def _with_roots(k, roots, rng):
    """The coefficients of a random nonzero multiple of prod (x - r)."""
    coeffs = [1 + rng.randrange(k.q - 1)]
    for r in roots:
        # times (x - r): c_i -> c_{i-1} - r * c_i
        minus_r = k.neg_idx(r)
        coeffs = [k.mul_idx(minus_r, coeffs[0])] + [
            k.add_idx(coeffs[i - 1], k.mul_idx(minus_r, coeffs[i])) for i in range(1, len(coeffs))
        ] + [coeffs[-1]]
    return coeffs


@pytest.mark.parametrize("p, d", [(2, 4), (2, 6), (3, 3), (3, 5), (7, 2)])
def test_zero_values_at_walked_points_seeded(p, d):
    # f (and for p = 2, h) has roots in F_Q, so zero values fall at walked
    # x, x = 0 among them; for p = 2 f and h also share a root
    rng = random.Random(614 + p * d)
    k = field_create(p, d)
    exp = k.tables()[0]
    for _ in range(4):
        rs = [exp[rng.randrange(k.q - 1)] for _ in range(rng.randrange(1, 4))] + [0]
        fc = _with_roots(k, rs, rng)
        hc = _with_roots(k, [rs[0], exp[rng.randrange(k.q - 1)]], rng) if p == 2 else []
        assert affine_count(p, d, k, fc, hc, plain_walk(k)) == scalar_count(k, fc, hc), (fc, hc)


def test_single_orbit():
    # one orbit picked out of a large field is a block of one element, as
    # the one orbit of F_2^* is (test_q2_every_small_model); counted above
    # it and above x = 0
    rng = random.Random(616)
    for p, d in [(2, 12), (3, 8)]:
        k = field_create(p, d)
        exp = k.tables()[0]
        for j in (0, (k.q - 1) // 2, rng.randrange(k.q - 1)):
            fc = [rng.randrange(k.q) for _ in range(6)]
            hc = [rng.randrange(k.q) for _ in range(3)] if p == 2 else []
            got = affine_count(p, d, k, fc, hc, ([j], [1]))
            assert got == scalar_count(k, fc, hc, [0, exp[j]]), (p, d, j)


def test_orbit_counts_past_the_block_size():
    # F_{3^8}^* has 6560 elements, not a multiple of BLOCK, and its first
    # BLOCK + 1 logs leave a last block of one; F_{3^10} over F_3 has 5933
    # orbits
    assert BLOCK < 6560 and 6560 % BLOCK and 5933 % BLOCK
    rng = random.Random(618)
    k = field_create(3, 8)
    exp = k.tables()[0]
    fc = [rng.randrange(k.q) for _ in range(5)]
    for size in (k.q - 1, BLOCK + 1):
        got = affine_count(3, 8, k, fc, [], (range(size), [1] * size))
        assert got == scalar_count(k, fc, [], [0, *exp[:size]]), size
    ext = field_create(3, 1).extension(10)
    big = ext.big
    assert len(ext.orbits()[0]) == 5933
    fb = [1, 2, 0, 0, 1, 0, 2, 1]
    assert affine_count(3, 10, big, fb, [], ext.orbits()) == affine_count(3, 10, big, fb, [], plain_walk(big))


def test_one_kernel():
    # the block kernel is the one evaluation: the per-element generator is gone
    tree = ast.parse(pathlib.Path(counting.__file__).read_text())
    names = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert "_value_logs" not in names


def test_count_memory_is_one_block():
    # with the tables built, a walk over all of F_{3^10} (59048 elements)
    # holds one block of values at a time: 0.85 MB at the peak, measured,
    # against 9.9 MB with the whole walk in one block
    k = field_create(3, 1).extension(10).big
    rng = random.Random(620)
    fc = [rng.randrange(k.q) for _ in range(10)]
    walk = plain_walk(k)
    first = affine_count(3, 10, k, fc, [], walk)
    tracemalloc.start()
    try:
        again = affine_count(3, 10, k, fc, [], walk)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert again == first
    assert peak < 2_000_000, peak
