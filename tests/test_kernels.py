import itertools
import random

import pytest

from curveclass.counting import affine_count, backend_name
from curveclass.curve import _extension, irreducibles
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
        ext = _extension(k, n)
        big = ext.big
        for shape in range(3):
            f = [ext.emb(c) for c in _subfield_poly(rng, k, n, shape)]
            h = [ext.emb(c) for c in _subfield_poly(rng, k, n, (shape + 1) % 3)] if p == 2 else []
            got = affine_count(p, big.m, big, f, h, ext.orbits())
            assert got == affine_count(p, big.m, big, f, h, plain_walk(big)), (p, m, n, f, h)
