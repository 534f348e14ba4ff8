"""Property tests for closed points and square roots on the F_{q^d} tables.

Random small curves in both characteristics, over prime and non-prime
fields; every example is checked against Poly arithmetic modulo pi and
against the point counts, which run on a separate path.
"""

import itertools

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from curveclass import (
    GeometricallyReducible,
    Poly,
    SingularModel,
    census,
    closed_points,
    count_points,
    field_create,
    irreducibles,
    necklace_count,
)
from curveclass.gf import squarefree
from curveclass.jacobian import _sqrt_mod
from util import build

SETTINGS = settings(
    max_examples=60,
    derandomize=True,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)

ODD_FIELDS = [(3, 1), (5, 1), (7, 1), (3, 2), (5, 2), (3, 3)]
CHAR2_FIELDS = [(2, 1), (2, 2), (2, 3), (2, 4)]


def _poly(draw, q, degree):
    coeffs = draw(st.lists(st.integers(0, q - 1), min_size=degree + 1, max_size=degree + 1))
    coeffs[-1] = draw(st.integers(1, q - 1))
    return coeffs


@st.composite
def curves(draw):
    p, m = draw(st.sampled_from(ODD_FIELDS + CHAR2_FIELDS))
    q = p**m
    f = _poly(draw, q, draw(st.integers(1, 6)))
    h = _poly(draw, q, draw(st.integers(0, 3))) if p == 2 else []
    try:
        curve = build(p, m, f, h)
    except (SingularModel, GeometricallyReducible):
        assume(False)
    # every degree whose residue fields stay small
    max_degree = max(d for d in range(1, 5) if q**d <= 800)
    return curve, max_degree


@SETTINGS
@given(curves())
def test_split_points_solve_the_equation(data):
    curve, max_degree = data
    model = curve.model
    pts = closed_points(curve, max_degree)
    ys = {}
    for pt in pts:
        if pt.kind != "split":
            continue
        pi, y = pt.pi, pt.y_rep
        assert y.degree < pi.degree
        assert (y * y + model.h * y - model.f) % pi == Poly(curve.field)
        ys.setdefault(pi, []).append(y)
    for pair in ys.values():
        assert len(pair) == 2 and pair[0] != pair[1]
    for n in range(1, max_degree + 1):
        assert census(pts, n) == count_points(curve, n)
    for d in range(1, max_degree + 1):
        assert len(curve.field.extension(d).roots()) == necklace_count(curve.field.q, d)


@SETTINGS
@given(st.sampled_from([(3, 1), (5, 1), (7, 1), (3, 2)]), st.data())
def test_sqrt_mod_matches_brute_force(pm, data):
    # all v with deg v < deg u and u | v^2 - f (f squarefree), on the
    # oracle's Hensel path: u = pi^e times up to two more prime powers,
    # drawn as the factorization _sqrt_mod takes, so lifts past e = 1 occur
    p, m = pm
    k = field_create(p, m)
    q = k.q
    deg_cap = {3: 4, 5: 3, 7: 3, 9: 2}[q]
    f = Poly(k, _poly(data.draw, q, data.draw(st.integers(1, 5))))
    assume(squarefree(f))
    d = data.draw(st.integers(1, min(2, deg_cap)))
    factors = [(data.draw(st.sampled_from(irreducibles(k, d))), data.draw(st.integers(1, deg_cap // d)))]
    room = deg_cap - d * factors[0][1]
    for _ in range(data.draw(st.integers(0, 2))):
        if not room:
            break
        d = data.draw(st.integers(1, room))
        pi, e = data.draw(st.sampled_from(irreducibles(k, d))), data.draw(st.integers(1, room // d))
        assume(all(pi != rho for rho, _ in factors))
        factors.append((pi, e))
        room -= d * e
    u = Poly(k, (1,))
    for pi, e in factors:
        u = u * pi**e
    expect = [
        v
        for v in (Poly(k, t) for t in itertools.product(range(q), repeat=u.degree))
        if ((v * v - f) % u).is_zero
    ]
    assert _sqrt_mod(f, factors, {}) == sorted(expect, key=Poly.sort_key)
