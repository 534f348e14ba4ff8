#!/usr/bin/env python3
"""Brute-force searches for the pinned curves in the test suite.

Each search walks monic squarefree polynomials in lexicographic order
(constant coefficient first, ascending) and prints the first hit as a
JSON line, so every frozen constant in tests/ can be re-derived from
first principles.  Takes about half a minute in all, most of it the F_27
search.
"""

import argparse
import json
from itertools import product

from curveclass.curve import DoubleCover, closed_points, validate
from curveclass.errors import CurveClassError
from curveclass.gf import Poly, det_rank, field_create
from curveclass.hasse_witt import frobenius_matrix, hasse_witt_matrix, mat_mul
from curveclass.ihara import ihara_sum_exceeds
from curveclass.jacobian import jacobian_group, p_torsion_dim
from curveclass.zeta import l_polynomial


def monic_candidates(field, degree):
    """Monic degree-``degree`` polys, low coefficients first, lex order."""
    for tail in product(range(field.q), repeat=degree):
        yield Poly(field, tail + (1,))


def validated(field, f):
    try:
        return validate(DoubleCover(field=field, f=f, h=Poly(field, ())))
    except CurveClassError:
        return None


def emit(tag, field, curve, lp, extra=None):
    row = {
        "search": tag,
        "q": field.q,
        "f": list(curve.model.f.coeffs),
        "genus": curve.genus,
        "L": list(lp.coeffs),
        "h": lp.class_number,
    }
    if extra:
        row.update(extra)
    print(json.dumps(row, separators=(",", ":")))
    return row


def search_class_number(q, degree, target_h):
    """First monic squarefree f of the given degree with h = target_h."""
    field = field_create(q, 1)
    for f in monic_candidates(field, degree):
        curve = validated(field, f)
        if curve is None:
            continue
        lp = l_polynomial(curve)
        if lp.class_number == target_h:
            return emit(f"h={target_h} deg={degree} q={q}", field, curve, lp)
    raise SystemExit(f"no degree-{degree} curve over F_{q} with h={target_h}")


def search_undetermined(q, p):
    """Genus-2 curve over F_q with p | h and a degree-2 closed point whose
    one-point Ihara sum stays at or below g - 1 = 1.

    Such an instance lands in the open part of the decision table: the
    class-group obstruction is present but the Ihara bound cannot refute.
    """
    field = field_create(q, 1)
    for f in monic_candidates(field, 5):
        curve = validated(field, f)
        if curve is None:
            continue
        lp = l_polynomial(curve)
        if lp.class_number % p != 0:
            continue
        pts = closed_points(curve, 2)
        deg2 = [pt for pt in pts if pt.degree == 2]
        if not deg2:
            continue
        res = ihara_sum_exceeds([2], q, curve.genus)
        if res.exceeds:
            continue
        return emit(f"undetermined p={p} q={q}", field, curve, lp,
                    {"deg2_point": deg2[0].id, "ihara_approx": res.approx})
    raise SystemExit(f"no undetermined genus-2 instance over F_{q}")


def search_oracle_quintic(q):
    """First squarefree monic quintic over F_q, with its divisor class group.

    Pinned as a genus-2 fixture for the zeta-vs-enumeration cross-check.
    """
    field = field_create(q, 1)
    for f in monic_candidates(field, 5):
        curve = validated(field, f)
        if curve is None:
            continue
        lp = l_polynomial(curve)
        structure = jacobian_group(curve)
        assert structure.order == lp.class_number
        return emit(f"oracle quintic q={q}", field, curve, lp,
                    {"invariant_factors": list(structure.invariant_factors)})
    raise SystemExit(f"no squarefree quintic over F_{q}")


def search_group_shape(q, degree, factors):
    """First squarefree monic f over F_q whose Pic^0 has the given invariant
    factors, for the equal-order, different-shape oracle fixtures."""
    field = field_create(q, 1)
    for f in monic_candidates(field, degree):
        curve = validated(field, f)
        if curve is None:
            continue
        structure = jacobian_group(curve)
        if structure.invariant_factors == factors:
            return emit(f"group {factors} deg={degree} q={q}", field, curve,
                        l_polynomial(curve))
    raise SystemExit(f"no degree-{degree} curve over F_{q} with group {factors}")


def search_p_torsion(p, m, degree, target_s):
    """First squarefree monic f over F_{p^m} whose Pic^0[p] has F_p-dimension
    target_s, by the oracle: the pinned s = 2 fixtures of the Hasse–Witt
    tests."""
    field = field_create(p, m)
    for f in monic_candidates(field, degree):
        curve = validated(field, f)
        if curve is None:
            continue
        structure = jacobian_group(curve)
        if p_torsion_dim(structure, field.p) == target_s:
            return emit(f"s={target_s} deg={degree} q={field.q}", field, curve,
                        l_polynomial(curve),
                        {"invariant_factors": list(structure.invariant_factors)})
    raise SystemExit(f"no degree-{degree} curve over F_{field.q} with s={target_s}")


def _s_of(a_pi, field):
    """g - rank(a_pi - I)."""
    minus_one = [[field.sub_idx(x, int(i == j)) for j, x in enumerate(row)]
                 for i, row in enumerate(a_pi)]
    return len(a_pi) - det_rank(minus_one, field)[1]


def _reversed_product(a, field):
    """A A^(sigma) ... A^(sigma^(m-1)): the Frobenius product in the wrong order."""
    conj = prod = a
    for _ in range(field.m - 1):
        conj = [[field.pow_idx(x, field.p) for x in row] for row in conj]
        prod = mat_mul(prod, conj, field)
    return prod


def search_reversed_product(p, m, degree):
    """First squarefree monic f over F_{p^m} on which the Frobenius product
    taken in the wrong order gives a different s from the oracle.  The
    right order (`frobenius_matrix`) is checked against the oracle too."""
    field = field_create(p, m)
    g = (degree - 1) // 2
    for f in monic_candidates(field, degree):
        a = hasse_witt_matrix(f, g)
        s_right = _s_of(frobenius_matrix(a, field), field)
        s_wrong = _s_of(_reversed_product(a, field), field)
        # both products are cheap; the oracle runs only where they differ
        if s_right == s_wrong:
            continue
        curve = validated(field, f)
        if curve is None:
            continue
        s = p_torsion_dim(jacobian_group(curve), field.p)
        if s_right != s:
            raise SystemExit(f"Hasse-Witt s disagrees with the oracle on {f!r}")
        return emit(f"reversed product wrong deg={degree} q={field.q}", field, curve,
                    l_polynomial(curve), {"s": s, "reversed_s": s_wrong})
    raise SystemExit(f"no degree-{degree} curve over F_{field.q} separates the two orders")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--all", action="store_true",
                        help="run every search (default)")
    parser.parse_args(argv)

    # ordinary elliptic over F_3 with 3 | h, for the Ihara-refuted case
    search_class_number(3, 3, 3)
    # elliptic over F_3 with 2 and 3 both dividing h
    search_class_number(3, 3, 6)
    # genus-2 instance the decision table must leave open
    search_undetermined(3, 3)
    # genus-2 oracle fixtures
    for q in (3, 5, 7):
        search_oracle_quintic(q)
    # h = 9 over F_7 both ways: a repeated odd prime in the oracle's factors
    search_group_shape(7, 3, (3, 3))
    search_group_shape(7, 3, (9,))
    # s = 2 for the Hasse-Witt tests, over a prime field and over F_9
    search_p_torsion(3, 1, 7, 2)
    search_p_torsion(3, 2, 5, 2)
    # the order of the Frobenius product matters over F_27
    search_reversed_product(3, 3, 5)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
