"""Shared builders and pinned fixtures for the suite."""

from curveclass import model_from_json, validate
from curveclass.gf import monic_polys


def curve_json(p, m=1, f=None, h=None, modulus=None):
    field = {"p": p, "m": m}
    if modulus is not None:
        field["modulus"] = list(modulus)
    if f is None:
        model = {"kind": "projective_line"}
    else:
        model = {"kind": "double_cover", "f": list(f), "h": list(h or [])}
    return {"field": field, "model": model}


def build(p, m=1, f=None, h=None, modulus=None):
    return validate(model_from_json(curve_json(p, m, f, h, modulus)))


def mul_digits(k, da, db):
    """The product of two digit vectors of k, schoolbook in F_p[t]/(modulus),
    from ``k.modulus`` alone: a reference that calls no product of the package."""
    p, m, f = k.p, k.m, k.modulus
    out = [0] * (2 * m - 1)
    for i, a in enumerate(da):
        for j, b in enumerate(db):
            out[i + j] += a * b
    # t^m = -(f_0 + ... + f_{m-1} t^(m-1)): fold the top coefficient down
    for top in range(2 * m - 2, m - 1, -1):
        c = out[top] % p
        for i in range(m):
            out[top - m + i] -= c * f[i]
    return tuple(c % p for c in out[:m])


def is_irreducible_by_division(f):
    """Whether f, of degree d >= 1, is irreducible over its field, from the
    definition: no monic polynomial of degree 1 .. d // 2 divides it."""
    d = f.degree
    return d >= 1 and not any(
        (f % g).is_zero for e in range(1, d // 2 + 1) for g in monic_polys(f.field, e)
    )


# lex-first hits from scripts/find_special_curves.py, frozen
E_H3_F3 = (1, 2, 1, 1)        # x^3+x^2+2x+1 over F_3: L = 1 - u + 3u^2, h = 3
E_H6_F3 = (0, 2, 1, 1)        # x^3+x^2+2x over F_3: h = 6
G2_X5PX = (0, 1, 0, 0, 0, 1)  # y^2 = x^5+x: h = 12/36/64 over F_3/F_5/F_7
E_33_F7 = (1, 3, 4, 1)        # x^3+4x^2+3x+1 over F_7: h = 9, class group Z/3 x Z/3
E_9_F7 = (1, 1, 3, 1)         # x^3+3x^2+x+1 over F_7: h = 9, class group Z/9
S2_F3 = (0, 1, 1, 0, 1, 0, 1, 1)  # genus 3 over F_3: h = 36, Z/3 x Z/12, s = 2
# G2_X5PX over F_9 (canonical modulus): h = 144, (Z/2)^2 x (Z/6)^2, s = 2
REV_F27 = (0, 3, 0, 0, 9, 1)  # genus 2 over F_27: h = 950, s = 0, but 1 from
                              # the Frobenius product taken in the wrong order

# hand-checked elliptic fixtures
E_Z4_F3 = (0, 1, 0, 1)        # y^2 = x^3+x over F_3: h = 4, class group Z/4
E_V4_F3 = (0, 2, 0, 1)        # y^2 = x^3+2x over F_3: h = 4, Z/2 x Z/2
