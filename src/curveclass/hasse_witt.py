"""Hasse–Witt (Cartier–Manin) matrix of y^2 = f in odd characteristic.

For deg f = 2g + 1 over F_q, q = p^m, let c_k be the coefficients of
f^((p-1)/2) and A = (c_{ip-j}) for 1 <= i, j <= g.  The q-power Frobenius
acts through A_pi = A^(sigma^(m-1)) ... A^(sigma) A, where sigma raises every
entry to the p-th power; the order of the product matters once m > 1
(Manin 1961; Yui 1978).  From A_pi:

* s = dim_{F_p} Pic^0(F_q)[p] = g - rank(A_pi - I), and
* det(I - A_pi) = L(1) = h mod p, checked against the class number from the
  zeta layer on every call.

This is polynomial in g, p and m and enumerates nothing.  Over a prime field
f^((p-1)/2) comes from Kronecker substitution on Python ints; only exponents
below gp enter A, so every product is truncated there.  The determinant and
rank come from gf.det_rank, the package's one elimination over a field.
"""

from __future__ import annotations

from .curve import Curve
from .errors import CurveClassError
from .gf import Field, Poly, det_rank


def _pack(coeffs: list[int], width: int) -> int:
    return int.from_bytes(b"".join(c.to_bytes(width, "little") for c in coeffs), "little")


def _fp_mul_truncated(a: list[int], b: list[int], p: int, n: int) -> list[int]:
    """a * b mod p below x^n, for coefficient lists over F_p."""
    if not a or not b:
        return []
    # a coefficient of the integer product is a sum of at most min(len) terms
    width = (min(len(a), len(b)) * (p - 1) ** 2).bit_length() // 8 + 1
    size = min(n, len(a) + len(b) - 1)
    raw = (_pack(a, width) * _pack(b, width)).to_bytes(width * (len(a) + len(b) - 1), "little")
    out = [int.from_bytes(raw[k * width:(k + 1) * width], "little") % p for k in range(size)]
    while out and not out[-1]:
        out.pop()
    return out


def fp_power_truncated(coeffs, e: int, p: int, n: int) -> list[int]:
    """Coefficients of (sum coeffs[k] x^k)^e mod p below x^n, constant first.

    Square-and-multiply with every product done as one Python int product
    (Kronecker substitution); trailing zeros are dropped.
    """
    result = [1] if n > 0 else []
    base = [c % p for c in coeffs][:n]
    while e:
        if e & 1:
            result = _fp_mul_truncated(result, base, p, n)
        e >>= 1
        if e:
            base = _fp_mul_truncated(base, base, p, n)
    return result


def hasse_witt_matrix(f: Poly, g: int) -> list[list[int]]:
    """A = (c_{ip-j}), 1 <= i, j <= g, for f^((p-1)/2) = sum c_k x^k."""
    field = f.field
    p = field.p
    if p == 2:
        raise CurveClassError("the Hasse–Witt matrix needs odd characteristic")
    n = g * p
    if field.m == 1:
        c = fp_power_truncated(f.coeffs, (p - 1) // 2, p, n)
    else:
        c = (f ** ((p - 1) // 2)).coeffs[:n]
    c = list(c) + [0] * (n - len(c))
    return [[c[i * p - j] if i * p >= j else 0 for j in range(1, g + 1)]
            for i in range(1, g + 1)]


def mat_mul(a: list[list[int]], b: list[list[int]], field: Field) -> list[list[int]]:
    """The matrix product a b over the field."""
    mul, add = field.mul_idx, field.add_idx
    out = []
    for row in a:
        acc = [0] * len(b[0])
        for x, brow in zip(row, b):
            if x:
                for j, y in enumerate(brow):
                    if y:
                        acc[j] = add(acc[j], mul(x, y))
        out.append(acc)
    return out


def frobenius_matrix(a: list[list[int]], field: Field) -> list[list[int]]:
    """A_pi = A^(sigma^(m-1)) ... A^(sigma) A, the newest conjugate on the left."""
    p = field.p
    conj = prod = a
    for _ in range(field.m - 1):
        conj = [[field.pow_idx(x, p) for x in row] for row in conj]
        prod = mat_mul(conj, prod, field)
    return prod


def hasse_witt_s(curve: Curve, h: int) -> int:
    """s = g - rank(A_pi - I), after checking det(I - A_pi) = h mod p.

    The curve is the projective line (s = 0) or an odd-characteristic
    double cover y^2 = f with deg f = 2g + 1; h is its class number.
    """
    field = curve.field
    g = curve.genus
    a_pi = frobenius_matrix(hasse_witt_matrix(curve.model.f, g), field) if g else []
    one_minus = [[field.sub_idx(int(i == j), x) for j, x in enumerate(row)]
                 for i, row in enumerate(a_pi)]
    det, rank = det_rank(one_minus, field)
    # an F_p constant k has index k
    if det != h % field.p:
        raise CurveClassError("internal: Hasse–Witt determinant disagrees with h mod p")
    return g - rank
