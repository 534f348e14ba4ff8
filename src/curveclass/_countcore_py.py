"""Pure-Python affine point-count kernel.

Counts solutions (x, y) in F_Q^2 of  y^2 + h(x)*y = f(x),  where F_Q is
F_p[t]/(modulus) of degree d over the prime field; ``modulus`` is the full
monic coefficient list of length d+1 and the f/h coefficients are digit
vectors of length d.  The compiled kernel in _countcore.pyx runs the
identical algorithm; curveclass.counting picks one at import time.

Odd p requires h = 0 (the caller's model guarantees it): the count per x is
1 + chi(f(x)) with chi read off a precomputed table of squares.  For p = 2
the count per x is 1 if h(x) = 0 (squaring is a bijection), else twice the
indicator that the absolute trace of f(x)/h(x)^2 vanishes; the inverse is
h(x)^(-2) = (h(x)^2)^(Q-2).
"""

from __future__ import annotations

from .errors import CurveClassError

BACKEND = "pure-python"


def _reduction_rows(p: int, d: int, modulus) -> list[list[int]]:
    """Digit vectors of t^(d+j) mod modulus for j = 0..d-2."""
    red0 = [(-modulus[i]) % p for i in range(d)]
    rows = [red0]
    for _ in range(d - 2):
        prev = rows[-1]
        top = prev[d - 1]
        nxt = [0] * d
        for t in range(1, d):
            nxt[t] = prev[t - 1]
        if top:
            for t in range(d):
                nxt[t] = (nxt[t] + top * red0[t]) % p
        rows.append(nxt)
    return rows


def _mul(a, b, p: int, d: int, red) -> list[int]:
    if d == 1:
        return [a[0] * b[0] % p]
    res = [0] * (2 * d - 1)
    for i in range(d):
        ai = a[i]
        if ai:
            for j in range(d):
                bj = b[j]
                if bj:
                    res[i + j] = (res[i + j] + ai * bj) % p
    for k in range(2 * d - 2, d - 1, -1):
        c = res[k]
        if c:
            res[k] = 0
            row = red[k - d]
            for t in range(d):
                if row[t]:
                    res[t] = (res[t] + c * row[t]) % p
    return res[:d]


def _pow_elem(a, e: int, p: int, d: int, red) -> list[int]:
    result = [0] * d
    result[0] = 1
    base = list(a)
    while e:
        if e & 1:
            result = _mul(result, base, p, d, red)
        base = _mul(base, base, p, d, red)
        e >>= 1
    return result


def affine_count(p: int, d: int, modulus, fcoeffs, hcoeffs) -> int:
    Q = p**d
    red = _reduction_rows(p, d, modulus) if d > 1 else []
    fit = [list(c) for c in fcoeffs]
    hit = [list(c) for c in hcoeffs]
    zero = [0] * d

    def horner(coeffs, x):
        if not coeffs:
            return list(zero)
        acc = list(coeffs[-1])
        for c in reversed(coeffs[:-1]):
            acc = _mul(acc, x, p, d, red)
            for i in range(d):
                acc[i] = (acc[i] + c[i]) % p
        return acc

    count = 0
    powers = [p**i for i in range(d)]
    if p != 2:
        squares = bytearray(Q)
        x = [0] * d
        for _ in range(Q):
            s = _mul(x, x, p, d, red)
            idx = 0
            for i in range(d):
                idx += s[i] * powers[i]
            squares[idx] = 1
            _increment(x, p, d)
        x = [0] * d
        for _ in range(Q):
            u = horner(fit, x)
            if any(u):
                idx = 0
                for i in range(d):
                    idx += u[i] * powers[i]
                if squares[idx]:
                    count += 2
            else:
                count += 1
            _increment(x, p, d)
        return count

    # p == 2: absolute traces of the power basis
    tr = []
    for i in range(d):
        e = [0] * d
        e[i] = 1
        acc = list(e)
        cur = list(e)
        for _ in range(d - 1):
            cur = _mul(cur, cur, p, d, red)
            for t in range(d):
                acc[t] ^= cur[t]
        if any(acc[1:]):
            raise CurveClassError("internal: trace did not land in the prime field")
        tr.append(acc[0])
    x = [0] * d
    for _ in range(Q):
        b = horner(hit, x)
        if not any(b):
            count += 1
        else:
            a = horner(fit, x)
            w = _mul(b, b, p, d, red)
            winv = _pow_elem(w, Q - 2, p, d, red)
            u = _mul(a, winv, p, d, red)
            t = 0
            for i in range(d):
                if u[i]:
                    t ^= tr[i]
            if t == 0:
                count += 2
        _increment(x, p, d)
    return count


def _increment(x, p: int, d: int) -> None:
    for i in range(d):
        x[i] += 1
        if x[i] < p:
            return
        x[i] = 0
