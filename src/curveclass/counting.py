"""Affine point counts on y^2 + h(x)*y = f(x) over a tabulated field F_Q.

The kernel walks the field's exp/log tables (``Field.tables``): x runs over
0 and then g^0, ..., g^(Q-2) for the primitive element g, and Horner's rule
evaluates f(x) and h(x) in log space.  Multiplying by x = g^k adds k to the
log; adding a coefficient g^c uses the Zech logarithm,
g^a + g^c = g^(c + zech[a - c]).

Odd p requires h = 0 (the caller's model guarantees it): the count above x
is 1 + chi(f(x)), and chi(g^a) = (-1)^a is the parity of the log.  For p = 2
the count is 1 if h(x) = 0 (squaring is a bijection), else 2 when the
absolute trace of u = f(x)/h(x)^2 vanishes and 0 otherwise.  The trace is
F_2-linear in the digits of u, so it is the parity of index(u) & mask, where
bit i of mask is the trace of t^i.
"""

from __future__ import annotations

from .errors import CurveClassError


def backend_name() -> str:
    """The point-count kernel in use; there is one, on exp/log tables."""
    return "exp-log-tables"


def affine_count(p: int, m: int, field, f, h) -> int:
    """Number of (x, y) in F_Q^2, Q = p^m, with y^2 + h(x)*y = f(x).

    ``field`` is F_{p^m}; f and h are its element indices, low degree
    first.  p and m come first so the work, Q values of x, can be read off
    the arguments alone.
    """
    if (field.p, field.m) != (p, m):
        raise CurveClassError(f"field F_{field.q} is not F_{p}^{m}")
    exp, log, zech = field.tables()
    n = field.q - 1
    f_logs = _value_logs(f, log, zech, n)
    count = 0
    if p != 2:
        for a in f_logs:
            if a < 0:
                count += 1
            elif not a & 1:
                count += 2
        return count
    mask = field.trace_mask()
    for a, b in zip(f_logs, _value_logs(h, log, zech, n)):
        if b < 0:
            count += 1
        elif a < 0 or not (exp[(a - 2 * b) % n] & mask).bit_count() & 1:
            count += 2
    return count


def _value_logs(coeffs, log, zech, n: int):
    """log c(x) at x = 0 and at x = g^k for k < n; -1 where c(x) = 0.

    The logs are not reduced mod n, which keeps their parity since n is
    even whenever parity is read.
    """
    logs = [log[c] if c else -1 for c in coeffs] or [-1]
    yield logs[0]
    top, rest = logs[-1], logs[-2::-1]
    for k in range(n):
        a = top
        for c in rest:
            if a < 0:
                a = c
            elif c < 0:
                a += k
            else:
                z = zech[(a + k - c) % n]
                a = c + z if z >= 0 else -1
        yield a
