"""Affine point counts on y^2 + h(x)*y = f(x) over a tabulated field F_Q.

The kernel runs on the field's exp/log tables (``Field.tables``): x runs
over 0 and the powers g^k of the primitive element g, and Horner's rule
evaluates f(x) and h(x) in log space.  Multiplying by x = g^k adds k to the
log; adding a coefficient g^c uses the Zech logarithm,
g^a + g^c = g^(c + zech[a - c]).

When f and h have coefficients in a subfield F_q, the count above x is the
count above x^q, so the kernel takes the orbits of x -> x^q
(``Extension.orbits``): it evaluates at the least log k of each orbit and
weights the result by the orbit's length.  With every orbit of length 1 it
walks all of F_Q.

Odd p requires h = 0 (the caller's model guarantees it): the count above x
is 1 + chi(f(x)), and chi(g^a) = (-1)^a is the parity of the log.  For p = 2
the count is 1 if h(x) = 0 (squaring is a bijection), else 2 when the
absolute trace of u = f(x)/h(x)^2 vanishes and 0 otherwise.  The trace is
F_2-linear in the digits of u, so it is the parity of index(u) & mask, where
bit i of mask is the trace of t^i.  Both give the same answer at x and at
x^q, since f(x^q) = f(x)^q, h(x^q) = h(x)^q, and the q-th power keeps chi
and the trace.
"""

from __future__ import annotations

from itertools import chain

from .errors import CurveClassError


def backend_name() -> str:
    """The point-count kernel in use; there is one, on exp/log tables."""
    return "exp-log-tables"


def affine_count(p: int, m: int, field, f, h, orbits) -> int:
    """Number of (x, y) in F_Q^2, Q = p^m, with y^2 + h(x)*y = f(x).

    ``field`` is F_{p^m}; f and h are its element indices, low degree
    first.  ``orbits`` is (ks, lens): the least log and the length of
    every orbit of x -> x^q on F_Q^*, for a subfield F_q holding the
    coefficients of f and h (``Extension.orbits``).  p and m come first so
    the size of F_Q can be read off the arguments alone.
    """
    if (field.p, field.m) != (p, m):
        raise CurveClassError(f"field F_{field.q} is not F_{p}^{m}")
    exp, log, zech = field.tables()
    n = field.q - 1
    ks, lens = orbits
    f_logs = _value_logs(f, log, zech, n, ks)
    weights = chain((1,), lens)  # x = 0 is an orbit of its own
    count = 0
    if p != 2:
        for a, w in zip(f_logs, weights):
            if a < 0:
                count += w
            elif not a & 1:
                count += 2 * w
        return count
    mask = field.trace_mask()
    for a, b, w in zip(f_logs, _value_logs(h, log, zech, n, ks), weights):
        if b < 0:
            count += w
        elif a < 0 or not (exp[(a - 2 * b) % n] & mask).bit_count() & 1:
            count += 2 * w
    return count


def _value_logs(coeffs, log, zech, n: int, ks):
    """log c(x) at x = 0 and at x = g^k for k in ks; -1 where c(x) = 0.

    The logs are not reduced mod n, which keeps their parity since n is
    even whenever parity is read.
    """
    logs = [log[c] if c else -1 for c in coeffs] or [-1]
    yield logs[0]
    top, rest = logs[-1], logs[-2::-1]
    for k in ks:
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
