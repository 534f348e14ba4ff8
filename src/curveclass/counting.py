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

The orbit representatives go through Horner's rule BLOCK at a time, and a
step over a block runs no Python bytecode per element.  Each value is held
as its log less the log c of the last nonzero coefficient added.  The step
that multiplies by x^r and adds g^c' is then one gather,
G -> zt[(c - c') mod n + G + (r*k mod n)], from the field's tiled Zech
table (``Field.count_tables``, 20 bytes per element), with no reduction.
A zero value is Z = 3n there, and the gather reads it back as the log of
the next coefficient.  A run of zero coefficients takes no step: it is the
power r of x in the next one, and a run at the end adds r*k mod n and puts
the rare Z back.  x = 0 is one scalar step on the constant terms.

Odd p requires h = 0 (the caller's model guarantees it): the count above x
is 1 + chi(f(x)), and chi(g^a) = (-1)^a is the parity of the log.  For p = 2
the count is 1 if h(x) = 0 (squaring is a bijection), else 2 when the
absolute trace of u = f(x)/h(x)^2 vanishes and 0 otherwise; the trace of
g^-j is one gather from the field's table of traces (3 bytes per element).
Both give the same answer at x and at x^q, since f(x^q) = f(x)^q,
h(x^q) = h(x)^q, and the q-th power keeps chi and the trace.
"""

from __future__ import annotations

from itertools import compress
from operator import add, itemgetter, sub

from .errors import CurveClassError

# orbit representatives per Horner block: a block's values are a few
# hundred kilobytes whatever the size of the field
BLOCK = 4096


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
    log = field.tables()[1]
    zt, tr = field.count_tables()
    n = field.q - 1
    Z = 3 * n
    ks, lens = orbits
    f_logs, h_logs = _top_logs(f, log), _top_logs(h, log)
    f0, h0 = f[0] if f else 0, h[0] if h else 0
    if p != 2:
        count = 1 if not f0 else 0 if log[f0] & 1 else 2
    else:
        count = 1 if not h0 else 2 if not f0 or not tr[(2 * log[h0] - log[f0]) % n] else 0
    for i in range(0, len(ks), BLOCK):
        kb, wb = list(ks[i : i + BLOCK]), lens[i : i + BLOCK]
        if len(kb) == 1:
            # itemgetter of one index returns a scalar: repeat it, weight 0
            kb, wb = kb * 2, (wb[0], 0)
        steps = {1: kb}
        F, cf = _horner(f_logs, steps, zt, n)
        zf = _positions(F, Z)
        if p != 2:
            # the parity of log f(x) = F + cf; Z is even, so zeros count as even
            odd = sum(compress(wb, map((1).__and__, F)))
            zeros = sum(wb[j] for j in zf)
            count += 2 * odd + zeros if cf & 1 else 2 * (sum(wb) - odd) - zeros
            continue
        H, ch = _horner(h_logs, steps, zt, n)
        zh = _positions(H, Z)
        if zf or zh:
            F, H = list(F), list(H)
            for j in zf:
                F[j] = 0
            for j in zh:
                H[j] = 0
        # -log u = 2(H + ch) - (F + cf); 2H - F lies in -n..2n, and a slice
        # of length 2n, a multiple of the period n, reads a negative index
        # as the same trace
        o = (2 * ch - cf) % n
        T = itemgetter(*map(sub, map(add, H, H), F))(tr[o : o + 2 * n])
        count += 2 * (sum(wb) - sum(compress(wb, T)))
        for j in zh:
            count += wb[j] * (2 * T[j] - 1)  # h(x) = 0: one point
        for j in set(zf).difference(zh):
            count += 2 * wb[j] * T[j]  # f(x) = 0: u = 0 has trace 0
    return count


def _top_logs(coeffs, log) -> list[int]:
    """The logs of the coefficients from the top, -1 for a zero one, with
    the leading zeros dropped (empty for the zero polynomial)."""
    logs = [log[c] if c else -1 for c in reversed(coeffs)]
    while logs and logs[0] < 0:
        logs.pop(0)
    return logs


def _horner(logs, steps, zt, n: int):
    """(G, c) with G[i] = log v(x) - c, or Z = 3n where v(x) = 0, at
    x = g^k for the k of the block, steps[1][i], for the polynomial v
    whose ``_top_logs`` are logs.  Each G[i] lies in 0..n-1 or is Z; c is
    the log of the last nonzero coefficient added, 0 for v = 0.

    A run of zero coefficients takes no step of its own: the next nonzero
    one multiplies by x^r, r - 1 the length of the run, which adds the
    logs r*k mod n (``_times``).  Zero coefficients at the end add them
    mod n, and put the zeros back.
    """
    Z = 3 * n
    if not logs:
        return [Z] * len(steps[1]), 0
    G, c, r = None, logs[0], 1  # None: v's top coefficient, G = 0 throughout
    for a in logs[1:]:
        if a < 0:
            r += 1
            continue
        kr = _times(steps, r, n)
        at = kr if G is None else map(add, G, kr)  # log(v * x^r) - c, unreduced
        G = itemgetter(*at)(zt[(c - a) % n :])
        c, r = a, 1
    if G is None:
        G = (0,) * len(steps[1])
    if r > 1:
        zs = _positions(G, Z)
        G = list(map(n.__rmod__, map(add, G, _times(steps, r - 1, n))))
        for i in zs:
            G[i] = Z
    return G, c


def _times(steps, r: int, n: int):
    """The logs r*k mod n of x^r over the block, kept in steps (steps[1]
    is the block) for the other polynomial."""
    kr = steps.get(r)
    if kr is None:
        kr = steps[r] = list(map(n.__rmod__, map(r.__mul__, steps[1])))
    return kr


def _positions(G, Z: int) -> list[int]:
    """The indices i with G[i] == Z, by C-level scans."""
    out, i = [], -1
    for _ in range(G.count(Z)):
        i = G.index(Z, i + 1)
        out.append(i)
    return out
