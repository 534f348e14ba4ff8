"""Brute-force divisor class group oracle for small curves.

Independent of the zeta machinery: elements of Pic^0 are enumerated directly
as reduced Mumford pairs (u, v) with u monic of degree <= g, deg v < deg u
and u | v^2 - f, and the group law is Cantor composition plus reduction.
Supported models: the projective line (trivial group) and odd-characteristic
double covers y^2 = f with deg f = 2g + 1 (one point at infinity).  The
group structure is read off from exact l-power torsion counts: for each
prime l | N = #Pic^0, the map x -> l*x is tabulated over the enumerated set
(one scalar multiplication per element), and #Pic^0[l^j] for j <= v_l(N)
is counted by walking that table, with no further compositions.

Each u is built as a product of prime powers pi^e, never factored: the
monic irreducibles pi of degree d are the keys of the root table of
F_{q^d} = field.extension(d) (``curve.irreducibles``).  The v come from
square roots of f modulo each pi^e, taken once per pi^e in a walk: the
root mod pi is a table lookup in F_{q^d}, and Hensel steps lift it with
Poly arithmetic.  A u with a factor pi^e that has no such root has no v
and is skipped; the roots mod the factors meet by the Chinese remainder
theorem.

``classify`` enumerates the whole group only when the zeta layer hit the
budget (h unknown); the ``oracle`` subcommand, ``scripts/`` and the tests
use it as the reference.  Away from the characteristic ``p_sylow_rank``
walks the same pairs lazily and stops as soon as the p-Sylow subgroup is
full, since h is known from L(1).  In characteristic p, s comes from the
Hasse–Witt matrix instead (``hasse_witt``).  ``classify._p_part`` runs all
three inside the same gates (``oracle_gate``); outside them s is unknown,
except that cases 3, 6 and 7 report s = 0 when p does not divide h.

Every enumeration re-verifies the group axioms on the enumerated set:
identity and inverses on all elements, plus seeded random closure and
associativity checks.  The torsion step adds closure under x -> l*x on
every element and checks that each l-Sylow subgroup has exactly
l^{v_l(N)} elements.  The walk checks h*x = 0 on each element it takes and
that the p-Sylow subgroup it builds has exactly p^{v_p(h)} elements, then
runs the same torsion step, with its checks, on that subgroup.
"""

from __future__ import annotations

import random

from .curve import Curve, DoubleCover, ProjectiveLine, irreducibles
from .errors import BudgetExceeded, CurveClassError, OracleUnsupportedModel
from .gf import Poly, poly_extgcd, prime_factors
from .record import FrozenRecord

_SANITY_SEED = 0xD1F0
_SANITY_TRIALS = 100

# the oracle's gates (``oracle_gate``): q^g, and the group order when known
ORACLE_ENUM_CAP = 10**3
ORACLE_ORDER_CAP = 10**4


class AbelianGroupStructure(FrozenRecord):
    """Finite abelian group as order plus invariant factors d_1 | d_2 | ..."""

    __slots__ = ("order", "invariant_factors")

    def __init__(self, order: int, invariant_factors: tuple[int, ...]):
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "invariant_factors", invariant_factors)

    def to_json(self) -> dict:
        return {
            "invariant_factors": list(self.invariant_factors),
            "order": self.order,
        }


def p_torsion_dim(structure: AbelianGroupStructure, p: int) -> int:
    """dim_{F_p} of the p-torsion subgroup."""
    return sum(1 for d in structure.invariant_factors if d % p == 0)


# ---------------------------------------------------------------------------
# Mumford arithmetic (h = 0, odd characteristic, deg f = 2g + 1)


def _sqrt_mod_prime_power(f: Poly, pi: Poly, e: int) -> list[Poly]:
    """All v mod pi^e with v^2 = f; f squarefree, pi irreducible."""
    field = f.field
    # residues mod pi live in F_{q^d} at a root alpha of pi; q^d <= q^g is small
    ext = field.extension(pi.degree)
    big = ext.big
    alpha = ext.root(pi)
    r = big.sqrt_idx(ext.evaluate(f, alpha))
    if r == 0:
        # ramified: v = 0 works mod pi, and nothing lifts past e = 1
        return [Poly(field)] if e == 1 else []
    if r is None:
        return []
    s = ext.residue(r, alpha, pi)
    # s(alpha) = r at every step, since each correction is a multiple of pi
    neg_inv_2r = big.neg_idx(big.inv_idx(big.add_idx(r, r)))
    mod = pi
    for _ in range(1, e):
        # Hensel step: s <- s + t*mod with 2*s*t = -(s^2 - f)/mod (mod pi)
        mod_next = mod * pi
        c = ext.evaluate((s * s - f) % mod_next // mod, alpha)
        s = (s + ext.residue(big.mul_idx(c, neg_inv_2r), alpha, pi) * mod) % mod_next
        mod = mod_next
    if not ((s * s - f) % mod).is_zero:
        raise CurveClassError("internal: Hensel lift failed")
    return sorted({s % mod, (-s) % mod}, key=Poly.sort_key)


def _sqrt_mod(f: Poly, factors, local: dict) -> list[Poly]:
    """All v with deg v < deg u and u | v^2 - f, where u is the product of
    pi^e over the (pi, e) in factors, distinct pi.

    local memoizes ``_sqrt_mod_prime_power(f, pi, e)`` by (pi, e).
    """
    field = f.field
    cur = [Poly(field)]
    cur_mod = Poly(field, (1,))
    for pi, e in factors:
        roots = local.get((pi, e))
        if roots is None:
            roots = local[(pi, e)] = _sqrt_mod_prime_power(f, pi, e)
        if not roots:
            return []
        mod_i = pi**e
        g, a, b = poly_extgcd(cur_mod, mod_i)
        if g.degree != 0:
            raise CurveClassError("internal: moduli must be coprime")
        new_mod = cur_mod * mod_i
        nxt = []
        for xv in cur:
            for yv in roots:
                z = (xv * b * mod_i + yv * a * cur_mod) % new_mod
                nxt.append(z)
        cur, cur_mod = nxt, new_mod
    return sorted(cur, key=Poly.sort_key)


def _mumford_walk(f: Poly, g: int):
    """The reduced Mumford pairs, identity first, then by (deg u, u, v).

    Each u is built from its factorization, never factored.  The monic
    irreducibles of degree d (``irreducibles``, the keys of a root table)
    are read as the walk reaches degree d, and a u of degree d is pi^e
    times a u' of degree d - e*deg(pi) whose irreducible factors all come
    before pi.  A u with a factor pi^e that has no square root of f mod
    pi^e has no v, so it is never built.
    """
    field = f.field
    one = Poly(field, (1,))
    yield (one, Poly(field))
    local: dict = {}
    pis: list[Poly] = []
    # built[k]: (index in pis of the last factor, u, its (pi, e) list) for
    # every u of degree k whose prime powers all have local roots
    built = [[(-1, one, [])]]
    for d in range(1, g + 1):
        pis += irreducibles(field, d)
        level = []
        for i, pi in enumerate(pis):
            power = one
            for e in range(1, d // pi.degree + 1):
                power = power * pi
                roots = local.get((pi, e))
                if roots is None:
                    roots = local[(pi, e)] = _sqrt_mod_prime_power(f, pi, e)
                if not roots:
                    break  # no root mod pi^e, so none mod a higher power
                level.extend(
                    (i, u * power, factors + [(pi, e)])
                    for j, u, factors in built[d - e * pi.degree]
                    if j < i
                )
        level.sort(key=lambda entry: entry[1].sort_key())
        built.append(level)
        for _, u, factors in level:
            for v in _sqrt_mod(f, factors, local):
                yield (u, v)


def _compose(D1, D2, f: Poly, g: int):
    u1, v1 = D1
    u2, v2 = D2
    d0, e1, e2 = poly_extgcd(u1, u2)
    d, c1, c2 = poly_extgcd(d0, v1 + v2)
    s1, s2, s3 = c1 * e1, c1 * e2, c2
    dd = d * d
    u = (u1 * u2) // dd
    v = ((s1 * u1 * v2 + s2 * u2 * v1 + s3 * (v1 * v2 + f)) // d) % u
    while u.degree > g:
        u = (f - v * v) // u
        u = u.monic()
        v = (-v) % u
    return (u, v)


def _negate(D, f: Poly):
    u, v = D
    return (u, (-v) % u if u.degree > 0 else Poly(f.field))


def _scalar(n: int, D, f: Poly, g: int, identity):
    # starting from the first addend spares a composition with the identity
    acc = None
    add = D
    while n:
        if n & 1:
            acc = add if acc is None else _compose(acc, add, f, g)
        n >>= 1
        if n:
            add = _compose(add, add, f, g)
    return identity if acc is None else acc


def _group_sanity(elements, f: Poly, g: int, identity) -> None:
    elem_set = set(elements)
    for x in elements:
        if _compose(x, identity, f, g) != x:
            raise CurveClassError("internal: identity law fails")
        if _compose(x, _negate(x, f), f, g) != identity:
            raise CurveClassError("internal: inverse law fails")
    rng = random.Random(_SANITY_SEED)
    n = len(elements)
    for _ in range(_SANITY_TRIALS):
        a = elements[rng.randrange(n)]
        b = elements[rng.randrange(n)]
        c = elements[rng.randrange(n)]
        ab = _compose(a, b, f, g)
        if ab not in elem_set:
            raise CurveClassError("internal: composition left the divisor set")
        if _compose(ab, c, f, g) != _compose(a, _compose(b, c, f, g), f, g):
            raise CurveClassError("internal: associativity fails")


def _l_exponents(elements, l: int, f: Poly, g: int, identity) -> list[int]:
    """Exponents of the cyclic l-power components of the group on elements,
    largest first."""
    a, n = 0, len(elements)
    while n % l == 0:
        n //= l
        a += 1
    # one composition chain per element builds x -> l*x; the l-power
    # torsion is then read off by walking the map, not by composing
    times_l = {x: _scalar(l, x, f, g, identity) for x in elements}
    if any(y not in times_l for y in times_l.values()):
        raise CurveClassError("internal: composition left the divisor set")
    # counts[j] = number of elements of order exactly l^j
    counts = [0] * (a + 1)
    for x in elements:
        y = x
        for j in range(a + 1):
            if y == identity:
                counts[j] += 1
                break
            y = times_l[y]
    if counts[0] != 1:
        raise CurveClassError("internal: identity must be the only 0-torsion element")
    # running sums are #G[l^j]; successive ratios l^{d_j} give
    # d_j = number of cyclic l-components with exponent >= j
    profile = []
    prev = counts[0]
    running = counts[0]
    for j in range(1, a + 1):
        running += counts[j]
        if running % prev:
            raise CurveClassError("internal: torsion counts must nest")
        ratio = running // prev
        d = 0
        while ratio > 1:
            if ratio % l:
                raise CurveClassError("internal: torsion ratio not an l-power")
            ratio //= l
            d += 1
        profile.append(d)
        prev = running
    if running != l**a:
        raise CurveClassError("internal: l-Sylow subgroup must have l^a elements")
    if any(profile[i] < profile[i + 1] for i in range(len(profile) - 1)):
        raise CurveClassError("internal: exponent profile must be non-increasing")
    # the conjugate partition of the profile is the exponent multiset
    exps = []
    i = 1
    while profile and profile[0] >= i:
        exps.append(sum(1 for dj in profile if dj >= i))
        i += 1
    if sum(exps) != a:
        raise CurveClassError("internal: exponents must sum to the l-valuation")
    return exps


def _invariant_factors(elements, f: Poly, g: int, identity) -> tuple[int, ...]:
    N = len(elements)
    if N == 1:
        return ()
    parts = {l: _l_exponents(elements, l, f, g, identity) for l in prime_factors(N)}
    r = max(len(v) for v in parts.values())
    inv = []
    for i in range(r):
        d = 1
        for l, exps in parts.items():
            j = r - 1 - i
            if j < len(exps):
                d *= l ** exps[j]
        inv.append(d)
    inv = [d for d in inv if d > 1]
    prod = 1
    for d in inv:
        prod *= d
    if prod != N:
        raise CurveClassError("internal: invariant factors must multiply to the order")
    for i in range(len(inv) - 1):
        if inv[i + 1] % inv[i]:
            raise CurveClassError("internal: invariant factor chain broken")
    return tuple(inv)


def oracle_gate(curve: Curve, order: int | None = None) -> None:
    """Raise where the oracle does not run; return None where it does.

    OracleUnsupportedModel unless the model is the projective line or an
    odd-characteristic double cover y^2 = f with h = 0 and deg f = 2g + 1;
    BudgetExceeded when q^g exceeds ORACLE_ENUM_CAP or, given the group
    order, when that exceeds ORACLE_ORDER_CAP.  The char-p path of
    ``classify`` passes the class number as the order, so it reports s for
    exactly the curves the oracle would.
    """
    model = curve.model
    if isinstance(model, ProjectiveLine):
        return
    if not isinstance(model, DoubleCover):
        raise OracleUnsupportedModel(f"no oracle for {model!r}")
    field = model.field
    if field.p == 2:
        raise OracleUnsupportedModel("oracle needs odd characteristic")
    if not model.h.is_zero:
        raise OracleUnsupportedModel("oracle needs a completed square (h = 0)")
    g = curve.genus
    if model.f.degree != 2 * g + 1:
        raise OracleUnsupportedModel(
            "oracle needs an odd-degree model (one point at infinity)"
        )
    if field.q**g > ORACLE_ENUM_CAP:
        raise BudgetExceeded(
            f"q^g = {field.q ** g} exceeds the enumeration cap {ORACLE_ENUM_CAP}"
        )
    if order is not None and order > ORACLE_ORDER_CAP:
        raise BudgetExceeded(f"group order {order} exceeds the cap {ORACLE_ORDER_CAP}")


def jacobian_group(curve: Curve) -> AbelianGroupStructure:
    """Enumerate Pic^0(F_q) and return its abelian group structure."""
    oracle_gate(curve)
    if isinstance(curve.model, ProjectiveLine):
        return AbelianGroupStructure(order=1, invariant_factors=())
    f = curve.model.f
    g = curve.genus
    elements = list(_mumford_walk(f, g))
    oracle_gate(curve, len(elements))
    identity = elements[0]
    _group_sanity(elements, f, g, identity)
    inv = _invariant_factors(elements, f, g, identity)
    return AbelianGroupStructure(order=len(elements), invariant_factors=inv)


def p_sylow_rank(curve: Curve, p: int, h: int) -> int:
    """dim_{F_p} Pic^0(F_q)[p], given the class number h = #Pic^0(F_q).

    Inside the oracle's gates, the reduced Mumford pairs are walked lazily
    in ``_mumford_walk`` order and each x is mapped to y = (h/p^a)*x,
    p^a = p^{v_p(h)}.  The subgroup these y generate grows one coset of
    each new y at a time until it holds p^a elements: that is the p-Sylow
    subgroup P, and the answer is the number of its cyclic components, from
    the l-power torsion step (``_l_exponents``) with l = p.  Every walked
    x must satisfy h*x = 0, and P must reach exactly p^a elements before
    the walk runs out.
    """
    oracle_gate(curve, h)
    size, m = 1, h
    while m % p == 0:
        m //= p
        size *= p
    if size == 1:
        return 0
    if isinstance(curve.model, ProjectiveLine):
        raise CurveClassError("internal: the walk ran out before the p-Sylow subgroup was full")
    f = curve.model.f
    g = curve.genus
    walk = _mumford_walk(f, g)
    identity = next(walk)
    sylow = {identity}
    for x in walk:
        y = _scalar(m, x, f, g, identity)
        if _scalar(size, y, f, g, identity) != identity:
            raise CurveClassError("internal: h*x is not zero on a walked element")
        base = list(sylow)
        c = y
        while c not in sylow:
            # the coset P + k*y, disjoint from P + j*y for j < k
            grown = len(sylow) + len(base)
            sylow.update(_compose(z, c, f, g) for z in base)
            if len(sylow) != grown:
                raise CurveClassError("internal: cosets of the p-Sylow walk overlap")
            if len(sylow) > size:
                raise CurveClassError("internal: the p-Sylow subgroup outgrew p^a")
            c = _compose(c, y, f, g)
        if len(sylow) == size:
            break
    else:
        raise CurveClassError("internal: the walk ran out before the p-Sylow subgroup was full")
    return len(_l_exponents(list(sylow), p, f, g, identity))
