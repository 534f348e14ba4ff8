"""Marked-curve models: validation, point counts, closed-point census.

Two model kinds are supported over a finite field F_q:

* ``projective_line`` -- P^1 itself.
* ``double_cover``    -- the smooth projective model of y^2 + h(x)*y = f(x).

Validation computes the genus and the places above x = infinity straight from
the defining data.  In odd characteristic the model must be a completed
square (h = 0) with f squarefree.  In characteristic 2 the model needs
h != 0; smoothness of the affine model is checked at the zeros of h, and the
genus comes from the ramification of the degree-2 cover: the function
u = f/h^2 is reduced at each pole by substitutions u -> u + w^2 + w until the
pole order is odd (ramified, conductor exponent m_P + 1) or the pole is gone
(unramified).

Point counts over F_q run in F_q itself; over F_{q^n}, n > 1, they run in
F_{q^n} built over its primitive modulus, with the coefficients of f and h
embedded.  f and h are defined over F_q, so a count is constant on the
orbits of x -> x^q, and ``affine_count`` evaluates them once per orbit on
that field's exp/log tables.  The tables and the orbit table
(``Extension.orbits``) are built by the first count and cached with the
field.

Closed points of degree d use the same cached F_{q^d} as their residue
fields, with x at a root of pi.  The monic irreducibles pi of degree d
(``irreducibles``) are the keys of that field's root table, one per
Frobenius orbit of length d in the same orbit table.  The square test is
the parity of a log, and the square root is a table lookup.  In
characteristic 2 the split test is the trace, and the y-values come from
solving z^2 + z = u.  A residue returns to F_q[x]/(pi) by interpolating at
the conjugates of the root.

A count, an enumeration or a census over F_{q^d}, d <= n, first passes q
and n to ``budget.check_budget``, so no field past the budget is built.
Validation has no budget, and the factors of h it meets can have large
degree, so its square roots mod pi stay on Poly arithmetic.
"""

from __future__ import annotations

from .budget import check_budget
from .counting import affine_count
from .errors import (
    CurveClassError,
    GeometricallyReducible,
    SingularModel,
    UnsupportedModel,
)
from .gf import (
    Extension,
    Field,
    Poly,
    field_create,
    is_json_int,
    mobius,
    poly_extgcd,
    poly_factor,
    poly_gcd,
    pow_mod,
    primitive_modulus,
    squarefree,
    x_poly,
)
from .record import FrozenRecord


class ProjectiveLine(FrozenRecord):
    __slots__ = ("field",)
    kind = "projective_line"

    def __init__(self, field: Field):
        object.__setattr__(self, "field", field)


class DoubleCover(FrozenRecord):
    """Affine model y^2 + h(x)*y = f(x); h = 0 outside characteristic 2."""

    __slots__ = ("field", "f", "h")
    kind = "double_cover"

    def __init__(self, field: Field, f: Poly, h: Poly):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "h", h)


class ClosedPoint(FrozenRecord):
    """One closed point of the smooth projective model.

    kind is "plain" (projective line), "ramified", "split", "inert" (finite
    points of a double cover, keyed by the monic irreducible pi below them),
    or "infinity".  Split points carry a canonical y-representative of degree
    < deg pi.  An inert point has degree 2*deg(pi).
    """

    __slots__ = ("id", "degree", "kind", "pi", "y_rep", "slot")

    def __init__(self, id: str, degree: int, kind: str, pi: Poly | None = None,
                 y_rep: Poly | None = None, slot: int | None = None):
        object.__setattr__(self, "id", id)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "pi", pi)
        object.__setattr__(self, "y_rep", y_rep)
        object.__setattr__(self, "slot", slot)

    def to_json(self) -> dict:
        return {
            "id": self.id,
            "degree": self.degree,
            "kind": self.kind,
            "pi": None if self.pi is None else self.pi.to_json(),
            "y": None if self.y_rep is None else self.y_rep.to_json(),
        }


class Curve(FrozenRecord):
    """A validated model together with its genus and places at infinity."""

    __slots__ = ("model", "genus", "infinity")

    def __init__(self, model: ProjectiveLine | DoubleCover, genus: int,
                 infinity: tuple[ClosedPoint, ...]):
        object.__setattr__(self, "model", model)
        object.__setattr__(self, "genus", genus)
        object.__setattr__(self, "infinity", infinity)

    @property
    def field(self) -> Field:
        return self.model.field


# ---------------------------------------------------------------------------
# wire format


def field_from_json(data) -> Field:
    if not isinstance(data, dict):
        raise CurveClassError("field description must be an object")
    p, m, modulus = data.get("p"), data.get("m", 1), data.get("modulus")
    if not is_json_int(p) or not is_json_int(m):
        raise CurveClassError(f"bad field description: p = {p!r}, m = {m!r} must be integers")
    if modulus is not None and not (
        isinstance(modulus, list) and all(map(is_json_int, modulus))
    ):
        raise CurveClassError(f"bad field description: modulus {modulus!r} is not an integer list")
    return field_create(p, m, modulus)


def field_to_json(field: Field) -> dict:
    out: dict = {"p": field.p, "m": field.m}
    if field.m > 1:
        out["modulus"] = list(field.modulus)
    return out


def model_from_json(data) -> ProjectiveLine | DoubleCover:
    if not isinstance(data, dict):
        raise CurveClassError("curve description must be an object")
    if "field" not in data or "model" not in data:
        raise CurveClassError('curve description needs "field" and "model"')
    field = field_from_json(data["field"])
    mdesc = data["model"]
    if not isinstance(mdesc, dict) or "kind" not in mdesc:
        raise CurveClassError('model description needs a "kind"')
    kind = mdesc["kind"]
    if kind == "projective_line":
        return ProjectiveLine(field)
    if kind == "double_cover":
        f = Poly.from_json(field, mdesc.get("f", []))
        h = Poly.from_json(field, mdesc.get("h", []))
        return DoubleCover(field, f, h)
    raise CurveClassError(f"unknown model kind {kind!r}")


def model_to_json(model) -> dict:
    if isinstance(model, ProjectiveLine):
        mdesc: dict = {"kind": "projective_line"}
    else:
        mdesc = {"kind": "double_cover", "f": model.f.to_json(), "h": model.h.to_json()}
    return {"field": field_to_json(model.field), "model": mdesc}


def curve_to_json(curve: Curve) -> dict:
    out = model_to_json(curve.model)
    out["genus"] = curve.genus
    out["infinity"] = [pt.to_json() for pt in curve.infinity]
    return out


# ---------------------------------------------------------------------------
# validation


def validate(model) -> Curve:
    """Check the model defines a smooth geometrically irreducible curve.

    Returns the curve with genus and infinity places filled in.  Raises
    SingularModel / GeometricallyReducible / UnsupportedModel otherwise.
    """
    if isinstance(model, ProjectiveLine):
        pt = ClosedPoint(id="d1#inf0", degree=1, kind="infinity", slot=0)
        return Curve(model, 0, (pt,))
    if not isinstance(model, DoubleCover):
        raise CurveClassError(f"unknown model object {model!r}")
    field = model.field
    if model.f.field != field or model.h.field != field:
        raise CurveClassError("model polynomials must live over the model field")
    if field.p == 2:
        return _validate_char2(model)
    return _validate_odd(model)


def _validate_odd(model: DoubleCover) -> Curve:
    f, field = model.f, model.field
    if not model.h.is_zero:
        raise UnsupportedModel(
            "odd characteristic needs h = 0; complete the square first"
        )
    if f.is_zero:
        raise SingularModel("y^2 = 0 is not reduced")
    if f.degree == 0:
        raise GeometricallyReducible(
            "y^2 = c splits into two lines over the algebraic closure"
        )
    if not squarefree(f):
        raise SingularModel("f has a repeated root")
    genus = (f.degree - 1) // 2
    if f.degree % 2 == 1:
        inf = (ClosedPoint(id="d1#inf0", degree=1, kind="infinity", slot=0),)
    elif field.is_square_idx(f.leading()):
        inf = (
            ClosedPoint(id="d1#inf0", degree=1, kind="infinity", slot=0),
            ClosedPoint(id="d1#inf1", degree=1, kind="infinity", slot=1),
        )
    else:
        inf = (ClosedPoint(id="d2#inf0", degree=2, kind="infinity", slot=0),)
    return Curve(model, genus, inf)


def _validate_char2(model: DoubleCover) -> Curve:
    f, h, field = model.f, model.h, model.field
    if h.is_zero:
        raise UnsupportedModel(
            "characteristic 2 needs h != 0; y^2 = f is inseparable over F_q(x)"
        )
    _check_smooth_char2(f, h)
    num, den = _reduced_u(f, h)
    ram_total = 0
    if den.degree >= 1:
        for pi, _mult in poly_factor(den):
            m = _finite_ram_order(num, den, pi)
            if m == 0:
                raise CurveClassError(
                    "internal: pole vanished under reduction on a smooth model"
                )
            ram_total += (m + 1) * pi.degree
    m_inf, val_idx = _infinity_normalize(num, den)
    if m_inf:
        ram_total += m_inf + 1
    if ram_total == 0:
        raise GeometricallyReducible(
            "the cover is unramified everywhere, so it is split or a constant"
            " field extension"
        )
    if ram_total % 2:
        raise CurveClassError("internal: ramification total must be even")
    genus = ram_total // 2 - 1
    if m_inf:
        inf = (ClosedPoint(id="d1#inf0", degree=1, kind="infinity", slot=0),)
    elif field.trace_to_prime_idx(val_idx) == 0:
        inf = (
            ClosedPoint(id="d1#inf0", degree=1, kind="infinity", slot=0),
            ClosedPoint(id="d1#inf1", degree=1, kind="infinity", slot=1),
        )
    else:
        inf = (ClosedPoint(id="d2#inf0", degree=2, kind="infinity", slot=0),)
    return Curve(model, genus, inf)


def _check_smooth_char2(f: Poly, h: Poly) -> None:
    # F_y = h, so affine singularities can only sit above zeros of h
    if h.degree < 1:
        return
    fd, hd = f.derivative(), h.derivative()
    q = f.field.q
    for pi, _mult in poly_factor(h.monic()):
        # sqrt(f) mod pi: x -> x^(q^d / 2) undoes squaring in F_{q^d}
        ybar = pow_mod(f, q**pi.degree // 2, pi)
        if ((hd * ybar + fd) % pi).is_zero:
            raise SingularModel(
                f"affine model is singular above {pi!r} (both partials vanish)"
            )


def _reduced_u(f: Poly, h: Poly) -> tuple[Poly, Poly]:
    """f/h^2 in lowest terms with monic denominator."""
    num, den = f, h * h
    g = poly_gcd(num, den)
    if g.degree >= 1:
        num, den = num // g, den // g
    lc = den.leading()
    if lc != 1:
        inv = num.field.inv_idx(lc)
        num, den = num.scale(inv), den.scale(inv)
    return num, den


def _strip(poly: Poly, pi: Poly) -> tuple[int, Poly]:
    """Largest e with pi^e | poly, plus the cofactor (poly nonzero)."""
    e = 0
    while True:
        q, r = divmod(poly, pi)
        if not r.is_zero:
            return e, poly
        poly = q
        e += 1


def _finite_ram_order(num: Poly, den: Poly, pi: Poly) -> int:
    """Conductor order m_P of the reduced cover at pi; 0 when unramified."""
    half = num.field.q**pi.degree // 2
    while True:
        if num.is_zero:
            return 0
        a, _ = _strip(num, pi)
        b, _ = _strip(den, pi)
        v = a - b
        if v >= 0:
            return 0
        if (-v) % 2 == 1:
            return -v
        # even pole: kill the leading term with w = s/pi^k, s^2 = unit part
        k = (-v) // 2
        g, dinv, _ = poly_extgcd(den // pi**b, pi)
        if g.degree != 0:
            raise CurveClassError("internal: unit part must be invertible mod pi")
        s = pow_mod(num // pi**a * dinv, half, pi)
        pik = pi**k
        num = num * (pik * pik) + den * (s * s + s * pik)
        den = den * (pik * pik)
        g = poly_gcd(num, den)
        if g.degree >= 1:
            num, den = num // g, den // g


def _infinity_normalize(num: Poly, den: Poly) -> tuple[int, int]:
    """(m, value_idx) at x = infinity: m = 0 means unramified with value u(inf)."""
    field = num.field
    xp = x_poly(field)
    while True:
        if num.is_zero:
            return 0, 0
        v = den.degree - num.degree
        if v > 0:
            return 0, 0
        c = field.mul_idx(num.leading(), field.inv_idx(den.leading()))
        if v == 0:
            return 0, c
        if (-v) % 2 == 1:
            return -v, 0
        s_idx = field.sqrt_idx(c)
        if s_idx is None:
            raise CurveClassError("internal: squaring is not onto")
        w = (xp ** ((-v) // 2)).scale(s_idx)
        num = num + den * (w * w + w)


# ---------------------------------------------------------------------------
# point counts over extensions


_EXT_CACHE: dict = {}


def _extension(field: Field, n: int) -> Extension:
    """F_{q^n} with its exp/log tables and the embedding of F_q, cached.

    For n > 1 the extension is built over its primitive modulus, so t
    generates and the tables come from the index table of x -> t*x
    (``Field.tables``); a count does not depend on which model of F_{q^n}
    it runs in.  The same object serves as the residue field F_q[x]/(pi)
    of every monic irreducible pi of degree n.
    """
    key = (field.p, field.modulus, n)
    ext = _EXT_CACHE.get(key)
    if ext is None:
        deg = field.m * n
        big = field if n == 1 else field_create(field.p, deg, primitive_modulus(field.p, deg))
        ext = _EXT_CACHE[key] = Extension(field, n, big)
    return ext


def irreducibles(field: Field, d: int, budget: int | None = None) -> list[Poly]:
    """All monic irreducibles of degree d over F_q, in lexicographic order.

    They are the keys of the root table of F_{q^d}, one per Frobenius orbit;
    the table checks its size against the necklace formula.  The keys are
    coefficient tuples of equal length, so sorting them orders the
    polynomials by (c_0, ..., c_{d-1}).
    """
    if d < 1:
        raise CurveClassError("degree must be >= 1")
    check_budget(field.q, d, budget)
    return [Poly(field, k) for k in sorted(_extension(field, d).roots())]


def count_points(curve: Curve, n: int, budget: int | None = None) -> int:
    """Number of points of the smooth projective model over F_{q^n}.

    The affine part is counted by ``affine_count`` on the exp/log tables of
    F_{q^n}, one Horner evaluation per orbit of x -> x^q.  The tables and
    the orbit arrays are built here on the first count over each extension
    and kept with it; ``check_budget`` bounds their size, 16 bytes per
    element for the tables plus 5 bytes per orbit.  While it runs, the
    build briefly holds one more list with an entry per element (the
    table of x -> t*x, then the Zech logarithms before they are packed),
    about 60 bytes per element at its peak.
    """
    if n < 1:
        raise CurveClassError("extension degree must be >= 1")
    field = curve.field
    check_budget(field.q, n, budget)
    inf = sum(pt.degree for pt in curve.infinity if n % pt.degree == 0)
    if isinstance(curve.model, ProjectiveLine):
        return field.q**n + 1
    ext = _extension(field, n)
    f = [ext.emb(c) for c in curve.model.f.coeffs]
    h = [ext.emb(c) for c in curve.model.h.coeffs]
    return affine_count(ext.big.p, ext.big.m, ext.big, f, h, ext.orbits()) + inf


# ---------------------------------------------------------------------------
# closed points


def closed_point_counts(
    curve: Curve, max_degree: int, budget: int | None = None, lp=None
) -> list[int]:
    """Entry D is the number of finite closed points of degree D (entry 0 is 0).

    Every closed point of degree D has D points over F_{q^e} when D | e, so
    by Moebius inversion there are (1/D) * sum_{e | D} mu(D/e) * N_e closed
    points of degree D; the places at infinity of that degree are taken off.
    The N_e come from ``count_points``, so nothing is enumerated.  Given the
    curve's L-polynomial lp (``zeta.l_polynomial``; one whose ``lp.curve``
    is another curve is refused), every N_e is ``lp.predicted_count(e)``
    instead, and nothing is counted here: L(u) is built from N_1 .. N_g, so
    those come back exactly, and it fixes the N_e past g.  As in
    ``closed_points``, every degree up to max_degree is checked against the
    budget before any work, with or without lp.
    """
    if max_degree < 1:
        raise CurveClassError("max_degree must be >= 1")
    cap = check_budget(curve.field.q, max_degree, budget)
    if lp is not None and lp.curve != curve:
        raise CurveClassError("L-polynomial belongs to another curve")
    n = [0] + [
        count_points(curve, e, cap) if lp is None else lp.predicted_count(e)
        for e in range(1, max_degree + 1)
    ]
    counts = [0]
    for d in range(1, max_degree + 1):
        total = sum(mobius(d // e) * n[e] for e in range(1, d + 1) if d % e == 0)
        if total % d:
            raise CurveClassError(
                f"internal: point counts give {total}/{d} closed points of degree {d}"
            )
        counts.append(total // d - sum(1 for pt in curve.infinity if pt.degree == d))
    return counts


def closed_points(
    curve: Curve, max_degree: int, budget: int | None = None
) -> list[ClosedPoint]:
    """All closed points of degree <= max_degree, deterministically ordered.

    Finite points of a fixed degree are sorted by (deg pi, pi, y-representative)
    and labelled d{D}#{k}; the points above x = infinity close each degree
    block with ids d{D}#inf{slot}.
    """
    if max_degree < 1:
        raise CurveClassError("max_degree must be >= 1")
    field = curve.field
    cap = check_budget(field.q, max_degree, budget)
    model = curve.model
    _KIND_RANK = {"plain": 0, "ramified": 0, "split": 1, "inert": 2}
    finite: dict[int, list] = {d: [] for d in range(1, max_degree + 1)}

    for dpi in range(1, max_degree + 1):
        pis = irreducibles(field, dpi, cap)
        if isinstance(model, ProjectiveLine):
            finite[dpi].extend(("plain", pi, None) for pi in pis)
            continue
        # the residue field at pi is F_{q^dpi}, with x at a root alpha of pi
        ext = _extension(field, dpi)
        big = ext.big
        for pi in pis:
            alpha = ext.root(pi)
            if field.p != 2:
                v = ext.evaluate(model.f, alpha)
                if not v:
                    finite[dpi].append(("ramified", pi, None))
                    continue
                r = big.sqrt_idx(v)
                if r is None:
                    if 2 * dpi <= max_degree:
                        finite[2 * dpi].append(("inert", pi, None))
                    continue
                y = ext.residue(r, alpha, pi)
                ys = (y, -y)
            else:
                hbar = ext.evaluate(model.h, alpha)
                if not hbar:
                    finite[dpi].append(("ramified", pi, None))
                    continue
                # y = hbar * z turns y^2 + hbar*y = fbar into z^2 + z = fbar / hbar^2
                u = big.mul_idx(ext.evaluate(model.f, alpha), big.inv_idx(big.mul_idx(hbar, hbar)))
                z = ext.artin_schreier(u)
                if z is None:
                    if 2 * dpi <= max_degree:
                        finite[2 * dpi].append(("inert", pi, None))
                    continue
                y = ext.residue(big.mul_idx(hbar, z), alpha, pi)
                ys = (y, y + model.h % pi)
            for y in ys:
                finite[dpi].append(("split", pi, y))

    out: list[ClosedPoint] = []
    for d in range(1, max_degree + 1):
        entries = sorted(
            finite[d],
            key=lambda e: (
                e[1].sort_key(),
                _KIND_RANK[e[0]],
                e[2].sort_key() if e[2] is not None else (),
            ),
        )
        for k, (kind, pi, y) in enumerate(entries):
            out.append(
                ClosedPoint(id=f"d{d}#{k}", degree=d, kind=kind, pi=pi, y_rep=y)
            )
        for pt in curve.infinity:
            if pt.degree == d:
                out.append(pt)
    return out


def census(points: list[ClosedPoint], n: int) -> int:
    """Rational-point count over F_{q^n} implied by a closed-point list."""
    return sum(pt.degree for pt in points if n % pt.degree == 0)
