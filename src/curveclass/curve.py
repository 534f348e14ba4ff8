"""Marked-curve models: validation, point counts, closed-point census.

Two model kinds are supported over a finite field F_q:

* ``projective_line`` -- P^1 itself.
* ``double_cover``    -- the smooth projective model of y^2 + h(x)*y = f(x).

Validation computes the genus and the places above x = infinity straight from
the defining data.  In odd characteristic the model must be a completed
square (h = 0) with f squarefree.  In characteristic 2 the model needs
h != 0, and the affine model is smooth iff gcd(h, h'^2 * f + f'^2) = 1.
The genus then comes from the ramification of the degree-2 cover, with no
factoring: on a smooth model every zero of h is ramified and the finite
places add 2 * deg h to the total, and at x = infinity the function
u = f/h^2 is reduced by substitutions u -> u + w^2 + w until its pole
order is odd (ramified) or the pole is gone (unramified).

Point counts over F_{q^n} run in ``field.extension(n)``, the base field's
one Extension of degree n: F_q itself for n = 1, else F_{q^n} over its
primitive modulus, with the coefficients of f and h embedded.  f and h are
defined over F_q, so a count is constant on the orbits of x -> x^q, and
``affine_count`` evaluates them once per orbit on that field's exp/log
tables.  The tables and the orbit table (``Extension.orbits``) are built
by the first count and kept with the extension, which the base field
keeps.

Closed points of degree d use the same F_{q^d}, ``field.extension(d)``, as
their residue fields, with x at a root of pi.  The monic irreducibles pi of
degree d (``irreducibles``) are the keys of that field's root table, one
per Frobenius orbit of length d in the same orbit table.  The square test is
the parity of a log, and the square root is a table lookup.  In
characteristic 2 the split test is the trace, and the y-values come from
solving z^2 + z = u.  A residue returns to F_q[x]/(pi) by interpolating at
the conjugates of the root.

A count, an enumeration or a census over F_{q^d}, d <= n, first passes q
and n to ``budget.check_budget``, so no field past the budget is built.
Validation has no budget.  It runs on Poly arithmetic and factors no
polynomial: a SingularModel error in characteristic 2 names the gcd whose
zeros are the singular x.
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
    Field,
    Poly,
    field_create,
    is_json_int,
    mobius,
    poly_gcd,
    squarefree,
    x_poly,
)
from .record import Record


class ProjectiveLine(Record):
    """The projective line over field (Field)."""

    __slots__ = ("field",)
    kind = "projective_line"


class DoubleCover(Record):
    """Affine model y^2 + h(x)*y = f(x) over field (Field), f and h Polys;
    h = 0 outside characteristic 2."""

    __slots__ = ("field", "f", "h")
    kind = "double_cover"


class ClosedPoint(Record):
    """One closed point of the smooth projective model.

    kind is "plain" (projective line), "ramified", "split", "inert" (finite
    points of a double cover, keyed by the monic irreducible pi below them),
    or "infinity".  Split points carry a canonical y-representative of degree
    < deg pi.  An inert point has degree 2*deg(pi).  Fields: id (str),
    degree (int), kind (str), pi and y_rep (Poly, or None by default).
    """

    __slots__ = ("id", "degree", "kind", "pi", "y_rep")

    def __init__(self, id: str, degree: int, kind: str, pi: Poly | None = None,
                 y_rep: Poly | None = None):
        super().__init__(id, degree, kind, pi, y_rep)

    def to_json(self) -> dict:
        return {
            "id": self.id,
            "degree": self.degree,
            "kind": self.kind,
            "pi": None if self.pi is None else self.pi.to_json(),
            "y": None if self.y_rep is None else self.y_rep.to_json(),
        }


class Curve(Record):
    """A validated model together with its genus and places at infinity:
    model (ProjectiveLine or DoubleCover), genus (int), infinity (tuple of
    ClosedPoints)."""

    __slots__ = ("model", "genus", "infinity")

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
        pt = ClosedPoint(id="d1#inf0", degree=1, kind="infinity")
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
    ramified = f.degree % 2 == 1
    split = not ramified and field.is_square_idx(f.leading())
    return Curve(model, genus, _places_at_infinity(ramified, split))


def _validate_char2(model: DoubleCover) -> Curve:
    """Genus and places at infinity of y^2 + h*y = f, p = 2.

    z = y/h gives z^2 + z = u with u = f/h^2, an Artin-Schreier cover of
    the x-line, so g = -1 + (1/2) * sum (m_P + 1) deg P over the ramified
    places P, where m_P is the odd pole order of u at P once u is reduced
    by substitutions u -> u + w^2 + w (Stichtenoth, Algebraic Function
    Fields and Codes, 3.7.8).  A zero pi of h of multiplicity e is
    ramified with m_P = 2e - 1: with s^2 = f mod pi, u + (s/h)^2 + s/h is
    (f + s^2 + s*h)/h^2, whose numerator vanishes at pi to order exactly
    1, as its derivative there is f' + s*h', nonzero on a smooth model.
    So the finite places add 2 * deg h, with no factoring, and x = infinity
    adds m + 1 when it is ramified.
    """
    f, h, field = model.f, model.h, model.field
    if h.is_zero:
        raise UnsupportedModel(
            "characteristic 2 needs h != 0; y^2 = f is inseparable over F_q(x)"
        )
    _check_smooth_char2(f, h)
    m_inf, val_idx = _infinity_normalize(f, h * h)
    ram_total = 2 * h.degree + (m_inf + 1 if m_inf else 0)
    if ram_total == 0:
        raise GeometricallyReducible(
            "the cover is unramified everywhere, so it is split or a constant"
            " field extension"
        )
    genus = ram_total // 2 - 1
    ramified = m_inf > 0
    split = not ramified and field.trace_to_prime_idx(val_idx) == 0
    return Curve(model, genus, _places_at_infinity(ramified, split))


def _places_at_infinity(ramified: bool, split: bool) -> tuple[ClosedPoint, ...]:
    """The places of a double cover above x = infinity: one of degree 1 when
    ramified, two of degree 1 when split, and one of degree 2 when inert."""
    count, degree = (1, 1) if ramified else (2, 1) if split else (1, 2)
    return tuple(
        ClosedPoint(id=f"d{degree}#inf{i}", degree=degree, kind="infinity") for i in range(count)
    )


def _check_smooth_char2(f: Poly, h: Poly) -> None:
    """SingularModel unless gcd(h, h'^2 * f + f'^2) = 1.

    F_y = h and F_x = h'*y + f', so a singular point (x0, y0) has h(x0) = 0
    and h'(x0)*y0 = f'(x0) with y0^2 = f(x0); squaring is injective in
    characteristic 2, so that holds iff x0 is also a zero of h'^2 * f + f'^2.
    The error names the monic gcd, whose zeros are the singular x.
    """
    if h.degree < 1:
        return
    hd, fd = h.derivative(), f.derivative()
    g = poly_gcd(h, hd * hd * f + fd * fd)
    if g.degree >= 1:
        raise SingularModel(
            f"affine model is singular above {g!r} (both partials vanish)"
        )


def _infinity_normalize(num: Poly, den: Poly) -> tuple[int, int]:
    """(m, value_idx) at x = infinity: m = 0 means unramified with value u(inf).

    It reads only deg den - deg num and the ratio of leading coefficients,
    which a common factor of num and den leaves alone: u need not be reduced.
    """
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
    return [Poly(field, k) for k in sorted(field.extension(d).roots())]


def count_points(curve: Curve, n: int, budget: int | None = None) -> int:
    """Number of points of the smooth projective model over F_{q^n}.

    The affine part is counted by ``affine_count`` on the exp/log tables of
    F_{q^n}, the field's ``extension(n)``, one Horner evaluation per orbit
    of x -> x^q, over a block of orbits at a time.  The tables and the orbit
    arrays are built here on the first count over each extension and kept
    with it, and the extension with its base field; ``check_budget`` bounds
    their size.  They take 16 bytes per element for exp, log and
    Zech, 20 more for the count's tiled Zech table (``Field.count_tables``),
    3 more in characteristic 2 for its table of traces, and 5 bytes per
    orbit.  While it runs, the build briefly holds one more list with an
    entry per element (the table of x -> t*x, then the Zech logarithms
    before they are packed), about 60 bytes per element at its peak.  A
    count itself holds one block of values, a few hundred kilobytes.
    """
    if n < 1:
        raise CurveClassError("extension degree must be >= 1")
    field = curve.field
    check_budget(field.q, n, budget)
    inf = sum(pt.degree for pt in curve.infinity if n % pt.degree == 0)
    if isinstance(curve.model, ProjectiveLine):
        return field.q**n + 1
    ext = field.extension(n)
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
    block with ids d{D}#inf{i}.
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
        ext = field.extension(dpi)
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
