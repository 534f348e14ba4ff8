"""Decision procedure: does a marked curve have the K(pi,1)-property for p?

Inputs are a validated curve together with two disjoint sets S (points where
ramification is allowed) and T (points required to split) given by closed
point ids, plus the prime p.  The verdict runs through the paper's
seven-case table, ``CASE_ROWS`` (verdict, cd bound and pi1 description per
case); which arithmetic gets computed depends on the case:

* characteristic p, S nonempty: verdict from the shape of the data alone.
* characteristic p, S empty, T nonempty: needs the class number (is p | h?),
  the degree gcd of T, and -- when p | h -- an exact Ihara-type sum compared
  against g - 1.
* characteristic different from p: only the unmarked projective case is in
  scope; the verdict needs mu_p(F) and p | h.

A marked point enters only through its degree, so no closed point is built:
an id d{D}#{k} exists exactly when k is below the number of finite closed
points of degree D, which ``curve.closed_point_counts`` takes from the point
counts N_e, e | D, by Moebius inversion (``resolve_point_degrees``).  When
D > g, or L(u) is already known, every N_e comes from L(u); otherwise the
N_e are counted.  A call computes L(u) at most once, after the q^D budget
check that every id passes, and the cases that need h read it from the
same object.  So no id builds a field past F_{q^(g+1)}.

Verdicts are KPI1_TRUE / KPI1_FALSE / UNDETERMINED; UNDETERMINED is a
first-class outcome, reported without any heuristic guess.

The invariant s = dim_{F_p} Pic^0(F_q)[p] comes from one function,
``_p_part``, and only from inside the Jacobian oracle's gates
(``jacobian.oracle_gate``); outside them it is "unknown".  Where p does
not divide h, cases 3, 6 and 7 report s = 0 on either side of the gates;
case 2 reports only what the gates give, so outside them its s stays
"unknown" even then.
"""

from __future__ import annotations

import math
import re

from .budget import check_budget
from .curve import Curve, closed_point_counts
# perfbench's --trace wraps classify.closed_points by name (ROADMAP item 2)
from .curve import closed_points  # noqa: F401
from .errors import (
    BudgetExceeded,
    CharacteristicClash,
    CurveClassError,
    InconsistentInput,
    OracleUnsupportedModel,
    UnknownClosedPoint,
    UnsupportedCase,
)
from .gf import is_prime
from .hasse_witt import hasse_witt_s
from .ihara import ihara_sum_exceeds
from .jacobian import jacobian_group, oracle_gate, p_sylow_rank, p_torsion_dim
from .record import FrozenRecord, Record
from .zeta import l_polynomial, pic_p_nontrivial

VERDICT_TRUE = "KPI1_TRUE"
VERDICT_FALSE = "KPI1_FALSE"
VERDICT_UNDETERMINED = "UNDETERMINED"

CD_ZERO = "=0 (trivial group)"
CD_ONE = "=1"
CD_LE_TWO = "≤2"
CD_INF = "∞ (finite nontrivial group)"
CD_UNKNOWN = "unknown"

PI1_TRIVIAL = "trivial"
PI1_CYCLIC = "cyclic of order p^r"
PI1_FINITE_IHARA = "finite (Ihara)"
PI1_ZP = "≅ Z_p"
PI1_UNKNOWN = "infinite/unknown"

CASE_TAGS = {
    1: "thm1.2(i)",
    2: "thm1.2(ii)",
    3: "thm1.3(i)",
    4: "thm1.3(ii)",
    5: "open",
    6: "thm1.4",
    7: "thm1.4(remaining)",
}

# (verdict, cd bound, pi1 description, note) per case
CASE_ROWS = {
    1: (VERDICT_TRUE, CD_ONE, PI1_UNKNOWN, None),
    2: (VERDICT_TRUE, CD_LE_TWO, PI1_UNKNOWN, None),
    3: (VERDICT_FALSE, CD_ZERO, PI1_TRIVIAL, None),
    4: (VERDICT_FALSE, CD_UNKNOWN, PI1_FINITE_IHARA, None),
    5: (VERDICT_UNDETERMINED, CD_UNKNOWN, PI1_UNKNOWN, None),
    6: (VERDICT_TRUE, CD_UNKNOWN, PI1_UNKNOWN, None),
    7: (VERDICT_FALSE, CD_ONE, PI1_ZP, "H^i(π₁(p)) finite, vanishes for i>3"),
}

_ID_RE = re.compile(r"^d([1-9][0-9]*)#(inf)?([0-9]+)$")


class MarkedInstance(FrozenRecord):
    __slots__ = ("curve", "S", "T", "p")

    def __init__(self, curve: Curve, S, T, p: int):
        object.__setattr__(self, "curve", curve)
        object.__setattr__(self, "S", frozenset(S))
        object.__setattr__(self, "T", frozenset(T))
        object.__setattr__(self, "p", p)


class ClassificationReport(Record):
    __slots__ = (
        "case", "verdict", "cd_bound", "pi1_description", "pi1_r", "invariants", "euler", "note"
    )

    def __init__(self, case: int, verdict: str, cd_bound: str, pi1_description: str,
                 pi1_r: int | None, invariants: dict, euler: dict | None, note: str | None):
        self.case = case
        self.verdict = verdict
        self.cd_bound = cd_bound
        self.pi1_description = pi1_description
        self.pi1_r = pi1_r
        self.invariants = invariants
        self.euler = euler
        self.note = note

    @property
    def justification(self) -> str:
        return CASE_TAGS[self.case]

    def to_json(self) -> dict:
        return {
            "case_tag": self.case,
            "justification": self.justification,
            "verdict": self.verdict,
            "cd_bound": self.cd_bound,
            "pi1_description": self.pi1_description,
            "pi1_r": self.pi1_r,
            "invariants": dict(self.invariants),
            "euler": None if self.euler is None else dict(self.euler),
            "note": self.note,
        }


def mu_p_in_field(q: int, p: int) -> bool:
    """Whether F_q contains the p-th roots of unity."""
    if not is_prime(p):
        raise CurveClassError("p must be prime")
    if q % p == 0:
        raise CharacteristicClash("mu_p is only meaningful away from the characteristic")
    return (q - 1) % p == 0


def fundamental_group_case(T_degrees, p: int) -> int:
    """r with p^r the largest p-power dividing gcd of the marked degrees."""
    degs = list(T_degrees)
    if not degs:
        raise CurveClassError("T must be nonempty")
    g = 0
    for d in degs:
        if d < 1:
            raise CurveClassError("degrees must be positive")
        g = math.gcd(g, d)
    r = 0
    while g % p == 0:
        g //= p
        r += 1
    return r


def euler_bookkeeping(s: int, t: int, h1: int) -> dict:
    """Dimension bookkeeping for the four-term cohomology sequence.

    rho is the rank of the restriction map out of H^1(X); h2 follows from the
    Euler characteristic 1 - h1 + h2 = #T.
    """
    if s < 0 or t < 0 or h1 < 0:
        raise InconsistentInput("dimensions must be non-negative")
    if h1 > 1 + s:
        raise InconsistentInput("h1 cannot exceed 1 + s")
    rho = (1 + s) - h1
    h2 = t - rho + s
    return {
        "s": s,
        "t": t,
        "h1": h1,
        "rho": rho,
        "h2": h2,
        "chi_ok": 1 - h1 + h2 == t,
        "rho_in_range": 0 <= rho <= min(1 + s, t),
    }


def resolve_point_degrees(curve: Curve, ids, budget: int | None = None) -> list[int]:
    """Degrees of the closed points named by ids, in sorted id order.

    No point is built: d{D}#{k} names a point exactly when k, written without
    a leading zero, is below the number of finite closed points of degree D
    (``closed_point_counts``), and d{D}#inf{k} must be the id of a place at
    infinity.  Every id is parsed, and the budget for the largest degree
    checked, before any arithmetic; the first unknown id in sorted order is
    reported.  When that degree exceeds the genus g, the counts come from
    L(u) (``l_polynomial``).
    """
    cap = check_budget(curve.field.q, 0, budget)
    return _resolve_point_degrees(curve, ids, cap, None)[0]


def _resolve_point_degrees(curve: Curve, ids, cap: int, lp):
    """(degrees, lp) for ``resolve_point_degrees``.

    lp is the curve's L-polynomial or None.  When the largest degree D
    exceeds the genus and lp is None, it is computed here, after the q^D
    budget check, and returned for the caller to reuse.
    """
    wanted = sorted(set(ids))
    if not wanted:
        return [], lp
    matches = []
    for pid in wanted:
        mt = _ID_RE.match(pid)
        if not mt:
            raise UnknownClosedPoint(f"malformed closed-point id {pid!r}")
        matches.append(mt)
    parsed = []
    for mt in matches:
        digits = mt.group(1)
        # a degree with more digits than the budget is past it, and every
        # degree past the budget fails its check at the same q^d; so such a
        # degree is read as cap + 1, not by int(), which refuses 4300 digits
        d = int(digits) if len(digits) <= len(str(cap)) else cap + 1
        parsed.append((mt.group(0), d, mt.group(2), mt.group(3)))
    top = max(d for _, d, _, _ in parsed)
    if top > curve.genus and lp is None:
        # an id past the budget is refused with its own q^d line first
        check_budget(curve.field.q, top, cap)
        lp = l_polynomial(curve, cap)
    counts = closed_point_counts(curve, top, cap, lp)
    infinity = {pt.id for pt in curve.infinity}
    out = []
    for pid, d, inf, k in parsed:
        if inf:
            known = pid in infinity
        else:
            # canonical decimals compare as (length, digits); k may be long
            count = str(counts[d])
            known = (k == "0" or k[0] != "0") and (len(k), k) < (len(count), count)
        if not known:
            raise UnknownClosedPoint(f"no closed point with id {pid!r}")
        out.append(d)
    return out, lp


def _p_part(curve: Curve, p: int, cap: int, lp, required: bool):
    """(h, p | h, s) with s = dim_{F_p} Pic^0(F_q)[p], for the case walk.

    h = L(1) comes from lp, when the id resolution computed it, or from
    ``l_polynomial``.  Past the budget the error propagates if the verdict
    needs p | h (required); otherwise h and p | h are None.

    s is taken by one rule, and only inside the Jacobian oracle's gates
    (``oracle_gate``); outside them it is None.  In characteristic p it is
    g - rank(A_pi - I) from the Hasse–Witt matrix, whose determinant is
    checked against h mod p, or, when h is None, read off the whole class
    group.  Away from p it comes from the p-Sylow walk (``p_sylow_rank``):
    0 when p does not divide h, and otherwise checked by h*x = 0 on every
    element walked and by the subgroup's order p^{v_p(h)}.
    """
    if lp is None:
        try:
            lp = l_polynomial(curve, cap)
        except BudgetExceeded:
            if required:
                raise
    h = None if lp is None else lp.class_number
    pic = None if lp is None else pic_p_nontrivial(lp, p)
    try:
        if curve.field.p != p:
            s = None if h is None else p_sylow_rank(curve, p, h)
        elif h is None:
            s = p_torsion_dim(jacobian_group(curve), p)
        else:
            oracle_gate(curve, h)
            s = hasse_witt_s(curve, h)
    except (OracleUnsupportedModel, BudgetExceeded):
        s = None
    return h, pic, s


def _walk(instance: MarkedInstance, cap: int, inv: dict):
    """(case, r, euler) for ``classify``, filling inv on the way: r is
    v_p(gcd of the T degrees) in cases 3 and 4, else None; euler may be None.
    """
    curve, p = instance.curve, instance.p
    if not is_prime(p):
        raise CurveClassError("p must be prime")
    if instance.S & instance.T:
        raise InconsistentInput("S and T must be disjoint")
    S_degrees, lp = _resolve_point_degrees(curve, instance.S, cap, None)
    T_degrees, lp = _resolve_point_degrees(curve, instance.T, cap, lp)
    char_p = curve.field.p == p
    if char_p and S_degrees:
        # ramification allowed somewhere: the verdict reads no zeta or
        # class-group data, even when L(u) served the id counts
        return 1, None, None
    if not char_p:
        if S_degrees or T_degrees:
            raise UnsupportedCase(
                "marked or punctured curves away from the characteristic are out of scope"
            )
        inv["mu_p"] = mu_p_in_field(curve.field.q, p)
    # cases 3-5 and, with mu_p in F_q, cases 6-7 turn on p | h, so there
    # the budget error propagates
    required = bool(T_degrees) if char_p else inv["mu_p"]
    h, pic, s = _p_part(curve, p, cap, lp, required)
    inv["h"], inv["pic_p_nontrivial"] = h, pic
    if s is not None:
        inv["s"] = s
    if char_p and not T_degrees:
        # unmarked: outside the gates s stays unknown even when p ∤ h
        return 2, None, None if s is None else euler_bookkeeping(s, 0, 1 + s)
    if pic is False:
        # cases 3, 6 and 7: no p-part, on either side of the gates
        inv["s"] = 0
    if not char_p:
        return (6 if not inv["mu_p"] or pic else 7), None, None
    degrees = sorted(T_degrees)
    r = fundamental_group_case(degrees, p)
    if not pic:
        # pi1 is cyclic of order p^r
        return 3, r, euler_bookkeeping(0, len(degrees), 0 if r == 0 else 1)
    result = ihara_sum_exceeds(degrees, curve.field.q, curve.genus)
    inv["ihara"] = result.to_json()
    return (4, r, None) if result.exceeds else (5, None, None)


def classify(instance: MarkedInstance, budget: int | None = None) -> ClassificationReport:
    """The report of the instance's case: its ``CASE_ROWS`` row, refined by r."""
    curve = instance.curve
    cap = check_budget(curve.field.q, 0, budget)
    inv = {"q": curve.field.q, "g": curve.genus, "h": None, "pic_p_nontrivial": None,
           "s": "unknown", "ihara": None, "mu_p": None}
    case, r, euler = _walk(instance, cap, inv)
    verdict, cd_bound, pi1, note = CASE_ROWS[case]
    if r:
        # the degree gcd forces a cyclic quotient of order p^r, pi1 in case 3
        cd_bound = CD_INF
        if case == 3:
            pi1 = PI1_CYCLIC
    elif case == 3 and len(instance.T) == 1:
        # one mark, of degree prime to p: pi1 is trivial
        verdict = VERDICT_TRUE
    return ClassificationReport(
        case=case, verdict=verdict, cd_bound=cd_bound, pi1_description=pi1,
        pi1_r=r if case == 3 else None, invariants=inv, euler=euler, note=note,
    )
