"""Decision procedure: does a marked curve have the K(pi,1)-property for p?

Inputs are a validated curve together with two disjoint sets S (points where
ramification is allowed) and T (points required to split) given by closed
point ids, plus the prime p.  The verdict runs through a fixed seven-case
table; which arithmetic gets computed depends on the case:

* characteristic p, S nonempty: verdict from the shape of the data alone.
* characteristic p, S empty, T nonempty: needs the class number (is p | h?),
  the degree gcd of T, and -- when p | h -- an exact Ihara-type sum compared
  against g - 1.
* characteristic different from p: only the unmarked projective case is in
  scope; the verdict needs mu_p(F) and p | h.

A marked point enters only through its degree, so no closed point is built:
an id d{D}#{k} exists exactly when k is below the number of finite closed
points of degree D, which ``curve.closed_point_counts`` takes from the point
counts N_e, e | D, by Moebius inversion (``resolve_point_degrees``).

Verdicts are KPI1_TRUE / KPI1_FALSE / UNDETERMINED; UNDETERMINED is a
first-class outcome, reported without any heuristic guess.

The invariant s = dim_{F_p} Pic^0(F_q)[p] is filled in only inside the
Jacobian oracle's gates (``jacobian.oracle_gate``), and "unknown" outside
them.  In characteristic p (cases 2, 4, 5) it comes from the Hasse–Witt
matrix, whose determinant is checked against h mod p.  In case 6 it comes
from a walk of the p-Sylow subgroup (``jacobian.p_sylow_rank``), which
checks h*x = 0 on every element it walks and that the subgroup has exactly
p^{v_p(h)} elements.  The oracle enumerates the whole class group only when
the zeta layer hit the budget, so h is unknown.
"""

from __future__ import annotations

import math
import re

from .budget import check_budget
from .curve import Curve, closed_point_counts
# perfbench's --trace wraps classify.closed_points by name (ROADMAP item 9)
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
    reported.
    """
    cap = check_budget(curve.field.q, 0, budget)
    wanted = sorted(set(ids))
    if not wanted:
        return []
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
    counts = closed_point_counts(curve, max(d for _, d, _, _ in parsed), cap)
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
    return out


def _blank_invariants(curve: Curve) -> dict:
    return {
        "q": curve.field.q,
        "g": curve.genus,
        "h": None,
        "pic_p_nontrivial": None,
        "s": "unknown",
        "ihara": None,
        "mu_p": None,
    }


def _zeta_invariants(curve: Curve, p: int, cap: int, inv: dict, required: bool):
    """Fill h and pic_p_nontrivial in inv from the zeta layer; return p | h.

    When that layer hits the budget the error propagates if the verdict
    needs p | h (required), and otherwise inv stays blank and this is None.
    """
    try:
        lp = l_polynomial(curve, cap)
    except BudgetExceeded:
        if required:
            raise
        return None
    inv["h"] = lp.class_number
    inv["pic_p_nontrivial"] = pic = pic_p_nontrivial(lp, p)
    return pic


def _char_p_s(curve: Curve, p: int, h: int | None):
    """s in characteristic p, or None outside the oracle's gates.

    Inside them s comes from the Hasse–Witt matrix, which also checks
    h mod p; only when the zeta layer hit the budget (h is None) does the
    oracle enumerate the class group instead.
    """
    try:
        if h is None:
            return p_torsion_dim(jacobian_group(curve), p)
        oracle_gate(curve, h)
    except (OracleUnsupportedModel, BudgetExceeded):
        return None
    return hasse_witt_s(curve, h)


def classify(instance: MarkedInstance, budget: int | None = None) -> ClassificationReport:
    curve, p = instance.curve, instance.p
    cap = check_budget(curve.field.q, 0, budget)
    if not is_prime(p):
        raise CurveClassError("p must be prime")
    if instance.S & instance.T:
        raise InconsistentInput("S and T must be disjoint")
    S_degrees = resolve_point_degrees(curve, instance.S, cap)
    T_degrees = resolve_point_degrees(curve, instance.T, cap)
    if curve.field.p == p:
        return _classify_char_p(curve, S_degrees, T_degrees, p, cap)
    return _classify_prime_to_char(curve, S_degrees, T_degrees, p, cap)


def _classify_char_p(curve, S_degrees, T_degrees, p, cap) -> ClassificationReport:
    inv = _blank_invariants(curve)
    if S_degrees:
        # ramification allowed somewhere: true with cd exactly 1, and no
        # zeta/class-group arithmetic is consulted at all
        return ClassificationReport(
            case=1,
            verdict=VERDICT_TRUE,
            cd_bound=CD_ONE,
            pi1_description=PI1_UNKNOWN,
            pi1_r=None,
            invariants=inv,
            euler=None,
            note=None,
        )
    if not T_degrees:
        # unmarked projective curve: true with cd <= 2; invariants are
        # enrichment only, filled in when cheap and supported
        euler = None
        _zeta_invariants(curve, p, cap, inv, required=False)
        s = _char_p_s(curve, p, inv["h"])
        if s is not None:
            inv["s"] = s
            euler = euler_bookkeeping(s, 0, 1 + s)
        return ClassificationReport(
            case=2,
            verdict=VERDICT_TRUE,
            cd_bound=CD_LE_TWO,
            pi1_description=PI1_UNKNOWN,
            pi1_r=None,
            invariants=inv,
            euler=euler,
            note=None,
        )
    pic = _zeta_invariants(curve, p, cap, inv, required=True)
    degrees = sorted(T_degrees)
    if not pic:
        # p-part of the class group vanishes: pi1 is cyclic of order p^r
        inv["s"] = 0
        r = fundamental_group_case(degrees, p)
        h1 = 0 if r == 0 else 1
        euler = euler_bookkeeping(0, len(degrees), h1)
        if len(degrees) == 1 and degrees[0] % p != 0:
            return ClassificationReport(
                case=3,
                verdict=VERDICT_TRUE,
                cd_bound=CD_ZERO,
                pi1_description=PI1_TRIVIAL,
                pi1_r=0,
                invariants=inv,
                euler=euler,
                note=None,
            )
        return ClassificationReport(
            case=3,
            verdict=VERDICT_FALSE,
            cd_bound=CD_INF if r >= 1 else CD_ZERO,
            pi1_description=PI1_CYCLIC if r >= 1 else PI1_TRIVIAL,
            pi1_r=r,
            invariants=inv,
            euler=euler,
            note=None,
        )
    result = ihara_sum_exceeds(degrees, curve.field.q, curve.genus)
    inv["ihara"] = result.to_json()
    s = _char_p_s(curve, p, inv["h"])
    if s is not None:
        inv["s"] = s
    if result.exceeds:
        # finite pi1 by the Ihara bound; nontrivial for sure only when the
        # degree gcd already forces a cyclic p-power quotient
        r = fundamental_group_case(degrees, p)
        return ClassificationReport(
            case=4,
            verdict=VERDICT_FALSE,
            cd_bound=CD_INF if r >= 1 else CD_UNKNOWN,
            pi1_description=PI1_FINITE_IHARA,
            pi1_r=None,
            invariants=inv,
            euler=None,
            note=None,
        )
    return ClassificationReport(
        case=5,
        verdict=VERDICT_UNDETERMINED,
        cd_bound=CD_UNKNOWN,
        pi1_description=PI1_UNKNOWN,
        pi1_r=None,
        invariants=inv,
        euler=None,
        note=None,
    )


def _classify_prime_to_char(curve, S_degrees, T_degrees, p, cap) -> ClassificationReport:
    if S_degrees or T_degrees:
        raise UnsupportedCase(
            "marked or punctured curves away from the characteristic are out of scope"
        )
    inv = _blank_invariants(curve)
    mu = mu_p_in_field(curve.field.q, p)
    inv["mu_p"] = mu
    # mu_p in F_q: case 6 or 7 turns on p | h, so the budget error propagates
    pic = _zeta_invariants(curve, p, cap, inv, required=mu)
    if pic is False:
        inv["s"] = 0
    elif pic:
        # case 6 with p | h: s from the p-Sylow walk, inside the oracle's gates
        try:
            inv["s"] = p_sylow_rank(curve, p, inv["h"])
        except (OracleUnsupportedModel, BudgetExceeded):
            pass
    if not mu or pic:
        return ClassificationReport(
            case=6,
            verdict=VERDICT_TRUE,
            cd_bound=CD_UNKNOWN,
            pi1_description=PI1_UNKNOWN,
            pi1_r=None,
            invariants=inv,
            euler=None,
            note=None,
        )
    return ClassificationReport(
        case=7,
        verdict=VERDICT_FALSE,
        cd_bound=CD_ONE,
        pi1_description=PI1_ZP,
        pi1_r=None,
        invariants=inv,
        euler=None,
        note="H^i(π₁(p)) finite, vanishes for i>3",
    )
