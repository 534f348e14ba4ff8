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

Verdicts are KPI1_TRUE / KPI1_FALSE / UNDETERMINED; UNDETERMINED is a
first-class outcome, reported without any heuristic guess.

The invariant s = dim_{F_p} Pic^0(F_q)[p] is filled in only inside the
Jacobian oracle's gates (``jacobian.oracle_gate``), and "unknown" outside
them.  In characteristic p (cases 2, 4, 5) it comes from the Hasse–Witt
matrix, whose determinant is checked against h mod p; the oracle still
enumerates the class group for case 6 and when the zeta layer hit the
budget, and there its order is checked against L(1).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .budget import resolve_budget
from .curve import ClosedPoint, Curve, closed_points
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
from .jacobian import jacobian_group, oracle_gate, p_torsion_dim
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

_ID_RE = re.compile(r"^d([1-9][0-9]*)#(?:inf)?([0-9]+)$")


@dataclass(frozen=True)
class MarkedInstance:
    curve: Curve
    S: frozenset
    T: frozenset
    p: int

    def __init__(self, curve: Curve, S, T, p: int):
        object.__setattr__(self, "curve", curve)
        object.__setattr__(self, "S", frozenset(S))
        object.__setattr__(self, "T", frozenset(T))
        object.__setattr__(self, "p", p)


@dataclass
class ClassificationReport:
    case: int
    verdict: str
    cd_bound: str
    pi1_description: str
    pi1_r: int | None
    invariants: dict
    euler: dict | None
    note: str | None

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


def resolve_point_ids(curve: Curve, ids, budget: int | None = None) -> list[ClosedPoint]:
    """Map closed-point ids to points, enumerating up to the largest degree."""
    wanted = sorted(set(ids))
    if not wanted:
        return []
    max_degree = 0
    for pid in wanted:
        mt = _ID_RE.match(pid)
        if not mt:
            raise UnknownClosedPoint(f"malformed closed-point id {pid!r}")
        max_degree = max(max_degree, int(mt.group(1)))
    pts = closed_points(curve, max_degree, budget)
    by_id = {pt.id: pt for pt in pts}
    out = []
    for pid in wanted:
        if pid not in by_id:
            raise UnknownClosedPoint(f"no closed point with id {pid!r}")
        out.append(by_id[pid])
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


def _oracle_s(curve: Curve, p: int, h: int | None):
    """s from the Jacobian oracle, or None where it does not run.

    h is the class number L(1) from the zeta layer (None when that layer hit
    the budget); the oracle's group order must agree with it.
    """
    try:
        structure = jacobian_group(curve)
    except (OracleUnsupportedModel, BudgetExceeded):
        return None
    if h is not None and structure.order != h:
        raise CurveClassError("internal: oracle order disagrees with L(1)")
    return p_torsion_dim(structure, p)


def _char_p_s(curve: Curve, p: int, h: int | None):
    """s in characteristic p, or None outside the oracle's gates.

    Inside them s comes from the Hasse–Witt matrix, which also checks
    h mod p; only when the zeta layer hit the budget (h is None) does the
    oracle enumerate the class group instead.
    """
    if h is None:
        return _oracle_s(curve, p, h)
    try:
        oracle_gate(curve, h)
    except (OracleUnsupportedModel, BudgetExceeded):
        return None
    return hasse_witt_s(curve, h)


def classify(instance: MarkedInstance, budget: int | None = None) -> ClassificationReport:
    curve, p = instance.curve, instance.p
    if not is_prime(p):
        raise CurveClassError("p must be prime")
    if instance.S & instance.T:
        raise InconsistentInput("S and T must be disjoint")
    cap = resolve_budget(budget)
    S_pts = resolve_point_ids(curve, instance.S, cap)
    T_pts = resolve_point_ids(curve, instance.T, cap)
    if curve.field.p == p:
        return _classify_char_p(curve, S_pts, T_pts, p, cap)
    return _classify_prime_to_char(curve, S_pts, T_pts, p, cap)


def _classify_char_p(curve, S_pts, T_pts, p, cap) -> ClassificationReport:
    inv = _blank_invariants(curve)
    if S_pts:
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
    if not T_pts:
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
    degrees = sorted(pt.degree for pt in T_pts)
    if not pic:
        # p-part of the class group vanishes: pi1 is cyclic of order p^r
        inv["s"] = 0
        r = fundamental_group_case(degrees, p)
        h1 = 0 if r == 0 else 1
        euler = euler_bookkeeping(0, len(T_pts), h1)
        if len(T_pts) == 1 and degrees[0] % p != 0:
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


def _classify_prime_to_char(curve, S_pts, T_pts, p, cap) -> ClassificationReport:
    if S_pts or T_pts:
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
        s = _oracle_s(curve, p, inv["h"])
        if s is not None:
            inv["s"] = s
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
