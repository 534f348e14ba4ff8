"""Report checks that do not trust the program under test.

Every benchmark call is judged three ways:

* reference: the report's digest must equal the one recorded in the pool
  when the pool instance was built;
* independent: case and verdict are re-derived from the instance and the
  report's invariants with this file's own transcription of the README's
  seven-case table, the Ihara comparison is redone exactly, and h and s are
  checked against the Weil interval and the p-adic valuation of h;
* truth table: the 28 pinned rows of the acceptance suite, copied here, run
  once per benchmark run as a gate (see worker.py).

Only the standard library is used; nothing is imported from the program.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import re
from fractions import Fraction

TRUE, FALSE, OPEN = "KPI1_TRUE", "KPI1_FALSE", "UNDETERMINED"

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


def report_digest(report: dict) -> str:
    """Digest of the report bytes exactly as `curveclass classify --json` prints them."""
    text = json.dumps(report, indent=2, ensure_ascii=False)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def id_degree(pid: str) -> int:
    mt = _ID_RE.match(pid)
    if not mt:
        raise ValueError(f"malformed closed-point id {pid!r}")
    return int(mt.group(1))


def field_q(curve_json: dict) -> tuple[int, int]:
    """(characteristic, q) of a curve description."""
    fld = curve_json["field"]
    p, m = int(fld["p"]), int(fld.get("m", 1))
    return p, p**m


# ---------------------------------------------------------------------------
# exact arithmetic in Q(sqrt q)


def _sign_qsqrt(a, b, q: int) -> int:
    """Exact sign of a + b*sqrt(q) for rationals a, b."""
    r = math.isqrt(q)
    if r * r == q:
        v = a + b * r
        return (v > 0) - (v < 0)
    if b == 0:
        return (a > 0) - (a < 0)
    if a == 0:
        return 1 if b > 0 else -1
    if (a > 0) == (b > 0):
        return 1 if a > 0 else -1
    # opposite signs: compare a^2 with b^2 q (never equal, sqrt q irrational)
    bigger_a = a * a > b * b * q
    return (1 if a > 0 else -1) if bigger_a else (1 if b > 0 else -1)


def ihara_exceeds(degrees, q: int, g: int) -> bool:
    """sum_d d / (q^(d/2) - 1) > max(g - 1, 0), decided exactly."""
    a, b = Fraction(0), Fraction(0)
    r = math.isqrt(q)
    for d in degrees:
        if d % 2 == 0:
            a += Fraction(d, q ** (d // 2) - 1)
        elif r * r == q:
            a += Fraction(d, r**d - 1)
        else:
            # d / (c sqrt q - 1) = d (c sqrt q + 1) / (c^2 q - 1), c = q^((d-1)/2)
            c = q ** ((d - 1) // 2)
            den = c * c * q - 1
            a += Fraction(d, den)
            b += Fraction(d * c, den)
    return _sign_qsqrt(a - max(g - 1, 0), b, q) > 0


def _weil_power(q: int, g: int, eps: int) -> tuple[int, int]:
    """(sqrt q + eps)^(2g) = (q + 1 + 2 eps sqrt q)^g as X + Y sqrt q."""
    x, y = 1, 0
    for _ in range(g):
        x, y = x * (q + 1) + y * 2 * eps * q, x * 2 * eps + y * (q + 1)
    return x, y


def in_weil_interval(h: int, q: int, g: int) -> bool:
    lo_x, lo_y = _weil_power(q, g, -1)
    hi_x, hi_y = _weil_power(q, g, 1)
    return _sign_qsqrt(h - lo_x, -lo_y, q) >= 0 and _sign_qsqrt(hi_x - h, hi_y, q) >= 0


def valuation(n: int, p: int) -> int:
    v = 0
    while n and n % p == 0:
        n //= p
        v += 1
    return v


# ---------------------------------------------------------------------------
# the seven-case table, transcribed from the README


def derive_case(char: int, q: int, g: int, p: int, S_degs, T_degs, h):
    """(case, verdict) the README's table gives, or None when h is needed but unknown."""
    if p == char:
        if S_degs:
            return 1, TRUE
        if not T_degs:
            return 2, TRUE
        if h is None:
            return None
        if h % p:
            one_prime_to_p = len(T_degs) == 1 and T_degs[0] % p != 0
            return 3, TRUE if one_prime_to_p else FALSE
        if ihara_exceeds(T_degs, q, g):
            return 4, FALSE
        return 5, OPEN
    if (q - 1) % p:
        return 6, TRUE
    if h is None:
        return None
    return (6, TRUE) if h % p == 0 else (7, FALSE)


def independent_problems(inst: dict, report: dict) -> list[str]:
    """Everything wrong with a report, judged without the program's help."""
    problems = []
    char, q = field_q(inst["curve"])
    p = inst["p"]
    S_degs = sorted(id_degree(x) for x in inst["S"])
    T_degs = sorted(id_degree(x) for x in inst["T"])
    inv = report.get("invariants") or {}
    g = inst["g"]
    if inv.get("q") != q or inv.get("g") != g:
        problems.append(f"q/g are {inv.get('q')}/{inv.get('g')}, expected {q}/{g}")
    h = inv.get("h")
    if h is not None:
        if not isinstance(h, int) or not in_weil_interval(h, q, g):
            problems.append(f"h = {h} outside the Weil interval for q={q} g={g}")
        if inst.get("h") is not None and h != inst["h"]:
            problems.append(f"h = {h}, the pool recorded {inst['h']}")
        s = inv.get("s")
        if isinstance(s, int):
            if s > valuation(h, p):
                problems.append(f"s = {s} exceeds v_p(h) = {valuation(h, p)}")
            if (s >= 1) != (h % p == 0):
                problems.append(f"s = {s} disagrees with p | h")
    if p != char and inv.get("mu_p") != ((q - 1) % p == 0):
        problems.append(f"mu_p = {inv.get('mu_p')} is wrong for q={q} p={p}")
    ihara = inv.get("ihara")
    if ihara is not None and ihara.get("exceeds") != ihara_exceeds(T_degs, q, g):
        problems.append("Ihara comparison disagrees with the exact recomputation")
    want = derive_case(char, q, g, p, S_degs, T_degs, h)
    if want is None:
        problems.append("report lacks the h its case needs")
    else:
        case, verdict = want
        if report.get("case_tag") != case or report.get("verdict") != verdict:
            problems.append(
                f"case/verdict {report.get('case_tag')}/{report.get('verdict')},"
                f" the table gives {case}/{verdict}"
            )
        if report.get("justification") != CASE_TAGS[case]:
            problems.append(f"justification {report.get('justification')!r} for case {case}")
        if case == 3:
            gcd = 0
            for d in T_degs:
                gcd = math.gcd(gcd, d)
            if report.get("pi1_r") != valuation(gcd, p):
                problems.append(f"pi1_r = {report.get('pi1_r')}, expected {valuation(gcd, p)}")
    euler = report.get("euler")
    if euler is not None:
        if not (euler.get("chi_ok") and euler.get("rho_in_range") and euler.get("h2", -1) >= 0):
            problems.append("Euler bookkeeping inconsistent")
    return problems


# ---------------------------------------------------------------------------
# accounting of one call


def judge(inst: dict, result: dict) -> tuple[str, list[str]]:
    """Outcome of one call: "ok", "budget" or "failed", with the reasons.

    A call fails when it raised anything but BudgetExceeded, hit the time
    limit, returned a report the independent checks reject, or returned a
    report whose digest differs from the reference.  A row whose reference is
    a budget exit may now answer: it then only has to pass the independent
    checks.  A row whose reference answered and that now exits on the budget
    has lost its verdict and fails.
    """
    status = result["status"]
    ref_exit = inst.get("exit")
    if status == "budget":
        if ref_exit == 3:
            return "budget", []
        return "failed", ["budget exit where the reference answered"]
    if status != "ok":
        return "failed", [f"{status}: {result.get('error')}"]
    report = result["report"]
    problems = independent_problems(inst, report)
    if ref_exit == 0 and report_digest(report) != inst.get("digest"):
        problems.append("report digest differs from the reference")
    return ("failed" if problems else "ok"), problems


def tamper_selftest(inst: dict, result: dict) -> dict:
    """Flip the verdict of a good report and confirm the checks count it as failed.

    Runs twice: against the reference digest, and with the reference removed
    so that the independent checks alone must catch it.
    """
    bad = copy.deepcopy(result)
    rep = bad["report"]
    rep["verdict"] = FALSE if rep["verdict"] == TRUE else TRUE
    with_ref, _ = judge(inst, bad)
    no_ref = dict(inst, exit=None, digest=None)
    without_ref, _ = judge(no_ref, bad)
    return {
        "tampered": "verdict flipped",
        "with_reference": with_ref,
        "independent_only": without_ref,
        "ok": with_ref == "failed" and without_ref == "failed",
    }


# ---------------------------------------------------------------------------
# truth table of the acceptance suite, copied (not imported) from
# tests/test_acceptance.py

_E_H3_F3 = [1, 2, 1, 1]
_E_H6_F3 = [0, 2, 1, 1]
_G2_X5PX = [0, 1, 0, 0, 0, 1]
_E_Z4_F3 = [0, 1, 0, 1]
_E_V4_F3 = [0, 2, 0, 1]

SUITE_CURVES = {
    "P1/F2": dict(p=2),
    "P1/F3": dict(p=3),
    "P1/F5": dict(p=5),
    "E-z4/F3": dict(p=3, f=_E_Z4_F3),
    "E-v4/F3": dict(p=3, f=_E_V4_F3),
    "E-h3/F3": dict(p=3, f=_E_H3_F3),
    "E-h6/F3": dict(p=3, f=_E_H6_F3),
    "E/F5": dict(p=5, f=[0, 1, 0, 1]),
    "G2/F3": dict(p=3, f=_G2_X5PX),
    "G2/F5": dict(p=5, f=_G2_X5PX),
    "G2/F7": dict(p=7, f=_G2_X5PX),
    "E/F2": dict(p=2, f=[1, 0, 0, 1], h=[0, 1]),
    "Y5/F2": dict(p=2, f=[0, 0, 0, 0, 0, 1], h=[1]),
    "E/F9": dict(p=3, m=2, f=[0, 1, 0, 1]),
}


def suite_curve_json(label: str) -> dict:
    spec = SUITE_CURVES[label]
    field = {"p": spec["p"], "m": spec.get("m", 1)}
    if "f" not in spec:
        return {"field": field, "model": {"kind": "projective_line"}}
    model = {"kind": "double_cover", "f": list(spec["f"]), "h": list(spec.get("h", []))}
    return {"field": field, "model": model}


# (label, p, S, T, expected subset of the report)
TRUTH_TABLE = [
    ("P1/F2", 2, ["d1#0"], [], dict(case=1, verdict=TRUE, cd_bound="=1")),
    ("P1/F2", 2, ["d1#0", "d1#1"], [], dict(case=1, verdict=TRUE)),
    ("P1/F3", 3, ["d1#0"], ["d1#1"], dict(case=1, verdict=TRUE)),
    ("E-z4/F3", 3, ["d1#inf0"], [], dict(case=1, verdict=TRUE)),
    ("G2/F3", 3, ["d1#0"], [], dict(case=1, verdict=TRUE)),
    ("E/F2", 2, ["d1#0"], [], dict(case=1, verdict=TRUE)),
    ("P1/F2", 2, [], [], dict(case=2, verdict=TRUE, cd_bound="≤2")),
    ("P1/F3", 3, [], [], dict(case=2, verdict=TRUE)),
    ("E-z4/F3", 3, [], [], dict(case=2, verdict=TRUE)),
    ("E/F2", 2, [], [], dict(case=2, verdict=TRUE)),
    ("P1/F3", 3, [], ["d1#0"],
     dict(case=3, verdict=TRUE, pi1_r=0,
          cd_bound="=0 (trivial group)", pi1_description="trivial")),
    ("E-z4/F3", 3, [], ["d1#1"], dict(case=3, verdict=TRUE, pi1_r=0)),
    ("Y5/F2", 2, [], ["d1#0"], dict(case=3, verdict=TRUE, pi1_r=0)),
    ("P1/F2", 2, [], ["d2#0"],
     dict(case=3, verdict=FALSE, pi1_r=1,
          cd_bound="∞ (finite nontrivial group)",
          pi1_description="cyclic of order p^r")),
    ("P1/F2", 2, [], ["d1#0", "d1#1"],
     dict(case=3, verdict=FALSE, pi1_r=0, cd_bound="=0 (trivial group)")),
    ("P1/F5", 5, [], ["d1#0", "d2#0"], dict(case=3, verdict=FALSE, pi1_r=0)),
    ("E-h3/F3", 3, [], ["d1#0"],
     dict(case=4, verdict=FALSE, pi1_description="finite (Ihara)")),
    ("E/F2", 2, [], ["d1#0"], dict(case=4, verdict=FALSE)),
    ("G2/F3", 3, [], ["d1#0"], dict(case=4, verdict=FALSE)),
    ("E-h6/F3", 3, [], ["d1#0"], dict(case=4, verdict=FALSE)),
    ("G2/F3", 3, [], ["d2#0"], dict(case=5, verdict=OPEN, cd_bound="unknown")),
    ("E-z4/F3", 5, [], [], dict(case=6, verdict=TRUE)),
    ("E-z4/F3", 2, [], [], dict(case=6, verdict=TRUE)),
    ("E-h6/F3", 2, [], [], dict(case=6, verdict=TRUE)),
    ("G2/F5", 2, [], [], dict(case=6, verdict=TRUE)),
    ("P1/F2", 3, [], [], dict(case=6, verdict=TRUE)),
    ("E-h3/F3", 2, [], [],
     dict(case=7, verdict=FALSE, cd_bound="=1", pi1_description="≅ Z_p")),
    ("P1/F3", 2, [], [], dict(case=7, verdict=FALSE)),
]

# report attribute -> key of the JSON report
_REPORT_KEYS = {
    "case": "case_tag",
    "verdict": "verdict",
    "cd_bound": "cd_bound",
    "pi1_r": "pi1_r",
    "pi1_description": "pi1_description",
}


def truth_table_mismatches(reports: list[dict]) -> list[str]:
    """Compare the JSON reports of the TRUTH_TABLE rows, in order, with the table."""
    out = []
    if len(reports) != len(TRUTH_TABLE):
        return [f"{len(reports)} reports for {len(TRUTH_TABLE)} rows"]
    for (label, p, S, T, want), rep in zip(TRUTH_TABLE, reports):
        for attr, val in want.items():
            got = rep.get(_REPORT_KEYS[attr])
            if got != val:
                out.append(f"{label} p={p} S={S} T={T}: {attr} = {got!r}, want {val!r}")
    cases = {rep.get("case_tag") for rep in reports}
    if cases != set(CASE_TAGS):
        out.append(f"truth table reached cases {sorted(cases)}, want all seven")
    return out
