import ast
import hashlib
import importlib
import inspect
import json
import random
from types import SimpleNamespace

import pytest

classify_mod = importlib.import_module("curveclass.classify")
curve_mod = importlib.import_module("curveclass.curve")
hasse_witt_mod = importlib.import_module("curveclass.hasse_witt")
from curveclass import (
    CharacteristicClash,
    InconsistentInput,
    MarkedInstance,
    UnknownClosedPoint,
    UnsupportedCase,
    class_number,
    classify,
    closed_point_counts,
    closed_points,
    euler_bookkeeping,
    fundamental_group_case,
    l_polynomial,
    mu_p_in_field,
    resolve_point_degrees,
)
from curveclass.curve import model_to_json
from curveclass.errors import BudgetExceeded, CurveClassError
from util import E_H3_F3, E_H6_F3, E_Z4_F3, G2_X5PX, build


def run(curve, p, S=(), T=()):
    return classify(MarkedInstance(curve, S, T, p))


# ---------------------------------------------------------------------------
# helpers

def test_mu_p():
    assert mu_p_in_field(4, 3)
    assert not mu_p_in_field(2, 3)
    assert mu_p_in_field(3, 2)
    with pytest.raises(CharacteristicClash):
        mu_p_in_field(9, 3)


def test_fundamental_group_case():
    assert fundamental_group_case([1], 2) == 0
    assert fundamental_group_case([2, 4], 2) == 1
    assert fundamental_group_case([4, 8], 2) == 2
    assert fundamental_group_case([6, 9], 3) == 1
    with pytest.raises(CurveClassError):
        fundamental_group_case([], 2)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: mu_p_in_field(9, 4), "p must be prime"),
        (lambda: fundamental_group_case([0], 3), "degrees must be positive"),
    ],
    ids=["mu-p-composite", "degree-0"],
)
def test_bad_helper_input_is_refused(call, message):
    with pytest.raises(CurveClassError, match=message):
        call()


def test_euler_examples():
    assert euler_bookkeeping(0, 1, 0) == {
        "s": 0, "t": 1, "h1": 0, "rho": 1, "h2": 0,
        "chi_ok": True, "rho_in_range": True}
    assert euler_bookkeeping(0, 2, 0) == {
        "s": 0, "t": 2, "h1": 0, "rho": 1, "h2": 1,
        "chi_ok": True, "rho_in_range": True}
    assert euler_bookkeeping(0, 1, 1) == {
        "s": 0, "t": 1, "h1": 1, "rho": 0, "h2": 1,
        "chi_ok": True, "rho_in_range": True}


def test_euler_rejects_bad_dims():
    with pytest.raises(InconsistentInput):
        euler_bookkeeping(0, 1, 2)  # h1 > 1 + s
    with pytest.raises(InconsistentInput):
        euler_bookkeeping(-1, 1, 0)


def test_resolve_point_degrees():
    c = build(5)  # P^1 over F_5: 5, 10 and 40 finite points of degree 1, 2 and 3
    assert resolve_point_degrees(c, ["d3#39", "d2#0", "d1#inf0", "d1#4", "d2#5"]) == [
        1, 1, 2, 2, 3]
    # k = count, a leading zero, an absent place at infinity, a huge k
    for pid in ["d1#5", "d2#10", "d3#40", "d2#05", "d2#00", "d1#inf1", "d2#inf0",
                "d1#inf00", "d1#" + "9" * 5000]:
        with pytest.raises(UnknownClosedPoint, match="no closed point with id"):
            resolve_point_degrees(c, [pid])
    # 2x^4 + 1 over F_3 has a non-square lead: one place of degree 2 at infinity
    even = build(3, f=[1, 0, 0, 0, 2])
    assert resolve_point_degrees(even, ["d2#inf0"]) == [2]
    with pytest.raises(UnknownClosedPoint, match="'d1#inf0'"):
        resolve_point_degrees(even, ["d1#inf0"])
    # the first missing id in sorted order is named, and S before T
    with pytest.raises(UnknownClosedPoint, match="'d1#10'"):
        resolve_point_degrees(c, ["d1#9", "d1#10"])
    with pytest.raises(UnknownClosedPoint, match="'d1#9'"):
        run(c, 5, S=["d1#9"], T=["d1#8"])
    # every id is parsed before the budget is looked at
    with pytest.raises(UnknownClosedPoint, match="malformed closed-point id 'bogus'"):
        resolve_point_degrees(c, ["d30#0", "bogus"])
    # the budget error is the enumeration's, also for a place at infinity
    # and for a degree too long for int()
    with pytest.raises(BudgetExceeded) as want:
        closed_points(c, 3, budget=100)
    for ids in (["d3#0"], ["d1#0", "d3#inf0"], ["d" + "1" * 5000 + "#0"]):
        with pytest.raises(BudgetExceeded) as got:
            resolve_point_degrees(c, ids, budget=100)
        assert str(got.value) == str(want.value) == "q^d = 125 exceeds budget 100"
    assert resolve_point_degrees(c, []) == []


# ---------------------------------------------------------------------------
# the seven cases

def test_case1_punctured():
    rep = run(build(2), 2, S=["d1#0"])
    assert rep.case == 1
    assert rep.justification == "thm1.2(i)"
    assert rep.verdict == "KPI1_TRUE"
    assert rep.cd_bound == "=1"
    # no arithmetic was consulted
    assert rep.invariants["h"] is None
    assert rep.invariants["s"] == "unknown"
    assert rep.euler is None


@pytest.fixture
def lp_calls(monkeypatch):
    """The curves that classify hands to l_polynomial, in call order."""
    real_lp = classify_mod.l_polynomial
    calls = []

    def counted_lp(curve, budget=None):
        calls.append(curve)
        return real_lp(curve, budget)

    monkeypatch.setattr(classify_mod, "l_polynomial", counted_lp)
    return calls


def test_case1_never_computes_zeta(monkeypatch, lp_calls):
    # no class-group arithmetic, and h and s stay blank; L(u) may be computed
    # only to count the closed points of an id of degree D > g, and then once
    def boom(*a, **k):
        raise AssertionError("class group consulted in case 1")

    monkeypatch.setattr(classify_mod, "jacobian_group", boom)
    monkeypatch.setattr(classify_mod, "p_sylow_rank", boom)
    rng = random.Random(0xCA5E1)
    pool = [
        build(2),
        build(3),
        build(3, f=list(E_Z4_F3)),
        build(2, f=[1, 0, 0, 1], h=[0, 1]),
        build(3, f=list(G2_X5PX)),
    ]
    for _ in range(50):
        curve = rng.choice(pool)
        pts = [pt.id for pt in closed_points(curve, 2)]
        rng.shuffle(pts)
        k = rng.randrange(1, min(3, len(pts)) + 1)
        S = pts[:k]
        rest = pts[k:]
        T = rest[: rng.randrange(0, 3)]
        lp_calls.clear()
        rep = run(curve, curve.field.p, S=S, T=T)
        assert rep.case == 1
        assert rep.verdict == "KPI1_TRUE"
        assert rep.invariants["h"] is None
        assert rep.invariants["s"] == "unknown"
        top = max(int(pid[1:pid.index("#")]) for pid in S + T)
        assert len(lp_calls) <= (1 if top > curve.genus else 0), (S, T, curve.genus)


def test_l_polynomial_once_per_call(lp_calls):
    # the id resolution and the invariants share one L(u): once per call in
    # every case that needs h, whether or not an id has degree D > g
    cases = set()
    for curve, p in [(build(3, f=list(E_Z4_F3)), 3), (build(3, f=list(E_H3_F3)), 3),
                     (build(3, f=list(G2_X5PX)), 3), (build(2, f=[1, 0, 0, 1], h=[0, 1]), 2),
                     (build(5), 5)]:
        counts = closed_point_counts(curve, curve.genus + 3)
        ids = [f"d{d}#0" for d in range(1, len(counts)) if counts[d]]
        for T in [[]] + [[pid] for pid in ids] + [ids[:1] + ids[-1:]]:
            lp_calls.clear()
            rep = run(curve, p, T=T)
            cases.add(rep.case)
            assert len(lp_calls) == 1, (curve.model, T)
            assert rep.invariants["h"] == class_number(curve)
    assert cases == {2, 3, 4, 5}


def test_marked_ids_never_enumerate_points(monkeypatch):
    # curves of both characteristics with ids of degree <= 3 drawn from the
    # enumeration, plus ids one past the last point of a degree
    rng = random.Random(0x1D5)
    pool = [
        build(2),
        build(3, f=list(E_Z4_F3)),
        build(2, f=[1, 0, 0, 1], h=[0, 1]),
        build(3, f=list(G2_X5PX)),
        build(3, f=[1, 0, 0, 0, 2]),
        build(2, 2, f=[1, 2, 0, 3, 1], h=[1, 0, 1]),
        build(5, f=[2, 0, 1, 0, 3]),
    ]
    cases = []
    for curve in pool:
        pts = [pt.id for pt in closed_points(curve, 3)]
        for _ in range(4):
            rng.shuffle(pts)
            cases.append((curve, pts[:1], pts[1:3]))
            cases.append((curve, [], pts[: rng.randrange(1, 4)]))
        finite = [pid for pid in pts if "inf" not in pid]
        for d in (1, 2, 3):
            k = sum(1 for pid in finite if pid.startswith(f"d{d}#"))
            cases.append((curve, [], [f"d{d}#{k}"]))

    def boom(*a, **k):
        raise AssertionError("closed points enumerated")

    monkeypatch.setattr(curve_mod, "irreducibles", boom)
    monkeypatch.setattr(curve_mod, "closed_points", boom)
    monkeypatch.setattr(classify_mod, "closed_points", boom)
    out = []
    for curve, S, T in cases:
        try:
            out.append(run(curve, curve.field.p, S=S, T=T).to_json())
        except CurveClassError as exc:
            out.append([type(exc).__name__, str(exc)])
    assert {rep["case_tag"] for rep in out if isinstance(rep, dict)} == {1, 3, 4, 5}
    assert sum(isinstance(rep, list) for rep in out) == 3 * 7
    # the reports and errors that resolving ids by enumeration gave
    digest = hashlib.sha256(json.dumps(out).encode()).hexdigest()[:16]
    assert digest == "217f18f5ea4c38fa"


def test_case2_proper_unmarked():
    rep = run(build(3), 3)
    assert rep.case == 2
    assert rep.justification == "thm1.2(ii)"
    assert rep.verdict == "KPI1_TRUE"
    assert rep.cd_bound == "≤2"
    assert rep.invariants["h"] == 1
    assert rep.invariants["s"] == 0
    assert rep.euler["h1"] == 1
    assert rep.euler["chi_ok"] and rep.euler["rho_in_range"]


def test_case2_oracle_out_of_reach():
    # char-2 model: oracle unsupported, s stays unknown, verdict unaffected
    rep = run(build(2, f=[1, 0, 0, 1], h=[0, 1]), 2)
    assert rep.case == 2
    assert rep.verdict == "KPI1_TRUE"
    assert rep.invariants["h"] == 4
    assert rep.invariants["s"] == "unknown"
    assert rep.euler is None


def test_oracle_order_checked_against_class_number(monkeypatch):
    # in characteristic p, s comes from the Hasse-Witt matrix, whose
    # determinant is checked against h mod p: a wrong h is an internal error
    real_lp = classify_mod.l_polynomial

    def h_plus_one(curve, budget=None):
        return SimpleNamespace(class_number=real_lp(curve, budget).class_number + 1)

    monkeypatch.setattr(classify_mod, "l_polynomial", h_plus_one)
    with pytest.raises(CurveClassError, match="Hasse–Witt determinant disagrees"):
        run(build(3, f=list(E_Z4_F3)), 3)
    # ... in case 3 too, where h + 1 = 5 is prime to p
    with pytest.raises(CurveClassError, match="Hasse–Witt determinant disagrees"):
        run(build(3, f=list(E_Z4_F3)), 3, T=["d1#1"])
    monkeypatch.setattr(classify_mod, "l_polynomial", real_lp)

    # ... and so is a perturbed A_pi with the right h
    real_frob = hasse_witt_mod.frobenius_matrix

    def perturbed(a, field):
        out = [list(row) for row in real_frob(a, field)]
        out[0][0] = field.add_idx(out[0][0], 1)
        return out

    monkeypatch.setattr(hasse_witt_mod, "frobenius_matrix", perturbed)
    with pytest.raises(CurveClassError, match="Hasse–Witt determinant disagrees"):
        run(build(3, f=list(E_Z4_F3)), 3)
    monkeypatch.setattr(hasse_witt_mod, "frobenius_matrix", real_frob)

    # away from the characteristic the p-Sylow walk checks a wrong h: with
    # h*p the 2-Sylow subgroup never reaches 2^{v_2(h) + 1} elements
    def h_times_p(curve, budget=None):
        return SimpleNamespace(class_number=real_lp(curve, budget).class_number * 2)

    monkeypatch.setattr(classify_mod, "l_polynomial", h_times_p)
    with pytest.raises(CurveClassError, match="internal: the walk ran out"):
        run(build(3, f=list(G2_X5PX)), 2)  # case 6: mu_2 in F_3 and 2 | h
    # ... and h + 1 = 13 does not kill the walked elements; it is odd, so
    # it is tried with p = 13 (case 6 without mu_13, as 13 | h + 1)
    monkeypatch.setattr(classify_mod, "l_polynomial", h_plus_one)
    with pytest.raises(CurveClassError, match=r"internal: h\*x is not zero"):
        run(build(3, f=list(G2_X5PX)), 13)
    monkeypatch.setattr(classify_mod, "l_polynomial", real_lp)

    # ... and the check is skipped when the zeta layer hit the budget
    def over_budget(*a, **k):
        raise BudgetExceeded("zeta over budget")

    monkeypatch.setattr(classify_mod, "l_polynomial", over_budget)
    rep = run(build(3, f=list(E_Z4_F3)), 3)
    assert rep.case == 2
    assert rep.invariants["h"] is None
    assert rep.invariants["s"] == 0


@pytest.mark.parametrize("q, f, T, p, budget, want", [
    # p | h is not needed in case 2, so over budget h and s stay blank
    (3, (1, 0, 0, 0, 1), [], 3, 2,
     (2, None, "unknown", "44f3a4ef83cc1b431ec3992a221886aabd904737ea14c37afb14dc3ef7825cd9")),
    # T nonempty in characteristic p: p | h is needed, so the budget error stands
    (3, G2_X5PX, ["d1#0"], 3, 5, "q^d = 9 exceeds budget 5"),
    # no mu_5 in F_3: case 6 whatever h is
    (3, E_Z4_F3, [], 5, 2,
     (6, None, "unknown", "0ebae082a40a311de89a7d07345fd6d14c16e6439004612e728c636f240cfd3c")),
    # mu_2 in F_3: case 6 or 7 turns on 2 | h
    (3, E_Z4_F3, [], 2, 2, "q^d = 3 exceeds budget 2"),
    # q^g = 37^2 is past the oracle's gates, and 5 does not divide h
    (37, G2_X5PX, [], 5, None,
     (6, 1444, 0, "c113c85bb0b644c8dd9882eece3af14b0f061dce97aeaab01177d940202adf98")),
])
def test_budget_matrix(q, f, T, p, budget, want):
    # which budget errors propagate and what stays blank, per case; digests
    # of the bytes `curveclass classify --json` prints
    instance = MarkedInstance(build(q, f=f), [], T, p)
    if isinstance(want, str):
        with pytest.raises(BudgetExceeded) as exc:
            classify(instance, budget=budget)
        assert str(exc.value) == want
        return
    rep = classify(instance, budget=budget)
    text = json.dumps(rep.to_json(), indent=2, ensure_ascii=False)
    got = hashlib.sha256(text.encode()).hexdigest()
    assert (rep.case, rep.invariants["h"], rep.invariants["s"], got) == want


def test_one_p_part():
    # h, p | h and s come from _p_part alone: no other code in classify.py
    # names an s method or its gate, and the old split is not defined again
    tree = ast.parse(inspect.getsource(classify_mod))
    s_methods = {"hasse_witt_s", "p_sylow_rank", "jacobian_group", "p_torsion_dim",
                 "oracle_gate", "pic_p_nontrivial"}
    defs = {node.name: node for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
    inside = {id(node) for node in ast.walk(defs["_p_part"])}
    named = {node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and node.id in s_methods and id(node) not in inside}
    assert not named
    gone = {"_blank_invariants", "_zeta_invariants", "_char_p_s", "_classify_char_p",
            "_classify_prime_to_char"}
    assert not gone & set(defs)


def test_one_report():
    # the seven cases are the rows of CASE_ROWS, and classify builds its one
    # report from the row of the case the walk reaches
    tree = ast.parse(inspect.getsource(classify_mod))
    calls = [node for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id == "ClassificationReport"]
    assert len(calls) == 1
    assert set(classify_mod.CASE_ROWS) == set(classify_mod.CASE_TAGS)

def test_case3_single_tame_point_true():
    rep = run(build(3), 3, T=["d1#0"])
    assert rep.case == 3
    assert rep.justification == "thm1.3(i)"
    assert rep.verdict == "KPI1_TRUE"
    assert rep.pi1_description == "trivial"
    assert rep.pi1_r == 0
    assert rep.cd_bound == "=0 (trivial group)"
    assert rep.invariants["s"] == 0
    assert rep.euler == {
        "s": 0, "t": 1, "h1": 0, "rho": 1, "h2": 0,
        "chi_ok": True, "rho_in_range": True}


def test_case3_p_divides_degree_false():
    rep = run(build(2), 2, T=["d2#0"])
    assert rep.case == 3
    assert rep.verdict == "KPI1_FALSE"
    assert rep.pi1_description == "cyclic of order p^r"
    assert rep.pi1_r == 1
    assert rep.cd_bound == "∞ (finite nontrivial group)"
    assert rep.euler["h1"] == 1


def test_case3_two_points_false_with_trivial_group():
    rep = run(build(2), 2, T=["d1#0", "d1#1"])
    assert rep.case == 3
    assert rep.verdict == "KPI1_FALSE"
    assert rep.pi1_r == 0
    assert rep.cd_bound == "=0 (trivial group)"
    assert rep.euler == {
        "s": 0, "t": 2, "h1": 0, "rho": 1, "h2": 1,
        "chi_ok": True, "rho_in_range": True}


def test_case3_on_elliptic_curve():
    # h = 4, p = 3 coprime: single degree-1 marked point is decisive
    rep = run(build(3, f=list(E_Z4_F3)), 3, T=["d1#1"])
    assert rep.case == 3
    assert rep.verdict == "KPI1_TRUE"
    assert rep.invariants["h"] == 4


def test_case4_ihara_refutes():
    rep = run(build(3, f=list(E_H3_F3)), 3, T=["d1#0"])
    assert rep.case == 4
    assert rep.justification == "thm1.3(ii)"
    assert rep.verdict == "KPI1_FALSE"
    assert rep.pi1_description == "finite (Ihara)"
    assert rep.invariants["h"] == 3
    ih = rep.invariants["ihara"]
    assert ih["exceeds"] is True
    assert ih["threshold"] == 0
    # the degree-1 term 1/(sqrt3 - 1) = (1 + sqrt3)/2
    assert ih["value"]["a"] == "1/2"
    assert ih["value"]["b"] == "1/2"
    assert rep.euler is None


def test_case5_open():
    rep = run(build(3, f=list(G2_X5PX)), 3, T=["d2#0"])
    assert rep.case == 5
    assert rep.justification == "open"
    assert rep.verdict == "UNDETERMINED"
    assert rep.invariants["h"] == 12
    assert rep.invariants["ihara"]["exceeds"] is False
    assert rep.invariants["ihara"]["threshold"] == 1
    assert rep.cd_bound == "unknown"


def test_case6_no_roots_of_unity():
    # p = 5 does not divide q - 1 = 2
    rep = run(build(3, f=list(E_Z4_F3)), 5)
    assert rep.case == 6
    assert rep.justification == "thm1.4"
    assert rep.verdict == "KPI1_TRUE"
    assert rep.invariants["mu_p"] is False


def test_case6_nontrivial_pic():
    # mu_2 in F_3, and 2 | h = 4
    rep = run(build(3, f=list(E_Z4_F3)), 2)
    assert rep.case == 6
    assert rep.verdict == "KPI1_TRUE"
    assert rep.invariants["mu_p"] is True
    assert rep.invariants["pic_p_nontrivial"] is True
    assert rep.invariants["s"] == 1  # Z/4 has one Z/2 factor
    assert rep.cd_bound == "unknown"


def test_case7_zp_quotient():
    rep = run(build(3, f=list(E_H3_F3)), 2)
    assert rep.case == 7
    assert rep.justification == "thm1.4(remaining)"
    assert rep.verdict == "KPI1_FALSE"
    assert rep.pi1_description == "≅ Z_p"
    assert rep.cd_bound == "=1"
    assert rep.invariants["pic_p_nontrivial"] is False
    assert rep.invariants["s"] == 0
    assert rep.note is not None


def test_unsupported_marked_away_from_char():
    with pytest.raises(UnsupportedCase):
        run(build(3, f=list(E_Z4_F3)), 2, S=["d1#0"])
    with pytest.raises(UnsupportedCase):
        run(build(3, f=list(E_Z4_F3)), 2, T=["d1#1"])


def test_overlapping_s_t_rejected():
    with pytest.raises(InconsistentInput):
        run(build(2), 2, S=["d1#0"], T=["d1#0"])


def test_nonprime_p_rejected():
    with pytest.raises(CurveClassError):
        run(build(2), 6)


def test_unknown_id_rejected():
    with pytest.raises(UnknownClosedPoint):
        run(build(2), 2, S=["d1#99"])


# ---------------------------------------------------------------------------
# report wire format

def test_report_key_order():
    rep = run(build(3), 3, T=["d1#0"])
    data = rep.to_json()
    assert list(data) == [
        "case_tag", "justification", "verdict", "cd_bound",
        "pi1_description", "pi1_r", "invariants", "euler", "note"]
    assert list(data["invariants"]) == [
        "q", "g", "h", "pic_p_nontrivial", "s", "ihara", "mu_p"]


def test_report_deterministic():
    a = json.dumps(run(build(3, f=list(G2_X5PX)), 3, T=["d2#0"]).to_json())
    b = json.dumps(run(build(3, f=list(G2_X5PX)), 3, T=["d2#0"]).to_json())
    assert a == b


REPORT_FIELDS = [(3, 1), (5, 1), (7, 1), (11, 1), (13, 1), (3, 2), (2, 1), (2, 2), (2, 3)]


def _report_curve(rng, p, m):
    """A seeded valid curve over F_{p^m} of genus <= 3, with q^(g+1) small."""
    q = p**m
    while True:
        g = rng.randrange(4)
        while g and q ** (g + 1) > 30000:
            g -= 1
        if g == 0:
            return build(p, m)

        def poly(d):
            return [rng.randrange(q) for _ in range(d)] + [rng.randrange(1, q)]

        f = poly(2 * g + rng.randrange(1, 3))
        h = (poly(rng.randrange(g + 2)) if rng.random() < 0.8 else []) if p == 2 else None
        try:
            return build(p, m, f=f, h=h)
        except CurveClassError:
            continue


def _report_shape(out):
    if isinstance(out, list):
        return out[0]
    case = out["case_tag"]
    if case == 2:
        return case, out["euler"] is not None
    if case == 3:
        return case, out["verdict"], min(out["pi1_r"], 1)
    if case == 4:
        return case, out["cd_bound"]
    return case


def test_report_digest_seeded():
    # 540 seeded calls, six per curve over F_3 .. F_13, F_9 and F_2 .. F_8:
    # unmarked for p = char and p != char, S nonempty, one T id, one to three
    # T ids (ids at infinity and of degree D > g among them), and one error draw
    # (S and T overlapping, an unknown id, marks away from the
    # characteristic, a small budget).  The digest pins every report byte
    # and every error message, so a rewrite of the case walk must keep them
    rng = random.Random(0x7AB1E)
    records, shapes = [], set()
    for n in range(90):
        p, m = REPORT_FIELDS[n % len(REPORT_FIELDS)]
        curve = _report_curve(rng, p, m)
        q, g = curve.field.q, curve.genus
        top = g + 2
        while q**top > 10**6:
            top -= 1
        counts = closed_point_counts(curve, top, lp=l_polynomial(curve))
        ids = [f"d{d}#{k}" for d in range(1, top + 1) for k in range(counts[d])]
        ids += [pt.id for pt in curve.infinity]
        away = [ell for ell in (2, 3, 5, 7) if ell != p]
        for k in range(6):
            rng.shuffle(ids)
            S, T, ell, budget = [], [], p, None
            if k == 1:
                ell = rng.choice(away)
            elif k == 2:
                S, T = ids[:1], ids[1:rng.randrange(1, 4)]
            elif k == 3:
                T = ids[:1]
            elif k == 4:
                T = ids[:rng.randrange(1, 4)]
            elif k == 5:
                T = ids[:2]
                err = rng.randrange(4)
                if err == 0:
                    S = T[:1]
                elif err == 1:
                    d = rng.randrange(1, top + 1)
                    T = T[:1] + [rng.choice(
                        [f"d{d}#{counts[d]}", f"d{d}#0{counts[d]}", f"d{d}#inf9"])]
                elif err == 2:
                    ell = rng.choice(away)
                else:
                    budget = rng.choice([q, q * q])
            try:
                out = classify(MarkedInstance(curve, S, T, ell), budget=budget).to_json()
            except CurveClassError as exc:
                out = [type(exc).__name__, str(exc)]
            shapes.add(_report_shape(out))
            records.append([model_to_json(curve.model), S, T, ell, budget, out])
    assert shapes == {
        1, (2, False), (2, True), (3, "KPI1_TRUE", 0), (3, "KPI1_FALSE", 0),
        (3, "KPI1_FALSE", 1), (4, "unknown"), (4, "∞ (finite nontrivial group)"), 5, 6, 7,
        "InconsistentInput", "UnknownClosedPoint", "UnsupportedCase", "BudgetExceeded"}
    digest = hashlib.sha256(json.dumps(records, ensure_ascii=False).encode()).hexdigest()
    assert digest == "1c6d78415c2aebd8ae879c64cf4e662d2e772f48545ae4078a5cab47bf93e0d0"
