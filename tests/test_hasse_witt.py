"""The Hasse–Witt path for s in characteristic p.

s = g - rank(A_pi - I) is checked against the Jacobian oracle's
dim Pic^0(F_q)[p] on seeded random curves and on pinned ones, `Poly **`
over F_p against a schoolbook convolution, and the reports of `classify`
against digests recorded when every char-p s still came from the oracle:
inside the oracle's gates (where the oracle must no longer run) and at
each gate.
"""

import hashlib
import importlib
import importlib.util
import json
import os
import random

import pytest

from curveclass import (
    CurveClassError,
    MarkedInstance,
    Poly,
    classify,
    field_create,
    jacobian_group,
    l_polynomial,
)
from curveclass import jacobian as jacobian_mod
from curveclass.gf import det_rank
from curveclass.hasse_witt import hasse_witt_matrix, hasse_witt_s
from curveclass.jacobian import p_torsion_dim
from util import E_Z4_F3, G2_X5PX, REV_F27, S2_F3, build

classify_mod = importlib.import_module("curveclass.classify")


def oracle_s(curve):
    return p_torsion_dim(jacobian_group(curve), curve.field.p)


def hw_s(curve):
    return hasse_witt_s(curve, l_polynomial(curve).class_number)


def digest(report):
    # the bytes `curveclass classify --json` prints
    text = json.dumps(report.to_json(), indent=2, ensure_ascii=False)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("p, m, f, s", [
    (3, 1, S2_F3, 2),
    (3, 2, G2_X5PX, 2),
    (3, 3, REV_F27, 0),  # A^(sigma) A^(sigma^2) ... in the wrong order gives 1
])
def test_pinned_curves_match_oracle(p, m, f, s):
    curve = build(p, m, f=f)
    assert hw_s(curve) == oracle_s(curve) == s


def test_matches_oracle_on_seeded_random_curves():
    rng = random.Random(0x4A57)
    seen_s = set()
    # genus 4 over F_3 reads c_{ip-j} with ip < j, which is 0; genus 2 over
    # F_25 and F_27 enumerates ~10^3 classes per curve, and the pinned
    # REV_F27 covers that shape
    for p, m, genera, per in [(3, 1, (1, 2, 3, 4), 4), (5, 1, (1, 2), 4), (7, 1, (1, 2), 3),
                              (3, 2, (1, 2), 3), (5, 2, (1,), 4), (3, 3, (1,), 4)]:
        field = field_create(p, m)
        for g in genera:
            done = 0
            while done < per:
                f = [rng.randrange(field.q) for _ in range(2 * g + 1)] + [1]
                try:
                    curve = build(p, m, f=f)
                except CurveClassError:
                    continue
                s = hw_s(curve)
                assert s == oracle_s(curve), (p, m, f)
                seen_s.add(s)
                done += 1
    assert seen_s == {0, 1}


def _schoolbook_power(coeffs, e, p):
    # a plain convolution mod p, e times: a reference that calls no product of
    # the package
    out = [1]
    for _ in range(e):
        nxt = [0] * (len(out) + len(coeffs) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(coeffs):
                nxt[i + j] = (nxt[i + j] + a * b) % p
        out = nxt
    while out and not out[-1]:
        out.pop()
    return out


def test_poly_pow_over_fp_matches_schoolbook():
    rng = random.Random(0xC0DE)
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        field = field_create(p, 1)
        for deg in (0, 1, 3, 5, 7):
            coeffs = [rng.randrange(p) for _ in range(deg)] + [rng.randrange(1, p)]
            f = Poly(field, coeffs)
            for e in sorted({0, 1, 2, 3, (p - 1) // 2}):
                assert list((f**e).coeffs) == _schoolbook_power(coeffs, e, p), (p, f, e)


def test_kronecker_power_runs_at_p_997():
    # f^498 by `Poly **`, packed over F_997; the determinant check ties its
    # coefficient c_996 to h mod p, and for an elliptic curve s = 1 exactly
    # when p | h
    curve = build(997, f=(3, 1, 0, 1))
    h = 972  # L(1) from the zeta layer; the classify digest below recomputes it
    assert hasse_witt_s(curve, h) == 0
    with pytest.raises(CurveClassError, match="Hasse–Witt determinant disagrees"):
        hasse_witt_s(curve, h + 1)


# report digests recorded when the oracle gave every char-p s
INSIDE_GATES = [
    # (p, m, f, T, case, s, digest)
    (3, 1, E_Z4_F3, [], 2, 0,
     "4cd35ab4014f19d4cd6eb3a05567f1b6ec475c1df365dd830b8c5cd385cd45df"),
    (3, 2, G2_X5PX, [], 2, 2,
     "80358e2b0e08439cafba58709a37f55fed287cd97d34686884f53cc831f8a188"),
    (3, 1, S2_F3, [], 2, 2,
     "55cc167807e7340986d5e0506fed3332be7b46bd305f0a5a6efa0c92103ea0a7"),
    (3, 3, REV_F27, [], 2, 0,
     "c980ea8c481a5e5c5dab7f392152b76914d38310a1612ec4b3c3aa38aa6d85e5"),
    (997, 1, (3, 1, 0, 1), [], 2, 0,
     "9ac9d5ded390c6c91dc401f2e0799a58780697d7a35808f8c084e244d722c491"),
    (3, 1, (1, 2, 1, 1), ["d1#0"], 4, 1,
     "e13a32dfc825533bee39f6bd19d12dae860df0fe9198b79b2055545c01d5a6b5"),
    (3, 1, G2_X5PX, ["d2#0"], 5, 1,
     "aa03db1e6ac3eb1583c0ca1db7c5a488ba495c1393666fdca7556e21f3dafca3"),
    (3, 2, G2_X5PX, ["d1#0"], 5, 2,
     "21fe6036c5738ff32dfe3707107f4c0b2f6ecc7491225b9450bd999dd5d7570d"),
]


@pytest.mark.parametrize("p, m, f, T, case, s, want", INSIDE_GATES)
def test_inside_gates_never_enumerates(monkeypatch, p, m, f, T, case, s, want):
    def refuse(curve):
        raise RuntimeError("the char-p path must not enumerate the class group")

    monkeypatch.setattr(classify_mod, "jacobian_group", refuse)
    rep = classify(MarkedInstance(build(p, m, f=f), [], T, p))
    assert (rep.case, rep.invariants["s"]) == (case, s)
    assert digest(rep) == want


@pytest.mark.parametrize("p, f, T, case, want", [
    # even degree: two points or none at infinity
    (3, (1, 0, 0, 0, 1), [], 2,
     "27d910f65afc9b64547c1398a484a2f04cc28bfc4605a700a25a367b480dd772"),
    (3, (0, 1, 1, 0, 1), ["d1#0"], 4,
     "6c259f27fe7e8f73e266e227aba06082d4d1697fb9899b2f8aa5f89b818858b6"),
    # q^g = 37^2 > ORACLE_ENUM_CAP
    (37, G2_X5PX, [], 2,
     "e0c88bc4689c255e1069647ad36af24ebc2ff2d7831ba7fa252afdc4a66c4d75"),
])
def test_outside_gates_s_stays_unknown(p, f, T, case, want):
    rep = classify(MarkedInstance(build(p, f=f), [], T, p))
    assert (rep.case, rep.invariants["s"]) == (case, "unknown")
    assert digest(rep) == want


def test_order_cap_gate(monkeypatch):
    # no odd-degree curve with q^g <= 1000 in reach has h > 10^4, so the
    # cap is lowered below h = 12 for both the oracle and the char-p path
    monkeypatch.setattr(jacobian_mod, "ORACLE_ORDER_CAP", 11)
    rep = classify(MarkedInstance(build(3, f=G2_X5PX), [], [], 3))
    assert rep.invariants["h"] == 12
    assert rep.invariants["s"] == "unknown"
    assert digest(rep) == "65d7e63973a92e365c5df280572494106a305c3269277ea48e2da12f951501b7"


def test_order_cap_gate_case6(monkeypatch):
    # the case-6 p-Sylow walk sits behind the same gate: with the cap below
    # h = 12, s stays unknown and not one Mumford pair is walked
    def boom(*a, **k):
        raise AssertionError("p-Sylow walk ran past the order cap")

    monkeypatch.setattr(jacobian_mod, "ORACLE_ORDER_CAP", 11)
    monkeypatch.setattr(jacobian_mod, "_mumford_walk", boom)
    rep = classify(MarkedInstance(build(3, f=G2_X5PX), [], [], 2))
    assert rep.case == 6
    assert rep.invariants["h"] == 12
    assert rep.invariants["s"] == "unknown"
    assert digest(rep) == "4c6eee7878cbf71730c61aa92ff9fcb73e557db46c3a9e25518b168df0313946"


def test_zeta_over_budget_keeps_the_oracle(monkeypatch):
    calls = []
    real = classify_mod.jacobian_group

    def spy(curve):
        calls.append(curve)
        return real(curve)

    monkeypatch.setattr(classify_mod, "jacobian_group", spy)
    rep = classify(MarkedInstance(build(3, f=E_Z4_F3), [], [], 3), budget=2)
    assert rep.invariants["h"] is None
    assert rep.invariants["s"] == 0
    assert len(calls) == 1
    assert digest(rep) == "49f78b5d6f0f03b071302b0d986750fab8225a3fb3d16ab26f07462193ed72e9"


def test_search_script_imports():
    # main is guarded, so no search runs; every name the script takes from
    # the package must still be where it looks
    path = os.path.join(os.path.dirname(__file__), "..", "scripts", "find_special_curves.py")
    spec = importlib.util.spec_from_file_location("find_special_curves", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.det_rank is det_rank


def test_hasse_witt_matrix_refuses_characteristic_2():
    f = Poly(field_create(2, 1), (1, 1, 0, 1))
    with pytest.raises(CurveClassError, match="needs odd characteristic"):
        hasse_witt_matrix(f, 1)
