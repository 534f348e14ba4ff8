import json
import random

import pytest

from curveclass import (
    GModule,
    NotFinite,
    NotInvertible,
    closure,
    coinvariants,
    harness_lines,
    invariants_rank,
    invcoinv_dims,
    lemma51_check,
    random_gmodule,
    sign_module,
)
from curveclass.errors import CurveClassError


def test_closure_orders():
    assert len(closure([[[1, 0], [0, 1]]])) == 1
    assert len(closure([[[0, 1], [1, 0]]])) == 2
    # 3-cycle permutation matrix
    c3 = [[0, 1, 0], [0, 0, 1], [1, 0, 0]]
    assert len(closure([c3])) == 3
    # S_3 from a transposition and the 3-cycle
    t = [[0, 1, 0], [1, 0, 0], [0, 0, 1]]
    assert len(closure([c3, t])) == 6


def test_closure_rejects_shear():
    with pytest.raises(NotFinite):
        closure([[[1, 1], [0, 1]]])


def test_closure_rejects_noninvertible():
    with pytest.raises(NotInvertible):
        closure([[[2, 0], [0, 1]]])


def test_coinvariants_trivial_action():
    m = GModule(2, [], label="triv")
    co = coinvariants(m)
    assert co.free_rank == 2
    assert co.torsion.invariant_factors == ()


def test_coinvariants_swap():
    # Z^2 with coordinates swapped: coinvariants Z (the diagonal survives)
    m = GModule(2, [[[0, 1], [1, 0]]], label="swap")
    co = coinvariants(m)
    assert co.free_rank == 1
    assert co.torsion.invariant_factors == ()


def test_coinvariants_sign():
    # Z with -1 acting: (g-1)Z = 2Z, coinvariants Z/2
    co = coinvariants(sign_module())
    assert co.free_rank == 0
    assert co.torsion.invariant_factors == (2,)
    assert co.to_json() == {"free_rank": 0,
                            "torsion": {"invariant_factors": [2], "order": 2}}


def test_invariants_rank_examples():
    assert invariants_rank(GModule(3, [], label="triv")) == 3
    assert invariants_rank(GModule(2, [[[0, 1], [1, 0]]])) == 1
    assert invariants_rank(sign_module()) == 0


def test_lemma51_pinned_examples():
    res = lemma51_check(GModule(2, [], label="triv"), 3)
    assert res["lhs"] and res["rhs"] and res["equal"]
    res = lemma51_check(GModule(2, [[[0, 1], [1, 0]]]), 3)
    assert res["lhs"] and res["rhs"] and res["equal"]
    assert not res["p_divides_order"]
    # coprime order: statement holds
    res = lemma51_check(sign_module(), 3)
    assert not res["lhs"] and not res["rhs"] and res["equal"]
    # p = |G| = 2: the recorded violation
    res = lemma51_check(sign_module(), 2)
    assert not res["lhs"] and res["rhs"] and not res["equal"]
    assert res["p_divides_order"]


def test_lemma51_requires_prime():
    with pytest.raises(CurveClassError):
        lemma51_check(sign_module(), 6)


def test_invcoinv_examples():
    assert invcoinv_dims([[1, 0], [0, 1]], 3) == (2, 2)
    # 1 - phi invertible mod 3 for phi = 2x swap-ish block
    assert invcoinv_dims([[0, 1], [2, 0]], 3) == (0, 0)


def test_invcoinv_equal_seeded():
    rng = random.Random(42)
    for _ in range(150):
        n = rng.randrange(1, 5)
        p = rng.choice([2, 3, 5])
        phi = [[rng.randrange(-3, 4) for _ in range(n)] for _ in range(n)]
        a, b = invcoinv_dims(phi, p)
        assert a == b


def test_random_gmodule_properties_seeded():
    rng = random.Random(9001)
    seen_labels = set()
    for _ in range(60):
        m = random_gmodule(rng)
        assert 1 <= m.rank <= 8
        assert m.group_order <= 120
        assert m.label
        seen_labels.add(m.label)
        # rational invariants and coinvariants have the same rank
        assert coinvariants(m).free_rank == invariants_rank(m)
    assert len(seen_labels) > 5


def test_harness_line_shape():
    lines = harness_lines([sign_module()], 2)
    assert len(lines) == 1
    assert list(lines[0]) == ["label", "p", "lhs", "rhs", "equal", "group_order"]
    assert lines[0]["label"] == "sign"
    assert lines[0]["group_order"] == 2


def test_gmodule_json_round_trip():
    m = GModule(2, [[[0, 1], [1, 0]]], label="swap")
    data = json.loads(json.dumps(m.to_json()))
    m2 = GModule.from_json(data)
    assert m2.rank == 2 and m2.label == "swap"
    assert m2.elements == m.elements


def test_rank_cap():
    with pytest.raises(CurveClassError):
        GModule(17, [])


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: GModule(2, [[[1, 0, 0], [0, 1, 0]]]), "generator is not a 2x2 matrix"),
        (lambda: closure([]), "closure needs at least one generator"),
        (lambda: GModule(0, []), "rank must be a positive integer"),
        (lambda: GModule.from_json([2, []]), "GModule description must be an object"),
        (lambda: GModule.from_json({"rank": "two"}), "bad GModule description"),
        (lambda: invcoinv_dims([[1]], 4), "p must be prime"),
    ],
    ids=["non-square-generator", "no-generators", "rank-0", "not-an-object", "bad-rank",
         "composite-p"],
)
def test_bad_gmodule_input_is_refused(call, message):
    with pytest.raises(CurveClassError, match=message):
        call()
