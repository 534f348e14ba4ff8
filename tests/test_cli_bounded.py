"""Every input answers or exits in bounded time at the default budget.

Seven inputs that once hung or ran out of memory are pinned, and random small
fields, curves, primes and marks go through ``main()``: the exit code is one
of 0, 1, 2, 3, and a non-zero exit prints an ``error:`` line and no
traceback.
"""

import json
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from curveclass.cli import main
from util import curve_json

# each answers in under a second on 2 vCPUs; each once ran far past that,
# or ran out of memory
BOUND_S = 10.0

HUNG = {
    # Miller-Rabin on p = 2^61 - 1, not trial division
    "validate_p_2_61": (["validate"], curve_json(2**61 - 1, f=[1, 1, 0, 1]),
                        "valid double_cover: genus 1, q=2305843009213693951"),
    # the canonical modulus of F_{3^40}
    "zeta_p1_f3_40": (["zeta"], curve_json(3, m=40), "L coefficients: 1\n"),
    # the canonical modulus of F_{3^100}, by Ben-Or's irreducibility test
    "validate_f3_100": (["validate"], curve_json(3, m=100),
                        f"valid projective_line: genus 0, q={3**100}, 1 point at infinity"),
    # the canonical modulus of F_{p^2}, whose candidates are made one at a
    # time: itertools.product would materialise range(p) first
    "validate_p_2_61_m_2": (["validate"], curve_json(2**61 - 1, m=2),
                            f"valid projective_line: genus 0, q={(2**61 - 1) ** 2}"),
    "validate_p_1e9_7_m_2": (["validate"], curve_json(10**9 + 7, m=2),
                             f"valid projective_line: genus 0, q={(10**9 + 7) ** 2}"),
    # genus 11 over F_3: h from N_1 .. N_11, recount N_12
    "classify_x23_f3": (["classify", "--p", "3"], curve_json(3, f=[1] + [0] * 22 + [1]),
                        "h=176824"),
    # genus 11 over F_{2^61} (random.Random(7): 25 coefficients for f, then
    # 13 for h): validation factors nothing on a smooth model
    "validate_g11_f2_61": (["validate"], curve_json(2, 61, f=[
        1820801989368220983, 222681842206352464, 434098205243707435, 990120612517596917,
        396361666957758680, 1928478689004316506, 1109862194316708751, 272599089314351654,
        285288344804199849, 228690341447653908, 1019559973940353740, 614160445611480779,
        1932937663302849942, 475260568987768203, 866402181745464647, 449319225041187331,
        2289307768260769247, 2147209613255897839, 1667504312835892272, 1145665403460880301,
        829027810795090983, 377489620201184251, 1384654667938361007, 2283321169336813345,
        1584002028630770375,
    ], h=[
        2069882379597311264, 337579430038519096, 760753424198932712, 1577453989703974143,
        1944740414677102466, 357961273311244752, 1568537519729000908, 1614912782933614735,
        2290508200403312589, 317113122643631978, 431635339158233342, 1244875177923616470,
        299759497155830042,
    ]), "valid double_cover: genus 11"),
}


@pytest.mark.parametrize("argv, data, want", HUNG.values(), ids=HUNG.keys())
def test_once_hung_inputs_answer(tmp_path, capsys, argv, data, want):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(data))
    start = time.monotonic()
    assert main([argv[0], str(path)] + argv[1:]) == 0
    assert time.monotonic() - start < BOUND_S
    assert want in capsys.readouterr().out


FIELDS = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (7, 1), (11, 1)]
IDS = st.one_of(
    st.builds("d{}#{}".format, st.integers(1, 4), st.integers(0, 9)),
    st.builds("d{}#{}".format, st.integers(1, 4), st.integers(0, 9)),
    st.sampled_from(["d1#inf0", "d1#inf1", "d2#inf0", "d01#0", "d1#00", "bogus"]),
)


@st.composite
def invocations(draw):
    p, m = draw(st.sampled_from(FIELDS))
    q = p**m
    if draw(st.booleans()):
        f = draw(st.lists(st.integers(0, q - 1), min_size=1, max_size=8))
        h = draw(st.lists(st.integers(0, q - 1), max_size=4)) if p == 2 else []
        data = curve_json(p, m, f=f, h=h)
    else:
        data = curve_json(p, m)
    command = draw(st.sampled_from(["validate", "points", "zeta", "classify", "classify", "oracle"]))
    args = []
    if command == "points":
        args = ["--max-degree", str(draw(st.integers(0, 4)))]
    elif command == "classify":
        prime = st.sampled_from([2, 3, 5, 7, 11, 13])
        args = ["--p", str(draw(st.one_of(prime, prime, st.integers(0, 13))))]
        ids = draw(st.lists(IDS, max_size=4, unique=True))
        cut = draw(st.integers(0, len(ids)))
        for flag, marks in (("--S", ids[:cut]), ("--T", ids[cut:])):
            if marks:
                args += [flag, ",".join(marks)]
    return data, command, args


@settings(max_examples=50, derandomize=True, deadline=BOUND_S * 1000, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(invocations())
def test_random_input_answers_or_exits_cleanly(tmp_path, capsys, invocation):
    data, command, args = invocation
    path = tmp_path / "c.json"
    path.write_text(json.dumps(data))
    code = main([command, str(path)] + args)
    err = capsys.readouterr().err
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    if code:
        assert any(line.startswith("error: ") for line in err.splitlines()), err
