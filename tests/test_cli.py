import json

import pytest

from curveclass.cli import main
from util import E_H3_F3, G2_X5PX, curve_json


@pytest.fixture
def curve_file(tmp_path):
    def write(name, data):
        path = tmp_path / name
        path.write_text(json.dumps(data))
        return str(path)
    return write


def test_validate_ok(curve_file, capsys):
    path = curve_file("e.json", curve_json(3, f=[0, 1, 0, 1]))
    assert main(["validate", path]) == 0
    out = capsys.readouterr().out
    assert "genus 1" in out and "q=3" in out


def test_validate_json(curve_file, capsys):
    path = curve_file("p1.json", curve_json(2))
    assert main(["validate", path, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["genus"] == 0
    assert data["model"]["kind"] == "projective_line"


def test_validate_singular_exits_1(curve_file, capsys):
    path = curve_file("bad.json", curve_json(3, f=[0, 0, 1]))
    assert main(["validate", path]) == 1
    assert "error:" in capsys.readouterr().err


def test_missing_file_exits_1(capsys):
    assert main(["zeta", "/nonexistent/c.json"]) == 1
    assert "error:" in capsys.readouterr().err


# each probe bends one field of y^2 = x^3 + x over F_9 into a non-integer
MALFORMED = {
    "f_digit_string": ("f", ["12", 1, 0, 1]),
    "f_string": ("f", "0101"),
    "f_float_digit": ("f", [[1.7, 0], 1, 0, 1]),
    "f_bool": ("f", [0, True, 0, 1]),
    "m_string": ("m", "2"),
    "m_bool": ("m", True),
    "p_float": ("p", 3.5),
    "modulus_strings": ("modulus", ["1", "0", "1"]),
    "modulus_int": ("modulus", 5),
}


@pytest.mark.parametrize("key, value", MALFORMED.values(), ids=MALFORMED.keys())
def test_wire_format_takes_json_integers_only(curve_file, capsys, key, value):
    data = curve_json(3, m=2, f=[0, 1, 0, 1])
    where = data["model"] if key == "f" else data["field"]
    where[key] = value
    assert main(["validate", curve_file("bad.json", data)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_model_without_kind_exits_1(curve_file, capsys):
    data = curve_json(3, f=[0, 1, 0, 1])
    del data["model"]["kind"]
    assert main(["validate", curve_file("nokind.json", data)]) == 1
    assert capsys.readouterr().err.strip() == 'error: model description needs a "kind"'


@pytest.mark.parametrize("value", ["abc", "2"])
def test_budget_env_is_ignored(curve_file, capsys, monkeypatch, value):
    # the budget comes from --budget or the default only; "2" would refuse N_1
    path = curve_file("e.json", curve_json(3, f=[0, 1, 0, 1]))
    monkeypatch.delenv("CURVECLASS_BUDGET", raising=False)
    unset = main(["zeta", path]), capsys.readouterr().out
    monkeypatch.setenv("CURVECLASS_BUDGET", value)
    assert (main(["zeta", path]), capsys.readouterr().out) == unset
    assert unset[0] == 0


def test_budget_below_one_exit_1(curve_file, capsys):
    path = curve_file("e.json", curve_json(3, f=[0, 1, 0, 1]))
    assert main(["zeta", path, "--budget", "-1"]) == 1
    assert "is not an integer >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["zeta", "validate", "oracle"])
@pytest.mark.parametrize("value", ["abc", "1.5"])
def test_budget_flag_not_an_integer_exit_1(curve_file, capsys, command, value):
    # an input error, not an argparse usage exit
    path = curve_file("e.json", curve_json(3, f=[0, 1, 0, 1]))
    assert main([command, path, "--budget", value]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"--budget {value!r}" in err


# every integer option reads its value the way --budget does
INT_OPTIONS = {
    "classify_p": (["classify", "{curve}", "--p", "abc"], "--p 'abc'"),
    "points_max_degree": (["points", "{curve}", "--max-degree", "1.5"], "--max-degree '1.5'"),
    "gmodule_random": (["gmodule", "--random", "x", "--p", "3"], "--random 'x'"),
    "gmodule_seed": (["gmodule", "--random", "2", "--seed", "y", "--p", "3"], "--seed 'y'"),
    "gmodule_p": (["gmodule", "--random", "2", "--p", "z"], "--p 'z'"),
}


@pytest.mark.parametrize("argv, flag", INT_OPTIONS.values(), ids=INT_OPTIONS.keys())
def test_int_option_not_an_integer_exit_1(curve_file, capsys, argv, flag):
    # an input error (exit 1), not an argparse usage exit (2)
    path = curve_file("e.json", curve_json(3, f=[0, 1, 0, 1]))
    assert main([path if a == "{curve}" else a for a in argv]) == 1
    assert capsys.readouterr().err == f"error: {flag} is not an integer\n"


def test_points_text(curve_file, capsys):
    path = curve_file("p1.json", curve_json(2))
    assert main(["points", path, "--max-degree", "2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].split()[0] == "d1#0"
    assert any(line.split()[3] == "infinity" for line in lines)
    assert len(lines) == 4  # x, x+1, inf, x^2+x+1


def test_points_degree_zero_rejected(curve_file, capsys):
    path = curve_file("p1.json", curve_json(2))
    assert main(["points", path, "--max-degree", "0"]) == 1
    assert "at least 1" in capsys.readouterr().err


def test_points_json(curve_file, capsys):
    path = curve_file("e.json", curve_json(3, f=[0, 1, 0, 1]))
    assert main(["points", path, "--json", "--max-degree", "1"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert [pt["id"] for pt in data] == ["d1#0", "d1#1", "d1#2", "d1#inf0"]


def test_zeta_text_and_json(curve_file, capsys):
    path = curve_file("e.json", curve_json(3, f=[0, 1, 0, 1]))
    assert main(["zeta", path]) == 0
    out = capsys.readouterr().out
    assert "L coefficients: 1 0 3" in out
    assert "class number: 4" in out
    assert main(["zeta", path, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["coefficients"] == [1, 0, 3]


def test_zeta_budget_exit_3(curve_file, capsys):
    path = curve_file("g2.json", curve_json(3, f=list(G2_X5PX)))
    assert main(["zeta", path, "--budget", "2"]) == 3


def test_classify_json_report(curve_file, capsys):
    path = curve_file("h3.json", curve_json(3, f=list(E_H3_F3)))
    assert main(["classify", path, "--p", "2", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["case_tag"] == 7
    assert data["justification"] == "thm1.4(remaining)"
    assert data["verdict"] == "KPI1_FALSE"


def test_classify_false_verdict_still_exit_0(curve_file, capsys):
    path = curve_file("h3.json", curve_json(3, f=list(E_H3_F3)))
    assert main(["classify", path, "--p", "3", "--T", "d1#0"]) == 0
    out = capsys.readouterr().out
    assert "case 4 [thm1.3(ii)]" in out
    assert "verdict: KPI1_FALSE" in out


def test_classify_comma_separated_ids(curve_file, capsys):
    path = curve_file("p1.json", curve_json(2))
    assert main(["classify", path, "--p", "2", "--T", "d1#0,d1#1"]) == 0
    data = capsys.readouterr().out
    assert "case 3" in data


def test_classify_unsupported_exit_2(curve_file, capsys):
    path = curve_file("e.json", curve_json(3, f=[0, 1, 0, 1]))
    assert main(["classify", path, "--p", "2", "--S", "d1#0"]) == 2
    assert "error:" in capsys.readouterr().err


def test_classify_unknown_id_exit_1(curve_file, capsys):
    path = curve_file("p1.json", curve_json(2))
    assert main(["classify", path, "--p", "2", "--S", "d1#99"]) == 1


def test_classify_degree_past_int_limit_exit_3(curve_file, capsys):
    # 5000 digits is past int()'s default limit; the budget decides first
    path = curve_file("p1.json", curve_json(3))
    assert main(["classify", path, "--p", "3", "--T", "d" + "1" * 5000 + "#0"]) == 3
    err = capsys.readouterr().err
    assert err == "error: q^d = 1594323 exceeds budget 1000000\n"


def test_classify_json_deterministic(curve_file, capsys):
    path = curve_file("g2.json", curve_json(3, f=list(G2_X5PX)))
    args = ["classify", path, "--p", "3", "--T", "d2#0", "--json"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second
    data = json.loads(first)
    assert data["verdict"] == "UNDETERMINED"


def test_oracle(curve_file, capsys):
    path = curve_file("e.json", curve_json(3, f=[0, 1, 0, 1]))
    assert main(["oracle", path]) == 0
    assert "invariant_factors=[4]" in capsys.readouterr().out
    assert main(["oracle", path, "--json"]) == 0
    assert capsys.readouterr().out.strip() == '{"invariant_factors":[4],"order":4}'


def test_oracle_unsupported_exit_1(curve_file, capsys):
    path = curve_file("c2.json", curve_json(2, f=[1, 0, 0, 1], h=[0, 1]))
    assert main(["oracle", path]) == 1


def test_gmodule_file(tmp_path, capsys):
    spec = tmp_path / "swap.json"
    spec.write_text(json.dumps(
        {"rank": 2, "generators": [[[0, 1], [1, 0]]], "label": "swap"}))
    assert main(["gmodule", str(spec), "--p", "3"]) == 0
    line = json.loads(capsys.readouterr().out)
    assert line == {"label": "swap", "p": 3, "lhs": True, "rhs": True,
                    "equal": True, "group_order": 2}


def test_gmodule_random_deterministic(capsys):
    args = ["gmodule", "--random", "6", "--seed", "4", "--p", "5"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert first == capsys.readouterr().out
    lines = [json.loads(s) for s in first.strip().splitlines()]
    assert len(lines) == 6
    for line in lines:
        assert list(line) == ["label", "p", "lhs", "rhs", "equal",
                              "group_order"]


def test_gmodule_needs_input(capsys):
    assert main(["gmodule", "--p", "3"]) == 1
