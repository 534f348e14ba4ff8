"""A field has one way to be built.  One function runs the lex-least
modulus search over ``gf._monic_candidates``, for the canonical and the
primitive modulus alike, and memoizes into one record of proven moduli;
``Field(...)`` is called only in ``gf.field_create``, which builds each
description once in a process.  The two searches and their two memos stay
gone."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "curveclass"


def _calls(name: str) -> list[tuple[str, str]]:
    """(file, innermost enclosing function) of every call of ``name`` under
    src/curveclass."""
    found = []
    sources = sorted(SRC.glob("*.py"))
    assert sources, f"no sources under {SRC}"
    for path in sources:
        tree = ast.parse(path.read_text(), filename=str(path))
        # ast.walk goes outer before inner, so an inner function's name wins
        owner = {}
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update((id(node), func.name) for node in ast.walk(func))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                called = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                if called == name:
                    found.append((path.name, owner.get(id(node), "<module>")))
    return found


def test_one_modulus_search():
    assert _calls("_monic_candidates") == [("gf.py", "_least_modulus")]


def test_fields_are_built_only_by_field_create():
    assert _calls("Field") == [("gf.py", "field_create")]


def test_one_record_of_proven_moduli():
    # the module-level memos of gf: the record and the table of fields
    tree = ast.parse((SRC / "gf.py").read_text())
    memos = {
        target.id
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and isinstance(node.value, ast.Dict)
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
    }
    assert memos == {"_PROVEN_MODULI", "_FIELDS"}
    names = {getattr(node, "name", None) or getattr(node, "id", None) for node in ast.walk(tree)}
    assert not names & {"_canonical_modulus", "_CANONICAL_MODULI", "_PRIMITIVE_MODULI"}
