"""A field has one way to be built.  One function runs the lex-least
modulus search over ``gf._monic_candidates``, for the canonical and the
primitive modulus alike, and memoizes into one record of proven moduli;
``Field(...)`` is called only in ``gf.field_create``, which builds each
description once in a process.  An extension is an attribute of its base
field: ``Extension(...)`` is called only in ``Field.extension``, and no
module keeps a cache of its own.  The two searches and their two memos
stay gone, and so do curve's extension cache and builder."""

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
    # the module-level caches of the package, names bound to an empty {}:
    # gf's record of proven moduli and its table of fields, and no other
    memos = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if (isinstance(node, (ast.Assign, ast.AnnAssign)) and isinstance(node.value, ast.Dict)
                    and not node.value.keys):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                memos.update((path.name, target.id) for target in targets)
    assert memos == {("gf.py", "_PROVEN_MODULI"), ("gf.py", "_FIELDS")}
    tree = ast.parse((SRC / "gf.py").read_text())
    names = {getattr(node, "name", None) or getattr(node, "id", None) for node in ast.walk(tree)}
    assert not names & {"_canonical_modulus", "_CANONICAL_MODULI", "_PRIMITIVE_MODULI"}


def test_extensions_are_built_only_by_their_base_field():
    assert _calls("Extension") == [("gf.py", "extension")]


def test_no_module_imports_a_private_name_of_curve():
    imported = [
        (path.name, alias.name)
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "curve"
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert imported == []
