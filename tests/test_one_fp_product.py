"""F_p[x] has one packed representation: gf packs coefficients into ints
(``pack_lanes`` and ``unpack_lanes``), the modulus searches and the untabled
arithmetic of every Field with m > 1 multiply on ``gf._FpRing``, and
Hasse–Witt's truncated product packs through gf.  The schoolbook ``_fp_mul``
and its ``_fp_powmod_x``, and the digit-vector product ``_mul_digits_raw``,
stay gone, and hasse_witt does no packing of its own."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "curveclass"

GONE = {"_fp_mul", "_fp_powmod_x", "_mul_digits_raw"}
PACKING = {"to_bytes", "from_bytes"}


def _trees():
    sources = sorted(SRC.glob("*.py"))
    assert sources, f"no sources under {SRC}"
    for path in sources:
        yield path.name, ast.parse(path.read_text(), filename=str(path))


def test_schoolbook_fp_product_is_gone():
    found = [
        f"{name}:{node.lineno} {node.name}"
        for name, tree in _trees()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name in GONE
    ]
    assert not found, "defined again: " + ", ".join(found)


def test_hasse_witt_packs_through_gf():
    tree = dict(_trees())["hasse_witt.py"]
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and "pack" in node.name:
            found.append(f"{node.lineno} def {node.name}")
        if isinstance(node, ast.Attribute) and node.attr in PACKING:
            found.append(f"{node.lineno} .{node.attr}")
    assert not found, "hasse_witt.py packs on its own: " + ", ".join(found)
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "gf"
        for alias in node.names
    }
    assert {"pack_lanes", "unpack_lanes"} <= imported
