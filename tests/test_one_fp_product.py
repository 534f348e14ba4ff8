"""F_p[x] has one packed representation: gf packs coefficients into ints
(``pack_lanes`` and ``unpack_lanes``), ``Poly`` over a prime field multiplies
on them, and the modulus searches and the untabled arithmetic of every Field
with m > 1 multiply on ``gf._FpRing``.  Hasse–Witt's power is ``Poly **``.
The schoolbook ``_fp_mul`` and its ``_fp_powmod_x``, the digit-vector
product ``_mul_digits_raw``, Hasse–Witt's truncated Kronecker product and
power, and the unit-root scan that repeated Ben-Or's first step stay gone,
and hasse_witt does no packing of its own."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "curveclass"

GONE = {
    "_fp_mul", "_fp_powmod_x", "_mul_digits_raw",
    "_fp_has_unit_root", "_fp_mul_truncated", "fp_power_truncated",
}
PACKING = {"to_bytes", "from_bytes", "lane_width", "pack_lanes", "unpack_lanes"}


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


def test_hasse_witt_does_no_packing():
    tree = dict(_trees())["hasse_witt.py"]
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and "pack" in node.name:
            found.append(f"{node.lineno} def {node.name}")
        if isinstance(node, ast.Attribute) and node.attr in PACKING:
            found.append(f"{node.lineno} .{node.attr}")
        if isinstance(node, ast.Name) and node.id in PACKING:
            found.append(f"{node.lineno} {node.id}")
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found += [f"{node.lineno} import {alias.name}"
                      for alias in node.names if alias.name in PACKING]
    assert not found, "hasse_witt.py packs: " + ", ".join(found)
