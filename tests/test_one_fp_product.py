"""F_p[x] has one packed representation: gf packs coefficients into ints
(``pack_lanes`` and ``unpack_lanes``), ``Poly`` over a prime field multiplies
on them, and the modulus searches and the untabled arithmetic of every Field
with m > 1 multiply on ``gf._FpRing``.  Hasse–Witt's power is ``Poly **``.
The schoolbook ``_fp_mul`` and its ``_fp_powmod_x``, the digit-vector
product ``_mul_digits_raw``, Hasse–Witt's truncated Kronecker product and
power, the unit-root scan that repeated Ben-Or's first step, and the second
Ben-Or on ``Poly`` (``is_irreducible``) and ``pow_mod``, a second
square-and-multiply, stay gone, and hasse_witt does no packing of its own.
``Field.tables`` walks a field with m > 1 on its multiply-by-t table alone,
never on the ring.  No polynomial is factored: the irreducibles are the
keys of the root tables, and the Jacobian walk builds each u from its
factors, so the Cantor-Zassenhaus factorizer and its seeded stream stay
gone, and gf draws no random numbers.  The walk carries the square roots
of f mod each u it builds to the next degree, so ``_sqrt_mod``, which
rebuilt them from every prime power of u, stays gone too."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "curveclass"

GONE = {
    "_fp_mul", "_fp_powmod_x", "_mul_digits_raw",
    "_fp_has_unit_root", "_fp_mul_truncated", "fp_power_truncated", "is_irreducible",
    "pow_mod",
}
FACTORING = {
    "poly_factor", "_factor_monic", "_factor_squarefree_monic", "_equal_degree_split",
    "_pth_root_poly", "_EDS_SEED",
}
# the walk carries each u's square roots of f forward, one CRT step per u
WHOLE_U_ROOTS = {"_sqrt_mod"}
RING = {"_ring", "_pack", "pack_lanes", "reduce"}
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


def _named(names):
    return [
        f"{name}:{node.lineno} {ident}"
        for name, tree in _trees()
        for node in ast.walk(tree)
        for ident in [getattr(node, "name", None) or getattr(node, "id", None)
                      or getattr(node, "attr", None)]
        if ident in names
    ]


def test_polynomial_factoring_is_gone():
    found = _named(FACTORING)
    assert not found, "named again: " + ", ".join(found)
    gf = dict(_trees())["gf.py"]
    imported = [
        alias.name
        for node in ast.walk(gf)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    ] + [node.module for node in ast.walk(gf) if isinstance(node, ast.ImportFrom)]
    assert "random" not in imported, "gf.py imports random"


def test_square_roots_mod_a_whole_u_are_gone():
    found = _named(WHOLE_U_ROOTS)
    assert not found, "named again: " + ", ".join(found)


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


def test_tables_never_touch_the_ring():
    gf = dict(_trees())["gf.py"]
    field = next(n for n in gf.body if isinstance(n, ast.ClassDef) and n.name == "Field")
    tables = next(n for n in field.body if isinstance(n, ast.FunctionDef) and n.name == "tables")
    found = [
        f"{node.lineno} {name}"
        for node in ast.walk(tables)
        for name in [getattr(node, "attr", None) or getattr(node, "id", None)]
        if name in RING
    ]
    assert not found, "Field.tables names the ring: " + ", ".join(found)
