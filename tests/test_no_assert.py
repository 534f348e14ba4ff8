"""Invariants in the package are raised errors, never ``assert`` statements,
because ``python -O`` strips asserts."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "curveclass"


def test_package_has_no_assert_statements():
    sources = sorted(SRC.glob("*.py"))
    assert sources, f"no sources under {SRC}"
    found = []
    for path in sources:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert not found, "assert statements in the package: " + ", ".join(found)
