"""The budget has one source and one check: no module reads the environment,
and BudgetExceeded is raised only by ``budget.check_budget``, by the
oracle's gates (``jacobian.oracle_gate``) and by ``gf.is_prime``, whose
Miller-Rabin test is only proven below 3.3e24."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "curveclass"

RAISERS = {("budget.py", "check_budget"), ("jacobian.py", "oracle_gate"), ("gf.py", "is_prime")}


def _trees():
    sources = sorted(SRC.glob("*.py"))
    assert sources, f"no sources under {SRC}"
    for path in sources:
        yield path.name, ast.parse(path.read_text(), filename=str(path))


def test_package_reads_no_environment():
    found = []
    for name, tree in _trees():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv")
                    and isinstance(node.value, ast.Name) and node.value.id == "os"):
                found.append(f"{name}:{node.lineno}")
            if isinstance(node, ast.ImportFrom) and node.module == "os":
                if any(alias.name in ("environ", "getenv") for alias in node.names):
                    found.append(f"{name}:{node.lineno}")
    assert not found, "environment reads in the package: " + ", ".join(found)


def _raised_name(node: ast.Raise):
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return exc.id if isinstance(exc, ast.Name) else None


def test_budget_exceeded_raised_only_by_the_one_check():
    found = set()
    for name, tree in _trees():
        # ast.walk is breadth-first, so an inner function overwrites its
        # outer one and every node ends up owned by its nearest function
        owner = {}
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update((node, fn.name) for node in ast.walk(fn))
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and _raised_name(node) == "BudgetExceeded":
                found.add((name, owner.get(node, "<module>")))
    assert found == RAISERS, f"BudgetExceeded raised in {sorted(found)}"
