"""Importing the package, and its CLI, loads what a ``classify`` call uses
and no more: no ``dataclasses``, ``inspect`` or ``typing``, and no G-module
harness until one of its names is read.  Every CLI call pays the import in
a fresh interpreter."""

import ast
import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
HEAVY = ["dataclasses", "inspect", "typing", "curveclass.gmodule", "curveclass.snf"]

# -S keeps site-packages' .pth files from importing typing on their own
PROBE = """
import json, sys
sys.path.insert(0, {src!r})
import curveclass, curveclass.cli
loaded = [name for name in {heavy!r} if name in sys.modules]
from curveclass import GModule
lazy = [GModule, curveclass.GModule, curveclass.coinvariants]
import curveclass.gmodule as gm
print(json.dumps({{
    "loaded": loaded,
    "resolved": lazy == [gm.GModule, gm.GModule, gm.coinvariants],
    "unknown": hasattr(curveclass, "no_such_name"),
}}))
"""


def test_import_loads_no_heavy_modules():
    code = PROBE.format(src=str(SRC), heavy=HEAVY)
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60, check=True
    )
    result = json.loads(out.stdout)
    assert result["loaded"] == [], "imported eagerly: " + ", ".join(result["loaded"])
    assert result["resolved"], "the lazy gmodule exports are not the gmodule objects"
    assert result["unknown"] is False


def test_package_never_imports_dataclasses_or_typing():
    sources = sorted((SRC / "curveclass").glob("*.py"))
    assert sources, f"no sources under {SRC}"
    found = []
    for path in sources:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [
                f"{path.name}:{node.lineno} {name}"
                for name in names
                if name.split(".")[0] in ("dataclasses", "typing")
            ]
    assert not found, "imports of dataclasses or typing: " + ", ".join(found)
