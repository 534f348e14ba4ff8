"""The package ships as Python sources only: no compiled extension, no
generated C and no build hook sit next to the modules.  Its export list
names each public object once, and every name on it exists."""

from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "curveclass"


def test_package_holds_only_python_files():
    assert (SRC / "__init__.py").is_file(), f"no package under {SRC}"
    stray = [
        str(path.relative_to(SRC))
        for path in sorted(SRC.rglob("*"))
        if path.is_file() and "__pycache__" not in path.parts and path.suffix != ".py"
    ]
    assert not stray, "files other than .py in the package: " + ", ".join(stray)


def test_export_list_resolves_without_duplicates():
    import curveclass

    missing = [name for name in curveclass.__all__ if not hasattr(curveclass, name)]
    assert not missing, "names in __all__ that the package lacks: " + ", ".join(missing)
    dupes = sorted({name for name in curveclass.__all__ if curveclass.__all__.count(name) > 1})
    assert not dupes, "names listed twice in __all__: " + ", ".join(dupes)
