"""Package structure: modules reach each other only through public names."""

import ast
from pathlib import Path

import spiralglue

PACKAGE = Path(spiralglue.__file__).parent


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_imports(source: str) -> list[str]:
    """`module.name` for every `_`-prefixed name a module imports from the package."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and not (node.module or "").startswith("spiralglue"):
            continue
        found += [f"{node.module}.{a.name}" for a in node.names if _is_private(a.name)]
    return found


def test_guard_flags_private_names_only():
    src = (
        "from .schedule import _check, public\n"
        "from spiralglue.glue import _blend\n"
        "from . import __version__\n"
        "from numpy import _private\n"
    )
    assert private_imports(src) == ["schedule._check", "spiralglue.glue._blend"]


def test_no_private_cross_module_imports():
    offenders = {
        path.name: names
        for path in sorted(PACKAGE.glob("*.py"))
        if (names := private_imports(path.read_text(encoding="utf-8")))
    }
    assert offenders == {}
