"""Package structure: modules reach each other only through public names, and
only `spaces` reads the matrix of a linear map."""

import ast
import importlib
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


def matrix_reads(source: str) -> list[int]:
    """Line numbers of every `.matrix` attribute a module reads."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr == "matrix"
    )


def test_guard_flags_matrix_reads():
    src = (
        "images = np.matmul(lin.matrix, v)\n"
        "first = g.map_at(1).matrix\n"
        "matrix = lin.matrices\n"
    )
    assert matrix_reads(src) == [1, 2]


def test_only_spaces_reads_a_map_matrix():
    # spaces.apply owns the matrix-vector product: every other module maps
    # vectors through apply or blend_apply
    offenders = {
        path.name: lines
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "spaces.py" and (lines := matrix_reads(path.read_text(encoding="utf-8")))
    }
    assert offenders == {}


SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def wrapped_attributes() -> list[tuple[str, str]]:
    """(module, attribute) of every entry of the tracer's WRAPPED table, read
    from its source without importing it."""
    for node in ast.parse(SPANS.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["WRAPPED"]:
            return [(module, attr) for module, attr, *_ in ast.literal_eval(node.value)]
    raise AssertionError(f"no WRAPPED table in {SPANS}")


def test_tracer_wraps_only_existing_attributes():
    # a missing attribute breaks `bench/run.py --trace 1` at install time
    wrapped = wrapped_attributes()
    assert ("cli", "embed_all") in wrapped
    missing = [
        f"spiralglue.{module}.{attr}"
        for module, attr in wrapped
        if not hasattr(importlib.import_module(f"spiralglue.{module}"), attr)
    ]
    assert missing == []


def unread_imports(source: str) -> list[str]:
    """Every name a module imports from the package (by its bound name) and
    never reads."""
    tree = ast.parse(source)
    imported = [
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").startswith("spiralglue"))
        for alias in node.names
    ]
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [name for name in imported if name not in read]


def test_guard_flags_unread_imports():
    src = (
        "from .spaces import apply, norm as n, norms\n"
        "from spiralglue.glue import embed\n"
        "from numpy import pad\n"
        "x = norms(apply)\n"
        "def f(v: embed): return v\n"
    )
    assert unread_imports(src) == ["n"]


def test_unread_imports_are_wrapped_by_the_tracer():
    # a package name that a module imports but never reads is dead, unless
    # the tracer reads it: bench/spans.py replaces it in that module while
    # an op runs (bank.blend_apply, glue.norm, pointset.norm and
    # cli.embed_all). The package's __init__ imports its names to re-export
    # them
    wrapped = set(wrapped_attributes())
    unread = [
        f"{path.stem}.{name}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
        for name in unread_imports(path.read_text(encoding="utf-8"))
        if (path.stem, name) not in wrapped
    ]
    assert unread == []
