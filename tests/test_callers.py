"""Every module-level function and class of the package, private ones
included, has a caller.

A name has a caller when it occurs as an `ast.Name` or `ast.Attribute`
outside its own definition: in another definition or statement of its
module, of another package module, or of a benchmark module that is not a
test.  `__init__.py` is left out, so an export is no caller, and so are the
tests.  A string is no caller either, so the functions that
`perfbench/spans.py` lists by name in BOUNDARIES do not pass that way.  A
name that still waits for a caller is listed in AWAITING_CALLER with the
reason; the list can only shrink.

Every module of the package (but `__init__.py`), the tests and the
benchmark also uses, in code, each name that it imports.
"""

import ast
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]

_TRACED = ("traced by perfbench/spans.py, and tests/test_trace_boundaries.py requires it "
           "to resolve; it leaves with the benchmark change that stops tracing by name "
           "(ROADMAP item 3)")

AWAITING_CALLER = {
    "bisect_delta_star": "the `bisect` command of ROADMAP item 7",
    "delta_star_bounds": "the `bisect` command's sidecar (ROADMAP item 7)",
    "density_assumption": "the run record's density status (ROADMAP item 3)",
    "binomial_tail": "the run record's order-statistic interval for a calibrated "
                     "threshold (ROADMAP item 3)",
    "estimate_risk": _TRACED,
    "batch_cell_uniforms": _TRACED,
}


def _package_files():
    return sorted(p for p in (_ROOT / "src" / "planted_bipartite").glob("*.py")
                  if p.name != "__init__.py")


def _benchmark_files():
    return sorted(p for p in (_ROOT / "perfbench").glob("*.py")
                  if not p.name.startswith("test_"))


def _definition(stmt: ast.stmt) -> str | None:
    """The function or class that a top-level statement defines."""
    defines = isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    return stmt.name if defines else None


def _referenced(stmt: ast.stmt) -> set[str]:
    names = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _callerless(defining: list[Path], referencing: list[Path]) -> set[str]:
    """Names defined at the top level of `defining` that no other
    top-level statement of `defining` or `referencing` names in code."""
    def statements(paths):
        return [stmt for p in paths
                for stmt in ast.parse(p.read_text(encoding="utf-8"), str(p)).body]

    own = statements(defining)
    refs = [_referenced(stmt) for stmt in own + statements(referencing)]
    return {
        name
        for i, stmt in enumerate(own)
        if (name := _definition(stmt)) is not None
        and not any(name in names for j, names in enumerate(refs) if j != i)
    }


def test_every_public_name_has_a_caller_or_a_reason():
    """Private module-level names are checked too; the test keeps its
    older name, which predates that."""
    callerless = _callerless(_package_files(), _benchmark_files())
    unexplained, called = callerless - set(AWAITING_CALLER), set(AWAITING_CALLER) - callerless
    assert not unexplained, f"no caller and no stated reason: {sorted(unexplained)}"
    assert not called, f"called now, so drop from AWAITING_CALLER: {sorted(called)}"


def test_only_code_outside_the_definition_counts(tmp_path):
    home, other = tmp_path / "home.py", tmp_path / "other.py"
    home.write_text(
        "def called(): pass\n"
        "def helper(): pass\n"
        "def uses_helper(): helper()\n"
        "def recursive(): recursive()\n"
        "def in_string(): pass\n"
        "class Called: pass\n"
        "def _private(): pass\n"
        "uses_helper()\n"
    )
    other.write_text("import home\nhome.called()\nx = Called\nNAMES = ('in_string',)\n")
    assert _callerless([home], [other]) == {"recursive", "in_string", "_private"}


def _unused_imports(path: Path) -> set[str]:
    """Names that `path` imports, at any depth, and never names in code.  An
    import binds a plain name, so an attribute of the same name is no use."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


def test_every_import_is_used():
    files = [*_package_files(), *_ROOT.glob("tests/*.py"), *_ROOT.glob("perfbench/*.py")]
    unused = {str(p.relative_to(_ROOT)): names for p in files if (names := _unused_imports(p))}
    assert not unused, f"imported but never used: {unused}"


def test_only_imports_used_in_code_count(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from json import dumps, loads as parse, load\n"
        "from csv import writer\n"
        "def f(x: np.ndarray):\n"
        "    import math\n"
        "    return os.path.join(dumps(x), 'load', x.writer)\n"
    )
    assert _unused_imports(module) == {"parse", "load", "writer", "math"}
