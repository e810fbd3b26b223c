"""Source hygiene: no library module imports a name it never uses, and no
module-level private helper is left without a use."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "betheqq"
TESTS = Path(__file__).resolve().parent
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Names bound by imports (``__future__`` excluded) that no expression loads."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(bound - used)


def test_checker_flags_an_unused_import():
    src = "from __future__ import annotations\nimport os, os.path as osp\nfrom a import b, c\nb(osp)\n"
    assert unused_imports(src) == ["c", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def loaded_names(source: str) -> set:
    """Names that some expression in ``source`` loads, bare or as an attribute."""
    out = set()
    for n in ast.walk(ast.parse(source)):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            out.add(n.id)
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            out.add(n.attr)
    return out


def dead_private_helpers(source: str, loaded: set) -> list:
    """Module-level ``_private`` functions and classes of ``source`` whose
    names are not in ``loaded``."""
    defined = {n.name for n in ast.parse(source).body
               if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
               and n.name.startswith("_") and not n.name.startswith("__")}
    return sorted(defined - loaded)


def test_checker_flags_a_dead_private_helper():
    lib = ("def _used():\n    pass\n\ndef _dead():\n    pass\n\nclass _Gone:\n    pass\n\n"
           "def __getattr__(name):\n    pass\n\ndef public():\n    return _used()\n")
    user = "import lib\nlib._Gone = None\nlib._via_attr = lib._dead\n"
    assert dead_private_helpers(lib, loaded_names(lib)) == ["_Gone", "_dead"]
    assert dead_private_helpers(lib, loaded_names(lib) | loaded_names(user)) == ["_Gone"]


@pytest.fixture(scope="module")
def loaded_in_src_and_tests():
    paths = sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py"))
    return set().union(*(loaded_names(p.read_text(encoding="utf-8")) for p in paths))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_dead_private_helpers(path, loaded_in_src_and_tests):
    assert dead_private_helpers(path.read_text(encoding="utf-8"), loaded_in_src_and_tests) == []
