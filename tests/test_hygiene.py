"""Source hygiene: no library module imports a name it never uses or
imports inside a function from a sibling module it already imports from, no
module-level private helper or constant is left without a use, no defaulted
parameter of a library function is left without a caller that passes it, no
field of a library dataclass gets the same literal wherever it is built, and
every method that perfbench/tracer.py wraps is defined on its class."""

import ast
import importlib
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


def redundant_local_imports(source: str) -> list:
    """``function: .module`` for each import inside a function of ``source``
    from a sibling module that ``source`` already imports from at top level."""
    tree = ast.parse(source)
    top = {n.module for n in tree.body if isinstance(n, ast.ImportFrom) and n.level}
    return sorted({f"{fn.name}: .{n.module}" for fn in ast.walk(tree)
                   if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) for n in ast.walk(fn)
                   if isinstance(n, ast.ImportFrom) and n.level and n.module in top})


def test_checker_flags_a_redundant_local_import():
    src = ("import os\nfrom .a import x\n\ndef f():\n    from .a import y\n    import os\n\n"
           "def g():\n    from .b import z\n    from logging import getLogger\n\n"
           "class K:\n    def m(self):\n        def inner():\n            from .a import w\n")
    assert redundant_local_imports(src) == ["f: .a", "inner: .a", "m: .a"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_redundant_local_imports(path):
    """A lazy import of a sibling module the file already imports from saves nothing."""
    assert redundant_local_imports(path.read_text(encoding="utf-8")) == []


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
    """Module-level ``_private`` functions, classes and constants of
    ``source`` whose names are not in ``loaded``."""
    names = []
    for n in ast.parse(source).body:
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(n.name)
        elif isinstance(n, (ast.Assign, ast.AnnAssign)):
            targets = n.targets if isinstance(n, ast.Assign) else [n.target]
            names.extend(t.id for target in targets for t in ast.walk(target) if isinstance(t, ast.Name))
    return sorted({x for x in names if x.startswith("_") and not x.startswith("__")} - loaded)


def test_checker_flags_a_dead_private_helper():
    lib = ("def _used():\n    pass\n\ndef _dead():\n    pass\n\nclass _Gone:\n    pass\n\n"
           "def __getattr__(name):\n    pass\n\ndef public():\n    return _used()\n\n"
           "_LIMIT = 2\n_SPREAD: float = _LIMIT ** 2\n_A, (_B, c) = 1, (2, 3)\n__all__ = []\n")
    user = "import lib\nlib._Gone = None\nlib._via_attr = lib._dead\nprint(lib._B)\n"
    assert dead_private_helpers(lib, loaded_names(lib)) == ["_A", "_B", "_Gone", "_SPREAD", "_dead"]
    assert dead_private_helpers(lib, loaded_names(lib) | loaded_names(user)) == ["_A", "_Gone", "_SPREAD"]


@pytest.fixture(scope="module")
def loaded_in_src_and_tests():
    paths = sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py"))
    return set().union(*(loaded_names(p.read_text(encoding="utf-8")) for p in paths))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_dead_private_helpers(path, loaded_in_src_and_tests):
    assert dead_private_helpers(path.read_text(encoding="utf-8"), loaded_in_src_and_tests) == []


def defaulted_parameters(source: str) -> dict:
    """Module-level function of ``source`` -> its parameters with a default,
    as ``(name, position)``; the position of a keyword-only one is None."""
    out = {}
    for n in ast.parse(source).body:
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = n.args
            positional = a.posonlyargs + a.args
            first = len(positional) - len(a.defaults)
            params = [(p.arg, k) for k, p in enumerate(positional) if k >= first]
            params += [(p.arg, None) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
            if params:
                out[n.name] = params
    return out


def passed_arguments(*sources: str) -> dict:
    """Called name -> (most positional arguments, keyword names) over the
    calls in ``sources``, by function or attribute name; a name imported
    under an alias counts as the original."""
    out = {}
    for source in sources:
        tree = ast.parse(source)
        alias = {a.asname: a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)
                 for a in n.names if a.asname}
        for n in ast.walk(tree):
            if isinstance(n, ast.Call):
                name = n.func.id if isinstance(n.func, ast.Name) else getattr(n.func, "attr", None)
                name = alias.get(name, name)
                npos, kws = out.get(name, (0, set()))
                out[name] = (max(npos, len(n.args)), kws | {k.arg for k in n.keywords})
    return out


def unused_parameters(source: str, passed: dict) -> list:
    """``function(parameter)`` for each defaulted parameter of a module-level
    function in ``source`` that no call in ``passed`` supplies."""
    out = []
    for fn, params in defaulted_parameters(source).items():
        npos, kws = passed.get(fn, (0, set()))
        out.extend(f"{fn}({p})" for p, k in params if p not in kws and (k is None or k >= npos))
    return sorted(out)


def test_checker_flags_an_unused_parameter():
    lib = ("def f(a, b=1, c=2, *, d=3, e=4):\n    pass\n\ndef g(x=0):\n    pass\n\n"
           "class K:\n    def m(self, y=0):\n        pass\n")
    user = "from lib import f as h, g\nh(0, 1, e=5)\nobj.g()\n"
    assert unused_parameters(lib, passed_arguments(user)) == ["f(c)", "f(d)", "g(x)"]
    assert unused_parameters(lib, passed_arguments(user, "g(1)")) == ["f(c)", "f(d)"]


def test_no_unused_parameters():
    """Every defaulted parameter of a module-level library function is passed
    by some call in the library, the tests or the demos."""
    paths = [p for root in (SRC, TESTS, TESTS.parent / "demos") for p in sorted(root.glob("*.py"))]
    passed = passed_arguments(*(p.read_text(encoding="utf-8") for p in paths))
    assert [u for p in MODULES for u in unused_parameters(p.read_text(encoding="utf-8"), passed)] == []


_NOT_LITERAL = object()


def dataclass_fields(source: str) -> dict:
    """Class decorated with ``dataclass`` in ``source`` -> its field names in
    order, each with its default when that is a literal (else ``_NOT_LITERAL``)."""
    out = {}
    for n in ast.parse(source).body:
        decorators = [d.func if isinstance(d, ast.Call) else d for d in getattr(n, "decorator_list", [])]
        names = {getattr(d, "id", None) or getattr(d, "attr", None) for d in decorators}
        if isinstance(n, ast.ClassDef) and "dataclass" in names:
            out[n.name] = [(f.target.id, _NOT_LITERAL if f.value is None else literal(f.value))
                           for f in n.body if isinstance(f, ast.AnnAssign)]
    return out


def literal(node):
    """The value of a literal expression node, else ``_NOT_LITERAL``."""
    try:
        value = ast.literal_eval(node)
    except (TypeError, ValueError):
        return _NOT_LITERAL
    return (type(value), value)


def constant_fields(classes: dict, *sources: str) -> list:
    """``Class.field`` for each field of ``classes`` that every call of its
    class in ``sources`` sets to one and the same literal (a default counts
    where the call leaves the field out).  A call with ``*args`` or
    ``**kwargs`` sets every field to something unknown."""
    seen = {}
    for source in sources:
        for n in ast.walk(ast.parse(source)):
            if not isinstance(n, ast.Call):
                continue
            name = getattr(n.func, "id", None) or getattr(n.func, "attr", None)
            if name not in classes:
                continue
            starred = any(isinstance(a, ast.Starred) for a in n.args) or any(k.arg is None for k in n.keywords)
            given = dict(zip((f for f, _ in classes[name]), n.args))
            given.update((k.arg, k.value) for k in n.keywords)
            for f, default in classes[name]:
                if starred:
                    value = _NOT_LITERAL
                else:
                    value = literal(given[f]) if f in given else default
                seen.setdefault(f"{name}.{f}", []).append(value)
    return sorted(k for k, vs in seen.items() if vs[0] is not _NOT_LITERAL and all(v == vs[0] for v in vs))


def test_checker_flags_a_constant_field():
    lib = ("@dataclass(frozen=True)\nclass Step:\n    a: int\n    flag: bool\n    b: int = 0\n"
           "    c: int = 1\n\n@dataclass\nclass Spread:\n    x: int\n\nclass Plain:\n    y: int\n")
    user = ("Step(a, True, c=2)\nmod.Step(a + 1, flag=True)\nSpread(1)\nSpread(-1)\nPlain(3)\n"
            "Spread(*xs)\n")
    assert constant_fields(dataclass_fields(lib), user) == ["Step.b", "Step.flag"]
    assert constant_fields(dataclass_fields(lib), user, "Step(0, **kw)\n") == []


def test_no_constant_dataclass_fields():
    """A field that gets one literal at every construction site in the
    library, the tests and the demos carries no information."""
    classes = {k: v for p in MODULES for k, v in dataclass_fields(p.read_text(encoding="utf-8")).items()}
    paths = [p for root in (SRC, TESTS, TESTS.parent / "demos") for p in sorted(root.glob("*.py"))]
    assert constant_fields(classes, *(p.read_text(encoding="utf-8") for p in paths)) == []


def traced_methods() -> list:
    """``(layer, class, method)`` for each entry of the ``METHODS`` and
    ``COUNTED`` tables of perfbench/tracer.py, read from its source."""
    tree = ast.parse((TESTS.parent / "perfbench" / "tracer.py").read_text(encoding="utf-8"))
    tables = [ast.literal_eval(n.value) for n in tree.body if isinstance(n, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id in ("METHODS", "COUNTED") for t in n.targets)]
    assert len(tables) == 2
    return [(layer, cls, meth) for table in tables for layer, classes in table.items()
            for cls, methods in classes.items() for meth in methods]


TRACED = traced_methods()


@pytest.mark.parametrize("layer, cls, meth", TRACED, ids=[".".join(t) for t in TRACED])
def test_traced_method_exists(layer, cls, meth):
    """The tracer looks each method up in its class's own namespace."""
    assert meth in vars(getattr(importlib.import_module(f"betheqq.{layer}"), cls))
