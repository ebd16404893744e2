"""Export lists: every module star-imports, and every name in an ``__all__`` exists.
No module-level private helper is left unused."""
import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import wachdeform

MODULES = ["wachdeform"] + [
    f"wachdeform.{info.name}" for info in pkgutil.iter_modules(wachdeform.__path__)
]


def test_every_module_is_listed():
    assert set(MODULES) >= {
        "wachdeform", "wachdeform.cli", "wachdeform.deform", "wachdeform.errors",
        "wachdeform.padics", "wachdeform.series", "wachdeform.trianguline",
        "wachdeform.wach",
    }


@pytest.mark.parametrize("name", MODULES)
def test_star_import_resolves_every_exported_name(name):
    namespace: dict = {}
    exec(f"from {name} import *", namespace)   # a stale name in __all__ raises here
    module = importlib.import_module(name)
    for attr in getattr(module, "__all__", ()):
        assert namespace[attr] is getattr(module, attr), (name, attr)


def test_package_exports_exactly_the_module_exports():
    union = [
        name
        for sub in ("deform", "errors", "padics", "series", "trianguline", "wach")
        for name in importlib.import_module(f"wachdeform.{sub}").__all__
    ]
    assert len(union) == len(set(union))
    assert sorted(wachdeform.__all__) == sorted(union)


def _defined_names(stmt):
    """Names a module-level def, class or assignment binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else (
        [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def _read_names(node):
    """Names and attributes the node reads."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if (isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store))
            or isinstance(n, ast.Attribute)}


def test_every_private_helper_is_used_in_src():
    # a _name defined at module level must be read by some other module-level
    # statement of src/, so helpers left behind by a rewrite cannot stay
    stmts = [
        (path.stem, stmt)
        for path in sorted(Path(wachdeform.__file__).parent.glob("*.py"))
        for stmt in ast.parse(path.read_text()).body
    ]
    unused = [
        f"{module}.{name}"
        for module, stmt in stmts
        for name in _defined_names(stmt)
        if name.startswith("_") and not name.startswith("__")
        and not any(name in _read_names(other) for _, other in stmts if other is not stmt)
    ]
    assert unused == []


def _named(node, name):
    return ((isinstance(node, ast.Name) and node.id == name)
            or (isinstance(node, ast.Attribute) and node.attr == name))


def _takes_nothing(fn):
    a = fn.args
    return not (a.posonlyargs or a.args or a.vararg or a.kwonlyargs or a.kwarg)


def test_every_lru_cache_in_src_is_bounded():
    # an unbounded cache grows for the life of the process: each lru_cache in
    # src/ is called with an integer maxsize, and functools.cache wraps only a
    # module-level function of no arguments, which has one entry
    bad, bounded = [], 0
    for path in sorted(Path(wachdeform.__file__).parent.glob("*.py")):
        nodes = list(ast.walk(ast.parse(path.read_text())))
        nullary = {n.name for n in nodes if isinstance(n, ast.FunctionDef) and _takes_nothing(n)}
        ok = set()
        for call in (n for n in nodes if isinstance(n, ast.Call)):
            size = call.args[0] if call.args else next(
                (k.value for k in call.keywords if k.arg == "maxsize"), None)
            if _named(call.func, "lru_cache") and isinstance(size, ast.Constant) \
                    and type(size.value) is int:
                ok.add(id(call.func))
                bounded += 1
            elif _named(call.func, "cache") and len(call.args) == 1 \
                    and getattr(call.args[0], "id", None) in nullary:
                ok.add(id(call.func))
        bad += [f"{path.stem}:{n.lineno}" for n in nodes
                if (_named(n, "lru_cache") or _named(n, "cache"))
                and not isinstance(getattr(n, "ctx", None), ast.Store) and id(n) not in ok]
    assert bad == [] and bounded


def _opens_for_writing(call):
    f = call.func
    if _named(f, "write_text") or _named(f, "write_bytes"):
        return True
    if not _named(f, "open"):
        return False
    if isinstance(f, ast.Attribute) and getattr(f.value, "id", None) == "os":
        return True
    # builtin or io open(file, mode); a Path-like x.open(mode)
    at = 1 if isinstance(f, ast.Name) or getattr(f.value, "id", None) == "io" else 0
    mode = call.args[at] if len(call.args) > at else next(
        (k.value for k in call.keywords if k.arg == "mode"), ast.Constant("r"))
    return not (isinstance(mode, ast.Constant) and type(mode.value) is str) \
        or bool(set(mode.value) & set("wax+"))


def test_every_file_write_in_src_goes_through_the_one_writer():
    # wach._write_text writes in place; a write_text, write_bytes, os.open or
    # an open for writing anywhere else would bring back truncate-on-open
    bad, inside = [], 0
    for path in sorted(Path(wachdeform.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        writer = [n for n in ast.walk(tree)
                  if isinstance(n, ast.FunctionDef) and n.name == "_write_text"]
        allowed = {id(n) for w in writer for n in ast.walk(w)}
        for call in (n for n in ast.walk(tree) if isinstance(n, ast.Call)):
            if _opens_for_writing(call):
                if id(call) in allowed:
                    inside += 1
                else:
                    bad.append(f"{path.stem}:{call.lineno}")
    assert bad == [] and inside == 2, (bad, inside)   # os.open, open(fd, "wb")


def test_every_export_has_a_reader():
    # a name in a module's __all__ must be read by src/ outside its own
    # definition, or by the acceptance tests: public API that nothing calls,
    # sets or reads cannot stay
    src = Path(wachdeform.__file__).parent
    stmts = [
        (path.stem, stmt)
        for path in sorted(src.glob("*.py"))
        for stmt in ast.parse(path.read_text()).body
    ]
    acceptance = Path(__file__).with_name("test_acceptance.py")
    read_by_acceptance = _read_names(ast.parse(acceptance.read_text()))
    unread = [
        f"{module}.{name}"
        for module in sorted({m for m, _ in stmts} - {"__init__"})
        for name in getattr(importlib.import_module(f"wachdeform.{module}"), "__all__", ())
        if name not in read_by_acceptance
        and not any(name in _read_names(stmt) for m, stmt in stmts
                    if not (m == module and name in _defined_names(stmt)))
    ]
    assert unread == []
