import ast
import sys
from pathlib import Path

import agcodec

SOURCES = sorted(Path(agcodec.__file__).parent.glob("*.py"))


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def _imported_names(tree):
    """Names bound by the module-level imports, bar ``__future__``."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            names |= {alias.asname or alias.name.split(".")[0]
                      for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names |= {alias.asname or alias.name for alias in node.names}
    return names


def _used_names(tree):
    """Names read anywhere, string annotations included."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        for ann in (getattr(node, "annotation", None),
                    getattr(node, "returns", None)):
            for sub in ast.walk(ann) if ann is not None else ():
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    used |= _used_names(ast.parse(sub.value, mode="eval"))
    return used


def test_package_imports_only_the_standard_library():
    # relative imports stay inside the package; every absolute one must
    # name a standard-library module
    assert len(SOURCES) > 1
    for path in SOURCES:
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in sys.stdlib_module_names, \
                    f"{path.name} imports {name}"


def test_every_import_is_used():
    # __init__.py imports to re-export; every other module uses what it
    # imports, in code or in an annotation
    for path in SOURCES:
        if path.name != "__init__.py":
            tree = _parse(path)
            unused = _imported_names(tree) - _used_names(tree)
            assert not unused, f"{path.name} imports unused {sorted(unused)}"


def test_all_lists_exactly_the_imported_names():
    init = Path(agcodec.__file__)
    assert len(agcodec.__all__) == len(set(agcodec.__all__))
    assert set(agcodec.__all__) == _imported_names(_parse(init))


def test_sources_run_on_python_310():
    # pyproject.toml admits Python 3.10: no syntax newer than 3.10, and
    # every int.to_bytes and int.from_bytes call, through a name bound to
    # one (gf._from_bytes) too, passes the byteorder, which has no default
    # before 3.11
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"), str(path),
                                  feature_version=(3, 10))
             for path in SOURCES}
    methods = {"to_bytes", "from_bytes"}
    aliases = {target.id for tree in trees.values() for node in ast.walk(tree)
               if isinstance(node, ast.Assign)
               and isinstance(node.value, ast.Attribute)
               and node.value.attr in methods
               for target in node.targets if isinstance(target, ast.Name)}
    calls = 0
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and (
                    getattr(node.func, "attr", None) in methods | aliases
                    or getattr(node.func, "id", None) in aliases):
                calls += 1
                assert len(node.args) >= 2 or any(
                    kw.arg == "byteorder" for kw in node.keywords), \
                    f"{name}:{node.lineno} passes no byteorder"
    assert calls and "_from_bytes" in aliases


def test_every_private_definition_is_used():
    # a private function, method or class that no code in the package names
    # is dead: delete it, or move it next to the tests that use it; so is a
    # private attribute it stores (by assignment or in __slots__) and never
    # reads, such as a second stored form whose last reader is gone
    trees = [_parse(path) for path in SOURCES]
    defined = {node.name for tree in trees for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                    ast.ClassDef))
               and node.name.startswith("_") and not node.name.endswith("__")}
    named = {node.id if isinstance(node, ast.Name) else node.attr
             for tree in trees for node in ast.walk(tree)
             if isinstance(node, (ast.Name, ast.Attribute))}
    unused = defined - named
    assert not unused, f"private definitions never named {sorted(unused)}"
    nodes = [node for tree in trees for node in ast.walk(tree)]
    stored = set()
    for node in nodes:
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            stored.add(node.attr)
        elif isinstance(node, ast.Assign) and any(
                getattr(target, "id", None) == "__slots__"
                for target in node.targets):
            stored |= {sub.value for sub in ast.walk(node.value)
                       if isinstance(sub, ast.Constant)}
    stored = {name for name in stored
              if name.startswith("_") and not name.endswith("__")}
    read = {node.attr for node in nodes
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}
    assert {"_y_a_fix", "_by_y", "_slot"} <= stored
    unread = stored - read
    assert not unread, f"private attributes never read {sorted(unread)}"
