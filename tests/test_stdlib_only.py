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


def test_every_private_definition_is_used():
    # a private function, method or class that no code in the package names
    # is dead: delete it, or move it next to the tests that use it
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
