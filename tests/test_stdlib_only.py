import ast
import sys
from pathlib import Path

import agcodec


def test_package_imports_only_the_standard_library():
    # relative imports stay inside the package; every absolute one must
    # name a standard-library module
    sources = sorted(Path(agcodec.__file__).parent.glob("*.py"))
    assert len(sources) > 1
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in sys.stdlib_module_names, \
                    f"{path.name} imports {name}"
