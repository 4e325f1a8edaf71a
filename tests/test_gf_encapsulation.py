import ast
from pathlib import Path

import agcodec

#: The element encoding and its tables, and the slot codes of the byte
#: form of vectors and their translate tables, private to gf.py
ENCODING = {"_k", "_by_log", "_zt", "_norm", "_exp", "_log", "_slot",
            "_slot_log", "_times", "_mod_p", "_room"}


def test_element_encoding_stays_in_gf():
    # other modules go through Field.logs/from_logs/zero_log/axpy/scale and
    # the vector operations (Field.vector ... Field.combine)
    sources = sorted(Path(agcodec.__file__).parent.glob("*.py"))
    assert len(sources) > 1
    for path in sources:
        if path.name == "gf.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                assert node.attr not in ENCODING, \
                    f"{path.name}:{node.lineno} reads .{node.attr}"
