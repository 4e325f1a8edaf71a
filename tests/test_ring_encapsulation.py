import ast
from pathlib import Path

import agcodec

#: A ring element's value is _scale times its list of kernel values, so a
#: raw read of either outside curvering.py would miss the other; the curve's
#: wrap corrections (Curve._wrap_fix and its cache) serve only RingElement
REPRESENTATION = {"_terms", "_scale", "_wrap_fix", "_wrap_fixes"}


def test_ring_representation_stays_in_curvering():
    # other modules go through coefficient_at, leading_coefficient, items
    sources = sorted(Path(agcodec.__file__).parent.glob("*.py"))
    assert len(sources) > 1
    for path in sources:
        if path.name == "curvering.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                assert node.attr not in REPRESENTATION, \
                    f"{path.name}:{node.lineno} reads .{node.attr}"
