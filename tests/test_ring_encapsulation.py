import ast
from pathlib import Path

import agcodec

#: A ring element's value is _scale times its vector of entries
#: (Field.vector), so a raw read of either outside curvering.py would miss
#: the other; an element's cached multiples y^j * e (RingElement._by_y) and
#: the curve's correction row they are built with (Curve._y_a_fix) serve
#: only RingElement
REPRESENTATION = {"_terms", "_scale", "_by_y", "_y_a_fix"}


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
