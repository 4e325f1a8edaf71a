"""Line counts of the agcodec package, per module and in total.

Prints two counts for each module of ``src/agcodec``: its lines, as
``wc -l`` counts them, and its code lines, the lines that are not blank,
not a comment line and not inside a module, class or function docstring.

    python3 tools/linecount.py [package directory]
"""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "agcodec"


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers that the module's, classes' and functions'
    docstrings span."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def counts(path: Path) -> tuple[int, int]:
    """(lines, code lines) of one source file."""
    text = path.read_text(encoding="utf-8")
    docs = docstring_lines(ast.parse(text, str(path)))
    lines = text.splitlines()
    code = sum(1 for number, line in enumerate(lines, start=1)
               if line.strip() and not line.strip().startswith("#")
               and number not in docs)
    return text.count("\n"), code


def main(argv: list[str]) -> int:
    package = Path(argv[1]) if len(argv) > 1 else PACKAGE
    total_lines = total_code = 0
    print(f"{'module':<16} {'lines':>7} {'code':>7}")
    for path in sorted(package.glob("*.py")):
        lines, code = counts(path)
        total_lines += lines
        total_code += code
        print(f"{path.name:<16} {lines:>7,} {code:>7,}")
    print(f"{'total':<16} {total_lines:>7,} {total_code:>7,}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
