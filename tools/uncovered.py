"""The lines of the agcodec package that no test runs.

Runs pytest in this process under ``sys.settrace``, tracing lines only in
the frames of code in ``src/agcodec`` (every other frame costs one call
event), then prints each executable line that never ran, as
``path:line: text``, and a total.  A line is executable where a code
object of the module starts one (``dis.findlinestarts``), so a docstring,
a comment or a continuation line without code of its own is not listed.

    python3 tools/uncovered.py [pytest arguments]

With no arguments it runs pytest's default collection, the whole suite,
which takes several times its untraced time.  The package is imported
from this checkout's ``src``, after tracing starts, so its module-level
lines count too.  Exits with pytest's status.  perfbench's slowdown probe
(``PROBE``) times the library against a slowed copy, and the trace, which
slows every call, swamps that slowdown, so the probe is deselected, with
a line saying so, unless an argument names it.
"""

import dis
import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "agcodec"
PROBE = ("perfbench/tests/test_perfbench.py::"
         "test_reference_speed_keeps_a_library_slowdown")


def executable_lines(path: Path) -> set[int]:
    """The lines at which some code object of the module starts a line."""
    code = compile(path.read_text(encoding="utf-8"), str(path), "exec")
    lines, todo = set(), [code]
    while todo:
        code = todo.pop()
        lines.update(line for _, line in dis.findlinestarts(code)
                     if line is not None and line > 0)
        todo.extend(c for c in code.co_consts
                    if isinstance(c, types.CodeType))
    return lines


class Tracer:
    """A trace function that records (file, line) for package frames."""

    def __init__(self) -> None:
        self.ran: set[tuple[str, int]] = set()
        self.inside: dict[str, bool] = {}  # by co_filename, as resolved

    def __call__(self, frame, event, arg):
        name = frame.f_code.co_filename
        inside = self.inside.get(name)
        if inside is None:
            inside = self.inside[name] = \
                Path(name).resolve().parent == PACKAGE
        return self.local if inside else None

    def local(self, frame, event, arg):
        if event == "line":
            self.ran.add((frame.f_code.co_filename, frame.f_lineno))
        return self.local


def main(argv: list[str]) -> int:
    import pytest

    sys.path.insert(0, str(ROOT / "src"))
    if not any(PROBE.rpartition("::")[2] in arg for arg in argv):
        print(f"deselected {PROBE}: the trace swamps the slowdown it times; "
              "name it to run it")
        argv = ["--deselect", PROBE, *argv]
    tracer = Tracer()
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    ran: dict[Path, set[int]] = {}
    for name, line in tracer.ran:
        ran.setdefault(Path(name).resolve(), set()).add(line)
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text(encoding="utf-8").splitlines()
        missed = sorted(executable_lines(path) - ran.get(path, set()))
        for line in missed:
            print(f"{path.relative_to(ROOT)}:{line}: "
                  f"{text[line - 1].strip()}")
        total += len(missed)
    print(f"{total} executable lines of src/agcodec ran in no test")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
