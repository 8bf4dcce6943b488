"""Run the tier-1 tests under a line tracer and fail on any line of a
function in ``src/discinfo`` that no test runs, unless ``ALLOWED`` names it.

    PYTHONPATH=src python tests/trace_lines.py [pytest arguments]

Subprocesses are not traced, so a path that only a fresh-process test takes
counts as unrun.  The tracer is installed again before each test, because
hypothesis may replace it.
"""

import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "discinfo"

# (file, source line as written) of the unrun lines allowed, each with its reason
ALLOWED = {
    # the RecursionError that reaches these lines also ends the tracer; the parser's
    # deep-nesting test runs them
    ("expr.py", "except RecursionError:"),
    ("expr.py", 'raise ParseError(0, {"expression"}, "expression is nested too deeply") from None'),
}


def _lines(code):
    """The lines of the function bodies in ``code``, recursively."""
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            if const.co_flags & 1:  # CO_OPTIMIZED: a function, not a class body
                yield from (line for *_, line in const.co_lines()
                            if line is not None and line != const.co_firstlineno)
            yield from _lines(const)


class Tracer:
    def __init__(self):
        self.ran = set()

    def call(self, frame, event, arg):
        if frame.f_code.co_filename.startswith(str(SRC)):
            return self.line
        return None

    def line(self, frame, event, arg):
        if event == "line":
            self.ran.add((frame.f_code.co_filename, frame.f_lineno))
        return self.line

    @pytest.hookimpl(tryfirst=True)
    def pytest_runtest_setup(self, item):
        sys.settrace(self.call)


def main(args) -> int:
    tracer = Tracer()
    sys.settrace(tracer.call)
    code = pytest.main(["-q", "-p", "no:cacheprovider", *args], plugins=[tracer])
    sys.settrace(None)
    if code != 0:
        return code
    unrun = []
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text().splitlines()
        for line in sorted(set(_lines(compile("\n".join(text), str(path), "exec")))):
            if (str(path), line) not in tracer.ran:
                unrun.append((path.name, line, text[line - 1].strip()))
    report = [f"{name}:{line}: {source}" for name, line, source in unrun
              if (name, source) not in ALLOWED]
    report += [f"{name}: allowed, but no unrun line reads: {source}"
               for name, source in ALLOWED - {(name, source) for name, _, source in unrun}]
    print("\n".join(report) or "every line of src/discinfo ran")
    return 1 if report else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
