"""List the statements of ``src/polygonspaces`` that tier-1 never executes.

Runs the tier-1 suite in this process under a ``sys.settrace`` recorder
that records line events only in the package's own files, then prints
each statement no test reached, as ``path:line: source``, and their
count.  Hypothesis deadlines are off, since tracing slows every example.
The report is for reading, not a gate: the script exits 0 whatever it
finds, and 1 only if a test fails.

Run from the repository root (about three times tier-1's time)::

    PYTHONPATH=src python tests/trace_unrun.py [pytest arguments]

A statement counts as executed when any line of it raised a line event;
a compound statement (``if``, ``for``, ``def``, ...) when its header or
its first inner statement did.  Docstrings, ``pass``, ``global`` and
``nonlocal`` compile to nothing and are left out.
"""

from __future__ import annotations

import ast
import pathlib
import sys
import threading

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "polygonspaces"
SILENT = (ast.Pass, ast.Global, ast.Nonlocal)


def record(executed: dict[str, set[int]]):
    """A global trace function that adds to ``executed[path]`` the line of
    every line event in the package's files, and ignores all others."""
    prefix = str(PACKAGE) + "/"
    local_tracers: dict[str, object] = {}

    def tracer(frame, event, arg):
        path = frame.f_code.co_filename
        local = local_tracers.get(path, False)
        if local is False:
            local = None
            if path.startswith(prefix):
                add = executed.setdefault(path, set()).add

                def local(frame, event, arg):
                    if event == "line":
                        add(frame.f_lineno)
                    return local

            local_tracers[path] = local
        return local

    return tracer


def is_docstring(node: ast.stmt) -> bool:
    return (
        isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    )


def header_lines(node: ast.stmt) -> range:
    """The lines of a statement before its first inner statement, its
    decorators included; all of its lines when it has none."""
    first = node.lineno
    for decorator in getattr(node, "decorator_list", ()):
        first = min(first, decorator.lineno)
    body = getattr(node, "body", None)
    if isinstance(body, list) and body:
        return range(first, body[0].lineno)
    return range(first, node.end_lineno + 1)


def ran(node: ast.stmt, lines: set[int]) -> bool:
    if any(n in lines for n in header_lines(node)):
        return True
    body = [s for s in getattr(node, "body", ()) if isinstance(s, ast.stmt)]
    body = [s for s in body if not (is_docstring(s) or isinstance(s, SILENT))]
    return bool(body) and ran(body[0], lines)


def unrun(path: pathlib.Path, lines: set[int]) -> list[int]:
    """The first line of each statement of ``path`` that never ran."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.stmt)
        and not is_docstring(node)
        and not isinstance(node, SILENT)
        and not ran(node, lines)
    )


class NoDeadlines:
    """A pytest plugin that turns Hypothesis deadlines off before any test
    module is imported."""

    @staticmethod
    def pytest_configure(config) -> None:
        from hypothesis import settings

        settings.register_profile("trace_unrun", deadline=None)
        settings.load_profile("trace_unrun")


def main(argv: list[str]) -> int:
    import pytest

    # the package is imported only once tracing runs, so that its
    # module-level lines are recorded
    assert "polygonspaces" not in sys.modules, "imported before tracing"
    executed: dict[str, set[int]] = {}
    tracer = record(executed)
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(
            ["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider",
             *argv],
            plugins=[NoDeadlines()],
        )
    finally:
        sys.settrace(None)
        threading.settrace(None)
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text().splitlines()
        missed = unrun(path, executed.get(str(path), set()))
        total += len(missed)
        for line in missed:
            print(f"{path.relative_to(ROOT)}:{line}: "
                  f"{source[line - 1].strip()}")
    print(f"{total} statements of src/polygonspaces never executed")
    return 1 if status == pytest.ExitCode.TESTS_FAILED else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
