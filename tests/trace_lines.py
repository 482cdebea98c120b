"""A pytest plugin that fails the run when a statement of ``src/citest`` never ran.

It loads only when named, with ``tests`` on the path:

    PYTHONPATH=src:tests python -m pytest -q -p trace_lines --hypothesis-seed=0

Importing it starts ``sys.settrace``.  ``-p`` plugins load before
``conftest.py`` imports citest, so module-level statements are seen too.  At
the end of the session every statement of the package's syntax tree must
have run in the test process, or the run fails and lists each one that did
not.  Only the body of ``if __name__ == "__main__":`` is exempt.  Code that
runs only in a child process does not count.
"""

import ast
import os
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "citest"
_ran = set()  # (co_filename, line) of every line event in the package
_in_package = {}  # co_filename -> whether it is a file of the package
_unrun = []


def _line(frame, event, arg):
    if event == "line":
        _ran.add((frame.f_code.co_filename, frame.f_lineno))
    return _line


def _call(frame, event, arg):
    name = frame.f_code.co_filename
    inside = _in_package.get(name)
    if inside is None:
        inside = _in_package[name] = Path(os.path.realpath(name)).parent == PACKAGE
    return _line if inside else None


sys.settrace(_call)


def _unrun_statements(path, lines):
    """(line, source) of each statement of one module none of whose lines ran.

    A compound statement counts as run when any line it spans did, since its
    body runs only after its header; each statement in the body is checked on
    its own.  A bare constant, a docstring among them, compiles to no code.
    """
    text = path.read_text(encoding="utf-8")
    tree = ast.parse(text)
    exempt = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'":
            exempt.update(id(inner) for stmt in node.body for inner in ast.walk(stmt))
    unrun = []
    for node in ast.walk(tree):
        if (not isinstance(node, ast.stmt) or id(node) in exempt
                or isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)):
            continue
        first = min([node.lineno, *(d.lineno for d in getattr(node, "decorator_list", ()))])
        if lines.isdisjoint(range(first, node.end_lineno + 1)):
            unrun.append((node.lineno, ast.get_source_segment(text, node)))
    return sorted(unrun)


def pytest_sessionfinish(session):
    sys.settrace(None)
    ran = {}
    for name, line in _ran:
        ran.setdefault(Path(os.path.realpath(name)), set()).add(line)
    for path in sorted(PACKAGE.glob("*.py")):
        for line, source in _unrun_statements(path, ran.get(path, set())):
            _unrun.append(f"{path.name}:{line}: {source.splitlines()[0]}")
    if _unrun:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter):
    if _unrun:
        terminalreporter.section("statements of src/citest that no test ran")
        for entry in _unrun:
            terminalreporter.write_line(entry)
