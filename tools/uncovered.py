"""List the function-body statements of ``src/nlpflow`` that tier-1 never runs.

    python3 tools/uncovered.py                    # the tier-1 suite
    python3 tools/uncovered.py -q tests/test_cli.py  # arguments replace pytest's

Runs pytest in this process under a ``sys.settrace`` line tracer that
records the lines executed in the package's files, then prints, module by
module, each statement inside a function body whose lines never ran, as
``path:line: function: source``, and their count.  Module-level code,
class bodies and docstrings are not listed: importing runs them.

A statement counts as run when any line of it ran, up to the first
statement of its body for an ``if``, ``for``, ``while`` or ``with``;
``try`` is not listed itself, only what it holds.  Code run in a child
process (the tests that start ``nlpflow`` as a console script) is not
traced.  The tracer slows every Python call, so tests with a time budget
can fail under it; their failures are reported by pytest and do not
stop the listing.
"""

from __future__ import annotations

import ast
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "nlpflow"


def statements(tree):
    """``(first line, own lines, function name)`` of each statement in a
    function body of the module ``tree``; own lines stop where a compound
    statement's body starts."""
    out = []

    def visit(body, function):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if function is not None:
                    out.append((node.lineno, {node.lineno}, function))
                inner = node.body
                if (inner and isinstance(inner[0], ast.Expr)
                        and isinstance(inner[0].value, ast.Constant)
                        and isinstance(inner[0].value.value, str)):
                    inner = inner[1:]  # the docstring
                visit(inner, node.name)
                continue
            if isinstance(node, ast.ClassDef):
                visit(node.body, function)
                continue
            children = [getattr(node, field) for field in ("body", "orelse", "finalbody")
                        if isinstance(getattr(node, field, None), list)]
            children += [handler.body for handler in getattr(node, "handlers", ())]
            children += [case.body for case in getattr(node, "cases", ())]
            if function is not None and not isinstance(node, ast.Try):
                body = getattr(node, "body", None)
                end = body[0].lineno - 1 if body else node.end_lineno
                out.append((node.lineno, set(range(node.lineno, max(end, node.lineno) + 1)),
                            function))
            for child in children:
                visit(child, function)

    visit(tree.body, None)
    return out


def main(argv):
    import pytest

    files = {path.resolve() for path in PACKAGE.glob("*.py")}
    executed = {}  # resolved path -> set of line numbers
    lines_of = {}  # code file name -> that set, or None outside the package

    def local(frame, event, arg):
        if event == "line":
            lines_of[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in lines_of:
            path = Path(name).resolve()
            lines_of[name] = executed.setdefault(path, set()) if path in files else None
        return local if lines_of[name] is not None else None

    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    sys.settrace(trace)
    try:
        status = pytest.main(argv or ["-q", "--continue-on-collection-errors",
                                      "-p", "no:cacheprovider"])
    finally:
        sys.settrace(None)

    missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        ran = executed.get(path.resolve(), set())
        for first, own, function in statements(ast.parse(source)):
            if not own & ran:
                missed += 1
                print(f"{path.relative_to(ROOT)}:{first}: {function}: {lines[first - 1].strip()}")
    print(f"{missed} function-body statements never ran (pytest exit status {int(status)})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
