"""Statements of `src/noclab` that the Tier-1 suite never runs, as JSON.

    PYTHONPATH=src python tests/reach.py [PYTEST_ARG ...] [> reach.json]

Runs pytest in this process (by default on `tests/`, as Tier-1 does)
under a line tracer that records only frames of `src/noclab`, then
prints one entry per statement none of whose lines ran: its file, first
line and source text. A compound statement (`if`, `for`, `def`, ...)
counts by its header alone, so an unreached body is listed statement by
statement. Code that runs only in a subprocess a test starts, such as
`cli.py`'s `sys.exit(main())`, is not seen and is listed as unreached.
pytest's own report goes to stderr. The script fails only if it errors
itself: a failing test is reported as `pytest_exit_code`. pytest does
not collect this file.
"""

from __future__ import annotations

import ast
import contextlib
import json
import os
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "noclab")


def trace_lines(run):
    """Call run() under a line tracer; returns its result and the set of
    (path, line) of every package line that ran."""
    ran = set()
    in_package = {}  # co_filename -> whether it is a module of PACKAGE

    def local(frame, event, _):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, _):
        path = frame.f_code.co_filename
        if path not in in_package:
            in_package[path] = os.path.dirname(os.path.abspath(path)) == PACKAGE
        return local if in_package[path] else None

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        result = run()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return result, {(os.path.abspath(path), line) for path, line in ran}


def _code_lines(code):
    """Lines that hold bytecode in `code` and the code nested in it."""
    lines = {line for *_, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _spans(tree):
    """(first, last) line of each statement's own code: all of a simple
    statement, the header of a compound one or of an `except` clause."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.stmt, ast.excepthandler)):
            starts = [block[0].lineno for block in
                      (getattr(node, f, None) for f in ("body", "orelse", "handlers", "finalbody"))
                      if block]
            yield node.lineno, max(node.lineno, min(starts) - 1) if starts else node.end_lineno


def unreached(path, ran):
    """[(line, text)] of each statement of `path` with bytecode of its
    own and no line in `ran`."""
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    executable = _code_lines(compile(source, path, "exec"))
    text = source.splitlines()
    missed = []
    for first, last in sorted(set(_spans(ast.parse(source)))):
        own = executable.intersection(range(first, last + 1))
        if own and not any((path, line) in ran for line in own):
            missed.append((first, text[first - 1].strip()))
    return missed


def main(argv=None):
    args = list(sys.argv[1:] if argv is None else argv) or [os.path.join(ROOT, "tests")]
    import pytest

    with contextlib.redirect_stdout(sys.stderr):
        code, ran = trace_lines(lambda: pytest.main(["-q", "-p", "no:cacheprovider", *args]))
    report = {}
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            path = os.path.join(PACKAGE, name)
            missed = unreached(path, ran)
            if missed:
                report[os.path.relpath(path, ROOT)] = [
                    {"line": line, "text": text} for line, text in missed]
    print(json.dumps({
        "pytest_exit_code": int(code),
        "traced": os.path.relpath(PACKAGE, ROOT),
        "not_seen": "statements that run only in a subprocess a test starts",
        "unreached_statements": sum(map(len, report.values())),
        "unreached": report,
    }, indent=2))


if __name__ == "__main__":
    main()
