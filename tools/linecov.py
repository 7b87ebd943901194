"""List the statements of src/htclip that a pytest run never executes.

A line tracer (sys.settrace, and threading.settrace for the module's
sampler threads) is installed before pytest starts, so imports are
traced too.  It records each line run in a file under src/htclip, and
at the end of the session every statement of src/htclip/*.py (found
with ast) that no traced line fell in is printed as path:line and its
first source line, followed by the count per file and in all.

    PYTHONPATH=src python tools/linecov.py [--json OUT] [-- PYTEST_ARGS]

With no pytest arguments it runs tier-1 (tests/, as pyproject.toml
sets).  A statement counts as run if a line event fell on any line from
its first to its last, so a compound statement (if, for, while, with,
try, def, class) counts once its header or anything inside it ran.
Docstrings and global and nonlocal declarations are not counted, as
they run no code.  Code run in a child process (the tests that start
`python -m htclip ...`) is not traced, so a statement that only such a
test reaches is listed.  Tracing makes the run a few times slower.
stdlib and pytest only; not part of the tests.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "htclip"


class LineTracer:
    """Records (real path, line) for each line run in a file under root."""

    def __init__(self, root: Path):
        self.root = str(root.resolve()) + os.sep
        self.hits: set = set()
        self._ours: dict = {}  # co_filename -> its real path, or None

    def _path(self, name: str):
        path = self._ours.get(name, False)
        if path is False:
            real = os.path.realpath(name)
            path = self._ours[name] = real if real.startswith(self.root) else None
        return path

    def _call(self, frame, event, arg):
        return self._line if self._path(frame.f_code.co_filename) else None

    def _line(self, frame, event, arg):
        if event == "line":
            self.hits.add((self._ours[frame.f_code.co_filename], frame.f_lineno))
        return self._line

    def start(self) -> None:
        threading.settrace(self._call)
        sys.settrace(self._call)

    def stop(self) -> None:
        sys.settrace(None)
        threading.settrace(None)


def statements(path: Path) -> list:
    """(first line, last line) of each statement in the file, docstrings
    and global and nonlocal declarations left out."""
    tree = ast.parse(path.read_text(), str(path))
    docstrings = set()
    for node in ast.walk(tree):
        body = getattr(node, "body", None)
        if (
            isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            and body
            and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)
        ):
            docstrings.add(id(body[0]))
    return sorted(
        (node.lineno, node.end_lineno)
        for node in ast.walk(tree)
        if isinstance(node, ast.stmt)
        and not isinstance(node, (ast.Global, ast.Nonlocal))
        and id(node) not in docstrings
    )


def never_run(hits: set, src: Path = SRC) -> list:
    """(path, line, source line) of each statement under src with no hit."""
    out = []
    for path in sorted(src.glob("*.py")):
        real = os.path.realpath(path)
        ran = {line for name, line in hits if name == real}
        lines = path.read_text().splitlines()
        for first, last in statements(path):
            if not ran.intersection(range(first, last + 1)):
                out.append((str(path.relative_to(ROOT)), first, lines[first - 1].strip()))
    return out


class Plugin:
    """Stops the tracer at the end of the session and reports."""

    def __init__(self, tracer: LineTracer, json_out=None):
        self.tracer = tracer
        self.json_out = json_out

    def pytest_sessionfinish(self, session, exitstatus):
        self.tracer.stop()
        missed = never_run(self.tracer.hits)
        total = sum(len(statements(p)) for p in SRC.glob("*.py"))
        per_file: dict = {}
        print()  # after pytest's progress dots
        for path, line, text in missed:
            print(f"{path}:{line}: {text}")
            per_file[path] = per_file.get(path, 0) + 1
        for path, count in sorted(per_file.items()):
            print(f"{path}: {count} never run")
        print(f"{len(missed)} of {total} statements never run")
        if self.json_out:
            with open(self.json_out, "w") as fh:
                json.dump(
                    {"statements": total,
                     "never_run": [{"path": p, "line": n, "source": t} for p, n, t in missed]},
                    fh, indent=1,
                )
                fh.write("\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--json", help="also write the list to this JSON file")
    ap.add_argument("pytest_args", nargs="*", help="passed to pytest (after --)")
    args = ap.parse_args(argv)
    tracer = LineTracer(SRC)
    tracer.start()
    try:
        return int(pytest.main(["-q", "-p", "no:cacheprovider", *args.pytest_args],
                               plugins=[Plugin(tracer, args.json)]))
    finally:
        tracer.stop()


if __name__ == "__main__":
    sys.exit(main())
