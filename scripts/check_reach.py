"""List the lines of ``src/pqikit`` that the tier-1 tests never run.

Run from the repository root (extra arguments go to pytest):

    python scripts/check_reach.py

Runs pytest on the tier-1 suite in this process under a line tracer
(``sys.settrace``), then compares the lines that ran with every line that
carries bytecode (``co_lines``) in ``src/pqikit``.  The body of an
``if __name__ == "__main__":`` guard is exempt, since only a fresh
interpreter runs it.  Prints each unreached line as ``path:line: source``
and exits 1 if there is any; exits with pytest's status if a test fails.
Ends with two size counts of ``src/pqikit``: its lines (as the benchmark's
``src_pqikit_lines`` counts them) and its settable values (see
:func:`settable_values`).
"""

from __future__ import annotations

import ast
import os
import sys
import types

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "pqikit")


def main_guard_lines(tree: ast.Module) -> set[int]:
    """Lines of the bodies of the module's ``if __name__ == "__main__":``."""
    lines = set()
    for node in tree.body:
        if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'":
            lines.update(range(node.body[0].lineno, node.end_lineno + 1))
    return lines


def executable_lines(path: str) -> set[int]:
    """Lines that carry bytecode in the module at ``path``, nested code too."""
    with open(path) as fh:
        source = fh.read()
    lines, todo = set(), [compile(source, path, "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines - main_guard_lines(ast.parse(source))


def settable_values(tree: ast.Module) -> int:
    """Defaulted function arguments plus defaulted dataclass fields; a
    ``field(init=False)`` is not counted."""
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            count += len(node.args.defaults)
            count += sum(d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and any(
                "dataclass" in ast.unparse(d) for d in node.decorator_list):
            count += sum(isinstance(s, ast.AnnAssign) and s.value is not None
                         and "init=False" not in ast.unparse(s.value)
                         for s in node.body)
    return count


def run_traced(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit status and the lines run in each file of the package."""
    import pytest

    reached: dict[str, set[int]] = {}
    ours: dict[types.CodeType, set[int] | None] = {}

    def on_call(frame, event, arg):
        code = frame.f_code
        if code not in ours:
            path = os.path.realpath(code.co_filename)
            ours[code] = (reached.setdefault(path, set())
                          if path.startswith(PACKAGE + os.sep) else None)
        lines = ours[code]
        if lines is None:
            return None

        def on_line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return on_line
        return on_line

    sys.settrace(on_call)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
    return int(status), reached


def main(argv=None) -> int:
    os.chdir(ROOT)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    args = sys.argv[1:] if argv is None else argv
    status, reached = run_traced(
        ["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider", *args])
    if status:
        return status
    missed = length = settable = 0
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        with open(path) as fh:
            text = fh.read()
        source = text.splitlines()
        length += len(source)
        settable += settable_values(ast.parse(text))
        for line in sorted(executable_lines(path) - reached.get(path, set())):
            print(f"{os.path.relpath(path, ROOT)}:{line}: {source[line - 1].strip()}")
            missed += 1
    package = os.path.relpath(PACKAGE, ROOT)
    print(f"{missed} unreached line(s) in {package}")
    print(f"{package}: {length} lines, {settable} settable values")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
