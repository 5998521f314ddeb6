"""List the lines and the arms of ``src/pqikit`` that the tier-1 tests never run.

Run from the repository root with Python 3.11 or later (extra arguments go
to pytest):

    python scripts/check_reach.py

Runs pytest on the tier-1 suite in this process under an instruction tracer
(``sys.settrace`` with ``f_trace_opcodes``), which records the offset of
every instruction that runs in ``src/pqikit``.  A line is reached when an
instruction that starts on it (``co_positions``) ran.  An arm is a part of an expression
that runs on some evaluations only: either branch of a conditional
expression, and each operand of ``and``/``or`` after the first.  An arm is
entered when an instruction ran whose source position (``co_positions``)
lies inside the arm's AST span; an arm the compiler emits no instruction
for is not counted.  The body of an ``if __name__ == "__main__":`` guard is
exempt, since only a fresh interpreter runs it.  Prints each unreached line
as ``path:line: source`` and each untaken arm as ``path:line:col: arm
source``, and exits 1 if there is any; exits with pytest's status if a test
fails.  Ends with two size counts of ``src/pqikit``: its lines (as the
benchmark's ``src_pqikit_lines`` counts them) and its settable values (see
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


def code_objects(code: types.CodeType) -> list[types.CodeType]:
    """``code`` and every code object nested in it."""
    found, todo = [], [code]
    while todo:
        code = todo.pop()
        found.append(code)
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return found


def arms(tree: ast.Module) -> list[ast.expr]:
    """Both branches of every conditional expression and every operand of
    ``and``/``or`` after the first."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.IfExp):
            found += [node.body, node.orelse]
        elif isinstance(node, ast.BoolOp):
            found += node.values[1:]
    return found


def entered(arm: ast.expr, spans: dict[int, list]) -> bool:
    """Whether one of ``spans`` (see :func:`by_line`) lies inside the arm's
    AST span."""
    start, end = (arm.lineno, arm.col_offset), (arm.end_lineno, arm.end_col_offset)
    return any(start <= (line, col) and (end_line, end_col) <= end
               for first in range(arm.lineno, arm.end_lineno + 1)
               for line, end_line, col, end_col in spans.get(first, ()))


def by_line(positions) -> dict[int, list]:
    """The full spans among instruction ``positions`` (line, end line,
    column, end column), grouped by their first line."""
    spans: dict[int, list] = {}
    for p in positions:
        if None not in p:
            spans.setdefault(p[0], []).append(p)
    return spans


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


def run_traced(args: list[str]) -> tuple[int, dict[types.CodeType, set[int]]]:
    """pytest's exit status and the instruction offsets run in each code
    object of the package."""
    import pytest

    ran: dict[types.CodeType, set[int]] = {}
    ours: dict[types.CodeType, set[int] | None] = {}

    def on_call(frame, event, arg):
        code = frame.f_code
        if code not in ours:
            path = os.path.realpath(code.co_filename)
            ours[code] = (ran.setdefault(code, set())
                          if path.startswith(PACKAGE + os.sep) else None)
        offsets = ours[code]
        if offsets is None:
            return None
        frame.f_trace_opcodes = True

        def on_opcode(frame, event, arg):
            if event == "opcode":
                offsets.add(frame.f_lasti)
            return on_opcode
        return on_opcode

    sys.settrace(on_call)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
    return int(status), ran


def main(argv=None) -> int:
    os.chdir(ROOT)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    args = sys.argv[1:] if argv is None else argv
    status, ran = run_traced(
        ["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider", *args])
    if status:
        return status
    taken: dict[str, set] = {}  # positions of the instructions run, by file
    for code, offsets in ran.items():
        positions = list(code.co_positions())  # one per 2-byte code unit
        taken.setdefault(os.path.realpath(code.co_filename), set()).update(
            positions[offset // 2] for offset in offsets)
    missed = untaken = length = settable = 0
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        with open(path) as fh:
            text = fh.read()
        source, tree = text.splitlines(), ast.parse(text)
        length += len(source)
        settable += settable_values(tree)
        exempt = main_guard_lines(tree)
        emitted = {p for code in code_objects(compile(text, path, "exec"))
                   for p in code.co_positions()}
        ran_here = taken.get(path, set())
        rel = os.path.relpath(path, ROOT)
        # an instruction's first line is the line co_lines gives it (None or
        # 0 for none)
        unreached = {p[0] for p in emitted if p[0]} - {p[0] for p in ran_here} - exempt
        for line in sorted(unreached):
            print(f"{rel}:{line}: {source[line - 1].strip()}")
            missed += 1
        emitted, ran_here = by_line(emitted), by_line(ran_here)
        for arm in sorted(arms(tree), key=lambda a: (a.lineno, a.col_offset)):
            if (arm.lineno not in exempt and entered(arm, emitted)
                    and not entered(arm, ran_here)):
                print(f"{rel}:{arm.lineno}:{arm.col_offset}: "
                      f"{ast.get_source_segment(text, arm)}")
                untaken += 1
    package = os.path.relpath(PACKAGE, ROOT)
    print(f"{missed} unreached line(s) and {untaken} untaken arm(s) in {package}")
    print(f"{package}: {length} lines, {settable} settable values")
    return 1 if missed or untaken else 0


if __name__ == "__main__":
    sys.exit(main())
