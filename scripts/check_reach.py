"""List the lines and the arms of ``src/pqikit`` that the tier-1 tests, or
the system itself, never run.

Run from the repository root with Python 3.11 or later:

    python scripts/check_reach.py            # extra arguments go to pytest
    python scripts/check_reach.py --system

Runs the chosen code in this process under an instruction tracer
(``sys.settrace`` with ``f_trace_opcodes``), which records the offset of
every instruction that runs in ``src/pqikit``.  A line is reached when an
instruction that starts on it (``co_positions``) ran.  An arm is a part of an expression
that runs on some evaluations only: either branch of a conditional
expression, and each operand of ``and``/``or`` after the first.  An arm is
entered when an instruction ran whose source position (``co_positions``)
lies inside the arm's AST span; an arm the compiler emits no instruction
for is not counted.  The body of an ``if __name__ == "__main__":`` guard is
exempt, since only a fresh interpreter runs it.

By default the code run is pytest on the tier-1 suite.  The script prints
each unreached line as ``path:line: source`` and each untaken arm as
``path:line:col: arm source``, and exits 1 if there is any; exits with
pytest's status if a test fails.  It ends with three size counts of
``src/pqikit``: its lines (as the benchmark's ``src_pqikit_lines`` counts
them), its code lines (see :func:`code_lines`) and its settable values
(see :func:`settable_values`).

Each source of ``src/pqikit`` is read before the run and mapped as it was
then; if one changes during the run (an editor saving it), the script names
it and exits 1 instead of mapping the offsets onto shifted lines.

``--system`` runs what the system runs instead (see :func:`run_system`):
every job of the three benchmark workloads at seed 1 and the README's
command-line and python blocks.  It also exempts the lines of ``raise``
statements and of ``except`` bodies, prints what is left grouped by module
with a count, and is a report: it exits 0 whatever it lists, and 1 only if
a job raises or a command exits non-zero.
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import re
import shlex
import sys
import tempfile
import types

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "pqikit")
WORKLOADS = ("dynamics", "predict", "design")
# commands beside the README's: the other steady-state problem, and the
# loop-shift search that --lam skips
EXTRA_COMMANDS = (
    "pqikit optimize --spec network.json --problem ofp",
    "pqikit analyze-lti --num 0.75 --den=-2,2,1",
)


def main_guard_lines(tree: ast.Module) -> set[int]:
    """Lines of the bodies of the module's ``if __name__ == "__main__":``."""
    lines = set()
    for node in tree.body:
        if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'":
            lines.update(range(node.body[0].lineno, node.end_lineno + 1))
    return lines


def error_lines(tree: ast.Module) -> set[int]:
    """Lines of every ``raise`` statement and every ``except`` clause."""
    return {line for node in ast.walk(tree)
            if isinstance(node, (ast.Raise, ast.ExceptHandler))
            for line in range(node.lineno, node.end_lineno + 1)}


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


def code_lines(source: list[str], tree: ast.Module) -> int:
    """Lines that are not blank, not a comment alone and not inside the
    docstring of the module, a class or a function."""
    docs = {line for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef))
            and ast.get_docstring(node, clean=False) is not None
            for line in range(node.body[0].lineno, node.body[0].end_lineno + 1)}
    return sum(bool(text.strip()) and not text.strip().startswith("#") and i not in docs
               for i, text in enumerate(source, 1))


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


def traced(run):
    """``run()``'s result and the instruction offsets run in each code
    object of the package."""
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
        result = run()
    finally:
        sys.settrace(None)
    return result, ran


def readme_blocks(text: str, lang: str) -> list[str]:
    """The README's fenced blocks of language ``lang``, in order."""
    return re.findall(rf"^```{lang}\n(.*?)^```$", text, re.S | re.M)


def run_system() -> None:
    """Run what the system runs, in a temporary directory.

    That is the program side of every job that ``perfbench.gen`` lists for
    each workload at seed 1, built by ``perfbench.jobs.build`` and called
    through ``perfbench.jobs.KINDS`` (no oracle is checked); the README's
    "Command line" block, on its ``network.json``, plus
    :data:`EXTRA_COMMANDS`; and the README's python blocks, as one script.
    Raises RuntimeError naming the first job or command that fails.
    """
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import gen
    import jobs

    from pqikit import cli

    with open(os.path.join(ROOT, "README.md")) as fh:
        readme = fh.read()
    section = readme[readme.index("\n## Command line\n"):]
    commands = [line.split("#")[0] for line in readme_blocks(section, "sh")[0].splitlines()]
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for workload in WORKLOADS:
                for i, fx in enumerate(jobs.build(gen.generate(workload, 1), workload)):
                    try:
                        if fx.error is not None:
                            raise fx.error
                        jobs.KINDS[fx.job["kind"]][0](fx, jobs.Outcome())
                    except Exception as exc:
                        raise RuntimeError(f"{workload} job {i} ({fx.job['kind']}): "
                                           f"{type(exc).__name__}: {exc}") from exc
            with open("network.json", "w") as fh:
                fh.write(readme_blocks(readme, "json")[0])
            for command in [*commands, *EXTRA_COMMANDS]:
                argv = shlex.split(command)
                if not argv:
                    continue
                err = io.StringIO()
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                    status = cli.main(argv[1:])
                if status:
                    raise RuntimeError(f"{command.strip()!r} exits {status}: {err.getvalue()}")
            with contextlib.redirect_stdout(io.StringIO()):
                exec(compile("".join(readme_blocks(readme, "python")), "README.md", "exec"), {})
        finally:
            os.chdir(here)


def sources() -> dict[str, str]:
    """The text of each module of the package, by path."""
    found = {}
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name)) as fh:
                found[os.path.join(PACKAGE, name)] = fh.read()
    return found


def changed(before: dict[str, str]) -> int:
    """1, after naming on stderr each module that differs from ``before``
    (changed, added or removed), or 0 if none does."""
    after = sources()
    names = sorted(os.path.relpath(path, ROOT) for path in before.keys() | after.keys()
                   if before.get(path) != after.get(path))
    if names:
        print(f"error: {', '.join(names)} changed during the run, so its recorded "
              "offsets no longer map onto its lines; run again", file=sys.stderr)
    return int(bool(names))


def unrun(ran, exempt, texts):
    """For each module of the package: its path, text, tree, unreached lines
    and untaken arms, given the offsets ``ran``, a function giving a tree's
    exempt lines and the module ``texts`` by path, read before the run."""
    taken: dict[str, set] = {}  # positions of the instructions run, by file
    for code, offsets in ran.items():
        positions = list(code.co_positions())  # one per 2-byte code unit
        taken.setdefault(os.path.realpath(code.co_filename), set()).update(
            positions[offset // 2] for offset in offsets)
    for path, text in texts.items():
        source, tree = text.splitlines(), ast.parse(text)
        skip = exempt(tree)
        emitted = {p for code in code_objects(compile(text, path, "exec"))
                   for p in code.co_positions()}
        ran_here = taken.get(path, set())
        rel = os.path.relpath(path, ROOT)
        # an instruction's first line is the line co_lines gives it (None or
        # 0 for none)
        unreached = {p[0] for p in emitted if p[0]} - {p[0] for p in ran_here} - skip
        lines = [f"{rel}:{line}: {source[line - 1].strip()}" for line in sorted(unreached)]
        emitted, ran_here = by_line(emitted), by_line(ran_here)
        untaken = [f"{rel}:{arm.lineno}:{arm.col_offset}: "
                   f"{ast.get_source_segment(text, arm)}"
                   for arm in sorted(arms(tree), key=lambda a: (a.lineno, a.col_offset))
                   if (arm.lineno not in skip and entered(arm, emitted)
                       and not entered(arm, ran_here))]
        yield rel, source, tree, lines, untaken


def main(argv=None) -> int:
    os.chdir(ROOT)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    args = sys.argv[1:] if argv is None else argv
    package = os.path.relpath(PACKAGE, ROOT)
    texts = sources()
    if args == ["--system"]:
        try:
            _, ran = traced(run_system)
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        if changed(texts):
            return 1
        total = 0
        for rel, _, _, lines, untaken in unrun(
                ran, lambda tree: main_guard_lines(tree) | error_lines(tree), texts):
            if lines or untaken:
                print(f"{rel}: {len(lines)} line(s), {len(untaken)} arm(s)")
                print("".join(f"  {entry}\n" for entry in lines + untaken), end="")
                total += len(lines) + len(untaken)
        print(f"{total} line(s) and arm(s) of {package} outside raise and except "
              "that the system does not run")
        return 0
    import pytest
    status, ran = traced(lambda: pytest.main(
        ["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider", *args]))
    if status:
        return int(status)
    if changed(texts):
        return 1
    missed = untaken = length = code = settable = 0
    for _, source, tree, lines, arms_left in unrun(ran, main_guard_lines, texts):
        print("".join(f"{entry}\n" for entry in lines + arms_left), end="")
        missed += len(lines)
        untaken += len(arms_left)
        length += len(source)
        code += code_lines(source, tree)
        settable += settable_values(tree)
    print(f"{missed} unreached line(s) and {untaken} untaken arm(s) in {package}")
    print(f"{package}: {length} lines, {code} code lines, {settable} settable values")
    return 1 if missed or untaken else 0


if __name__ == "__main__":
    sys.exit(main())
