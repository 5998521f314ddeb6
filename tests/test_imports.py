"""The package runs on numpy alone: no scipy module on its import path.
And it raises only its own errors, so bad input is named, never a bare
Python exception."""

import ast
import builtins
import glob
import os
import subprocess
import sys

import pqikit

SRC = os.path.dirname(os.path.dirname(os.path.abspath(pqikit.__file__)))

# scipy blocked: any import of it, however deep, raises ImportError
WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None
import numpy as np
import pqikit, pqikit.cli, pqikit.systems
from pqikit import (IntegralFunction, PlanarRelation, is_maximal_monotone,
                    legendre, solve_ofp, solve_opp)
from pqikit.errors import NonConvexCertificate
from pqikit.systems import nonmonotone_demo_agent, quadratic_network

spec = quadratic_network()
opp, ofp = solve_opp(spec), solve_ofp(spec)
assert abs(opp.objective + ofp.objective) <= 1e-9
grid = np.linspace(-2.0, 2.0, 401)
F = IntegralFunction.from_function(lambda y: 0.5 * y * y, grid)
Fs = legendre(F, grid)
want = np.max(Fs.grid[:, None] * grid - F.values, axis=1)
assert np.max(np.abs(Fs.values - want)) <= 1e-12 * (1.0 + np.abs(want).max())
try:
    legendre(IntegralFunction.from_function(lambda y: 0.25 * y**4 - 0.5 * y**2, grid),
             grid)
except NonConvexCertificate:
    pass
else:
    raise AssertionError("the double well was conjugated")
assert is_maximal_monotone(PlanarRelation.from_param_curve(
    lambda s: s, lambda s: s**3 + s, (-3.0, 3.0)))
assert not is_maximal_monotone(nonmonotone_demo_agent().relation)
print("ok")
"""


def _run(code):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True, timeout=120).stdout


def test_runs_with_scipy_blocked():
    assert _run(WITHOUT_SCIPY).split() == ["ok"]


def test_import_loads_no_scipy_module():
    loaded = _run("import sys, pqikit, pqikit.cli, pqikit.systems\n"
                  "print(*sorted(m for m in sys.modules if m.startswith('scipy')))")
    assert loaded.split() == []


# the one foreign raise: argparse names the flag of a malformed list itself
FOREIGN_RAISES = {("cli.py", "_float_list", "argparse.ArgumentTypeError")}


def _raised(node, where=""):
    """(innermost enclosing function, raised class) for each raise under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Raise) and child.exc is not None:
            exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
            yield where, exc
        is_def = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
        yield from _raised(child, child.name if is_def else where)


def test_only_toolkit_errors_are_raised():
    # a raise of a builtin exception class (ValueError, TypeError, ...) or of
    # another module's class (a dotted name) escapes the ToolkitError family
    found = set()
    for path in sorted(glob.glob(os.path.join(SRC, "pqikit", "*.py"))):
        with open(path) as fh:
            tree = ast.parse(fh.read())
        for where, exc in _raised(tree):
            name = ast.unparse(exc)
            builtin = getattr(builtins, name, None)
            if isinstance(exc, ast.Attribute) or (
                    isinstance(builtin, type) and issubclass(builtin, BaseException)):
                found.add((os.path.basename(path), where, name))
    assert found - FOREIGN_RAISES == set()
