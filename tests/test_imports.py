"""The package runs on numpy alone: no scipy module on its import path.
And it raises only its own errors, so bad input is named, never a bare
Python exception.  Every small float it writes is on a ledger that says what
the number is relative to."""

import ast
import builtins
import collections
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


# Every float literal 0 < |v| < 0.1 in src/pqikit, by (module, innermost
# function or class, or the module-level name assigned), one line per
# occurrence in source order.  Each says what the number is relative to:
# eps, the size of the terms it bounds, a scale the input declares, or the
# time unit dt (the time-scaling tests cover those).  An absolute one names
# the ROADMAP item that will make it relative; that change edits its line.
ABSOLUTE = "absolute; ROADMAP item {} makes it relative"
LEDGER = {
    # the worked examples' checks against their pinned values, all of order 1
    ("cli.py", "_case_study_lti", 1e-6): (
        "mu against its pinned value 1",
        "rho against its pinned value -20/9",
        "nu against its pinned value -1/9"),
    ("cli.py", "_case_study_lti", 1e-9): (
        "transform entries against their pinned integers 1 to 5",
        "transformed numerator against its pinned coefficients 1 to 2",
        "transformed denominator against its pinned coefficients 1 to 2",
        "the pulled-back PQI against the passivity PQI, both of unit norm"),
    ("cli.py", "_case_study_lti", 0.02): (
        "nu against the paper's 0.9, printed to two digits",
        "rho against the paper's 2/3, printed to two digits"),
    ("cli.py", "_case_study_gradient_network", 1e-3): (
        "consensus at 0 of a network whose states start in [-20, 20]",),
    ("cli.py", "_case_study_duality", 1e-10): (
        "duality gap of objectives of order 1 (centres 1 and 3)",),
    ("cli.py", "_case_study_duality", 1e-5): (
        "prediction against a steady state of order 1; item 22 may tighten it",),
    ("lti.py", "STABILITY_MARGIN", 1e-9): ("a root's real part, of its |r|",),
    ("lti.py", "COMMON_ROOT_TOL", 1e-8): ("a root pair's distance, of the larger |root|",),
    ("lti.py", "_re_ratio_unbounded", 1e-3): (
        "a root near the axis: its real part, of its |z|",
        "a gap between roots along the axis, of the upper root's imaginary part"),
    ("lti.py", "_re_ratio_unbounded", 1e-9): (
        "a residue not real: its imaginary part, of its |r|",
        "a derivative of a as zero, of the same derivative of |a|"),
    ("lti.py", "_indices_from_mu", 1e-12): (
        "1 + 2*lam*mu vanishing: of its terms, near 1 where they cancel",),
    ("network.py", "check_relation", 1e-8): (
        "an output window, of the relation's largest |y| plus the sample's",),
    ("network.py", "IntegratorConfig", 1e-3): ("the default step floor dt: the time unit",),
    ("network.py", "IntegratorConfig", 1e-6): (
        "tol_conv on the state derivative, " + ABSOLUTE.format(28),),
    ("network.py", "SIM_RTOL", 1e-9): (
        "step error, of the largest |x| the run has reached",),
    ("network.py", "TIME_TIE", 0.01): ("a gap in time that is rounding, of dt",),
    ("network.py", "dormand_prince", 1e-10): (
        "error floor of the step factor: the error is already of its tolerance",),
    ("network.py", "transform_agent", 1e-12): ("a + b*D vanishing, of |a| + |b*D|",),
    ("network.py", "_ARMIJO", 1e-4): (
        "a line-search step's decrease, of its first-order decrease",),
    ("network.py", "_newton_step", 1e-20): ("CG residual squared, of |g|^2",),
    ("network.py", "_minimize_convex", 1e-12): (
        "residual guard's floor, of the largest nodal slope",),
    ("network.py", "at", 1e-6): (
        "residual guard, of the gradient's larger part; an exact step ends far below it",),
    ("network.py", "predict_and_verify", 0.01): (
        "the prediction's gap, " + ABSOLUTE.format(28),),
    ("pqi.py", "DISC_RTOL", 1e-12): ("the discriminant, of the squared coefficients",),
    ("pqi.py", "MEMBER_RTOL", 1e-9): ("membership, of |coeffs| |z|^2",),
    ("pqi.py", "contains", 1e-12): ("cone membership, of |w|^2 in ray coordinates",),
    ("pqi.py", "boundary_rays", 1e-30): ("a leading coefficient as zero, of |coeffs|",),
    ("pqi.py", "is_singular", 1e-12): ("|det|, of the row and column norm products",),
    ("relations.py", "DECREASE_RTOL", 1e-9): (
        "a decrease that is rounding, of an axis's range (plus SLOPE_EPS of its "
        "largest magnitude) or of a potential's largest |cell slope|",),
    ("transforms.py", "decompose", 0.01): ("a small a, of the largest entry",),
    ("transforms.py", "_reach", 1e-3): (
        "the reach bound's step floor, " + ABSOLUTE.format(25),),
    ("transforms.py", "verify_passivation", 1e-6): (
        "the storage step 1e-6*(1 + |x|), " + ABSOLUTE.format(25),
        "the violation tolerance, " + ABSOLUTE.format(25)),
}


def _small_floats(node, where=""):
    """(innermost function or class, or module-level name assigned, value)
    for each float constant 0 < |value| < 0.1 at or under node."""
    if (isinstance(node, ast.Constant) and isinstance(node.value, float)
            and 0.0 < abs(node.value) < 0.1):
        yield where, node.value
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        where = node.name
    for child in ast.iter_child_nodes(node):
        if isinstance(node, ast.Module) and isinstance(child, ast.Assign):
            # a, b = 1e-9, 1e-12 names each value by its own target
            target, value = child.targets[0], child.value
            pairs = (zip(target.elts, value.elts) if isinstance(target, ast.Tuple)
                     and isinstance(value, ast.Tuple) else [(target, value)])
            for name, v in pairs:
                yield from _small_floats(v, ast.unparse(name))
        else:
            yield from _small_floats(child, where)


def test_every_small_float_is_on_the_ledger():
    # an added literal is not listed, and a removed one is listed in vain
    found = collections.Counter()
    for path in sorted(glob.glob(os.path.join(SRC, "pqikit", "*.py"))):
        with open(path) as fh:
            tree = ast.parse(fh.read())
        found.update((os.path.basename(path), where, value)
                     for where, value in _small_floats(tree))
    assert dict(found) == {key: len(why) for key, why in LEDGER.items()}
