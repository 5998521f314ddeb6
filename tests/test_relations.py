"""Relation transport, integral functions, Legendre duals, shape checks."""

import csv
import math
import os
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pqikit
from pqikit import (
    PQI,
    IntegralFunction,
    PassivityIndices,
    PlanarRelation,
    SymmetricDoubleCone,
    ToolkitError,
    Transform2,
    compose_via_stages,
    decompose,
    integral_function,
    is_cursive,
    is_maximal_monotone,
    is_monotone,
    legendre,
    pullback,
    solution_set,
    transform_relation,
)
from pqikit.errors import (
    DegenerateRays,
    DimensionMismatch,
    InvalidSamples,
    InvalidSpec,
    MultiValued,
    NonConvexCertificate,
    NonFiniteValue,
    WrongRepresentation,
)
from pqikit.relations import (
    DECREASE_RTOL,
    OF_K,
    OF_K_INVERSE,
    SLOPE_EPS,
    TIE_RTOL,
    _convex_certificate,
    _trapezoid,
    _write_csv,
)
from pqikit.systems import (
    AGENT_REGISTRY,
    nonmonotone_demo_agent,
    odd_cubic_agent,
    pendulum_gradient_agent,
    quadratic_agent,
)
from pqikit.transforms import passivize

RAGGED = "cannot be read as floats: setting an array element with a sequence"
WORD = "cannot be read as floats: could not convert string to float: 'a'$"


def cubic_fold_curve(n=4001):
    """(2s - s^3, s^3 - s): non-monotone in both coordinates."""
    return PlanarRelation.from_param_curve(
        lambda s: 2.0 * s - s**3, lambda s: s**3 - s, (-3.0, 3.0), n)


def param_relation(u, y):
    return PlanarRelation(np.asarray(u, float), np.asarray(y, float),
                          sigma=np.arange(len(u), dtype=float))


def _line_near_the_float_range():
    """A certified line from 0 to within 1e-10 of the float range, whose
    slope c rises by 4e-10 of itself over its third of four cells, and a
    slope inside that dip's band, so legendre takes its window path."""
    x = np.linspace(0.0, 1e308, 5)
    c = np.finfo(float).max * (1.0 - 1.5e-10) / 1e308
    values = np.r_[0.0, np.cumsum(c * np.array([1.0, 1.0, 1.0 + 4e-10, 1.0]) * np.diff(x))]
    return IntegralFunction(x, values), c * (1.0 + 2e-10)


def _bowl():
    """The convex potential y²/2 on five samples of [-1, 1]."""
    return IntegralFunction.from_function(lambda y: 0.5 * y * y, np.linspace(-1.0, 1.0, 5))


def assert_csv_cells(path, columns):
    """Every data cell, read back with float(), is its source bit for bit."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    cells = np.array([[float(c) for c in row] for row in rows])
    want = np.column_stack(columns).astype(float)
    np.testing.assert_array_equal(cells.view(np.int64), want.view(np.int64))


class TestTransformRelation:
    def test_fold_curve_straightens_to_cubic(self):
        rel = cubic_fold_curve()
        out = transform_relation(rel, Transform2(1.0, 1.0, 1.0, 2.0))
        s = rel.sigma
        assert np.max(np.abs(out.u - s)) <= 1e-12
        assert np.max(np.abs(out.y - s**3)) <= 1e-12

    def test_identity_is_noop(self):
        rel = cubic_fold_curve()
        out = transform_relation(rel, Transform2.identity())
        np.testing.assert_array_equal(out.u, rel.u)
        np.testing.assert_array_equal(out.y, rel.y)

    def test_sinusoidal_curve_gains_linear_term(self):
        r1, r2 = 2.5, 0.1
        rel = pendulum_gradient_agent(r1, r2).relation
        out = transform_relation(rel, Transform2(1.0, r1, 0.0, 1.0))
        s = rel.sigma
        np.testing.assert_allclose(out.u, r1 * np.sin(s) + (r1 + r2) * s,
                                   atol=1e-12)
        np.testing.assert_allclose(out.y, s, atol=1e-15)


class TestComposeViaStages:
    def test_fold_curve_through_stages(self):
        rel = cubic_fold_curve()
        T = Transform2(1.0, 1.0, 1.0, 2.0)
        out = compose_via_stages(rel, decompose(T))
        s = rel.sigma
        assert np.max(np.abs(out.u - s)) <= 1e-10
        assert np.max(np.abs(out.y - s**3)) <= 1e-10

    def test_identity_decomposition(self):
        rel = cubic_fold_curve()
        out = compose_via_stages(rel, decompose(Transform2.identity()))
        np.testing.assert_allclose(out.points, rel.points, atol=1e-14)

    def test_point_list_goes_through_as_a_point_list(self):
        rel = PlanarRelation.from_points([0.0, 1.0, 2.0], [1.0, -1.0, 3.0])
        T = Transform2(1.0, 1.0, 1.0, 2.0)
        out = compose_via_stages(rel, decompose(T))
        assert out.sigma is None
        np.testing.assert_allclose(out.points, transform_relation(rel, T).points,
                                   atol=1e-14)

    def test_pure_feedback_on_cubic_inverse(self):
        rel = odd_cubic_agent().relation  # u = y^3 - y
        out = compose_via_stages(rel, decompose(Transform2(1.0, 1.0, 0.0, 1.0)))
        np.testing.assert_allclose(out.u, out.y**3, atol=1e-12)

    @given(st.tuples(*[st.floats(-5.0, 5.0) for _ in range(4)])
           .filter(lambda t: abs(t[0] * t[3] - t[1] * t[2]) > 1e-2)
           .map(lambda t: Transform2(*t)))
    @settings(max_examples=100, deadline=None)
    def test_agrees_with_direct_transport(self, T):
        rel = cubic_fold_curve(n=401)
        direct = transform_relation(rel, T)
        staged = compose_via_stages(rel, decompose(T))
        scale = np.abs(direct.points).max() + 1.0
        np.testing.assert_allclose(staged.points, direct.points,
                                   atol=1e-10 * scale)


def sorted_scanned_integral(rel, direction):
    """integral_function's general path alone: always sort, always scan ties.

    The (grid, values) it builds, or the MultiValued message it raises.
    """
    x, v = (rel.u, rel.y) if direction == OF_K else (rel.y, rel.u)
    if rel.sigma is not None:
        dx = np.diff(x)
        slack = TIE_RTOL * float(np.abs(x).max())
        if not (np.all(dx >= -slack) or np.all(dx <= slack)):
            return "curve abscissa is not monotone in the parameter"
    order = np.argsort(x, kind="stable")
    x, v = x[order], v[order]
    keep = np.concatenate(([True], np.diff(x) > TIE_RTOL * float(np.abs(x).max())))
    first = np.maximum.accumulate(np.where(keep, np.arange(len(x)), 0))
    vf = v[first]
    band = 1e-8 * (np.abs(v) + np.abs(vf) + float(np.abs(v).max()))
    fold = ~keep & (np.abs(v - vf) > band)
    if fold.any():
        i = int(np.argmax(fold))
        return f"relation folds near abscissa {x[i]}: values {vf[i]} and {v[i]}"
    gx, gv = x[keep], v[keep]
    if len(gx) < 2:
        return "relation reduces to a single abscissa"
    return gx, _trapezoid(gx, gv, 0.0)


@st.composite
def tied_samples(draw):
    """Abscissae with values, some repeated within TIE_RTOL of a sample (the
    value kept, nudged within the fold band, or moved into a fold), in
    ascending, descending or shuffled order."""
    n = draw(st.integers(2, 25))
    gaps = draw(st.lists(st.floats(1e-3, 10.0), min_size=n - 1, max_size=n - 1))
    x = draw(st.floats(-50.0, 50.0)) + np.concatenate(([0.0], np.cumsum(gaps)))
    v = np.array(draw(st.lists(st.floats(-50.0, 50.0), min_size=n, max_size=n)))
    ties = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                   st.sampled_from([0.0, 0.3, 0.9]),
                                   st.sampled_from([0.0, 1e-12, 1e-3])), max_size=4))
    scale = float(np.abs(x).max())
    for i, gap, nudge in ties:
        x = np.append(x, x[i] + gap * TIE_RTOL * scale)
        v = np.append(v, v[i] + nudge)
    order = np.argsort(x, kind="stable")
    x, v = x[order], v[order]
    arrangement = draw(st.sampled_from(["ascending", "descending", "shuffled"]))
    if arrangement == "descending":
        x, v = x[::-1], v[::-1]
    elif arrangement == "shuffled":
        perm = np.array(draw(st.permutations(range(len(x)))))
        x, v = x[perm], v[perm]
    return x, v


class TestIntegralFunction:
    @given(tied_samples(), st.sampled_from([OF_K, OF_K_INVERSE]), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_matches_sorted_scanned_path(self, samples, direction, curve):
        # skipping the sort and the tie scan where they are identities
        # changes no bit of the potential and no fold message
        x, v = samples
        u, y = (x, v) if direction == OF_K else (v, x)
        rel = PlanarRelation(u, y, np.arange(len(x), dtype=float) if curve else None)
        want = sorted_scanned_integral(rel, direction)
        if isinstance(want, str):
            with pytest.raises(MultiValued) as err:
                integral_function(rel, direction)
            assert str(err.value) == want
        else:
            F = integral_function(rel, direction)
            for got, ref in zip((F.grid, F.values), want):
                np.testing.assert_array_equal(got.view(np.int64), ref.view(np.int64))

    @pytest.mark.parametrize("direction", [OF_K, OF_K_INVERSE])
    def test_grid_is_not_the_relation_array(self, direction):
        rel = PlanarRelation.from_param_curve(lambda s: s, lambda s: s**3 + s,
                                              (-3.0, 3.0))
        u, y = rel.u.copy(), rel.y.copy()
        F = integral_function(rel, direction)
        F.grid[:] = 0.0
        np.testing.assert_array_equal(rel.u, u)
        np.testing.assert_array_equal(rel.y, y)

    def test_cubic_inverse_potential(self):
        rel = odd_cubic_agent().relation
        F = integral_function(rel, OF_K_INVERSE)
        y = F.grid
        want = 0.25 * y**4 - 0.5 * y**2
        diff = F.values - want
        assert np.max(diff) - np.min(diff) <= 1e-4  # equal up to a constant
        assert not F.convexity_certificate

    def test_pure_cubic_potential_is_convex(self):
        rel = PlanarRelation.from_param_curve(
            lambda s: s**3, lambda s: s, (-3.0, 3.0), 4001
        )
        F = integral_function(rel, OF_K_INVERSE)
        want = 0.25 * F.grid**4
        diff = F.values - want
        assert np.max(diff) - np.min(diff) <= 1e-4
        assert F.convexity_certificate

    def test_transformed_sinusoid_potential(self):
        r1, r2 = 2.5, 0.1
        rel = pendulum_gradient_agent(r1, r2).relation
        out = transform_relation(rel, Transform2(1.0, r1, 0.0, 1.0))
        F = integral_function(out, OF_K_INVERSE)
        y = F.grid
        want = 0.5 * (r1 + r2) * y**2 - r1 * np.cos(y)
        diff = F.values - want
        assert np.max(diff) - np.min(diff) <= 1e-2
        assert F.convexity_certificate

    @pytest.mark.parametrize("n", [401, 4001, 40001])
    @pytest.mark.parametrize("span", [1.0, 100.0])
    def test_line_on_uneven_grid_certified(self, n, span):
        # a constant relation integrates to a line whose cell slopes differ
        # only by their rounding, which a narrow cell magnifies past the
        # 1e-9 band; a concave bend of the same line is still refused
        for seed in range(20):
            u = np.sort(np.random.default_rng(seed).uniform(-span, span, n))
            F = integral_function(PlanarRelation(u, np.full(n, 1.5)))
            assert F.convexity_certificate, seed
            bent = IntegralFunction(u, F.values - 1e-3 * u * u)
            assert not bent.convexity_certificate, seed
        legendre(F, np.linspace(0.5, 2.5, n))

    def test_fold_rejected(self):
        rel = cubic_fold_curve()
        with pytest.raises(MultiValued):
            integral_function(rel, OF_K)  # u = 2s - s^3 folds

    def test_anchored_at_left_end(self):
        rel = odd_cubic_agent().relation
        F = integral_function(rel, OF_K_INVERSE)
        assert F.values[0] == 0.0

    def test_output_feedback_adds_half_quadratic(self):
        rel = odd_cubic_agent().relation
        delta = 1.0
        base = integral_function(rel, OF_K_INVERSE)
        shifted = transform_relation(rel, Transform2(1.0, delta, 0.0, 1.0))
        F = integral_function(shifted, OF_K_INVERSE)
        want = base(F.grid) + 0.5 * delta * F.grid**2
        diff = F.values - want
        assert np.max(diff) - np.min(diff) <= 1e-6
        assert F.convexity_certificate and not base.convexity_certificate

    def test_repeated_abscissae_merge(self):
        # from_points drops the exact duplicate; 1 + 1e-10 is a tie in value
        rel = PlanarRelation.from_points([0.0, 1.0, 1.0, 1.0, 2.0],
                                         [0.0, 1.0, 1.0, 1.0 + 1e-10, 4.0])
        F = integral_function(rel, OF_K)
        np.testing.assert_array_equal(F.grid, [0.0, 1.0, 2.0])
        np.testing.assert_array_equal(F.values, [0.0, 0.5, 3.0])
        near = PlanarRelation.from_points([0.0, 1.0, 1.0 + 1e-13, 2.0],
                                          [0.0, 1.0, 1.0, 2.0])
        np.testing.assert_array_equal(integral_function(near, OF_K).grid,
                                      [0.0, 1.0, 2.0])

    def test_chained_near_ties_merge_into_first(self):
        # successive gaps of 0.9 TIE_RTOL*scale (the scale is max|u| = 2): one
        # run, though its ends lie 1.8 TIE_RTOL*scale apart
        t = 1e-12 * 3.0
        rel = PlanarRelation.from_points([0.0, 1.0, 1.0 + 0.6 * t, 1.0 + 1.2 * t, 2.0],
                                         [0.0, 1.0, 1.0, 1.0, 2.0])
        np.testing.assert_array_equal(integral_function(rel, OF_K).grid,
                                      [0.0, 1.0, 2.0])

    def test_curve_drifting_back_past_the_tie_gap_folds(self):
        # the abscissa steps back 0.9 of the tie gap (TIE_RTOL of max|u| = 2)
        # twice: each step is a tie, the two a turn back past the gap
        def curve(back):
            t = back * 1e-12 * 2.0
            return param_relation([0.0, 1.0, 1.0 - t, 1.0 - 2.0 * t, 2.0],
                                  [0.0, 1.0, 1.0, 1.0, 2.0])

        np.testing.assert_array_equal(integral_function(curve(0.45), OF_K).grid,
                                      [0.0, 1.0 - 0.9e-12 * 2.0, 2.0])
        with pytest.raises(MultiValued, match="^curve abscissa is not monotone in the parameter$"):
            integral_function(curve(0.9), OF_K)

    def test_first_tie_fold_names_abscissa_and_values(self):
        rel = PlanarRelation.from_points([0.0, 1.0, 1.0, 2.0, 2.0],
                                         [0.0, 1.0, 1.5, 2.0, 5.0])
        with pytest.raises(MultiValued,
                           match=r"^relation folds near abscissa 1\.0: "
                                 r"values 1\.0 and 1\.5$"):
            integral_function(rel, OF_K)

    def test_tie_run_compared_with_its_first_sample(self):
        # each step is within the 1e-8 value band, the run as a whole is not
        rel = PlanarRelation.from_points([0.0, 1.0, 1.0, 1.0, 2.0],
                                         [0.0, 1.0, 1.0 + 3e-8, 1.0 + 6e-8, 2.0])
        with pytest.raises(MultiValued, match=r"values 1\.0 and 1\.00000006$"):
            integral_function(rel, OF_K)


class TestLegendre:
    def test_half_square_is_self_dual(self):
        g = np.linspace(-3.0, 3.0, 2001)
        F = IntegralFunction.from_function(lambda u: 0.5 * u * u, g)
        Fs = legendre(F, g)
        np.testing.assert_allclose(Fs.values, 0.5 * g * g, atol=1e-6)

    def test_quartic_conjugate(self):
        F = IntegralFunction.from_function(
            lambda u: 0.25 * u**4, np.linspace(-3.0, 3.0, 4001)
        )
        ys = np.array([-8.0, -1.0, 0.0, 1.0, 8.0])
        Fs = legendre(F, ys)
        want = 0.75 * np.abs(ys) ** (4.0 / 3.0)
        np.testing.assert_allclose(Fs.values, want, atol=2e-6)

    def test_quadratic_gain_conjugate(self):
        gain = 2.5
        g = np.linspace(-10.0, 10.0, 4001)
        F = IntegralFunction.from_function(lambda z: 0.5 * gain * z * z, g)
        mus = np.linspace(-5.0, 5.0, 101)
        Fs = legendre(F, mus)
        np.testing.assert_allclose(Fs.values, mus**2 / (2.0 * gain), atol=1e-5)

    @given(st.floats(0.2, 3.0), st.floats(-2.0, 2.0))
    @settings(max_examples=50, deadline=None)
    def test_double_transform_recovers_convex_function(self, curv, lin):
        g = np.linspace(-4.0, 4.0, 801)
        h = g[1] - g[0]
        F = IntegralFunction.from_function(
            lambda u: 0.5 * curv * u * u + lin * u, g
        )
        back = legendre(legendre(F, slope_grid(F)), g)
        interior = (np.abs(g) <= 3.0)
        err = np.abs(back.values - F.values)[interior]
        assert np.max(err) <= 5.0 * h * h * max(curv, 1.0)


    def test_convex_input_reads_its_slopes_as_they_are(self):
        # cell slopes that never decrease are the minorant's own slopes, so
        # the conjugate is one binary search over them, bit for bit
        rng = np.random.default_rng(7)
        x = np.cumsum(rng.uniform(0.01, 0.1, 3001)) - 75.0
        F = IntegralFunction.from_function(lambda y: np.exp(0.05 * y) + y * y, x)
        slopes = np.diff(F.values) / np.diff(F.grid)
        assert np.all(np.diff(slopes) > 0.0)
        ys = np.sort(rng.uniform(slopes[0] - 5.0, slopes[-1] + 5.0, 500))
        j = np.searchsorted(slopes, ys)
        np.testing.assert_array_equal(legendre(F, ys).values, ys * x[j] - F.values[j])
        Fs = legendre(F, slope_grid(F))
        j = np.searchsorted(slopes, Fs.grid)
        np.testing.assert_array_equal(Fs.values, Fs.grid * x[j] - F.values[j])


def slope_grid(F):
    """len(F.grid) dual points from the first cell slope of F to the largest."""
    slopes = np.diff(F.values) / np.diff(F.grid)
    return np.linspace(slopes[0], slopes.max(), len(F.grid))


BOUNDED_LEGENDRE = """
import resource, sys
import numpy as np
from pqikit import PlanarRelation, integral_function, legendre
_, hard = resource.getrlimit(resource.RLIMIT_AS)
cap = 512 * 2**20
resource.setrlimit(resource.RLIMIT_AS,
                   (cap if hard == resource.RLIM_INFINITY else min(cap, hard), hard))
u = np.sort(np.random.default_rng(0).uniform(-1.0, 1.0, 8001))
F = integral_function(PlanarRelation(u, np.full(8001, 1.5)))
slopes = np.diff(F.values) / np.diff(F.grid)
sys.stdout.buffer.write(legendre(F, np.linspace(slopes[0], slopes.max(), 8001)).values.tobytes())
"""


def brute_force_conjugate(F, ys):
    """max_i (y*x_i - F(x_i)) by direct enumeration."""
    return np.max(ys[:, None] * F.grid[None, :] - F.values[None, :], axis=1)


def assert_conjugate_exact(F, ys):
    Fs = legendre(F, ys)
    want = brute_force_conjugate(F, Fs.grid)
    scale = (np.abs(Fs.grid).max() * np.abs(F.grid).max()
             + np.abs(F.values).max() + 1.0)
    assert np.max(np.abs(Fs.values - want)) <= 1e-12 * scale
    return Fs


def lower_hull(x, v):
    """Vertices of the greatest convex minorant, by Andrew's monotone chain.

    Exact on integer samples: collinear samples are dropped."""
    hull = []
    for i in range(len(x)):
        while len(hull) >= 2 and ((v[hull[-1]] - v[hull[-2]]) * (x[i] - x[hull[-2]])
                                  >= (v[i] - v[hull[-2]]) * (x[hull[-1]] - x[hull[-2]])):
            hull.pop()
        hull.append(i)
    return np.array(hull)


def integer_walk_function(seed, n):
    """Integer abscissae and values: slopes and collinear runs are exact."""
    rng = np.random.default_rng(seed)
    grid = np.cumsum(rng.integers(1, 4, n)).astype(float)
    return IntegralFunction(grid, np.cumsum(rng.integers(-3, 4, n)).astype(float))


def convex_integer_walk_function(seed, n):
    """Integer abscissae, sorted integer cell slopes: convex, with collinear runs."""
    rng = np.random.default_rng(seed)
    grid = np.cumsum(rng.integers(1, 4, n)).astype(float)
    slopes = np.sort(rng.integers(-20, 21, n - 1)).astype(float)
    return IntegralFunction(grid, np.r_[0.0, np.cumsum(slopes * np.diff(grid))])


def random_walk_function(seed, n):
    rng = np.random.default_rng(seed)
    grid = np.cumsum(rng.uniform(0.01, 1.0, n)) - 0.5 * n
    return IntegralFunction(grid, np.cumsum(rng.normal(size=n)))


def assert_refused(F, ys):
    """An uncertified F has no conjugate: legendre raises NonConvexCertificate."""
    assert not F.convexity_certificate
    with pytest.raises(NonConvexCertificate, match="convexity certificate$"):
        legendre(F, ys)


class TestLegendreAgainstBruteForce:
    """The conjugate of a certified sampled F, against direct enumeration; a
    non-convex F is refused."""

    def test_double_well(self):
        F = IntegralFunction.from_function(lambda y: 0.25 * y**4 - 0.5 * y**2,
                                           np.linspace(-2.0, 2.0, 4001))
        assert_refused(F, np.linspace(-20.0, 20.0, 801))

    @pytest.mark.parametrize("seed, n", [(0, 3), (1, 17), (2, 400), (3, 3000)])
    def test_seeded_random_walks(self, seed, n):
        # a walk is certified exactly when every sample is a minorant vertex;
        # of these, only the three samples of seed 0 are
        F = random_walk_function(seed, n)
        convex = len(lower_hull(F.grid, F.values)) == n
        assert F.convexity_certificate == convex == (n == 3)
        lo, hi = np.diff(F.values).min(), np.diff(F.values).max()
        wide = np.linspace(-2.0 * hi + lo, 2.0 * hi - lo, 501)
        if convex:
            assert_conjugate_exact(F, slope_grid(F))
            assert_conjugate_exact(F, wide)
        else:
            assert_refused(F, wide)

    @pytest.mark.parametrize("seed", range(4))
    def test_dual_points_on_minorant_slopes(self, seed):
        F = integer_walk_function(seed, 300)
        h = lower_hull(F.grid, F.values)
        assert_refused(F, np.diff(F.values[h]) / np.diff(F.grid[h]))

    def test_minorant_with_collinear_runs(self):
        # |x| on the integers -10..10 with two samples lifted off it
        x = np.arange(-10.0, 11.0)
        v = np.abs(x)
        v[[3, 15]] += (2.0, 1.0)
        F = IntegralFunction(x, v)
        assert_refused(F, np.array([-3.0, -1.0, -0.5, 0.0, 0.5, 1.0, 3.0]))

    @pytest.mark.parametrize("seed", range(4))
    def test_slope_grid_ends_nonconvex(self, seed):
        for F in (integer_walk_function(seed, 500), random_walk_function(seed, 500)):
            assert_refused(F, slope_grid(F))

    @pytest.mark.parametrize("seed", range(4))
    def test_convex_integer_walk_at_minorant_slopes(self, seed):
        # at a minorant slope every sample of that minorant edge maximizes,
        # the ends of its collinear run included; integers keep it all exact
        F = convex_integer_walk_function(seed, 300)
        assert F.convexity_certificate
        h = lower_hull(F.grid, F.values)
        assert len(h) < 100  # 300 samples, at most 41 distinct slopes
        edges = np.diff(F.values[h]) / np.diff(F.grid[h])
        mids = 0.5 * (edges[1:] + edges[:-1])
        for ys in (edges, mids, np.sort(np.r_[edges, mids])):
            Fs = assert_conjugate_exact(F, ys)
            np.testing.assert_array_equal(Fs.values, brute_force_conjugate(F, ys))

    def test_certified_kink(self):
        # |x| with 1e-12 noise in the values: the cell slopes dip about a
        # thousand times, each dip inside the certificate's band, so past
        # the first sample whose running maximum slope reaches y a later
        # sample can still gain
        rng = np.random.default_rng(5)
        x = np.linspace(-10.0, 10.0, 2001)
        F = IntegralFunction(x, np.abs(x) + 1e-12 * rng.uniform(-1.0, 1.0, len(x)))
        slopes = np.diff(F.values) / np.diff(x)
        assert F.convexity_certificate
        assert 800 < np.count_nonzero(np.diff(slopes) < 0.0) < 1200
        # a grid from the first cell slope to the largest ends on the arms'
        # slope bands
        Fs = assert_conjugate_exact(F, slope_grid(F))
        np.testing.assert_array_equal(Fs.values, brute_force_conjugate(F, Fs.grid))
        # every cell slope, and points off the two bands
        ys = np.unique(np.r_[slopes, np.linspace(-3.0, 3.0, 601)])
        Fs = assert_conjugate_exact(F, ys)
        np.testing.assert_array_equal(Fs.values, brute_force_conjugate(F, ys))

    def test_noisy_line(self):
        # a line with 1e-12 noise: its cell slopes spread 1e-10 to 1e-9,
        # inside the certificate's band, so it is conjugated as a line
        rng = np.random.default_rng(6)
        x = np.linspace(-10.0, 10.0, 4001)
        F = IntegralFunction(x, 1.5 * x + 1e-12 * rng.uniform(-1.0, 1.0, len(x)))
        slopes = np.diff(F.values) / np.diff(x)
        assert F.convexity_certificate and 1e-10 < np.ptp(slopes) < 1e-9
        Fs = assert_conjugate_exact(F, np.linspace(0.5, 2.5, len(x)))
        np.testing.assert_array_equal(Fs.values, brute_force_conjugate(F, Fs.grid))

    def test_slow_drift_loses_the_certificate(self):
        # cell slopes that fall by half the band a cell over 600 cells (the
        # band is DECREASE_RTOL of the largest slope, 2, plus rounding): no
        # step between neighbours leaves the band, the whole fall does
        k = np.arange(1001)
        rise = (np.minimum(k, 200) + np.maximum(k - 800, 0)) / 200.0
        fall = 1e-9 * np.clip(k - 200, 0, 600)
        x = np.arange(1002.0)
        F = IntegralFunction(x, np.r_[0.0, np.cumsum(rise - fall)])
        slopes = np.diff(F.values)
        assert np.diff(slopes).min() >= -DECREASE_RTOL * np.abs(slopes).max()
        assert not F.convexity_certificate
        assert IntegralFunction(x, np.r_[0.0, np.cumsum(rise)]).convexity_certificate

    def test_narrow_cell_widens_only_its_own_band(self):
        # a cell of width 1e-9 rounds its slope by about 5e-6; a dip of 1e-6
        # between two unit cells far from it is past their own rounding
        x = np.array([0.0, 1e-9, 1.0, 2.0, 3.0])
        for dip, certified in ((1e-6, False), (0.0, True)):
            slopes = np.array([1.0, 1.0, 2.0, 2.0 - dip])
            F = IntegralFunction(x, np.r_[0.0, np.cumsum(slopes * np.diff(x))])
            assert F.convexity_certificate == certified

    def test_certificate_read_off_the_samples(self):
        x = np.linspace(-1.0, 1.0, 5)
        assert IntegralFunction(x, x * x).convexity_certificate
        assert not IntegralFunction(x, -x * x).convexity_certificate
        assert not IntegralFunction(x, np.cos(3.0 * x)).convexity_certificate
        # a jump over a subnormal step, whose slope overflows, is refused as
        # one over a normal step is
        for step in (5e-324, 1e-300):
            F = IntegralFunction([-1.0, 0.0, step, 1.0], [1.0, 0.0, 1e-3, 1.0])
            assert not F.convexity_certificate, step
        with pytest.raises(TypeError):
            IntegralFunction(x, -x * x, True)

    def test_two_points(self):
        F = IntegralFunction(np.array([-1.0, 2.0]), np.array([3.0, -1.5]))
        Fs = assert_conjugate_exact(F, np.linspace(-5.0, 5.0, 11))
        np.testing.assert_array_equal(Fs.values, np.maximum(
            -Fs.grid - 3.0, 2.0 * Fs.grid + 1.5))

    def test_samples_given_as_lists(self):
        F = IntegralFunction([-1, 2], [3, -1.5])
        assert F.grid.dtype == F.values.dtype == float
        np.testing.assert_array_equal(legendre(F, [-2, 1]).values, [-1.0, 3.5])

    def test_one_point(self):
        # no slope: the one sample maximizes at every dual point
        F = IntegralFunction(np.array([2.0]), np.array([3.0]))
        Fs = assert_conjugate_exact(F, np.array([-1.0, 0.0, 2.0]))
        assert Fs.values.tolist() == [-5.0, -3.0, 1.0]

    def test_affine(self):
        F = IntegralFunction.from_function(lambda y: 3.0 * y + 1.0,
                                           np.linspace(-2.0, 2.0, 4001))
        assert_conjugate_exact(F, np.linspace(-10.0, 10.0, 201))

    def test_overlapping_windows_in_bounded_memory(self):
        # the constant relation's 8001-sample line on an uneven grid: at its
        # slope grid the maximizer windows sum to about 33 million samples,
        # 265 MB as one index array; a process capped at 512 MiB of address
        # space must still conjugate it, to the brute-force maxima bit for bit
        child = subprocess.run(
            [sys.executable, "-c", BOUNDED_LEGENDRE],
            env=dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(
                pqikit.__file__)), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                MKL_NUM_THREADS="1"),
            capture_output=True, timeout=120)
        assert child.returncode == 0, child.stderr.decode()[-400:]
        u = np.sort(np.random.default_rng(0).uniform(-1.0, 1.0, 8001))
        F = integral_function(PlanarRelation(u, np.full(8001, 1.5)))
        ys = slope_grid(F)
        want = np.concatenate([brute_force_conjugate(F, part)
                               for part in np.array_split(ys, 16)])
        np.testing.assert_array_equal(np.frombuffer(child.stdout), want)


def concatenated_trapezoid(x, v, first):
    """_trapezoid as one expression: the running sum concatenated behind ``first``."""
    return np.concatenate(
        ([first], first + np.cumsum(0.5 * np.diff(x) * (v[:-1] + v[1:]))))


def accumulated_legendre(F, ys):
    """legendre's general path alone: both running extrema always taken."""
    x, v = F.grid, F.values
    slopes = np.diff(v) / np.diff(x)
    lo = np.searchsorted(np.maximum.accumulate(slopes), ys)
    vals = ys * x[lo] - v[lo]
    falling = np.minimum.accumulate(np.r_[slopes, np.inf][::-1])[::-1]
    w = np.flatnonzero(falling[lo] < ys)
    lo, width = lo[w], np.searchsorted(falling, ys[w]) - lo[w] + 1
    end = np.cumsum(width)
    cuts = np.searchsorted(end, np.arange(2**20, end[-1:].sum(), 2**20)) + 1
    for b in map(slice, np.r_[0, cuts], np.r_[cuts, len(w)]):
        start = np.cumsum(width[b]) - width[b]
        j = np.arange(width[b].sum()) - np.repeat(start - lo[b], width[b])
        vals[w[b]] = np.maximum.reduceat(np.repeat(ys[w[b]], width[b]) * x[j] - v[j], start)
    return vals


def assert_same_bits(got, want):
    np.testing.assert_array_equal(np.asarray(got).view(np.int64),
                                  np.asarray(want).view(np.int64))


def assert_conjugate_of_samples(F, ys):
    """legendre's values are those of its general path bit for bit, and its
    certificate by construction is the one its samples earn."""
    Fs = legendre(F, ys)
    assert_same_bits(Fs.values, accumulated_legendre(F, ys))
    assert Fs.convexity_certificate == _convex_certificate(np.diff(ys), Fs.values)


def dual_points(F):
    """Zero, every cell slope and a grid past the slope range, ascending, once
    with +0.0 and once with -0.0."""
    slopes = np.diff(F.values) / np.diff(F.grid)
    ys = np.unique(np.r_[0.0, slopes, np.linspace(slopes.min() - 1.0,
                                                   slopes.max() + 1.0, 41)])
    return [np.where(ys == 0.0, zero, ys) for zero in (0.0, -0.0)]


def noisy(values, seed):
    return values + 1e-12 * np.random.default_rng(seed).uniform(-1.0, 1.0, len(values))


SIGNED_ZERO_GRID = np.array([-2.0, -1.0, -0.0, 1.0, 2.0])
# (F, whether its cell slopes never decrease)
SKIPPED_PASS_CASES = {
    "rising": (IntegralFunction.from_function(
        lambda y: np.exp(0.3 * y) + y * y, np.linspace(-3.0, 3.0, 61)), True),
    "flat": (IntegralFunction(np.arange(-5.0, 6.0), 2.0 * np.arange(-5.0, 6.0)), True),
    "signed-zeros": (IntegralFunction(SIGNED_ZERO_GRID,
                                      np.array([0.0, -0.0, 0.0, -0.0, 0.0])), True),
    "signed-zero-slope": (IntegralFunction(SIGNED_ZERO_GRID,
                                           np.array([1.0, -0.0, -0.0, 0.0, 1.0])), True),
    "dipping-line": (IntegralFunction(np.linspace(-10.0, 10.0, 401),
                                      noisy(1.5 * np.linspace(-10.0, 10.0, 401), 6)), False),
    "dipping-kink": (IntegralFunction(np.linspace(-10.0, 10.0, 401),
                                      noisy(np.abs(np.linspace(-10.0, 10.0, 401)), 5)), False),
}


class TestSkippedPasses:
    """Passes skipped where they are identities change no bit."""

    @given(st.lists(st.tuples(st.floats(allow_nan=False), st.floats(allow_nan=False)),
                    min_size=1, max_size=30),
           st.floats(allow_nan=False, allow_infinity=False))
    @example([(-0.0, -0.0), (0.0, -0.0), (1.0, 0.0)], -0.0)
    @example([(0.0, 1e308), (2.0, 1e308), (4.0, -1e308)], 1e308)
    @example([(-1e308, 1.0), (1e308, 1.0), (1.5e308, np.inf)], 0.0)
    @settings(max_examples=300, deadline=None)
    def test_trapezoid_matches_concatenated_form(self, samples, first):
        x, v = np.array(samples).T
        # overflow to inf, and inf - inf, happen in both forms alike
        with np.errstate(over="ignore", invalid="ignore"):
            want = concatenated_trapezoid(x, v, first)
            assert_same_bits(_trapezoid(x, v, first), want)
            assert_same_bits(_trapezoid(x, v, first, np.diff(x)), want)

    @pytest.mark.parametrize("case", SKIPPED_PASS_CASES)
    def test_legendre_matches_accumulated_path(self, case):
        F, rising = SKIPPED_PASS_CASES[case]
        slopes = np.diff(F.values) / np.diff(F.grid)
        assert F.convexity_certificate
        assert bool(np.all(slopes[1:] >= slopes[:-1])) == rising
        for ys in dual_points(F):
            assert_conjugate_of_samples(F, ys)

    @given(st.lists(st.tuples(st.floats(0.05, 3.0),
                              st.sampled_from([-1.0, -0.0, 0.0, 0.5]) | st.floats(-5.0, 5.0)),
                    min_size=1, max_size=20),
           st.sampled_from([0.0, 1e-13, 1e-12]), st.integers(0, 2**16))
    @settings(max_examples=200, deadline=None)
    # the conjugate's cell from slope 0.0 to -5e-324 is subnormal, so its
    # certificate's rounding bound overflows
    @example(cells=[(1.5, -5e-324)], noise=0.0, seed=0)
    def test_legendre_matches_accumulated_path_on_drawn_slopes(self, cells, noise, seed):
        # sorted cell slopes, ties and signed zeros among them, under noise
        # small enough that the certificate may still hold across the dips
        widths, slopes = (np.array(c) for c in zip(*cells))
        slopes = np.sort(slopes)
        x = np.r_[0.0, np.cumsum(widths)] - 1.0
        v = np.r_[0.0, np.cumsum(slopes * widths)]
        F = IntegralFunction(x, v + noise * np.random.default_rng(seed).uniform(
            -1.0, 1.0, len(v)))
        if F.convexity_certificate:
            for ys in dual_points(F):
                assert_conjugate_of_samples(F, ys)

    @pytest.mark.parametrize("ys, shape", [([[0.1, 0.2]], "(1, 2)"),
                                           (np.zeros((1, 1, 1)), "(1, 1, 1)"),
                                           (np.zeros((2, 0)), "(2, 0)")])
    def test_legendre_refuses_a_dual_grid_not_1d(self, ys, shape):
        with pytest.raises(DimensionMismatch) as err:
            legendre(_bowl(), ys)
        assert str(err.value) == f"legendre: dual grid must be 1-D, not of shape {shape}"

    def test_legendre_reads_a_number_as_one_dual_point(self):
        # every vector input reads a number as a one-entry vector
        assert_same_bits(legendre(_bowl(), 0.5).values, legendre(_bowl(), [0.5]).values)


class TestSamplesMadeOnce:
    """A map's output is kept as the map gave it, and legendre certifies
    its result by construction, holding few arrays of the grid's size."""

    def test_identity_map_keeps_the_parameter(self):
        for agent in (pendulum_gradient_agent(), quadratic_agent(1.0), odd_cubic_agent()):
            assert np.shares_memory(agent.relation.y, agent.relation.sigma)
        grid = np.linspace(-1.0, 1.0, 5)
        values = grid * grid
        assert IntegralFunction.from_function(lambda y: values, grid).values is values

    def test_one_number_stands_for_every_sample(self):
        rel = PlanarRelation.from_param_curve(lambda s: -0.0, lambda s: s, (0.0, 1.0), 5)
        assert_same_bits(rel.u, np.full(5, -0.0))
        assert not np.shares_memory(rel.u, rel.sigma)
        F = IntegralFunction.from_function(lambda y: [2.5], np.linspace(0.0, 1.0, 3))
        assert F.values.tolist() == [2.5] * 3 and F.convexity_certificate

    def test_legendre_peak_memory(self):
        # the duality experiment's potential at its default grid: the result
        # and at most four more arrays of the grid's size at any one time
        grid = np.linspace(-5.0, 5.0, 200_001)
        F = IntegralFunction.from_function(lambda y: 0.5 * (y - 1.0) ** 2, grid)
        tracemalloc.start()
        try:
            Fs = legendre(F, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert Fs.convexity_certificate
        assert peak <= 5 * grid.nbytes, peak / grid.nbytes

    def test_slope_past_the_float_range_is_uncertified(self):
        # a one-sample potential's conjugate is a line, but over a subnormal
        # cell its rounded values rise by an ulp of 8: a cell slope past the
        # float range, which the samples do not certify either
        Fs = legendre(IntegralFunction([1.7e308], [-8.0]), [5e-324, 1e-323])
        assert np.diff(Fs.values)[0] > 0.0
        assert not Fs.convexity_certificate
        assert not _convex_certificate(np.diff(Fs.grid), Fs.values)


class TestShapeChecks:
    def test_cubic_curve_monotone(self):
        rel = PlanarRelation.from_param_curve(
            lambda s: s, lambda s: s**3, (-3.0, 3.0), 2001
        )
        assert is_monotone(rel)
        assert is_cursive(rel).strict

    def test_shifted_dip_stays_a_dip(self):
        # a fall of 1e-6 in y, against a band of 2e-9 of its range 2, with y
        # shifted by 1e4 or not
        for shift in (0.0, 1e4):
            rel = PlanarRelation([0.0, 1.0, 2.0, 3.0],
                                 np.array([0.0, 1.0, 1.0 - 1e-6, 2.0]) + shift)
            assert not is_monotone(rel) and not is_monotone(rel.inverse()), shift

    def test_fold_curve_not_monotone(self):
        rel = cubic_fold_curve()
        assert not is_monotone(rel)
        assert not is_monotone(rel.inverse())

    def test_single_point_monotone(self):
        assert is_monotone(PlanarRelation.from_points([1.0], [2.0]))

    def test_no_samples_monotone(self):
        assert is_monotone(PlanarRelation([], []))

    def test_samples_given_as_lists(self):
        rel = PlanarRelation([0.0, 1.0, 2.0], [0, 1, 3], [0, 1, 2])
        assert rel.u.dtype == rel.y.dtype == rel.sigma.dtype == float
        assert is_monotone(rel) and is_cursive(rel).strict
        assert not is_monotone(PlanarRelation([0.0, 1.0, 2.0], [0.0, 3.0, 1.0]))

    def test_sinusoidal_curve_is_not_decided(self):
        # u = r1*sin(y) + r2*y turns back in u: not a chain, so not decided,
        # though it is unbroken and unbounded; its passivized transform is
        rel = pendulum_gradient_agent().relation
        report = is_cursive(rel)
        assert report.continuous and report.diverges and not report.chain
        assert report.notes == ("not a chain: the curve turns back or stands still at "
                                "sample 0, (u, y) = (-5.86278, -40)",)
        assert is_cursive(transform_relation(rel, Transform2(1.0, 2.5, 0.0, 1.0))).cursive

    def test_fold_curve_is_not_a_chain(self):
        report = is_cursive(cubic_fold_curve())
        assert report.continuous and report.diverges and not report.chain
        assert not report.cursive

    def test_constant_curve_not_cursive(self):
        rel = PlanarRelation.from_param_curve(
            lambda s: 0.0 * s, lambda s: 0.0 * s, (-1.0, 1.0), 501
        )
        report = is_cursive(rel)
        assert not report.cursive
        assert not report.diverges

    def test_many_coincident_samples_stay_fast(self):
        # 40 001 equal points: the first step stands still
        n = 40001
        rel = PlanarRelation(np.full(n, 2.0), np.full(n, -1.0),
                             sigma=np.arange(float(n)))
        start = time.perf_counter()
        report = is_cursive(rel)
        assert time.perf_counter() - start <= 0.5
        assert not report.chain

    def test_many_coincident_samples_off_a_chain_stay_fast(self):
        # the same repeats with one sample off them
        n = 40001
        u = np.full(n, 2.0)
        u[n // 2] = 3.0
        rel = PlanarRelation(u, np.full(n, -1.0), sigma=np.arange(float(n)))
        start = time.perf_counter()
        report = is_cursive(rel)
        assert time.perf_counter() - start <= 0.5
        assert not report.chain

    def test_near_coincident_cluster_stays_fast(self):
        # 40 001 distinct points within 1e-9 of one point, in no order
        n = 40001
        jitter = np.random.default_rng(0).normal(size=(n, 2))
        pts = np.array([2.0, -1.0]) + 1e-9 * jitter
        rel = PlanarRelation(pts[:, 0].copy(), pts[:, 1].copy(),
                             sigma=np.arange(float(n)))
        start = time.perf_counter()
        report = is_cursive(rel)
        assert time.perf_counter() - start <= 0.5
        assert not report.chain

    def test_sampled_representation_rejected(self):
        # whatever its samples: a falling point list is not read as False
        for y in ([0.0, 1.0], [1.0, 0.0]):
            for check in (is_cursive, is_maximal_monotone):
                with pytest.raises(WrongRepresentation):
                    check(PlanarRelation.from_points([0.0, 1.0], y))

    def test_cubic_curve_maximal_monotone(self):
        rel = PlanarRelation.from_param_curve(
            lambda s: s, lambda s: s**3, (-3.0, 3.0), 2001
        )
        assert is_maximal_monotone(rel)

    def test_fold_curve_not_maximal_monotone(self):
        assert not is_maximal_monotone(cubic_fold_curve())

    @pytest.mark.parametrize("center", [0.0, 10.0, 100.0, 1e4])
    def test_shifted_quadratic_is_maximal(self, center):
        # the line u = y - center: the origin once decided its verdict
        assert is_maximal_monotone(quadratic_agent(center).relation)

    @pytest.mark.parametrize("k", [1.0, 5.0, 11.0, 1e3, 1e8])
    def test_saturation_and_dead_zone_are_maximal_in_any_unit(self, k):
        s = np.linspace(-3.0, 3.0, 1001)
        assert is_maximal_monotone(PlanarRelation(s, k * np.clip(s, -1.0, 1.0), s))
        dead_zone = np.sign(s) * np.maximum(np.abs(s) - 1.0, 0.0)
        assert is_maximal_monotone(PlanarRelation(k * s, dead_zone, s))

    @pytest.mark.parametrize("n", [601, 1001, 1201, 2001])
    def test_steep_saturation_is_continuous(self, n):
        # a ramp of 4 or more steps, 5 to 50 times steeper than the flats,
        # is a kink, not a leap: a step compared with the 2 before or after
        # it once flipped the slope 5 to 9 ramps by where the samples fell
        s = np.linspace(-3.0, 3.0, n)
        for k in (5.0, 6.0, 8.0, 9.0, 10.0, 50.0):
            assert is_maximal_monotone(PlanarRelation(s, np.clip(k * s, -1.0, 1.0), s)), k

    @pytest.mark.parametrize("rel, maximal", [
        (PlanarRelation.from_param_curve(lambda s: s, np.tanh, (-10.0, 10.0)), True),
        (PlanarRelation.from_param_curve(np.tanh, lambda s: s, (-10.0, 10.0)), True),
        (PlanarRelation.from_param_curve(lambda s: s, lambda s: s**3, (-3.0, 3.0), 2001),
         True),
        (transform_relation(nonmonotone_demo_agent().relation,
                            Transform2(1.0, 1.0, 1.0, 2.0)), True),
        (PlanarRelation.from_param_curve(np.tanh, np.tanh, (-10.0, 10.0)), False),
        (PlanarRelation.from_param_curve(lambda s: s, np.sign, (-3.0, 3.0), 1000), False),
        (PlanarRelation.from_param_curve(lambda s: s, np.sign, (-3.0, 3.0), 1001), False),
        (param_relation(*[np.r_[np.linspace(-3.0, 0.0, 50), np.linspace(5.0, 8.0, 50)]] * 2),
         False),
        (param_relation(*[np.r_[np.linspace(-1.0, 1.0, 201), np.linspace(1.0, -1.0, 201)]] * 2),
         False),
        (PlanarRelation.from_param_curve(lambda s: 0.0 * s, lambda s: 0.0 * s,
                                         (-1.0, 1.0), 501), False),
        (cubic_fold_curve(), False),
    ], ids=["s_tanh", "tanh_s", "cubic", "demo_transformed", "tanh_tanh", "sign_1000",
            "sign_1001", "jump", "retraced", "constant", "fold"])
    def test_maximality_verdicts(self, rel, maximal):
        assert is_maximal_monotone(rel) == maximal

    def test_segment_reads_as_its_shift_and_scale(self):
        # (s, s) on [0, 1] is a shift and a scale of (s, s) on [-1, 1], so
        # both read maximal: no sampled window tells a line from a segment
        for lo in (0.0, -1.0):
            assert is_maximal_monotone(PlanarRelation.from_param_curve(
                lambda s: s, lambda s: s, (lo, 1.0), 501))


def _outcome(call):
    """What the call returns, or the name of the toolkit error it raises."""
    try:
        return call()
    except ToolkitError as e:
        return type(e).__name__


def _unit_relations():
    s = np.linspace(-3.0, 3.0, 1001)
    t = np.linspace(0.0, 1.0, 201)
    return {
        "monotone": PlanarRelation(s + 0.3 * np.sin(s), s**3 + s, s),
        "decreasing": PlanarRelation(s, -s, s),
        "saturation": PlanarRelation(s, np.clip(s, -1.0, 1.0), s),
        "cubic_fold": PlanarRelation(s, s**3 - s, s),
        "segment": PlanarRelation(t, t, t),
    }


def _agent_relations():
    """Each built-in agent's relation and its passivized transform; the
    pendulum (r1 = 2.5) takes the indices (-r1, 0), and the quadratic agent
    is passive."""
    indices = {"pendulum-gradient": PassivityIndices(-2.5, 0.0),
               "quadratic": PassivityIndices(0.0, 0.0)}
    out = {}
    for name, make in AGENT_REGISTRY.items():
        agent = make()
        T = passivize(agent.indices or indices[name])
        out[name] = agent.relation
        out[f"{name} passivized"] = transform_relation(agent.relation, T)
    return out


def flags(report):
    return report.continuous, report.diverges, report.chain, report.strict


def _relation_verdicts(rel):
    out = [is_monotone(rel)]
    out += [_outcome(lambda d=d: integral_function(rel, d).convexity_certificate)
            for d in (OF_K, OF_K_INVERSE)]
    return out + [flags(is_cursive(rel)), is_maximal_monotone(rel)]


def _map_verdicts(t):
    return (_outcome(lambda: type(Transform2.from_matrix(t)).__name__),
            _outcome(lambda: decompose(Transform2.from_matrix(t)).column_swapped),
            _outcome(lambda: pullback(PQI(0.0, 1.0, 0.0), t) is not None))


class TestUnitInvariance:
    """Rescaling u, y, a map or a point changes no verdict (ROADMAP item 10),
    and neither does shifting u or y the maximality verdict."""

    RELATIONS = _unit_relations()
    AGENT_RELATIONS = _agent_relations()

    @given(st.floats(-8.0, 8.0), st.floats(-8.0, 8.0))
    @example(-8.0, -8.0)  # the monotone curve lost maximality
    @example(-12.0, -12.0)  # its potential reduced to one abscissa
    @example(-12.0, 0.0)  # u at 1e-12 merged into a false fold
    @example(0.0, -9.0)  # the decreasing line passed as monotone, convex
    @settings(max_examples=40, deadline=None)
    def test_relation_verdicts_and_potentials(self, log_alpha, log_beta):
        alpha, beta = 10.0**log_alpha, 10.0**log_beta
        for name, rel in self.RELATIONS.items():
            big = PlanarRelation(alpha * rel.u, beta * rel.y, rel.sigma)
            assert _relation_verdicts(big) == _relation_verdicts(rel), name
            for direction, scale in ((OF_K, alpha), (OF_K_INVERSE, beta)):
                want = _outcome(lambda: integral_function(rel, direction))
                if isinstance(want, str):
                    continue
                got = integral_function(big, direction)
                np.testing.assert_allclose(got.grid, scale * want.grid,
                                           rtol=1e-12, atol=0.0)
                atol = 1e-12 * alpha * beta * np.abs(want.values).max()
                np.testing.assert_allclose(got.values, alpha * beta * want.values,
                                           rtol=0.0, atol=atol)

    @given(st.integers(-30, 30), st.integers(-30, 30),
           st.floats(-1e3, 1e3), st.floats(-1e3, 1e3))
    @example(-30, 30, 0.0, 0.0)
    @example(0, 0, 1e3, -1e3)
    @settings(max_examples=40, deadline=None)
    def test_cursive_flags_under_units_and_shifts(self, a, b, shift_u, shift_y):
        # u and y scaled by 2^a and 2^b after shifts of so many axis ranges
        for name, rel in {**self.RELATIONS, **self.AGENT_RELATIONS}.items():
            moved = PlanarRelation(np.ldexp(rel.u + shift_u * np.ptp(rel.u), a),
                                   np.ldexp(rel.y + shift_y * np.ptp(rel.y), b), rel.sigma)
            assert flags(is_cursive(moved)) == flags(is_cursive(rel)), name
            assert is_maximal_monotone(moved) == is_maximal_monotone(rel), name

    def test_agent_verdicts(self):
        # every passivized transform is maximal, and only the quadratic
        # agent's own relation, a line, is a chain before it
        for name, rel in self.AGENT_RELATIONS.items():
            want = name.endswith("passivized") or name == "quadratic"
            assert is_maximal_monotone(rel) == want, name

    MAPS = ([[1.0, 4.0], [1.0, 5.0]], [[1.0, 2.0], [2.0, 4.0]],
            [[0.0, 0.0], [1.0, 3.0]], [[0.0, 2.0], [3.0, 4.0]],
            [[1.0, 1.0], [1.0, 1.0 + 1e-13]], [[1.0, 1.0], [1.0, 1.0 + 1e-9]],
            [[1e-6, 1.0], [0.0, 1e6]])

    @given(st.floats(-8.0, 8.0), st.sampled_from(MAPS))
    @example(-7.0, MAPS[0])  # building the map and decompose rejected it
    @example(0.0, MAPS[-1])  # building the map rejected it, pullback not
    @settings(max_examples=40, deadline=None)
    def test_map_verdicts(self, log_k, t):
        t = np.array(t)
        verdicts = _map_verdicts(10.0**log_k * t)
        assert verdicts == _map_verdicts(t)
        assert (verdicts[0] == "Transform2") == (verdicts[2] is True)  # one rule

    @given(st.floats(-8.0, 8.0), st.floats(-np.pi, np.pi),
           st.sampled_from([(0.0, 0.0), (0.3, -0.5), (-2 / 3, -1 / 3), (0.1, 0.2)]))
    @example(-6.0, -np.pi / 4.0, (0.0, 0.0))  # the cone held (1e-6, -1e-6)
    @settings(max_examples=100, deadline=None)
    def test_cone_membership(self, log_k, angle, indices):
        cone = solution_set(PassivityIndices(*indices).pqi())
        z = np.array([np.cos(angle), np.sin(angle)])
        assert cone.contains(10.0**log_k * z) == cone.contains(z)


def curve_cases():
    """Curves that meet themselves, touch, pause, turn back or run as
    chains, at sizes from 2 to 1500 samples."""
    cases = {}
    for seed in range(6):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(50, 1500))
        cases[f"walk{seed}"] = param_relation(np.cumsum(rng.normal(size=n)),
                                              np.cumsum(rng.normal(size=n)))
        t = np.linspace(-3.0, 3.0, n)
        cases[f"curve{seed}"] = param_relation(
            t**3 + rng.uniform(-1, 1) * t, np.sin(rng.uniform(1, 4) * t) + t)
    t = np.linspace(0.0, 2.0 * np.pi, 1201)
    cases["figure_eight"] = param_relation(np.sin(t), np.sin(t) * np.cos(t))
    t = np.linspace(0.0, 4.0 * np.pi, 1201)
    cases["cycloid_loops"] = param_relation(t - 3.0 * np.sin(t), -3.0 * np.cos(t))
    # the spiral r = theta over five turns, its arms 0.96 and 1.05 median
    # steps apart
    for name, n in (("spiral_touching", 105), ("spiral_clear", 116)):
        theta = np.linspace(2.0 * np.pi, 12.0 * np.pi, n)
        cases[name] = param_relation(theta * np.cos(theta), theta * np.sin(theta))
    # exact repeats: a parabola that pauses on one sample for 12 or 25
    # samples, and a unit-step square that returns onto its first sample
    t = np.linspace(0.0, 1.0, 200)
    for name, held in (("pause_short", 12), ("pause_long", 25)):
        counts = np.ones(200, dtype=int)
        counts[50] = held
        cases[name] = param_relation(np.repeat(t, counts), np.repeat(t * t, counts))
    side = np.arange(10.0)
    cases["square_closing"] = param_relation(
        np.r_[side, np.full(10, 10.0), 10.0 - side, np.zeros(11)],
        np.r_[np.zeros(10), side, np.full(10, 10.0), 10.0 - np.arange(11.0)])
    # unit steps round three sides and back down the fourth, stopping short
    # of the start
    sq = param_relation(np.r_[side, np.full(10, 10.0), 10.0 - side, np.zeros(9)],
                        np.r_[np.zeros(10), side, np.full(10, 10.0), 10.0 - np.arange(9.0)])
    cases["square_equal_steps"] = sq
    for scale in (0.7, 3.0):
        cases[f"square_steps_x{scale}"] = param_relation(scale * sq.u + 0.1,
                                                         scale * sq.y - 0.3)
    cases["square_steps_x1e-8"] = param_relation(1e-8 * sq.u, 1e-8 * sq.y)
    # steps of 5 down, right, up, left and then diagonally by (-3, -4) back
    # to (3, 4), 5 from the first sample, and the same nudged closer
    path = np.array([(0.0, -5.0 * k) for k in range(7)]
                    + [(5.0 * k, -30.0) for k in range(1, 9)]
                    + [(40.0, -30.0 + 5.0 * k) for k in range(1, 15)]
                    + [(40.0 - 5.0 * k, 40.0) for k in range(1, 3)]
                    + [(30.0 - 3.0 * k, 40.0 - 4.0 * k) for k in range(1, 10)])
    cases["return_at_step"] = param_relation(*path.T.copy())
    path[-1, 1] -= 2.0**-40
    cases["return_inside_step"] = param_relation(*path.T)
    # 16 samples at the origin, then a parabola in steps of 1e-3
    k = np.r_[np.zeros(16), np.arange(1.0, 15.0)]
    cases["rest_at_origin"] = param_relation(1e-3 * k, 1e-3 * k * k)
    # a diagonal line whose last sixth runs out to 6e17 in both axes
    t = np.linspace(-3.0, 3.0, 1001)
    cases["runaway"] = param_relation(t + np.exp(40.0 * (t - 2.0)),
                                      2.0 * t + np.exp(41.0 * (t - 2.0)))
    # samples jittering within 0.01 midway along a walk of unit steps
    rng = np.random.default_rng(11)
    for name, held in (("dense_cluster", 300), ("small_cluster", 15)):
        jitter = 0.01 * rng.uniform(-1.0, 1.0, (held, 2))
        u = np.r_[np.arange(500.0), 500.0 + jitter[:, 0], np.arange(501.0, 1000.0)]
        y = np.r_[np.zeros(500), jitter[:, 1], np.zeros(499)]
        cases[name] = param_relation(u, y)
    # unit steps alternating right and up, as they come, backwards, and
    # with a pause of 3 or 25 zero steps
    steps = np.tile([[1.0, 0.0], [0.0, 1.0]], (60, 1))
    stairs = np.cumsum(steps, axis=0)
    cases["stairs"] = param_relation(*stairs.T.copy())
    cases["stairs_down"] = param_relation(*stairs[::-1].T.copy())
    for pause in (3, 25):
        run = np.r_[steps[:50], np.zeros((pause, 2)), steps[50:]]
        cases[f"stairs_pause_{pause}"] = param_relation(*np.cumsum(run, axis=0).T)
    # steps of very uneven lengths, rising in both axes or falling in y
    walk = np.random.default_rng(12).exponential(size=(400, 2)) ** 3
    cases["chain_up"] = param_relation(np.cumsum(walk[:, 0]), np.cumsum(walk[:, 1]))
    cases["chain_down"] = param_relation(np.cumsum(walk[:, 0]), -np.cumsum(walk[:, 1]))
    for n in (2, 4, 21):
        cases[f"chain_of_{n}"] = param_relation(np.arange(float(n)), np.zeros(n))
    # 30 unit steps right, one step back to (0.5, 0.5) and on up
    cases["chain_broken_once"] = param_relation(
        np.r_[np.arange(31.0), np.full(30, 0.5)],
        np.r_[np.zeros(31), 0.5 + np.arange(30.0)])
    # u falls once by half or by twice DECREASE_RTOL of its range, 49
    for name, dip in (("dip_within_rounding", 0.5), ("dip_past_rounding", 2.0)):
        u = np.arange(50.0)
        cases[name] = param_relation(
            np.r_[u[:25], 24.0 - dip * DECREASE_RTOL * 49.0, u[25:]], np.arange(51.0))
    # y rises with u but falls 5e-10 a step over samples 300 to 900: each
    # step a quarter of the band (DECREASE_RTOL of its range, about 2), the
    # whole fall 150 times it
    k = np.arange(1201)
    cases["slow_drift"] = param_relation(
        np.linspace(-1.0, 1.0, 1201),
        (np.minimum(k, 300) + np.maximum(k - 900, 0)) / 300.0 - 1.0
        - 5e-10 * np.clip(k - 300, 0, 600))
    return cases


def axis_band(z):
    """DECREASE_RTOL of the axis's range plus SLOPE_EPS of its largest
    magnitude: the band within which its values may fall."""
    return DECREASE_RTOL * np.ptp(z) + SLOPE_EPS * np.abs(z).max()


def pairwise_chain(rel):
    """Whether, in one of the two directions, every later sample lies at or
    up and to the right of every earlier one (within each axis's band) and
    no two coincide: O(n^2)."""
    for u, y in ((rel.u, rel.y), (rel.u[::-1], rel.y[::-1])):
        du, dy = u[None, :] - u[:, None], y[None, :] - y[:, None]
        ordered = ((du >= -axis_band(u)) & (dy >= -axis_band(y))
                   & ((du != 0.0) | (dy != 0.0)))
        if np.all(ordered[np.triu_indices(len(u), 1)]):
            return True
    return False


def meets_itself(rel):
    """Whether two segments of the curve that share no sample touch or
    cross: O(n^2) orientation tests."""
    p = rel.points
    a, b, c, d = p[:-1, None], p[1:, None], p[None, :-1], p[None, 1:]

    def turn(p, q, r):
        return np.sign((q[..., 0] - p[..., 0]) * (r[..., 1] - p[..., 1])
                       - (q[..., 1] - p[..., 1]) * (r[..., 0] - p[..., 0]))

    boxes = np.all((np.minimum(a, b) <= np.maximum(c, d))
                   & (np.minimum(c, d) <= np.maximum(a, b)), axis=-1)
    touch = ((turn(a, b, c) * turn(a, b, d) <= 0) & (turn(c, d, a) * turn(c, d, b) <= 0)
             & boxes)
    return bool(np.any(np.triu(touch, 2)))


class TestCurvesAgainstBruteForce:
    """is_cursive's one pass against pairwise checks of what it claims."""

    CASES = curve_cases()
    RELATIONS = {**CASES, **_agent_relations()}

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_chain_matches_the_pairwise_order(self, name):
        rel = self.CASES[name]
        assert is_cursive(rel).chain == pairwise_chain(rel)

    @pytest.mark.parametrize("name", sorted(RELATIONS))
    def test_maximality_survives_inversion_and_reversal(self, name):
        # every curve, and each agent's relation plain and passivized
        rel = self.RELATIONS[name]
        back = PlanarRelation(rel.u[::-1], rel.y[::-1], rel.sigma)
        assert (is_maximal_monotone(rel.inverse()) == is_maximal_monotone(back)
                == is_maximal_monotone(rel)), name

    @pytest.mark.parametrize("name", sorted(RELATIONS))
    def test_shifts_keep_the_monotone_strict_and_chain_flags(self, name):
        # each axis shifted by 0.001 to 1000 of its range; the continuity
        # flag is left out, since a shift rounds a curve's smallest steps
        # (runaway's) away
        rel = self.RELATIONS[name]

        def verdicts(u, y):
            moved = PlanarRelation(u, y, rel.sigma)
            report = is_cursive(moved)
            return is_monotone(moved), report.strict, report.chain

        want = verdicts(rel.u, rel.y)
        for k in (1e-3, 1.0, 10.0, 1e3):
            assert verdicts(rel.u + k * np.ptp(rel.u), rel.y) == want, (name, k)
            assert verdicts(rel.u, rel.y + k * np.ptp(rel.y)) == want, (name, k)

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_a_chain_never_meets_itself(self, name):
        rel = self.CASES[name]
        assert not (is_cursive(rel).chain and meets_itself(rel))

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_reversed_curve_keeps_its_flags(self, name):
        rel = self.CASES[name]
        back = param_relation(rel.u[::-1], rel.y[::-1])
        assert flags(is_cursive(back)) == flags(is_cursive(rel))

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_powers_of_two_per_axis_keep_the_flags(self, name):
        # u scaled by 2^-30 and y by 2^30, each sample bit-exact
        rel = self.CASES[name]
        scaled = param_relation(np.ldexp(rel.u, -30), np.ldexp(rel.y, 30))
        assert flags(is_cursive(scaled)) == flags(is_cursive(rel))

    def test_cases_cover_every_outcome(self):
        verdicts = {name: (flags(is_cursive(rel)), meets_itself(rel))
                    for name, rel in self.CASES.items()}
        chains = {name for name, (f, _) in verdicts.items() if f[2]}
        assert chains == {"chain_of_2", "chain_of_4", "chain_of_21", "chain_up",
                          "dip_within_rounding", "runaway", "stairs", "stairs_down"}
        for name in ("cycloid_loops", "square_closing", "walk0", "stairs_pause_3",
                     "dense_cluster", "rest_at_origin"):
            assert verdicts[name][1], name
        assert not verdicts["walk2"][0][0] and not verdicts["rest_at_origin"][0][1]


def pairwise_monotone(rel):
    """Whether every pair of samples is ordered one way or the other, each
    axis rising within its band: O(n^2).  Each axis is first taken over the
    power of two at or above its largest magnitude, so that no difference
    overflows."""
    u, y = (np.ldexp(z, -math.frexp(np.abs(z).max())[1]) for z in (rel.u, rel.y))
    du, dy = u[None, :] - u[:, None], y[None, :] - y[:, None]
    bu, by = axis_band(u), axis_band(y)
    return bool(np.all(((du >= -bu) & (dy >= -by)) | ((du <= bu) & (dy <= by))))


@st.composite
def drawn_relations(draw):
    """Samples with u as drawn (ties, no order), sorted, or strictly
    increasing, and y as drawn or sorted (monotone where u is sorted)."""
    value = (st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0])
             | st.floats(-1e300, 1e300) | st.floats(allow_nan=False, allow_infinity=False))
    u = np.array(draw(st.lists(value, min_size=1, max_size=40)))
    u = {"drawn": u, "sorted": np.sort(u), "increasing": np.unique(u)}[
        draw(st.sampled_from(["drawn", "sorted", "increasing"]))]
    y = np.array(draw(st.lists(value, min_size=len(u), max_size=len(u))))
    return PlanarRelation(u, np.sort(y) if draw(st.booleans()) else y)


# y varies by one ulp, within its band: a sort in which y weighs as much as
# u ordered the samples by that ulp
ROUNDING_ONLY_Y = PlanarRelation([0.0, 1.0, 2.0], [0.3, 0.1 * 3.0, 0.3])


class TestColumnForms:
    """The shape checks on the u and y columns: in range whatever their
    units, and the same in any order of the samples."""

    @pytest.mark.parametrize("rel, notes", [
        # a chain whose range is past the float range, and a zigzag near it
        (param_relation(1.7e308 * np.linspace(-1.0, 1.0, 41),
                        1.7e308 * np.linspace(-1.0, 1.0, 41)), ()),
        (param_relation(1e300 * np.array([1.0, 0.0, 1.0, 0.0, 1.0, 0.0]), np.zeros(6)),
         ("not a chain: the curve turns back or stands still at sample 1, "
          "(u, y) = (0, 0)",)),
    ], ids=["chain", "zigzag"])
    def test_huge_curve_reports_in_its_own_units(self, rel, notes):
        report = is_cursive(rel)
        assert report.continuous and report.diverges
        assert report.notes == notes

    @pytest.mark.parametrize("power", [-1060, -560, 560, 1020])
    def test_power_of_two_units_change_no_flag(self, power):
        # 2^-1060 makes the steps subnormal, which a line's flags survive
        line = np.linspace(-1.0, 1.0, 41)
        for rel in (param_relation(line, line ** 3),
                    param_relation(np.r_[line, line[::-1]], np.r_[line, line])):
            scaled = param_relation(np.ldexp(rel.u, power), np.ldexp(rel.y, power))
            assert flags(is_cursive(scaled)) == flags(is_cursive(rel))

    @given(drawn_relations())
    @example(PlanarRelation([-0.0, 0.0, 1.0], [1.0, 0.0, 2.0]))
    @example(PlanarRelation([0.0, 1.0, 1.0, 2.0], [0.0, 2.0, 1.0, 3.0]))
    @example(TestCurvesAgainstBruteForce.CASES["dip_within_rounding"])
    @example(TestCurvesAgainstBruteForce.CASES["slow_drift"])
    @example(ROUNDING_ONLY_Y)
    @settings(max_examples=200, deadline=None)
    def test_monotone_matches_the_pairwise_order(self, rel):
        assert is_monotone(rel) == pairwise_monotone(rel)

    @given(drawn_relations())
    @example(TestCurvesAgainstBruteForce.CASES["dip_within_rounding"])
    @example(TestCurvesAgainstBruteForce.CASES["slow_drift"])
    @example(ROUNDING_ONLY_Y)
    @settings(max_examples=200, deadline=None)
    def test_monotone_survives_inversion_and_reversal(self, rel):
        back = PlanarRelation(rel.u[::-1], rel.y[::-1])
        assert is_monotone(rel.inverse()) == is_monotone(back) == is_monotone(rel)


class TestRepresentations:
    def test_inverse_is_involution(self):
        rel = cubic_fold_curve()
        back = rel.inverse().inverse()
        np.testing.assert_array_equal(back.u, rel.u)
        np.testing.assert_array_equal(back.y, rel.y)

    def test_inverse_of_a_point_list_is_a_point_list(self):
        rel = PlanarRelation.from_points([0.0, 1.0], [2.0, 3.0])
        inv = rel.inverse()
        assert inv.sigma is None
        np.testing.assert_array_equal(inv.points, [[2.0, 0.0], [3.0, 1.0]])

    def test_sampled_deduplicates(self):
        rel = PlanarRelation.from_points([0.0, 0.0, 1.0], [1.0, 1.0, 2.0])
        assert len(rel.u) == 2

    def test_graph_directions(self):
        fwd = PlanarRelation.from_param_curve(lambda s: s, lambda u: u**3, (-3.0, 3.0))
        bwd = PlanarRelation.from_param_curve(lambda y: y**3, lambda s: s, (-3.0, 3.0))
        np.testing.assert_allclose(fwd.y, fwd.u**3)
        np.testing.assert_allclose(bwd.u, bwd.y**3)

    def test_csv_round_trip(self, tmp_path):
        rel = cubic_fold_curve(n=101)
        path = tmp_path / "rel.csv"
        rel.to_csv(path)
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "sigma,u,y"
        assert len(rows) == 102
        assert_csv_cells(path, [rel.sigma, rel.u, rel.y])

    def test_integral_function_csv(self, tmp_path):
        F = integral_function(odd_cubic_agent().relation, OF_K_INVERSE)
        path = tmp_path / "pot.csv"
        F.to_csv(path)
        assert path.read_text().startswith("x,value")
        assert_csv_cells(path, [F.grid, F.values])

    def test_point_list_csv_indexes_its_samples(self, tmp_path):
        rel = PlanarRelation.from_points([0.1, -2.0, 1e-300], [1.0 / 3.0, 7.0, -0.0])
        path = tmp_path / "points.csv"
        rel.to_csv(path)
        assert path.read_text().startswith("sigma,u,y")
        assert_csv_cells(path, [[0.0, 1.0, 2.0], rel.u, rel.y])

    def test_csv_bytes_match_csv_module(self, tmp_path):
        columns = [[-0.0, 5e-324, 1e-5, 1e16, 1.7976931348623157e308, 1.0 / 3.0],
                   [0.0, -5e-324, -1e-5, -1e16, -1.7976931348623157e308, 0.1],
                   [2.0, 1e-300, 123456.789, 1e22, 1e-7, -2.5]]
        path = tmp_path / "out.csv"
        _write_csv(path, ["a", "b", "c"], columns)
        with open(tmp_path / "ref.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["a", "b", "c"])
            w.writerows([repr(v) for v in row]
                        for row in np.column_stack(columns).tolist())
        assert path.read_bytes() == (tmp_path / "ref.csv").read_bytes()
        _write_csv(path, ["a"], [[]])
        assert path.read_bytes() == b"a\r\n"


class TestOneRepresentation:
    """The graph of a map is a curve over its grid; verdicts follow the samples."""

    def test_folded_graph_is_multivalued(self):
        rel = PlanarRelation.from_param_curve(lambda s: s, lambda u: u**3 - u,
                                              (-3.0, 3.0))
        F = integral_function(rel, OF_K)
        assert F.grid[0] == -3.0 and F.grid[-1] == 3.0
        with pytest.raises(MultiValued):
            integral_function(rel, OF_K_INVERSE)
        with pytest.raises(MultiValued):
            integral_function(rel.inverse(), OF_K)

    def test_graph_must_be_finite(self):
        with pytest.raises(ValueError, match="finite"), \
                np.errstate(invalid="ignore"):
            PlanarRelation.from_param_curve(lambda s: s, np.sqrt, (-3.0, 3.0))

    @pytest.mark.parametrize("direction", ["u_to_y", "y_to_u"])
    def test_transports_keep_the_grid_as_parameter(self, direction):
        maps = (lambda s: s, lambda x: x**3)
        rel = PlanarRelation.from_param_curve(
            *(maps if direction == "u_to_y" else maps[::-1]), (-2.0, 2.0), 401)
        T = Transform2(1.0, 1.0, 1.0, 2.0)
        direct = transform_relation(rel, T)
        staged = compose_via_stages(rel, decompose(T))
        np.testing.assert_array_equal(direct.sigma, np.linspace(-2.0, 2.0, 401))
        np.testing.assert_array_equal(staged.sigma, direct.sigma)


def test_cursive_report_names_a_jump():
    s = np.r_[np.linspace(-3.0, 0.0, 50), np.linspace(5.0, 8.0, 50)]
    report = is_cursive(param_relation(s, s))
    assert not report.continuous and not report.cursive
    assert report.notes == ("jump: a step over 10x the steps around it starts at "
                            "sample 49, (u, y) = (0, 0)",)


def test_cursive_report_names_a_stalled_end():
    # tanh flattens out at both ends; a decile of samples moves too little
    report = is_cursive(PlanarRelation.from_param_curve(
        lambda s: 1e3 * np.tanh(s), np.tanh, (-10.0, 10.0)))
    assert report.chain and report.continuous and not report.diverges
    assert report.notes == ("stalls: an end decile moves under 0.1 of the median step, "
                            "the end at sample 0, (u, y) = (-1000, -1)",)


@pytest.mark.parametrize("call, error, match", [
    (lambda: IntegralFunction(np.array([0.0, 0.0, 1.0]), np.zeros(3)),
     ValueError, "strictly increasing"),
    (lambda: IntegralFunction([1.0, 0.0], [0.0, 0.0]), InvalidSamples,
     r"strictly increasing, not abscissa 0\.0 at sample 1 after 1\.0$"),
    (lambda: integral_function(PlanarRelation([], [])), InvalidSamples,
     r"integral_function \(of_k\): the relation has no samples$"),
    (lambda: legendre(IntegralFunction([], []), [0.0]), InvalidSamples,
     "legendre: the potential has no samples$"),
    (lambda: legendre(_bowl(), [0.0, 1.0, 0.5]), InvalidSamples,
     r"strictly increasing, not abscissa 0\.5 at sample 2 after 1\.0$"),
    (lambda: IntegralFunction.from_function(np.abs, [0.0, 1.0, 1.0]), InvalidSamples,
     r"strictly increasing, not abscissa 1\.0 at sample 2 after 1\.0$"),
    (lambda: IntegralFunction(np.array([0.0, 1.0, 2.0]), np.zeros(2)),
     DimensionMismatch, r"not \(3,\) and \(2,\)$"),
    (lambda: IntegralFunction(np.array([0.0, 1.0, 2.0]), np.array([0.0, np.nan, 1.0])),
     NonFiniteValue, r"^integral-function values\[1\] = nan is not finite$"),
    (lambda: IntegralFunction.from_function(lambda y: np.where(y < 0.0, -np.inf, y),
                                            np.linspace(-1.0, 1.0, 5)),
     NonFiniteValue, r"^integral-function values\[0\] = -inf is not finite$"),
    (lambda: PlanarRelation(np.array([1.0, 2.0]), np.array([1.0])), DimensionMismatch,
     r"relation u, y must be 1-D of one length, not of shapes \(2,\), \(1,\)$"),
    (lambda: PlanarRelation(np.zeros(3), np.zeros(3), np.zeros(2)), DimensionMismatch,
     r"u, y, sigma must be .* \(3,\), \(3,\), \(2,\)$"),
    (lambda: PlanarRelation(np.zeros((2, 2)), np.zeros((2, 2))), DimensionMismatch,
     r"^relation u must be 1-D, not of shape \(2, 2\)$"),
    (lambda: is_cursive(param_relation([1.0], [2.0])), WrongRepresentation,
     "2 or more samples, not 1$"),
    (lambda: is_cursive(param_relation([], [])), WrongRepresentation,
     "2 or more samples, not 0$"),
    (lambda: integral_function(cubic_fold_curve(n=11), "of_y"), InvalidSpec,
     "^unknown direction 'of_y'$"),
    (lambda: integral_function(PlanarRelation.from_points([1.0, 1.0], [2.0, 2.0]),
                               OF_K), MultiValued, "single abscissa"),
    (lambda: is_cursive(param_relation([0.0, 1.0, np.inf], [0.0, 1.0, 2.0])),
     NonFiniteValue, r"^relation u\[2\] = inf is not finite$"),
    (lambda: is_cursive(param_relation([0.0, 1.0, 2.0], [0.0, np.nan, 2.0])),
     NonFiniteValue, r"^relation y\[1\] = nan is not finite$"),
    (lambda: integral_function(param_relation([0.0, 1.0, np.nan], [0.0, 1.0, 2.0]),
                               OF_K_INVERSE),
     NonFiniteValue, r"^relation u\[2\] = nan is not finite$"),
    (lambda: is_monotone(PlanarRelation(np.array([0.0, 1.0, 2.0]),
                                        np.array([0.0, np.inf, 2.0]))),
     NonFiniteValue, r"^relation y\[1\] = inf is not finite$"),
    (lambda: SymmetricDoubleCone((1.0, 0.0), (-1.0, 0.0), (0.0, 1.0))
     .contains((1.0, 1.0)), DegenerateRays, "colinear"),
    (lambda: PlanarRelation([0.0, [1.0]], [0.0, 1.0]), NonFiniteValue,
     "^relation u " + RAGGED),
    (lambda: PlanarRelation([0.0, 1.0], ["a", 1.0]), NonFiniteValue, "^relation y " + WORD),
    (lambda: PlanarRelation([0.0, 1.0], [0.0, 1.0], [0.0, [1.0]]), NonFiniteValue,
     "^relation sigma " + RAGGED),
    # the curve parameter was once left unchecked
    (lambda: PlanarRelation([0.0, 1.0], [0.0, 1.0], [0.0, np.nan]), NonFiniteValue,
     r"^relation sigma\[1\] = nan is not finite$"),
    (lambda: PlanarRelation.from_points([0.0, [1.0]], [0.0, 1.0]), NonFiniteValue,
     "^relation u " + RAGGED),
    (lambda: PlanarRelation.from_points([0.0, 1.0], "a"), NonFiniteValue,
     "^relation y " + WORD),
    (lambda: IntegralFunction([0.0, [1.0]], [0.0, 1.0]), NonFiniteValue,
     "^integral-function grid " + RAGGED),
    (lambda: IntegralFunction([0.0, 1.0], ["a", 1.0]), NonFiniteValue,
     "^integral-function values " + WORD),
    (lambda: IntegralFunction.from_function(np.abs, [0.0, [1.0]]), NonFiniteValue,
     "^integral-function grid " + RAGGED),
    (lambda: IntegralFunction.from_function(np.abs, "a"), NonFiniteValue,
     "^integral-function grid " + WORD),
    (lambda: legendre(_bowl(), [0.0, [1.0]]), NonFiniteValue,
     "^legendre: dual grid " + RAGGED),
    (lambda: legendre(_bowl(), "a"), NonFiniteValue, "^legendre: dual grid " + WORD),
    (lambda: legendre(_bowl(), [0.0, np.inf]), NonFiniteValue,
     r"^legendre: dual grid\[1\] = inf is not finite$"),
    (lambda: PlanarRelation.from_param_curve(lambda s: "a", lambda s: s, (0.0, 1.0), 5),
     NonFiniteValue, "^relation u " + WORD),
    (lambda: PlanarRelation.from_param_curve(lambda s: s, lambda s: [0.0, [1.0]],
                                             (0.0, 1.0), 5),
     NonFiniteValue, "^relation y " + RAGGED),
    (lambda: PlanarRelation.from_param_curve(lambda s: s, lambda s: s[:3], (0.0, 1.0), 5),
     DimensionMismatch, "^relation y must be 1 or 5 numbers, not 3$"),
    (lambda: IntegralFunction.from_function(lambda y: "a", np.linspace(0.0, 1.0, 5)),
     NonFiniteValue, "^integral-function values " + WORD),
    (lambda: IntegralFunction.from_function(lambda y: [0.0, [1.0]], np.linspace(0.0, 1.0, 5)),
     NonFiniteValue, "^integral-function values " + RAGGED),
    (lambda: IntegralFunction.from_function(lambda y: y[1:], np.linspace(0.0, 1.0, 5)),
     DimensionMismatch, "^integral-function values must be 1 or 5 numbers, not 4$"),
    # a map that overflows is named by the reader, not warned about
    (lambda: IntegralFunction.from_function(lambda y: np.exp(1e3 * y), np.linspace(0.0, 1.0, 5)),
     NonFiniteValue, r"^integral-function values\[3\] = inf is not finite$"),
    # neither do a tie's fold band, legendre's y·x on either path, nor a
    # fold between values near the float range
    (lambda: integral_function(param_relation([0.0, 1.0, 1.0, 2.0],
                                              [1e308, 1.5e308, 1.5e308, 1.7e308])),
     NonFiniteValue, r"^integral-function values\[1\] = inf is not finite$"),
    (lambda: integral_function(param_relation([0.0, 1.0, 2.0], [1e308, 1.5e308, 1.7e308])),
     NonFiniteValue, r"^integral-function values\[1\] = inf is not finite$"),
    (lambda: legendre(IntegralFunction.from_function(
        lambda x: 0.5 * x * x, np.linspace(-20.0, 20.0, 41)), [0.0, 1e308]),
     NonFiniteValue, r"^integral-function values\[1\] = inf is not finite$"),
    (lambda: legendre(*_line_near_the_float_range()), NonFiniteValue,
     r"^integral-function values\[0\] = inf is not finite$"),
    (lambda: integral_function(param_relation([0.0, 1.0, 1.0, 2.0],
                                              [1e308, -1e308, 1e308, 1e308])),
     MultiValued, r"^relation folds near abscissa 1\.0: values -1e\+308 and 1e\+308$"),
], ids=["potential_grid", "potential_steps_back", "integral_empty", "legendre_empty",
        "dual_grid_steps_back", "from_function_steps_back",
        "potential_lengths", "potential_nan", "potential_inf",
        "relation_lengths", "relation_sigma_length", "relation_2d", "cursive_one_sample", "cursive_no_sample", "integral_direction",
        "single_abscissa", "cursive_inf", "cursive_nan", "integral_nan",
        "monotone_inf", "cone_colinear_rays", "relation_ragged", "relation_word",
        "sigma_ragged", "sigma_nan", "from_points_ragged", "from_points_word",
        "potential_ragged", "potential_word", "from_function_ragged", "from_function_word",
        "dual_grid_ragged", "dual_grid_word", "dual_grid_inf", "param_curve_word",
        "param_curve_ragged", "param_curve_length", "map_output_word", "map_output_ragged",
        "map_output_length", "map_output_overflow", "tie_band_overflow", "sum_overflow",
        "legendre_overflow", "legendre_window_overflow", "tie_fold_overflow"])
def test_bad_input_raises(call, error, match):
    with pytest.raises(error, match=match):
        call()


def test_sample_faults_are_toolkit_and_value_errors():
    # a caller that catches either family catches a bad grid or an empty input
    assert issubclass(InvalidSamples, ToolkitError)
    assert issubclass(InvalidSamples, ValueError)


def test_strictness_measured_across_a_flat_run():
    # y stands still over 250 steps of u, each a fifth of u's band: 50 bands
    # in all is not strict, read either way along the curve
    band = axis_band(np.array([0.0, 3.0]))
    run = 1.0 + 0.2 * band * np.arange(251)
    rel = param_relation(np.r_[0.0, run, 2.0, 3.0], np.r_[0.0, np.ones(251), 2.0, 3.0])
    report, back = is_cursive(rel), is_cursive(param_relation(rel.u[::-1], rel.y[::-1]))
    assert report.chain and not report.strict and not back.strict
    assert report.notes[-1] == "not strict: y does not rise with u at sample 251, (u, y) = (1, 1)"


def test_step_under_the_band_is_strict():
    # u rises 100 tie gaps (TIE_RTOL of max|u|) where y stands still: under
    # u's band, so strict, and the y tie merges into one potential sample
    rel = param_relation([0.0, 1.0, 1.0 + 300.0 * TIE_RTOL, 2.0, 3.0], [0.0, 1.0, 1.0, 2.0, 3.0])
    assert 300.0 * TIE_RTOL < axis_band(rel.u)
    assert is_cursive(rel).strict
    assert len(integral_function(rel, OF_K_INVERSE).grid) == 4


def test_strict_monotonicity_rejects_a_flat_step():
    rel = param_relation([0.0, 1.0, 2.0], [0.0, 1.0, 1.0])
    report = is_cursive(rel)
    assert is_monotone(rel) and report.chain and not report.strict
    assert report.notes[-1] == "not strict: y does not rise with u at sample 2, (u, y) = (2, 1)"
