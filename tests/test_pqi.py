"""Quadratic-inequality algebra and double-cone geometry."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from pqikit import (
    PQI,
    PassivityIndices,
    SymmetricDoubleCone,
    Transform2,
    boundary_rays,
    contains,
    discriminant,
    is_nontrivial,
    mapping_transform,
    pullback,
    solution_set,
)
from pqikit.errors import (DimensionMismatch, InvalidSpec, NonFiniteValue, SingularTransform,
                           TrivialPQI)
from pqikit.pqi import _scaled

coeff = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)


def nontrivial_pqis():
    return (
        st.tuples(coeff, coeff, coeff)
        .map(lambda t: PQI(*t) if any(t) else PQI(0.0, 1.0, 0.0))
        .filter(lambda p: discriminant(p) > 1e-6 * (p.a**2 + p.b**2 + p.c**2))
    )


def assert_colinear(v, w, tol=1e-9):
    v = np.asarray(v, float)
    w = np.asarray(w, float)
    cross = v[0] * w[1] - v[1] * w[0]
    assert abs(cross) <= tol * (np.linalg.norm(v) * np.linalg.norm(w) + 1.0)


class TestNontriviality:
    def test_monotone_inequality_is_nontrivial(self):
        assert is_nontrivial(PQI(0.0, 1.0, 0.0))

    def test_mixed_coefficients_nontrivial(self):
        assert is_nontrivial(PQI(1 / 3, 1.0, 2 / 3))

    def test_sum_of_squares_is_trivial(self):
        assert not is_nontrivial(PQI(1.0, 0.0, 1.0))

    @pytest.mark.parametrize("coeffs, named", [
        ((math.nan, 1.0, 0.0), "a = nan"), ((1.0, math.inf, 0.0), "b = inf"),
        ((1.0, 0.0, -math.inf), "c = -inf")])
    def test_non_finite_coefficient_rejected(self, coeffs, named):
        with pytest.raises(NonFiniteValue, match=f"^PQI coefficient {named} is not finite$"):
            PQI(*coeffs)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            PQI(0.0, 0.0, 0.0)

    unit_coeff = st.one_of(st.just(0.0), st.floats(1e-3, 1e3), st.floats(-1e3, -1e-3))

    @given(st.tuples(unit_coeff, unit_coeff, unit_coeff), st.integers(-1000, 1000))
    @settings(max_examples=200, deadline=None)
    @example((1.0, 3.0, 1.0), -600)  # b^2 - 4ac underflowed to 0.0
    @example((1.0, 3.0, 1.0), 600)   # ... and overflowed to nan
    def test_verdict_and_rays_do_not_depend_on_the_unit(self, coeffs, k):
        # every scaled coefficient stays normal, so the scaling is exact
        assume(any(coeffs))
        p, q = PQI(*coeffs), PQI(*(math.ldexp(v, k) for v in coeffs))
        assert is_nontrivial(q) == is_nontrivial(p)
        if is_nontrivial(p):
            for r, s in zip(boundary_rays(q), boundary_rays(p)):
                assert r.tolist() == s.tolist()


class TestBoundaryRays:
    def test_mixed_coefficients_rays(self):
        r1, r2 = boundary_rays(PQI(1 / 3, 1.0, 2 / 3))
        assert_colinear(r1, (2.0, -1.0))
        assert_colinear(r2, (-1.0, 1.0))

    def test_quadrant_inequality_rays_are_axes(self):
        r1, r2 = boundary_rays(PQI(0.0, 1.0, 0.0))
        assert_colinear(r1, (1.0, 0.0))
        assert_colinear(r2, (0.0, 1.0))

    def test_narrow_cone_rays(self):
        r1, r2 = boundary_rays(PQI(1 / 9, 1.0, 20 / 9))
        assert_colinear(r1, (5.0, -1.0))
        assert_colinear(r2, (-4.0, 1.0))

    def test_trivial_raises(self):
        with pytest.raises(TrivialPQI):
            boundary_rays(PQI(1.0, 0.0, 1.0))

    @given(nontrivial_pqis())
    @settings(max_examples=200, deadline=None)
    @example(PQI(2.4666937367612336e-161, 2.4666937367612336e-161, 0.0))
    def test_rays_satisfy_equality(self, p):
        for ray in boundary_rays(p):
            ray = ray / np.linalg.norm(ray)
            assert abs(p(ray[0], ray[1])) <= 1e-12 * np.linalg.norm(p.coeffs)


def two_branch_boundary_rays(p):
    """boundary_rays as it was written with one branch per sign of b."""
    a, b, c = _scaled(p)
    scale = math.sqrt(a * a + b * b + c * c)
    sqrt_d = math.sqrt(b * b - 4.0 * a * c)
    if abs(a) > 1e-30 * scale:
        if b >= 0.0:
            q = -0.5 * (b + sqrt_d)
            s_minus = q / a
            s_plus = c / q
        else:
            q = -0.5 * (b - sqrt_d)
            s_plus = q / a
            s_minus = c / q
        return np.array([-s_minus, -1.0]), np.array([s_plus, 1.0])
    return np.array([1.0, 0.0]), np.array([-c / b, 1.0])


def two_candidate_mapping_transform(source, target):
    """mapping_transform as it was written with one branch per candidate map."""
    rs = np.column_stack(boundary_rays(source))
    rt = np.column_stack(boundary_rays(target))
    alpha1 = source(rs[0, 0] + rs[0, 1], rs[1, 0] + rs[1, 1])
    alpha2 = target(rt[0, 0] + rt[0, 1], rt[1, 0] + rt[1, 1])
    rs_inv = np.linalg.inv(rs)
    if alpha1 * alpha2 >= 0.0:
        m = rt @ rs_inv
    else:
        m = (rt * np.array([[1.0, -1.0], [1.0, -1.0]])) @ rs_inv
    return Transform2.from_matrix(m), alpha1 * alpha2 >= 0.0


def fork_corpus():
    """Non-trivial PQIs with magnitudes over six decades, exact zeros, b = +0.0
    and -0.0, and leading coefficients about the 1e-30 of the norm below
    which boundary_rays takes chi = 0 as a boundary line."""
    rng = np.random.default_rng(44)
    n = 4000
    a, b, c = (np.where(rng.random(n) < 0.1, 0.0,
                        rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-3.0, 3.0, n))
               for _ in range(3))
    b[:300], b[300:600] = 0.0, -0.0
    near = slice(0, 1200, 2)
    a[near] = (rng.choice([-1.0, 1.0], 600) * np.hypot(b[near], c[near]) * 1e-30
               * rng.choice([0.25, 0.5, 1.0 - 2.0**-40, 1.0, 1.0 + 2.0**-40, 2.0, 4.0], 600))
    return [p for p in (PQI(*t) for t in zip(a.tolist(), b.tolist(), c.tolist())
                        if any(t)) if is_nontrivial(p)]


class TestMergedForks:
    """The merged root pairing of boundary_rays and the one candidate map of
    mapping_transform return the bits of the two-branch forms they replace."""

    corpus = fork_corpus()

    def test_corpus_reaches_every_arm(self):
        scaled = [_scaled(p) for p in self.corpus]
        fallback = [abs(a) <= 1e-30 * math.sqrt(a * a + b * b + c * c)
                    for a, b, c in scaled]
        paired = [(a, b) for (a, b, c), fb in zip(scaled, fallback) if not fb]
        assert sum(a != 0.0 for (a, _, _), fb in zip(scaled, fallback) if fb) >= 50
        assert sum(abs(a) <= 1e-29 * math.sqrt(a * a + b * b + c * c)
                   for (a, b, c), fb in zip(scaled, fallback) if not fb) >= 50
        signs = [math.copysign(1.0, b) for _, b in paired]
        assert signs.count(1.0) >= 100 and signs.count(-1.0) >= 100
        assert sum(b == 0.0 and s < 0.0 for (_, b), s in zip(paired, signs)) >= 40
        assert sum(b == 0.0 and s > 0.0 for (_, b), s in zip(paired, signs)) >= 40

    def test_boundary_rays_match_the_two_branch_form(self):
        for p in self.corpus:
            got, want = boundary_rays(p), two_branch_boundary_rays(p)
            assert [r.tobytes() for r in got] == [r.tobytes() for r in want], p

    def test_mapping_transform_matches_the_two_candidate_form(self):
        kept = {True: 0, False: 0}
        corpus = self.corpus
        for i, source in enumerate(corpus[:2000]):
            target = corpus[(7 * i + 3) % len(corpus)]
            try:
                want, plain = two_candidate_mapping_transform(source, target)
            except SingularTransform:
                with pytest.raises(SingularTransform):
                    mapping_transform(source, target)
                continue
            kept[plain] += 1
            got = mapping_transform(source, target)
            assert got.matrix().tobytes() == want.matrix().tobytes(), (source, target)
        assert min(kept.values()) >= 500


class TestSolutionSet:
    def test_first_and_third_quadrants(self):
        cone = solution_set(PQI(0.0, 1.0, 0.0))
        assert cone.contains((1.0, 1.0))
        assert cone.contains((-2.0, -3.0))
        assert not cone.contains((1.0, -1.0))

    def test_second_and_fourth_quadrants(self):
        cone = solution_set(PQI(0.0, -1.0, 0.0))
        assert cone.contains((-1.0, 1.0))
        assert cone.contains((1.0, -1.0))
        assert not cone.contains((1.0, 1.0))

    def test_slanted_cone_contains_unit_input_axis(self):
        cone = solution_set(PQI(1 / 3, 1.0, 2 / 3))
        assert cone.contains((1.0, 0.0))

    @given(nontrivial_pqis(), st.integers(0, 2**31 - 1))
    @settings(max_examples=100, deadline=None)
    def test_geometric_membership_matches_evaluation(self, p, seed):
        cone = solution_set(p)
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-5.0, 5.0, size=(200, 2))
        norm = np.linalg.norm(p.coeffs)
        for z in pts:
            val = p(z[0], z[1])
            # skip the tolerance band around the boundary
            if abs(val) <= 1e-7 * norm * (z @ z + 1.0):
                continue
            assert cone.contains(z) == (val > 0)


class TestContains:
    def test_diagonal_point(self):
        assert contains(PQI(0.0, 1.0, 0.0), (1.0, 1.0))

    def test_input_axis_point(self):
        assert contains(PQI(1 / 3, 1.0, 2 / 3), (1.0, 0.0))

    def test_antidiagonal_point_excluded(self):
        assert not contains(PQI(0.0, 1.0, 0.0), (1.0, -1.0))


class TestPullback:
    def test_slanted_cone_maps_to_quadrants(self):
        q = pullback(PQI(1 / 3, 1.0, 2 / 3), np.array([[1.0, 1.0], [1.0, 2.0]]))
        np.testing.assert_allclose(q.coeffs, [0.0, 1 / 3, 0.0], atol=1e-12)

    def test_identity_is_noop(self):
        p = PQI(1.0, 2.0, -3.0)
        q = pullback(p, Transform2.identity())
        np.testing.assert_allclose(q.coeffs, p.coeffs, atol=1e-14)

    # a nan map is refused as not finite before its determinant is taken
    # (row pullback_nan_map of test_bad_input_raises)
    @pytest.mark.parametrize("t", [[[1.0, 2.0], [2.0, 4.0]], [[0.0, 0.0], [1.0, 3.0]]])
    def test_singular_map_rejected(self, t):
        with pytest.raises(SingularTransform, match="below tolerance"):
            pullback(PQI(1.0, 0.0, 1.0), np.array(t))

    @pytest.mark.parametrize("entry", [np.nan, np.inf])
    def test_non_finite_transform_rejected_when_built(self, entry):
        with pytest.raises(NonFiniteValue, match=rf"^map\[0, 0\] = {entry} is not finite$"):
            Transform2(entry, 0.0, 0.0, 1.0)

    @pytest.mark.parametrize("call, shape", [
        (lambda: Transform2.from_matrix(np.eye(3)), "(3, 3)"),
        (lambda: Transform2.from_matrix([[1.0, 2.0]]), "(1, 2)"),
        (lambda: pullback(PQI(1.0, 0.0, -1.0), np.eye(3)), "(3, 3)")],
        ids=["from_matrix_3x3", "from_matrix_1x2", "pullback_3x3"])
    def test_map_not_2x2_rejected(self, call, shape):
        with pytest.raises(DimensionMismatch) as err:
            call()
        assert str(err.value) == f"map must be 2x2, not of shape {shape}"

    # the inverse's 1e200 squared overflows qa; the inverse of 5e-324 is
    # inf, and inf * 0 is nan
    @pytest.mark.parametrize("p, t, named", [
        (PQI(1e308, 1.0, -1e308), [[1e-200, 0.0], [0.0, 1.0]], "a = inf"),
        (PQI(1.0, 0.0, -1.0), [[5e-324, 0.0], [0.0, 1.0]], "a = nan")])
    def test_overflowing_pullback_named_without_warning(self, p, t, named):
        with pytest.raises(NonFiniteValue, match=f"^PQI coefficient {named} is not finite$"):
            pullback(p, t)

    def test_overflowing_inverse_named_without_warning(self):
        with pytest.raises(NonFiniteValue, match=r"^map\[0, 0\] = inf is not finite$"):
            Transform2(5e-324, 0.0, 0.0, 1.0).inverse()

    def test_diagonal_scaling(self):
        q = pullback(PQI(0.0, 1.0, 0.0), np.array([[2.0, 0.0], [0.0, 3.0]]))
        np.testing.assert_allclose(q.coeffs, [0.0, 1 / 6, 0.0], atol=1e-14)

    @given(nontrivial_pqis(), st.tuples(coeff, coeff, coeff, coeff))
    @settings(max_examples=200, deadline=None)
    def test_round_trip_up_to_positive_scalar(self, p, entries):
        a, b, c, d = entries
        if abs(a * d - b * c) < 1e-3:
            a, d = a + 2.0, d + 2.0
        assume(abs(a * d - b * c) >= 1e-3)  # the shift can stay singular
        T = Transform2(a, b, c, d)
        back = pullback(pullback(p, T), T.inverse())
        v1 = p.normalized().coeffs
        v2 = back.normalized().coeffs
        if np.dot(v1, v2) < 0:
            v2 = -v2  # same inequality scaled by a positive factor
        # T.inverse() rounds, and each pullback applies a map twice, so the
        # round trip loses about cond(T)²·eps whatever pullback does; 20 000
        # random draws and a 20 000-example search maximizing the error
        # stayed below 1.5 cond(T)²·eps
        tol = 4.0 * np.linalg.cond(T.matrix()) ** 2 * np.finfo(float).eps
        np.testing.assert_allclose(v1, v2, rtol=0.0, atol=tol)

    @given(nontrivial_pqis(), st.floats(0.1, 50.0))
    @settings(max_examples=100, deadline=None)
    def test_positive_scaling_preserves_solution_set(self, p, s):
        scaled = PQI(s * p.a, s * p.b, s * p.c)
        rng = np.random.default_rng(0)
        pts = rng.uniform(-4.0, 4.0, size=(500, 2))
        for z in pts:
            assert contains(p, z) == contains(scaled, z)
        np.testing.assert_allclose(
            p.normalized().coeffs, scaled.normalized().coeffs, atol=1e-12
        )


class TestPassivityIndices:
    def test_induced_inequality_coefficients(self):
        idx = PassivityIndices(-2 / 3, -1 / 3)
        np.testing.assert_allclose(idx.pqi().coeffs, [1 / 3, 1.0, 2 / 3])

    def test_product_bound_enforced(self):
        with pytest.raises(TrivialPQI):
            PassivityIndices(1.0, 1.0)

    def test_trivial_induced_pqi_rejected(self):
        # rho*nu < 1/4, but 1 - 4*rho*nu is far below 1e-12 of rho^2
        with pytest.raises(TrivialPQI, match=r"^indices rho=1e\+308, nu=-0.333 give "
                                             "a trivial PQI: 1 - 4\\*rho\\*nu = "):
            PassivityIndices(1e308, -0.333)

    def test_passive_pair_allowed(self):
        assert PassivityIndices(0.0, 0.0).pqi().coeffs.tolist() == [0.0, 1.0, 0.0]


RAGGED = "cannot be read as floats: setting an array element with a sequence"
WORD = "cannot be read as floats: could not convert string to float: 'a'$"


@pytest.mark.parametrize("call, error, match", [
    (lambda: PQI("a", 0.0, 1.0), NonFiniteValue, "^PQI coefficient a " + WORD),
    (lambda: PQI(1.0, [0.0, [1.0]], 1.0), NonFiniteValue, "^PQI coefficient b " + RAGGED),
    (lambda: PQI(0.0, 0.0, 0.0), InvalidSpec, "^PQI coefficients must not all be zero$"),
    (lambda: PassivityIndices("a", 0.0), NonFiniteValue, "^passivity index rho " + WORD),
    (lambda: PassivityIndices(0.0, [0.0, [1.0]]), NonFiniteValue,
     "^passivity index nu " + RAGGED),
    (lambda: Transform2("a", 0.0, 0.0, 1.0), NonFiniteValue, "^map " + WORD),
    (lambda: Transform2(1.0, 0.0, [0.0, [1.0]], 1.0), NonFiniteValue, "^map " + RAGGED),
    (lambda: Transform2.from_matrix([[1.0, 2.0], [3.0]]), NonFiniteValue, "^map " + RAGGED),
    (lambda: Transform2.from_matrix([["a", 2.0], [3.0, 4.0]]), NonFiniteValue,
     "^map " + WORD),
    (lambda: pullback(PQI(1.0, 0.0, -1.0), [[1.0, 2.0], [3.0]]), NonFiniteValue,
     "^map " + RAGGED),
    (lambda: pullback(PQI(1.0, 0.0, -1.0), "a"), NonFiniteValue, "^map " + WORD),
    (lambda: pullback(PQI(1.0, 0.0, 1.0), np.array([[np.nan, 0.0], [0.0, 1.0]])),
     NonFiniteValue, r"^map\[0, 0\] = nan is not finite$"),
    (lambda: Transform2.identity()("a", 0.0), NonFiniteValue, "^transform input u " + WORD),
    (lambda: Transform2.identity()(0.0, [0.0, [1.0]]), NonFiniteValue,
     "^transform input y " + RAGGED),
    (lambda: Transform2.identity()(np.zeros((2, 2)), np.array([[0.0, 1.0], [np.inf, 0.0]])),
     NonFiniteValue, r"^transform input y\[1, 0\] = inf is not finite$"),
    (lambda: contains(PQI(1.0, 0.0, -1.0), "a"), NonFiniteValue, "^point " + WORD),
    (lambda: contains(PQI(1.0, 0.0, -1.0), [0.0, [1.0]]), NonFiniteValue, "^point " + RAGGED),
    (lambda: contains(PQI(1.0, 0.0, -1.0), [1.0, np.nan]), NonFiniteValue,
     r"^point\[1\] = nan is not finite$"),
    # a third entry was once ignored
    (lambda: contains(PQI(1.0, 0.0, -1.0), [1.0, 0.0, 5.0]), DimensionMismatch,
     r"^point must be a pair, not of shape \(3,\)$"),
    (lambda: solution_set(PQI(1.0, 0.0, -1.0)).contains("a"), NonFiniteValue,
     "^point " + WORD),
    (lambda: solution_set(PQI(1.0, 0.0, -1.0)).contains([0.0, [1.0]]), NonFiniteValue,
     "^point " + RAGGED),
    (lambda: solution_set(PQI(1.0, 0.0, -1.0)).contains([np.inf, 0.0]), NonFiniteValue,
     r"^point\[0\] = inf is not finite$"),
    # the cone reads its own fields; a nan probe would answer False to every point
    (lambda: SymmetricDoubleCone(("a", 0.0), (0.0, 1.0), (1.0, 1.0)), NonFiniteValue,
     "^cone ray1 " + WORD),
    (lambda: SymmetricDoubleCone((1.0, 0.0), (0.0, [1.0]), (1.0, 1.0)), NonFiniteValue,
     "^cone ray2 " + RAGGED),
    (lambda: SymmetricDoubleCone((1.0, 0.0), (0.0, 1.0), (np.nan, 1.0)), NonFiniteValue,
     r"^cone interior_probe\[0\] = nan is not finite$"),
    (lambda: SymmetricDoubleCone((1.0, 0.0, 0.0), (0.0, 1.0), (1.0, 1.0)),
     DimensionMismatch, r"^cone ray1 must be a pair, not of shape \(3,\)$"),
], ids=["pqi_word", "pqi_ragged", "pqi_zero", "indices_word", "indices_ragged",
        "transform_word", "transform_ragged", "from_matrix_ragged", "from_matrix_word",
        "pullback_ragged", "pullback_word", "pullback_nan_map", "transform_call_word",
        "transform_call_ragged", "transform_call_inf", "contains_word", "contains_ragged",
        "contains_nan", "contains_three", "cone_contains_word", "cone_contains_ragged",
        "cone_contains_inf", "cone_ray_word", "cone_ray_ragged", "cone_probe_nan",
        "cone_ray_three"])
def test_bad_input_raises(call, error, match):
    with pytest.raises(error, match=match):
        call()
