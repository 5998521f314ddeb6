"""Transform synthesis, elementary decomposition, dissipation certificate."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pqikit import (
    PQI,
    PassivityIndices,
    Transform2,
    decompose,
    discriminant,
    find_equilibria,
    mapping_transform,
    passivize,
    pullback,
    solution_set,
    verify_passivation,
)
from pqikit.errors import (
    InvalidSpec,
    NonFiniteState,
    NonFiniteValue,
    NoStorageFunction,
    PreconditionFailed,
    SingularTransform,
)
from pqikit.network import AgentODE, bracket_roots, dormand_prince
from pqikit.systems import (
    nonmonotone_demo_agent,
    odd_cubic_agent,
    pendulum_gradient_agent,
    quadratic_agent,
)
from pqikit.transforms import U_RANGE, X0_RANGE, _reach

coeff = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)


def nontrivial_pqis():
    # coefficients are either exactly zero or of reasonable magnitude:
    # near-zero-but-nonzero leading coefficients make one boundary ray many
    # orders of magnitude longer than the other, and no finite-precision
    # transport through such a cone can meet a fixed 1e-9 tolerance
    def snap(t):
        a, b, c = (0.0 if abs(v) < 1e-6 else v for v in t)
        return PQI(a, b, c) if (a, b, c) != (0.0, 0.0, 0.0) else PQI(0.0, 1.0, 0.0)

    return (
        st.tuples(coeff, coeff, coeff)
        .map(snap)
        .filter(lambda p: discriminant(p) > 1e-4 * (p.a**2 + p.b**2 + p.c**2))
    )


def invertible_transforms():
    return (
        st.tuples(coeff, coeff, coeff, coeff)
        .filter(lambda t: abs(t[0] * t[3] - t[1] * t[2]) > 1e-3)
        .map(lambda t: Transform2(*t))
    )


class TestMappingTransform:
    def test_slanted_to_quadrants(self):
        T = mapping_transform(PQI(1 / 3, 1.0, 2 / 3), PQI(0.0, 1.0, 0.0))
        np.testing.assert_allclose(
            T.matrix(), [[1.0, 1.0], [1.0, 2.0]], atol=1e-12
        )

    def test_narrow_cone_to_quadrants(self):
        T = mapping_transform(PQI(1 / 9, 1.0, 20 / 9), PQI(0.0, 1.0, 0.0))
        np.testing.assert_allclose(
            T.matrix(), [[1.0, 4.0], [1.0, 5.0]], atol=1e-12
        )

    def test_same_inequality_gives_identity(self):
        T = mapping_transform(PQI(0.0, 1.0, 0.0), PQI(0.0, 1.0, 0.0))
        np.testing.assert_allclose(T.matrix(), np.eye(2), atol=1e-14)

    @given(nontrivial_pqis(), nontrivial_pqis())
    @example(PQI(0.0, 0.375, 1.0), PQI(1e-6, 5.0, 0.0))  # cond(T) = 4.1e7
    @settings(max_examples=300, deadline=None)
    def test_pullback_hits_target_up_to_positive_scalar(self, source, target):
        T = mapping_transform(source, target)
        got = pullback(source, T).normalized().coeffs
        want = target.normalized().coeffs
        assert np.dot(got, want) > 0  # positive, not negative, multiple
        # T comes from rounded rays and their inverse, so the pullback is off
        # by about cond(T)·eps; 20 000 random draws stayed below 5 cond(T)·eps
        # and a 20 000-example search maximizing the error below 8
        tol = 16.0 * np.linalg.cond(T.matrix()) * np.finfo(float).eps
        np.testing.assert_allclose(got, want, rtol=0.0, atol=tol)

    @given(nontrivial_pqis(), nontrivial_pqis(), st.integers(0, 2**31 - 1))
    @settings(max_examples=100, deadline=None)
    def test_solution_set_transport(self, source, target, seed):
        T = mapping_transform(source, target)
        src_cone = solution_set(source)
        tgt_cone = solution_set(target)
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-3.0, 3.0, size=(200, 2))
        m = T.matrix()
        norm_s = np.linalg.norm(source.coeffs)
        norm_t = np.linalg.norm(target.coeffs)
        for z in pts:
            w = m @ z
            vs = source(z[0], z[1])
            vt = target(w[0], w[1])
            band_s = 1e-6 * norm_s * (z @ z + 1.0)
            band_t = 1e-6 * norm_t * (w @ w + 1.0)
            if abs(vs) <= band_s or abs(vt) <= band_t:
                continue
            assert src_cone.contains(z) == tgt_cone.contains(w)


class TestPassivize:
    def test_short_pair_to_passivity(self):
        T = passivize(PassivityIndices(-2 / 3, -1 / 3))
        np.testing.assert_allclose(
            T.matrix(), [[1.0, 1.0], [1.0, 2.0]], atol=1e-12
        )

    def test_narrow_short_pair_to_passivity(self):
        T = passivize(PassivityIndices(-20 / 9, -1 / 9))
        np.testing.assert_allclose(
            T.matrix(), [[1.0, 4.0], [1.0, 5.0]], atol=1e-12
        )

    def test_output_short_shift_is_pure_feedback(self):
        # raising the output index by beta is the upper-triangular shear
        rho, beta = -1.0, 2.0
        T = passivize(PassivityIndices(rho, 0.0),
                      PassivityIndices(rho + beta, 0.0))
        np.testing.assert_allclose(
            T.matrix(), [[1.0, beta], [0.0, 1.0]], atol=1e-12
        )


class TestDecompose:
    def test_unit_gains_case(self):
        dec = decompose(Transform2(1.0, 1.0, 1.0, 2.0))
        assert (dec.delta_A, dec.delta_B, dec.delta_C, dec.delta_D) == (
            1.0, 1.0, 1.0, 1.0,
        )
        assert not dec.column_swapped

    def test_identity(self):
        dec = decompose(Transform2.identity())
        assert (dec.delta_A, dec.delta_B, dec.delta_C, dec.delta_D) == (
            0.0, 1.0, 0.0, 1.0,
        )

    def test_shear_and_gain(self):
        dec = decompose(Transform2(1.0, 4.0, 1.0, 5.0))
        assert (dec.delta_A, dec.delta_B, dec.delta_C, dec.delta_D) == (
            4.0, 1.0, 1.0, 1.0,
        )
        np.testing.assert_allclose(
            dec.reconstruct(), [[1.0, 4.0], [1.0, 5.0]], atol=1e-14
        )

    def test_zero_corner_swaps_columns(self):
        T = Transform2(0.0, 2.0, 3.0, 4.0)
        dec = decompose(T)
        assert dec.column_swapped
        np.testing.assert_allclose(dec.reconstruct(), T.matrix(), atol=1e-12)

    def test_singular_rejected(self):
        with pytest.raises(SingularTransform):
            decompose(Transform2(1.0, 2.0, 2.0, 4.0))

    @given(invertible_transforms())
    @example(Transform2(0.03125, 0.0, 0.0, 4.0))
    @example(Transform2(0.03125, 2.2e-313, 0.0, 4.0))
    @settings(max_examples=300, deadline=None)
    def test_reconstruction(self, T):
        dec = decompose(T)
        scale = np.abs(T.matrix()).max()
        np.testing.assert_allclose(
            dec.reconstruct(), T.matrix(), atol=1e-12 * max(scale, 1.0)
        )
        assert dec.delta_B != 0.0 and dec.delta_D != 0.0


def scalar_roots(f, u, lo, hi, cells):
    """Reference scan-and-bisect: one grid point and one bracket at a time.

    Returns the roots and the most halvings a bracket took before its ends
    were adjacent floats; with the grid call, bisecting every bracket
    together costs one more array call than that.
    """
    xs = np.linspace(lo, hi, cells + 1)
    vals = [f(x, u) for x in xs]
    roots, halvings = [], 0
    for i in range(cells):
        if vals[i] == 0.0:
            roots.append(xs[i])
        elif np.sign(vals[i]) * vals[i + 1] < 0.0:
            a, b, fa = xs[i], xs[i + 1], vals[i]
            for n in range(80):
                m = 0.5 * (a + b)
                if m in (a, b):
                    break
                fm = f(m, u)
                if np.sign(fa) * fm <= 0.0:
                    b = m
                else:
                    a, fa = m, fm
            halvings = max(halvings, n)
            roots.append(0.5 * (a + b))
    return roots, halvings


def counted(f):
    """f, and the list that gets the size of each array f is called on."""
    calls = []

    def f_counted(x, u):
        calls.append(np.size(x))
        return f(x, u)
    return f_counted, calls


def at_sign_change(f, x) -> bool:
    """f(x) is 0, or x has a float neighbour where f has the other sign."""
    fx = f(x, 0.0)
    return fx == 0.0 or any(np.sign(fx) * f(np.nextafter(x, d), 0.0) < 0.0
                            for d in (-np.inf, np.inf))


# hard for interpolation: a jump, two close roots, an infinite slope, a
# near-step and a root of multiplicity 9
HARD_SHAPES = {
    "jump": lambda x, u: np.where(x < 0.3, -1.0, 1.0) + u,
    "close_pair": lambda x, u: (x - 1.0) ** 2 - 1e-12 + u,
    "cbrt": lambda x, u: np.cbrt(x - 0.1) + u,
    "near_step": lambda x, u: np.tanh(1e4 * (x - 0.123)) + u,
    "ninth_power": lambda x, u: (x - 0.2) ** 9 + u,
}


class TestBracketRoots:
    @pytest.mark.parametrize("agent", [
        pendulum_gradient_agent(), odd_cubic_agent(), nonmonotone_demo_agent(),
    ])
    def test_matches_scalar_reference(self, agent):
        us = [-2.0, -0.5, 0.0, 0.3, 1.7]
        roots, level = bracket_roots(agent.f, us, -10.0, 10.0, 400)
        for j, u in enumerate(us):
            want, _ = scalar_roots(agent.f, u, -10.0, 10.0, 400)
            assert len(roots[level == j]) == len(want)
            np.testing.assert_allclose(roots[level == j], want, rtol=0.0,
                                       atol=1e-12)

    def test_exact_grid_zero_returns_grid_point(self):
        roots, _ = bracket_roots(pendulum_gradient_agent().f, [0.0],
                                 -10.0, 10.0, 400)
        assert 0.0 in roots.tolist()

    def test_bisection_stops_once_brackets_cannot_move(self):
        # the grid 0, 2/3, 4/3, 2 brackets the root 1 in one cell, whose
        # ends are adjacent floats after about 53 halvings of its width
        calls = []

        def f(x, u):
            calls.append(np.size(x))
            return x - 1.0 + u

        roots, level = bracket_roots(f, [0.0], 0.0, 2.0, 3)
        assert roots.tolist() == [1.0] and level.tolist() == [0]
        assert len(calls) <= 56

    def test_grid_zero_cells_are_not_bisected(self):
        # every cell's left end is a root: the grid call answers them all
        calls = []

        def f(x, u):
            calls.append(np.size(x))
            return np.zeros_like(x) + u

        roots, _ = bracket_roots(f, [0.0], -1.0, 1.0, 4)
        assert roots.tolist() == [-1.0, -0.5, 0.0, 0.5]
        assert calls == [5]

    def test_round_cap_ends_a_bracket_beside_a_grid_zero(self):
        # the root 1e-300 sits next to the grid point 0; once the offset
        # 0.1·w² is below one ulp of the midpoint's distance, it is still
        # added to the false-position point, so the bracket closes
        # quadratically instead of halving for 80 rounds
        f, calls = counted(lambda x, u: x - 1e-300)
        roots, _ = bracket_roots(f, [0.0], -1.0, 1.0, 2)
        assert len(calls) <= 12
        assert roots.tolist() == [1e-300]

    def test_round_cap_yields_the_midpoint_of_an_open_bracket(self):
        # values on either side of a jump say nothing about where it is, and
        # the ulps at 1e-200 are far below the width 80 rounds reach from a
        # cell of width 1, so the cap ends the loop with the bracket open
        f, calls = counted(lambda x, u: np.where(x < 1e-200, -1.0, 1.0))
        roots, _ = bracket_roots(f, [0.0], -1.0, 1.0, 2)
        assert len(calls) == 81
        assert roots[0] != 1e-200 and abs(roots[0] - 1e-200) <= 2.0 ** -78

    @pytest.mark.parametrize("agent", [
        pendulum_gradient_agent(), odd_cubic_agent(), nonmonotone_demo_agent(),
    ])
    def test_relation_check_call_count(self, agent):
        # bisection took 54, 62 and 69 array calls of f here, and bracketing
        # every root on a 2001-point grid 12, 13 and 15; the window test
        # evaluates f once, at both ends of the 50 samples' windows
        f, calls = counted(agent.f)
        assert replace(agent, f=f).check_relation()
        assert calls == [100]

    def test_linear_f_closes_without_truncation_rounds(self):
        # the false-position point lands within rounding of each root, and
        # one more round closes the bracket; ITP alone took 12 array calls
        levels = np.random.default_rng(0).uniform(-50.0, 50.0, 100)
        f, calls = counted(lambda x, t: x - t)
        roots, level = bracket_roots(f, levels, -50.0, 50.0, 1)
        np.testing.assert_array_equal(roots, levels[level])
        assert level.tolist() == list(range(100))
        assert len(calls) == 3

    @pytest.mark.parametrize("shape", HARD_SHAPES)
    def test_hard_shapes_match_bisection_in_fewer_calls(self, shape):
        f, calls = counted(HARD_SHAPES[shape])
        roots, _ = bracket_roots(f, [0.0], -10.0, 10.0, 400)
        want, halvings = scalar_roots(HARD_SHAPES[shape], 0.0, -10.0, 10.0, 400)
        assert len(roots) == len(want)
        np.testing.assert_allclose(roots, want, rtol=0.0, atol=1e-12)
        assert len(calls) <= 1 + halvings
        assert all(at_sign_change(HARD_SHAPES[shape], x) for x in roots)

    @pytest.mark.parametrize("jump", [-0.61, 0.1234567, 0.3, 0.377777, 0.95])
    @pytest.mark.parametrize("right", [1.0, 7.0])
    def test_jump_inside_a_coarse_cell_stays_near_bisection(self, jump, right):
        # values on either side of a jump say nothing about where it is, so
        # the interpolated steps gain nothing; the projection keeps each
        # bracket no wider than bisection's two rounds earlier, and rounding
        # in the last ulps may cost one round more
        def step(x, u):
            return np.where(x < jump, -1.0, right) + u

        f, calls = counted(step)
        roots, _ = bracket_roots(f, [0.0], -1.0, 1.0, 7)
        want, halvings = scalar_roots(step, 0.0, -1.0, 1.0, 7)
        np.testing.assert_allclose(roots, want, rtol=0.0, atol=1e-15)
        assert at_sign_change(step, roots[0])
        assert len(calls) <= 1 + halvings + 3

    def test_decreasing_grid(self):
        roots, level = bracket_roots(lambda x, u: x - 0.3 + u, [0.0, 0.1],
                                     1.0, -1.0, 4)
        np.testing.assert_allclose(roots, [0.3, 0.2], rtol=0.0, atol=1e-16)
        assert level.tolist() == [0, 1]

    def test_huge_and_tiny_values_keep_their_sign_changes(self):
        # products of the grid values would overflow or underflow to zero
        for scale in (1e200, 1e-200):
            roots, _ = bracket_roots(lambda x, u: scale * (x - 0.3) + u, [0.0],
                                     -1.0, 1.0, 7)
            np.testing.assert_allclose(roots, [0.3], rtol=0.0, atol=1e-15)

    def test_agent_writing_into_its_input_is_located(self):
        def shifts_in_place(x, u):
            x += u
            return x

        with pytest.raises(InvalidSpec, match="shifts_in_place"):
            bracket_roots(shifts_in_place, [0.5], -1.0, 1.0, 4)


class TestVerifyPassivation:
    def test_equilibrium_finder_matches_relation(self):
        system = nonmonotone_demo_agent()
        eqs = find_equilibria(system, [0.5])
        assert eqs
        for x_eq, u_eq, y_eq in eqs:
            assert abs(system.f(x_eq, u_eq)) < 1e-9

    def test_non_broadcasting_agent_is_located(self):
        def math_sine_flow(x, u):
            return -math.sin(x) + u

        agent = AgentODE(f=math_sine_flow, h=lambda x: x)
        with pytest.raises(InvalidSpec,
                           match="^agent: .*math_sine_flow failed on array input"):
            find_equilibria(agent, [0.0])

    def test_transformed_system_certified(self):
        system = nonmonotone_demo_agent()
        report = verify_passivation(
            system, Transform2(1.0, 1.0, 1.0, 2.0), PassivityIndices(0.0, 0.0),
            trials=20,
        )
        assert report.passed
        assert report.max_violation <= 1e-6

    def test_untransformed_system_violates(self):
        system = nonmonotone_demo_agent()
        report = verify_passivation(
            system, Transform2.identity(), PassivityIndices(0.0, 0.0),
            trials=20,
        )
        assert not report.passed
        assert report.max_violation > 0.0

    def test_passive_system_with_identity_passes(self):
        report = verify_passivation(
            quadratic_agent(0.0), Transform2.identity(),
            PassivityIndices(0.0, 0.0), trials=20,
        )
        assert report.passed

    def test_blow_up_names_the_trajectory_time(self):
        # x' = x² - 1 has equilibria at ±1, and from the top of the start box
        # x(t) = coth(ln(2)/2 - t) leaves every bound at t = ln(2)/2 = 0.3466
        runaway = AgentODE(f=lambda x, u: x * x - 1.0, h=lambda x: x,
                           storage=lambda x, xe: 0.5 * (x - xe) ** 2)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NonFiniteState, match=r"t = \d") as err:
            verify_passivation(runaway, Transform2.identity(),
                               PassivityIndices(0.0, 0.0), trials=3)
        t = float(re.search(r"t = ([0-9.]+)", str(err.value)).group(1))
        assert abs(t - 0.5 * math.log(2.0)) <= 0.01

    def test_pendulum_certificate_work(self):
        # the grid is one call; the root search makes about a dozen and the
        # reach's adaptive steps the rest (584 here, about 95 steps of 6)
        calls = []
        agent = pendulum_gradient_agent()

        def counted_f(x, u):
            calls.append(1)
            return agent.f(x, u)

        report = verify_passivation(replace(agent, f=counted_f),
                                    Transform2(1.0, 2.5, 0.0, 1.0),
                                    PassivityIndices(0.0, 0.0), trials=10)
        assert report.passed
        assert len(calls) <= 800

    def test_output_map_called_once_on_the_states(self):
        # h takes states alone: one call on the equilibria, one on the 201
        # grid states, never on the 201 x 41 state-input grid
        shapes = []
        agent = pendulum_gradient_agent()

        def counted_h(x):
            shapes.append(np.shape(x))
            return agent.h(x)

        report = verify_passivation(replace(agent, h=counted_h),
                                    Transform2(1.0, 2.5, 0.0, 1.0),
                                    PassivityIndices(0.0, 0.0), trials=10)
        assert report.passed
        assert len(shapes) == 2 and shapes[1] == (201,)
        assert shapes[0] == (len(find_equilibria(agent, np.linspace(-2.0, 2.0, 20))),)

    def test_no_equilibrium_is_refused(self):
        # the only equilibria, x = u + 50, lie outside the root window
        agent = AgentODE(f=lambda x, u: -x + u + 50.0, h=lambda x: -5.0 * x,
                         storage=lambda x, xe: 0.5 * (x - xe) ** 2)
        with pytest.raises(PreconditionFailed,
                           match=r"no forced equilibrium.*\[-10, 10\].*"
                                 r"U_RANGE \[-2.0, 2.0\]"):
            verify_passivation(agent, Transform2.identity(),
                               PassivityIndices(0.0, 0.0), trials=3)

    def test_nan_output_is_named(self):
        # the grid's states step by 0.06 from -3, so 1.02 is the first above 1
        agent = AgentODE(f=lambda x, u: -x + u,
                         h=lambda x: np.where(x > 1.0, np.nan, x),
                         storage=lambda x, xe: 0.5 * (x - xe) ** 2)
        with pytest.raises(NonFiniteValue,
                           match=r"^h is not finite at \(x, u\) = \(1\.02, -2\)$"):
            verify_passivation(agent, Transform2.identity(),
                               PassivityIndices(0.0, 0.0), trials=5)

    def test_thin_band_violation_is_caught(self):
        # passive but for an output jump of 50 on x in [2.95, 3], where
        # -(x - xe)² - 50·(u - ue) > 0 for inputs well below ue; the grid
        # holds x = 3, while ten random trajectories from [-3, 3] (seed 0)
        # never enter the band, since f points away from it
        agent = AgentODE(
            f=lambda x, u: -x + u,
            h=lambda x: np.where((x >= 2.95) & (x <= 3.0), x + 50.0, x),
            storage=lambda x, xe: 0.5 * (x - xe) ** 2)
        report = verify_passivation(agent, Transform2.identity(),
                                    PassivityIndices(0.0, 0.0), trials=10)
        assert not report.passed and report.max_violation > 1.0

    @pytest.mark.parametrize("agent", [
        nonmonotone_demo_agent(), pendulum_gradient_agent(), odd_cubic_agent(),
        quadratic_agent(),
    ], ids=["demo", "pendulum", "odd-cubic", "quadratic"])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_reach_holds_the_trials(self, agent, seed):
        # ten random trajectories: starts in X0_RANGE, inputs in U_RANGE
        # held over ten unit spans, stored at each step end, steps of at
        # most 0.02
        rng = np.random.default_rng(seed)
        u_levels = rng.uniform(*U_RANGE, size=(11, 10))
        x = rng.uniform(*X0_RANGE, size=10)
        states = [x]
        for u in u_levels[:10]:
            for _, x, _ in dormand_prince(
                    lambda x, u=u: agent.f(x, u), x, 1.0, 1e-3, 0.02):
                states.append(x)
        states = np.concatenate(states)
        lo, hi = _reach(agent.f, np.linspace(*U_RANGE, 41))
        assert lo <= states.min() and states.max() <= hi

    def test_non_broadcasting_storage_is_located(self):
        agent = AgentODE(f=lambda x, u: -x + u, h=lambda x: x,
                         storage=lambda x, xe: 0.5 * float(x - xe) ** 2)
        with pytest.raises(InvalidSpec,
                           match="^agent: .* failed on array input.*storage"):
            verify_passivation(agent, Transform2.identity(),
                               PassivityIndices(0.0, 0.0), trials=3)

    def test_no_trials_rejected(self):
        with pytest.raises(ValueError, match="^trials must be an integer of at least 1, got 0$"):
            verify_passivation(nonmonotone_demo_agent(), Transform2.identity(),
                               PassivityIndices(0.0, 0.0), trials=0)

    def test_missing_storage_rejected(self):
        bare = AgentODE(f=lambda x, u: -x + u, h=lambda x: x)
        with pytest.raises(NoStorageFunction):
            verify_passivation(bare, Transform2.identity(),
                               PassivityIndices(0.0, 0.0), trials=1)
