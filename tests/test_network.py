"""Network simulation, per-agent transforms, and dual steady-state solvers."""

import copy
import csv
import json
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pqikit.network as network_module
import pqikit.relations as relations_module
from pqikit import (
    AgentODE,
    ControllerSpec,
    Graph,
    IntegralFunction,
    IntegratorConfig,
    NetworkSpec,
    PassivityIndices,
    PlanarRelation,
    Transform2,
    apply_network_transform,
    legendre,
    passivize,
    predict_and_verify,
    simulate,
    solve_ofp,
    solve_opp,
    spec_from_json,
    transform_agent,
)
from pqikit.errors import (
    DimensionMismatch,
    InvalidSpec,
    NoConvergence,
    NonConvexCertificate,
    NonFiniteState,
    PreconditionFailed,
    SingularTransform,
)
from pqikit.systems import (
    nonmonotone_demo_agent,
    odd_cubic_agent,
    pendulum_gradient_agent,
    pendulum_network,
    quadratic_agent,
    quadratic_network,
)

FAST = IntegratorConfig(horizon=30.0, store_stride=10)


def _relation_agent(u_of_y, s_range=(-3.0, 3.0), n=4001):
    """Stable agent whose declared steady-state relation is u = u_of_y(y)."""
    rel = PlanarRelation.from_param_curve(u_of_y, lambda s: s, s_range, n)
    return AgentODE(f=lambda x, u: -x, h=lambda x, u: x, relation=rel)


class TestGraph:
    def test_incidence_entries(self):
        g = Graph(3, ((0, 1), (1, 2)))
        E = g.incidence_matrix()
        np.testing.assert_array_equal(E, [[1, 0], [-1, 1], [0, -1]])

    def test_columns_sum_to_zero(self):
        E = Graph.path(6).incidence_matrix()
        np.testing.assert_array_equal(E.sum(axis=0), np.zeros(5))

    def test_self_loop_rejected(self):
        with pytest.raises(DimensionMismatch):
            Graph(2, ((1, 1),))

    def test_out_of_range_rejected(self):
        with pytest.raises(DimensionMismatch):
            Graph(2, ((0, 5),))


class TestSimulate:
    def test_isolated_agent_follows_autonomous_flow(self):
        spec = NetworkSpec(
            Graph(1, ()), (quadratic_agent(0.0),), (), np.array([1.0]),
            IntegratorConfig(horizon=5.0, stop_on_convergence=False),
        )
        sim = simulate(spec)
        np.testing.assert_allclose(sim.y[:, 0], np.exp(-sim.t), atol=1e-8)

    def test_coupling_identities_exact(self):
        spec = quadratic_network(integrator=FAST)
        sim = simulate(spec)
        E = spec.graph.incidence_matrix()
        np.testing.assert_array_equal(sim.zeta, sim.y @ E)
        np.testing.assert_array_equal(sim.u, -(sim.mu @ E.T))

    def test_quadratic_pair_reaches_known_steady_state(self):
        sim = simulate(quadratic_network(integrator=FAST))
        assert sim.converged
        np.testing.assert_allclose(sim.steady_state, [5.0 / 3.0, 7.0 / 3.0],
                                   atol=1e-4)

    def test_blow_up_detected(self):
        runaway = AgentODE(f=lambda x, u: x * x, h=lambda x, u: x)
        spec = NetworkSpec(Graph(1, ()), (runaway,), (), np.array([5.0]),
                           IntegratorConfig(horizon=2.0))
        with pytest.raises(NonFiniteState), np.errstate(over="ignore"):
            simulate(spec)

    def test_non_finite_trial_step_is_retried(self):
        # sqrt(x) is NaN below zero: once x is tiny, steps of a few time
        # units put some stages there, and those steps are retried smaller
        nan_calls = []

        def flow(x, u):
            dx = -x + 0.0 * np.sqrt(x)
            nan_calls.append(not np.isfinite(dx).all())
            return dx

        spec = NetworkSpec(
            Graph(1, ()), (AgentODE(f=flow, h=lambda x, u: x),), (),
            np.array([1.0]),
            IntegratorConfig(horizon=60.0, convergence_window=10.0,
                             stop_on_convergence=False))
        with np.errstate(invalid="ignore"):
            sim = simulate(spec)
        assert any(nan_calls)
        assert sim.t[-1] == 60.0
        np.testing.assert_allclose(sim.y[:, 0], np.exp(-sim.t), rtol=0.0,
                                   atol=1e-8)

    @pytest.mark.parametrize("layout", ["per-vertex", "alternating"])
    @pytest.mark.parametrize("transformed", [False, True])
    def test_shared_agent_matches_scalar_evaluation(self, layout, transformed):
        # one shared agent object is evaluated with one array call per stage;
        # the reference gives each vertex its own object (scalar calls), or
        # alternates two objects (index-array groups)
        shared = pendulum_network(integrator=IntegratorConfig(horizon=6.0))
        if layout == "per-vertex":
            agents = tuple(pendulum_gradient_agent() for _ in range(5))
        else:
            pair = (pendulum_gradient_agent(), pendulum_gradient_agent())
            agents = tuple(pair[i % 2] for i in range(5))
        reference = replace(shared, agents=agents)
        if transformed:
            T = Transform2(1.0, 2.5, 0.0, 1.0)
            shared = apply_network_transform(shared, [T] * 5)
            reference = apply_network_transform(reference, [T] * 5)
        assert len({id(a) for a in shared.agents}) == 1
        a, b = simulate(shared), simulate(reference)
        assert a.converged == b.converged
        assert a.t[-1] == b.t[-1]
        np.testing.assert_allclose(a.y, b.y, rtol=0.0, atol=1e-9)

    def test_odd_cubic_path_converges(self):
        # consensus y = 1 on the steady-state relation u = y^3 - y (u = 0)
        agent = odd_cubic_agent()
        spec = NetworkSpec(Graph.path(5), (agent,) * 5,
                           (ControllerSpec(gain=1.0),) * 4,
                           np.linspace(-2.0, 2.5, 5))
        sim = simulate(spec)
        assert sim.converged
        np.testing.assert_allclose(sim.steady_state, np.ones(5), atol=1e-5)

    def test_cube_root_network_at_the_step_floor(self):
        # near its cube-root equilibrium x = 0 this network pins the step to
        # the floor dt; there a step costs 6 calls of f against RK4's 4, and
        # fewer steps than fixed steps of dt must keep the total under 1.5x
        calls = []
        demo = nonmonotone_demo_agent()

        def counted_f(x, u):
            calls.append(1)
            return demo.f(x, u)

        agent = replace(demo, f=counted_f)
        cfg = IntegratorConfig(horizon=20.0)
        spec = NetworkSpec(Graph.path(5), (agent,) * 5,
                           (ControllerSpec(gain=1.0),) * 4,
                           np.linspace(-2.0, 2.5, 5), cfg)
        spec = apply_network_transform(spec, [Transform2(1.0, 1.0, 1.0, 2.0)] * 5)
        sim = simulate(spec)
        assert len(calls) <= 1.5 * 4 * cfg.horizon / cfg.dt
        assert np.max(np.abs(sim.steady_state)) <= 1e-4

    @given(st.floats(-3.0, 3.0))
    @settings(max_examples=12, deadline=None)
    def test_time_scaling_keeps_verdict_and_steady_state(self, log_alpha):
        # f -> alpha f is the same flow in time t / alpha: with dt, horizon
        # and window divided by alpha and tol_conv multiplied by it, each
        # step is the same step in scaled time up to rounding.  Rounding
        # moves the stop by less than dt, over which |dx| < tol_conv * dt.
        base = pendulum_network()
        scaled = self._time_scaled(base, 10.0 ** log_alpha)
        want, got = simulate(base), simulate(scaled)
        assert want.converged and got.converged
        cfg = base.integrator
        np.testing.assert_allclose(got.steady_state, want.steady_state, rtol=0.0,
                                   atol=cfg.tol_conv * cfg.dt)

    @staticmethod
    def _time_scaled(spec, alpha):
        """spec with f -> alpha f and its integrator settings in time t / alpha."""
        agent = spec.agents[0]
        fast = replace(agent, f=lambda x, u: alpha * agent.f(x, u))
        cfg = spec.integrator
        return replace(spec, agents=(fast,) * len(spec.agents), integrator=replace(
            cfg, dt=cfg.dt / alpha, horizon=cfg.horizon / alpha,
            convergence_window=cfg.convergence_window / alpha,
            tol_conv=cfg.tol_conv * alpha))

    def test_time_scaling_keeps_stop_time(self):
        # the pendulum network converges with its steps at the cap of half a
        # window, where two steps span the window exactly: the verdict at
        # that tie must not depend on the rounding of t in scaled units
        base = pendulum_network()
        t_stop = simulate(base).t[-1]
        for log_alpha in np.arange(-3.0, 3.25, 0.5):
            alpha = 10.0 ** log_alpha
            sim = simulate(self._time_scaled(base, alpha))
            assert abs(alpha * sim.t[-1] - t_stop) <= 0.01 * base.integrator.dt, alpha

    def test_non_broadcasting_agent_is_located(self):
        def math_sine_flow(x, u):
            return -math.sin(x) + u

        agent = AgentODE(f=math_sine_flow, h=lambda x, u: x)
        spec = NetworkSpec(Graph.path(3), (agent,) * 3,
                           (ControllerSpec(gain=1.0),) * 2, np.zeros(3),
                           IntegratorConfig(horizon=1.0))
        with pytest.raises(InvalidSpec,
                           match=r"vertex \[0, 1, 2\].*math_sine_flow"):
            simulate(spec)

    def test_singular_feedthrough_loop_rejected(self):
        # D = -1/2 on both ends of a unit-gain edge: I + D·E·G·Eᵀ is singular
        agent = nonmonotone_demo_agent()
        spec = NetworkSpec(Graph.path(2), (agent, agent),
                           (ControllerSpec(gain=1.0),), np.array([0.5, 1.0]),
                           IntegratorConfig(horizon=1.0))
        with pytest.raises(InvalidSpec, match="singular"):
            simulate(spec)

    def test_feedthrough_loop_matches_closed_form(self):
        # x' = -x + u + c, y = x + D·u rests at y = c + (1 + D)·u with
        # u = -E G Eᵀ y, so y* = (I + (1 + D)·E G Eᵀ)⁻¹ c
        D, gain, centers = 0.5, 1.5, np.array([1.0, -2.0, 0.5, 3.0])
        agents = tuple(AgentODE(f=lambda x, u, c=c: -x + u + c,
                                h=lambda x, u: x + D * u, feedthrough=D)
                       for c in centers)
        n = len(centers)
        spec = NetworkSpec(Graph.path(n), agents,
                           (ControllerSpec(gain=gain),) * (n - 1), np.zeros(n),
                           FAST)
        sim = simulate(spec)
        E = spec.graph.incidence_matrix()
        want = np.linalg.solve(np.eye(n) + (1.0 + D) * gain * E @ E.T, centers)
        assert sim.converged
        np.testing.assert_allclose(sim.steady_state, want, rtol=0.0, atol=1e-5)
        np.testing.assert_allclose(sim.y, sim.x + D * sim.u, rtol=0.0,
                                   atol=1e-12)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DimensionMismatch):
            NetworkSpec(Graph(2, ((0, 1),)), (quadratic_agent(),),
                        (ControllerSpec(gain=1.0),), np.zeros(2))


class TestTransformAgent:
    def test_feedthrough_agent_loses_feedthrough(self):
        agent = nonmonotone_demo_agent()
        out = transform_agent(agent, Transform2(1.0, 1.0, 1.0, 2.0))
        assert abs(out.feedthrough) <= 1e-12
        xs = np.linspace(-4.0, 4.0, 41)
        for x in xs:
            for ut in (-1.0, 0.0, 2.0):
                assert abs(out.f(x, ut) - (-np.cbrt(x) + ut)) <= 1e-12
                assert abs(out.h(x, ut) - x) <= 1e-12

    def test_feedback_shear_on_gradient_agent(self):
        r1, r2 = 2.5, 0.1
        agent = pendulum_gradient_agent(r1, r2)
        out = transform_agent(agent, Transform2(1.0, r1, 0.0, 1.0))
        for x in np.linspace(-5.0, 5.0, 21):
            want = -r1 * np.sin(x) - (r1 + r2) * x + 1.5
            assert abs(out.f(x, 1.5) - want) <= 1e-12
            assert abs(out.h(x, 1.5) - x) <= 1e-12

    def test_identity_preserves_fields(self):
        agent = pendulum_gradient_agent()
        out = transform_agent(agent, Transform2.identity())
        for x in np.linspace(-3.0, 3.0, 11):
            assert out.f(x, 0.7) == agent.f(x, 0.7)
            assert out.h(x, 0.7) == agent.h(x, 0.7)

    def test_round_trip_restores_vector_field(self):
        agent = nonmonotone_demo_agent()
        T = Transform2(1.0, 1.0, 1.0, 2.0)
        back = transform_agent(transform_agent(agent, T), T.inverse())
        for x in np.linspace(-3.0, 3.0, 31):
            for u in (-1.0, 0.3, 2.0):
                assert abs(back.f(x, u) - agent.f(x, u)) <= 1e-12
                assert abs(back.h(x, u) - agent.h(x, u)) <= 1e-12

    def test_network_transform_counts(self):
        spec = pendulum_network(n_agents=3)
        with pytest.raises(DimensionMismatch):
            apply_network_transform(spec, [Transform2.identity()])


class TestSolvers:
    def test_single_agent_unconstrained_minimum(self):
        spec = NetworkSpec(Graph(1, ()), (quadratic_agent(3.0),), (),
                           np.zeros(1))
        res = solve_opp(spec)
        np.testing.assert_allclose(res.primal, [3.0], atol=1e-6)

    @pytest.mark.parametrize("center", [30.0, -45.0])
    def test_quadratic_model_extends_past_its_grid(self, center):
        # the relation is sampled on [-20, 20]; past it the model goes on
        # with its end cell's quadratic, which must have the full curvature
        # (with half of it, 30 reads 40.01).  The rounding of the nodal
        # slopes grows with the distance past the grid over the cell width
        spec = NetworkSpec(Graph(1, ()), (quadratic_agent(center),), (),
                           np.zeros(1))
        np.testing.assert_allclose(solve_opp(spec).primal, [center],
                                   rtol=1e-9, atol=0.0)

    def test_units_scale_the_solution_and_not_the_work(self):
        # u = y - cᵢ sampled on [-20s, 20s] with centres s·c: both
        # solutions scale by s and each solver iterates alike at every s
        E = Graph.path(5).incidence_matrix()
        L = 1.5 * E @ E.T
        iterations = set()
        for s in (1e-8, 1e-4, 1.0, 1e4, 1e8):
            centers = s * np.array([1.0, 3.0, -2.0, 0.5, -1.2])
            agents = tuple(_relation_agent(lambda y, c=c: y - c, (-20.0 * s, 20.0 * s))
                           for c in centers)
            spec = NetworkSpec(Graph.path(5), agents,
                               (ControllerSpec(gain=1.5),) * 4, np.zeros(5))
            y = np.linalg.solve(np.eye(5) + L, centers)
            opp, ofp = solve_opp(spec), solve_ofp(spec)
            for got, want in ((opp.primal, y), (ofp.primal, -L @ y)):
                np.testing.assert_allclose(got, want, rtol=0.0,
                                           atol=1e-9 * np.abs(want).max())
            iterations.add((opp.iterations, ofp.iterations))
        assert len(iterations) == 1, iterations

    def test_strong_coupling_drives_consensus_to_mean(self):
        spec = quadratic_network(centers=(1.0, 3.0), gain=500.0)
        res = solve_opp(spec)
        np.testing.assert_allclose(res.primal, [2.0, 2.0], atol=2e-2)

    def test_no_edges_flow_problem_is_trivial(self):
        spec = NetworkSpec(Graph(1, ()), (quadratic_agent(3.0),), (),
                           np.zeros(1))
        res = solve_ofp(spec)
        assert res.coupling.size == 0
        np.testing.assert_array_equal(res.primal, [0.0])

    def test_non_quadratic_flow_problem_converges(self):
        # not one Newton step: the solver must iterate to the residual bound
        opp, ofp = (solver(self._sinh_spec()) for solver in (solve_opp, solve_ofp))
        assert opp.residual <= 1e-6 and ofp.residual <= 1e-6
        y = opp.primal
        flow = 1.3 * (y[0] - y[1])
        assert abs(np.sinh(y[0] - 1.0) + flow) <= 1e-3
        assert abs(2.5 * (np.sin(y[1]) + y[1]) + 0.1 * y[1] - 2.0 - flow) <= 1e-3
        np.testing.assert_allclose(ofp.primal, [-flow, flow], atol=1e-3)
        assert abs(opp.objective + ofp.objective) <= 1e-3

    @staticmethod
    def _sinh_spec():
        agents = (
            _relation_agent(lambda y: np.sinh(y - 1.0), (-6.0, 6.0), 2001),
            _relation_agent(lambda y: 2.5 * (np.sin(y) + y) + 0.1 * y - 2.0,
                            (-40.0, 40.0)),
        )
        return NetworkSpec(Graph.path(2), agents, (ControllerSpec(gain=1.3),),
                           np.zeros(2))

    @pytest.mark.parametrize("solver", [solve_opp, solve_ofp])
    def test_residual_above_bound_raises_when_iterations_run_out(
            self, solver, monkeypatch):
        # with no trust-region iteration left the solve stops at zero
        monkeypatch.setattr(network_module, "_TRUST_ITERATIONS", 0)
        with pytest.raises(NoConvergence, match="stopped with gradient residual"):
            solver(self._sinh_spec())

    def test_step_that_cannot_move_ends_the_solve(self, monkeypatch):
        # a supplied potential whose slope rises by 1 across one cell 1e-12
        # wide, where the minimizer lies: an ulp of y moves the gradient by
        # about 2e-4, past the residual bound, so the region shrinks until a
        # step no longer moves y, and the solve stops there
        g = np.sort(np.r_[np.linspace(-5.0, 5.0, 1001), 1.0 + 1e-12])
        kink = IntegralFunction(g, 0.5 * g * g + np.maximum(g - 1.0, 0.0))
        bowl = IntegralFunction(g, 0.5 * (g - 4.0) ** 2)
        calls = []

        def counted(*args, _real=network_module._steihaug):
            calls.append(1)
            return _real(*args)

        monkeypatch.setattr(network_module, "_steihaug", counted)
        with (warnings.catch_warnings(),
              pytest.raises(NoConvergence, match="stopped with gradient residual")):
            warnings.simplefilter("error", RuntimeWarning)
            solve_opp(quadratic_network(centers=(0.0, 0.0)),
                      node_potentials=[kink, bowl])
        assert len(calls) < network_module._TRUST_ITERATIONS

    @staticmethod
    def _seeded_quadratic_network(n, shape, seed):
        """Quadratic agents on a path or a random connected graph."""
        rng = np.random.default_rng(seed)
        if shape == "path":
            edges = [(i, i + 1) for i in range(n - 1)]
        else:  # random spanning tree plus n // 2 extra edges
            edges = [(int(rng.integers(0, v)), v) for v in range(1, n)]
            while len(edges) < n - 1 + n // 2:
                h, t = (int(v) for v in rng.choice(n, 2, replace=False))
                if (h, t) not in edges and (t, h) not in edges:
                    edges.append((h, t))
        centers = rng.uniform(-3.0, 3.0, n)
        gains = rng.uniform(0.5, 2.0, len(edges))
        return NetworkSpec(Graph(n, tuple(edges)),
                           tuple(quadratic_agent(c) for c in centers),
                           tuple(ControllerSpec(gain=g) for g in gains),
                           np.zeros(n)), centers

    @pytest.mark.parametrize("n, shape, seed", [
        (5, "path", 0), (5, "random", 1), (20, "path", 2), (20, "random", 3),
        (50, "path", 4), (50, "random", 5), (2, "gain-500", None),
    ])
    def test_quadratic_network_matches_closed_form(self, n, shape, seed):
        if seed is None:
            centers = np.array([1.0, 3.0])
            spec = quadratic_network(centers=tuple(centers), gain=500.0)
        else:
            spec, centers = self._seeded_quadratic_network(n, shape, seed)
        E = spec.graph.incidence_matrix()
        G = np.diag([c.gain for c in spec.controllers])
        # steady state y = u + c with u = -E G Eᵀ y
        y = np.linalg.solve(np.eye(n) + E @ G @ E.T, centers)
        opp, ofp = solve_opp(spec), solve_ofp(spec)
        np.testing.assert_allclose(opp.primal, y, rtol=0.0, atol=1e-6)
        np.testing.assert_allclose(ofp.primal, y - centers, rtol=0.0, atol=1e-6)
        assert abs(opp.objective + ofp.objective) <= 1e-3

    @staticmethod
    def _duals(spec):
        """Both solutions and u = -E G Eᵀ y from the potential problem."""
        E = spec.graph.incidence_matrix()
        gains = np.array([c.gain for c in spec.controllers])
        opp, ofp = solve_opp(spec), solve_ofp(spec)
        return opp, ofp, -E @ (gains * (E.T @ opp.primal))

    @pytest.mark.parametrize("shape", ["path", "random"])
    @pytest.mark.parametrize("n", [5, 20, 50, 80])
    def test_quadratic_network_duality_gap_closes(self, n, shape):
        # the flow problem conjugates the potential problem's models
        # exactly, so the objectives cancel to rounding at every size
        spec, centers = self._seeded_quadratic_network(n, shape, 10 + n)
        E = spec.graph.incidence_matrix()
        G = np.diag([c.gain for c in spec.controllers])
        y = np.linalg.solve(np.eye(n) + E @ G @ E.T, centers)
        opp, ofp, _ = self._duals(spec)
        assert abs(opp.objective + ofp.objective) <= 1e-9
        np.testing.assert_allclose(ofp.primal, y - centers, rtol=0.0, atol=1e-6)

    @staticmethod
    def _cubic_pendulum_path(n):
        """Path alternating u = y³ + 0.3 with the sheared pendulum."""
        cubic = _relation_agent(lambda y: y**3 + 0.3)
        T = passivize(PassivityIndices(-2.5, 0.0), PassivityIndices(0.0, 0.0))
        pendulum = transform_agent(pendulum_gradient_agent(), T)
        return NetworkSpec(Graph.path(n),
                           tuple((cubic, pendulum)[i % 2] for i in range(n)),
                           (ControllerSpec(gain=1.0),) * (n - 1), np.zeros(n))

    @pytest.mark.parametrize("n", [10, 40, 80])
    def test_cubic_pendulum_path_duals_agree(self, n):
        # the potential objective is about -1000 n, so at n = 40 the trust
        # region's predicted decrease drowns in rounding before the gradient
        # bound is met
        opp, ofp, u = self._duals(self._cubic_pendulum_path(n))
        assert abs(opp.objective + ofp.objective) <= 1e-9
        np.testing.assert_allclose(ofp.primal, u, rtol=0.0, atol=1e-6)

    def test_large_flows_match_closed_form(self):
        # u = y³ ∓ 40 at gain 10: by symmetry y = ±r with r³ + 20r = 40, so
        # u = ∓20r ≈ ∓34.75; no fixed window of flows may cut it off
        agents = (_relation_agent(lambda y: y**3 - 40.0),
                  _relation_agent(lambda y: y**3 + 40.0))
        spec = NetworkSpec(Graph.path(2), agents, (ControllerSpec(gain=10.0),),
                           np.zeros(2))
        r = float(np.real(np.roots([1.0, 0.0, 20.0, -40.0])[-1]))
        ofp = solve_ofp(spec)
        np.testing.assert_allclose(ofp.primal, [-20.0 * r, 20.0 * r],
                                   rtol=0.0, atol=1e-5)

    @pytest.mark.parametrize("center", [2.0, 0.3, 3.5, -3.2])
    @pytest.mark.parametrize("u_of_y", [
        lambda y: np.sign(y) * np.maximum(np.abs(y) - 1.0, 0.0),
        lambda y: np.clip(y, -1.0, 1.0),
        lambda y: np.clip(y, -0.7, 0.7) + 0.1,
        lambda y: (np.clip(y, -1.0, 1.0)
                   + 1e-10 * np.random.default_rng(0).standard_normal(y.shape)),
    ], ids=["dead-zone", "saturation", "offset-saturation", "noisy-saturation"])
    def test_flat_relation_runs(self, u_of_y, center):
        # a flat stretch of u(y) is a kink of the flow potential: beside a
        # quadratic agent centred at 0.3 the dead zone settles on it, and
        # at 3.5 and -3.2 the saturations hold the flow at a limit.  The
        # offset levels integrate with rounding, so their nodal slopes
        # wobble around the level by ulps of the potential's values; noise
        # inside the convexity certificate's band makes them dip further
        spec = NetworkSpec(Graph.path(2), (_relation_agent(u_of_y),
                                           quadratic_agent(center)),
                           (ControllerSpec(gain=1.0),), np.zeros(2))
        opp, ofp, u = self._duals(spec)
        np.testing.assert_allclose(ofp.primal, u, rtol=0.0, atol=1e-3)
        # where u(y) is not flat at the solution, the flow sits off every
        # kink of the flow potential, whose model is exact there, so the
        # objectives cancel; on a kink the model's smoothing remains
        y = opp.primal[0]
        if np.ptp(u_of_y(np.array([y - 1e-3, y + 1e-3]))) > 1e-6:
            assert abs(opp.objective + ofp.objective) <= 1e-9

    @pytest.mark.parametrize("seed", range(20))
    @pytest.mark.parametrize("center", [3.5, -3.2])
    def test_noisy_flat_runs_settle_like_clean_ones(self, center, seed):
        # the running maximum of 1e-11 noise on a saturation's flat run keeps
        # record highs 1e-11 apart and a cell or more wide; unless they merge
        # into one kink of the flow potential, an ulp of the flow moves its
        # gradient past the residual bound.  Merged, the run is the clean
        # saturation's kink, so the duality gap is the clean one
        def spec(noise):
            def u_of_y(y):
                return (np.clip(y, -1.0, 1.0) + noise
                        * np.random.default_rng(seed).standard_normal(y.shape))
            return NetworkSpec(Graph.path(2),
                               (_relation_agent(u_of_y), quadratic_agent(center)),
                               (ControllerSpec(gain=1.0),), np.zeros(2))

        opp, ofp, u = self._duals(spec(1e-11))
        np.testing.assert_allclose(ofp.primal, u, rtol=0.0, atol=1e-3)
        clean_opp, clean_ofp, _ = self._duals(spec(0.0))
        assert abs(opp.objective + ofp.objective
                   - (clean_opp.objective + clean_ofp.objective)) <= 1e-9

    @pytest.mark.parametrize("solver", [solve_opp, solve_ofp])
    def test_nonconvex_supplied_potential_rejected(self, solver):
        spec = quadratic_network(centers=(0.0, 0.0, 0.0))
        grid = np.linspace(-5.0, 5.0, 1001)
        convex = IntegralFunction.from_function(lambda y: 0.5 * y * y, grid)
        bumpy = IntegralFunction.from_function(np.cos, grid)
        with pytest.raises(NonConvexCertificate, match="^vertex 1: "):
            solver(spec, node_potentials=[convex, bumpy, convex])

    @pytest.mark.parametrize("solver", [solve_opp, solve_ofp])
    def test_shared_agent_potential_built_once(self, solver, monkeypatch):
        spec = pendulum_network()
        T = passivize(PassivityIndices(-2.5, 0.0), PassivityIndices(0.0, 0.0))
        spec = apply_network_transform(spec, [T] * spec.graph.vertex_count)
        assert len({id(a) for a in spec.agents}) == 1 < spec.graph.vertex_count
        calls = {"integral_function": 0, "legendre": 0}
        for module, name in ((network_module, "integral_function"),
                             (relations_module, "legendre")):
            def counted(*args, _real=getattr(module, name), _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)
        solver(spec)
        assert calls == {"integral_function": 1, "legendre": 0}

    def test_quadratic_pair_dual_solutions_match(self):
        spec = quadratic_network()
        fine = np.linspace(-5.0, 5.0, 200001)
        pots = [
            IntegralFunction.from_function(lambda y, c=c: 0.5 * (y - c) ** 2,
                                           fine)
            for c in (1.0, 3.0)
        ]
        opp = solve_opp(spec, grid=fine, node_potentials=pots)
        ofp = solve_ofp(spec, grid=fine,
                        node_potentials=[legendre(p, fine) for p in pots])
        np.testing.assert_allclose(opp.primal, [5.0 / 3.0, 7.0 / 3.0],
                                   atol=1e-4)
        np.testing.assert_allclose(ofp.coupling, [-2.0 / 3.0], atol=1e-4)
        # primal/dual consistency: u = -E mu matches the potential-side zeta
        np.testing.assert_allclose(ofp.primal, [2.0 / 3.0, -2.0 / 3.0],
                                   atol=1e-4)


class TestPredictAndVerify:
    def test_single_passive_agent_settles_at_origin(self):
        spec = NetworkSpec(
            Graph(1, ()), (quadratic_agent(0.0),), (), np.array([2.0]),
            IntegratorConfig(horizon=30.0),
        )
        report = predict_and_verify(spec, [Transform2.identity()])
        assert report.passed
        np.testing.assert_allclose(report.y_predicted, [0.0], atol=1e-6)

    def test_nonmonotone_agents_rejected(self):
        spec = pendulum_network(n_agents=3, integrator=FAST)
        with pytest.raises(PreconditionFailed):
            predict_and_verify(spec, [Transform2.identity()] * 3)

    def test_agent_without_relation_rejected(self):
        bare = AgentODE(f=lambda x, u: -x + u, h=lambda x, u: x)
        spec = NetworkSpec(Graph.path(2), (quadratic_agent(0.0), bare),
                           (ControllerSpec(gain=1.0),), np.zeros(2), FAST)
        with pytest.raises(PreconditionFailed,
                           match="^agent 1: no steady-state relation declared$"):
            predict_and_verify(spec, [Transform2.identity()] * 2)


class TestJsonIngest:
    def test_round_trip_and_simulation(self):
        doc = {
            "graph": {"vertices": 2, "edges": [[0, 1]]},
            "agents": [
                {"kind": "quadratic", "params": {"center": 1.0}},
                {"kind": "quadratic", "params": {"center": 3.0}},
            ],
            "controllers": {"gain": 1.0},
            "x0": [0.0, 0.0],
            "integrator": {"horizon": 30.0},
        }
        spec = spec_from_json(json.dumps(doc))
        sim = simulate(spec)
        np.testing.assert_allclose(sim.steady_state, [5.0 / 3.0, 7.0 / 3.0],
                                   atol=1e-4)

    def test_unknown_kind_rejected(self):
        doc = {
            "graph": {"vertices": 1, "edges": []},
            "agents": [{"kind": "nope"}],
            "controllers": [],
            "x0": [0.0],
        }
        with pytest.raises(ValueError):
            spec_from_json(doc)

    @pytest.mark.parametrize("mutate, where", [
        (lambda d: d.pop("x0"), r"^\$: missing key 'x0'"),
        (lambda d: d.pop("graph"), r"^\$: missing key 'graph'"),
        (lambda d: d.pop("agents"), r"^\$: missing key 'agents'"),
        (lambda d: d.pop("controllers"), r"^\$: missing key 'controllers'"),
        (lambda d: d["graph"].pop("edges"), r"^\$\.graph: missing key 'edges'"),
        (lambda d: d["agents"][1].pop("kind"), r"^\$\.agents\[1\]: missing key 'kind'"),
        (lambda d: d["agents"][1]["params"].update(centre=2.0),
         r"^\$\.agents\[1\]\.params: .*'centre'"),
        (lambda d: d["controllers"][0].pop("gain"),
         r"^\$\.controllers\[0\]: missing key 'gain'"),
        (lambda d: d["controllers"][0].update(gain=-1.0),
         r"^\$\.controllers\[0\]: .*positive"),
        (lambda d: d["integrator"].update(step=0.1), r"^\$\.integrator: .*'step'"),
    ])
    def test_malformed_spec_names_json_path(self, mutate, where):
        doc = {
            "graph": {"vertices": 2, "edges": [[0, 1]]},
            "agents": [{"kind": "quadratic", "params": {"center": 1.0}},
                       {"kind": "quadratic", "params": {"center": 3.0}}],
            "controllers": [{"gain": 1.0}],
            "x0": [0.0, 0.0],
            "integrator": {"horizon": 30.0},
        }
        spec_from_json(copy.deepcopy(doc))
        mutate(doc)
        with pytest.raises(InvalidSpec, match=where):
            spec_from_json(doc)

    def test_equal_agent_entries_share_one_agent(self):
        pend = {"kind": "pendulum-gradient", "params": {"r1": 2.0}}
        doc = {
            "graph": {"vertices": 3, "edges": [[0, 1], [1, 2]]},
            "agents": [pend, {"kind": "quadratic"}, dict(pend)],
            "controllers": {"gain": 1.0},
            "x0": [0.0, 1.0, 2.0],
        }
        agents = spec_from_json(doc).agents
        assert agents[0] is agents[2] and agents[0] is not agents[1]
        doc["agents"] = pend
        assert len({id(a) for a in spec_from_json(doc).agents}) == 1

    def test_csv_export(self, tmp_path):
        sim = simulate(quadratic_network(integrator=FAST))
        path = tmp_path / "sim.csv"
        sim.to_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == "t,x0,x1,u0,u1,y0,y1,zeta0,mu0"
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        cells = np.array([[float(c) for c in row] for row in rows])
        want = np.column_stack([sim.t, sim.x, sim.u, sim.y, sim.zeta, sim.mu])
        np.testing.assert_array_equal(cells.view(np.int64), want.view(np.int64))


class TestAgentDeclarations:
    def test_declared_relations_match_dynamics(self):
        for agent in (quadratic_agent(2.0), pendulum_gradient_agent(),
                      nonmonotone_demo_agent()):
            assert agent.check_relation()

    def test_agent_without_relation_passes_the_check(self):
        assert AgentODE(f=lambda x, u: -x + u, h=lambda x, u: x).check_relation()

    def test_static_controller_gain_positive(self):
        with pytest.raises(ValueError):
            ControllerSpec(gain=-1.0)
        with pytest.raises(ValueError):
            ControllerSpec()


def _kinked_agent():
    """Monotone relation with a vertical and a horizontal piece.

    (-3, -3) to the origin along u = y, up to (0, 1), across to (1, 1), then
    along u = y again: maximally monotone, strictly monotone on neither side.
    """
    s = np.linspace(-3.0, 4.0, 701)
    u = np.where(s < 1.0, np.minimum(s, 0.0), s - 1.0)
    y = np.where(s < 1.0, s, np.maximum(s - 1.0, 1.0))
    rel = PlanarRelation(u, y, s)
    return AgentODE(f=lambda x, u: -x, h=lambda x, u: x, relation=rel)


def _bare_spec():
    bare = AgentODE(f=lambda x, u: -x + u, h=lambda x, u: x)
    return NetworkSpec(Graph.path(2), (quadratic_agent(0.0), bare),
                       (ControllerSpec(gain=1.0),), np.zeros(2), FAST)


@pytest.mark.parametrize("call, error, match", [
    (lambda: NetworkSpec(Graph.path(2), (quadratic_agent(0.0),) * 2, (),
                         np.zeros(2)),
     DimensionMismatch, "0 controllers for 1 edges"),
    (lambda: NetworkSpec(Graph.path(2), (quadratic_agent(0.0),) * 2,
                         (ControllerSpec(gain=1.0),), np.zeros(3)),
     DimensionMismatch, "initial state length"),
    (lambda: simulate(quadratic_network(integrator=IntegratorConfig(dt=0.0))),
     ValueError, "step must be positive"),
    (lambda: simulate(quadratic_network(integrator=IntegratorConfig(store_stride=0))),
     ValueError, "store_stride"),
    (lambda: transform_agent(replace(quadratic_agent(0.0), feedthrough=1.0),
                             Transform2(1.0, -1.0, 0.0, 1.0)),
     SingularTransform, r"a \+ b\*feedthrough vanished"),
    (lambda: solve_opp(_bare_spec()), PreconditionFailed,
     "lacks a steady-state relation"),
    (lambda: predict_and_verify(
        NetworkSpec(Graph(1, ()), (_kinked_agent(),), (), np.zeros(1), FAST),
        [Transform2.identity()]),
     PreconditionFailed, "^agent 0: neither the relation nor its inverse"),
    # each potential is flat at 1e308 in float, so their sum overflows
    (lambda: solve_opp(quadratic_network(), node_potentials=[
        IntegralFunction.from_function(lambda y, c=c: 1e308 + (y - c) ** 2,
                                       np.linspace(-5.0, 5.0, 101))
        for c in (1.0, 3.0)]),
     NoConvergence, "non-finite objective"),
    (lambda: ControllerSpec(gain=np.inf), ValueError, "positive and finite: inf"),
    (lambda: Graph(2, ((0, 1.5),)), InvalidSpec,
     r"^edge \(0,1.5\): vertex indices must be integers"),
], ids=["controller_count", "x0_length", "dt", "store_stride", "feedthrough",
        "opp_without_relation", "not_strictly_monotone", "opp_overflow",
        "infinite_gain", "fractional_vertex"])
def test_bad_input_raises(call, error, match):
    with pytest.raises(error, match=match):
        call()

