"""Network simulation, per-agent transforms, and dual steady-state solvers."""

import copy
import csv
import json
import math
import re
import warnings
from dataclasses import replace
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import pqikit.errors as errors_module
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
    find_equilibria,
    legendre,
    passivize,
    predict_and_verify,
    simulate,
    solve_ofp,
    solve_opp,
    spec_from_json,
    transform_agent,
    verify_passivation,
)
from pqikit.errors import (
    DimensionMismatch,
    InvalidSamples,
    InvalidSpec,
    NoConvergence,
    NonConvexCertificate,
    NonFiniteState,
    NonFiniteValue,
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

FAST = IntegratorConfig(horizon=30.0)
# the solvers' closed-form bound, of the largest |value|: exact to rounding
# (up to 8e-13 on the first-order networks below)
TIGHT = 2e-12
RAGGED = "cannot be read as floats: setting an array element with a sequence"
WORD = "cannot be read as floats: could not convert string to float: 'a'$"


def _relation_agent(u_of_y, s_range=(-3.0, 3.0), n=4001):
    """Stable agent whose declared steady-state relation is u = u_of_y(y)."""
    rel = PlanarRelation.from_param_curve(u_of_y, lambda s: s, s_range, n)
    return AgentODE(f=lambda x, u: -x, h=lambda x: x, relation=rel)


def _counting_gradient(calls, x, u):
    calls.append(np.shape(x))
    return -x + u


def _counting_output(calls, x):
    calls.append(np.shape(x))
    return x


def merged_conjugate(model):
    """network._conjugate's general path alone: always merge runs."""
    x, d, m = model
    lifted = np.maximum.accumulate(d)
    step = np.diff(lifted, prepend=-np.inf)
    new = step > 4.0 * np.finfo(float).eps * np.abs(m).max() / np.diff(x).min()
    dip = lifted > d
    if dip.any():
        small = step <= 1e-9 * np.abs(d).max()
        stretch = np.cumsum(~small)
        new &= ~(small & (np.bincount(stretch, dip) > 0)[stretch])
    run = np.cumsum(new) - 1
    count = np.bincount(run)
    single = np.flatnonzero(count == 1)
    anchor = single[len(single) // 2] if len(single) else 0
    k = np.searchsorted(run, anchor)
    dc, xc = lifted[new], np.bincount(run, x) / count
    mc = relations_module._trapezoid(dc, xc, 0.0)
    return dc, xc, mc + (x[k] * lifted[k] - m[k] - mc[anchor])


class _CountedUfunc:
    """A numpy ufunc whose accumulate calls append its name to ``calls``."""

    def __init__(self, ufunc, calls):
        self.ufunc, self.calls = ufunc, calls

    def __call__(self, *args, **kwargs):
        return self.ufunc(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self.ufunc, name)

    def accumulate(self, *args, **kwargs):
        self.calls.append(self.ufunc.__name__)
        return self.ufunc.accumulate(*args, **kwargs)


def _logged(fn, name, calls, a, *args, **kwargs):
    """fn(a, ...), with (name, a) appended to ``calls``."""
    calls.append((name, a))
    return fn(a, *args, **kwargs)


class _CountingNumpy:
    """numpy, with the accumulate calls of maximum and minimum counted, and
    each call of a function named in ``logged`` kept with its first argument."""

    def __init__(self, calls, logged=()):
        self.maximum, self.minimum = (_CountedUfunc(f, calls)
                                      for f in (np.maximum, np.minimum))
        for name in logged:
            setattr(self, name, partial(_logged, getattr(np, name), name, calls))

    def __getattr__(self, name):
        return getattr(np, name)


class TestAgentGroups:
    """Vertices whose callables are equal by value share one array call."""

    @staticmethod
    def members(agents, name="f"):
        return [np.ravel(sel).tolist()
                for _, sel in network_module._agent_groups(agents, name)]

    def test_separately_built_equal_agents_form_one_group(self):
        agents = [pendulum_gradient_agent() for _ in range(3)]
        assert self.members(agents, "f") == self.members(agents, "h") == [[0, 1, 2]]

    def test_different_parameter_splits_the_group(self):
        agents = [pendulum_gradient_agent(), pendulum_gradient_agent(r2=0.2),
                  pendulum_gradient_agent()]
        assert self.members(agents) == [[0, 2], [1]]

    def test_signed_zeros_stay_apart(self):
        agents = [pendulum_gradient_agent(r1=0.0), pendulum_gradient_agent(r1=-0.0)]
        assert self.members(agents) == [[0], [1]]

    def test_equal_transforms_form_one_transformed_group(self):
        agents = [transform_agent(pendulum_gradient_agent(),
                                  Transform2(1.0, 2.5, 0.0, 1.0)) for _ in range(2)]
        assert agents[0] is not agents[1]
        assert self.members(agents, "f") == self.members(agents, "h") == [[0, 1]]

    def test_replaced_callable_leaves_the_group(self):
        agent = pendulum_gradient_agent()
        other = replace(pendulum_gradient_agent(), f=lambda x, u: agent.f(x, u))
        assert self.members([agent, other, pendulum_gradient_agent()]) == [[0, 2], [1]]

    def test_one_array_call_per_evaluation(self):
        # 50 separately built agents: each right-hand side evaluation calls h
        # and then f once on all 50 states, and the rows keep the signals it
        # computed, so only the row at x0 calls h once more; h takes the
        # states alone, so no call passes it an input
        f_calls, h_calls = [], []
        agents = tuple(AgentODE(f=partial(_counting_gradient, f_calls),
                                h=partial(_counting_output, h_calls))
                       for _ in range(50))
        simulate(NetworkSpec(Graph.path(50), agents, (ControllerSpec(gain=1.0),) * 49,
                             np.linspace(-1.0, 1.0, 50), IntegratorConfig(horizon=2.0)))
        assert f_calls and set(f_calls) == {(50,)}
        assert len(h_calls) == len(f_calls) + 1


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
            IntegratorConfig(horizon=5.0, tol_conv=0.0),
        )
        sim = simulate(spec)
        np.testing.assert_allclose(sim.y[:, 0], np.exp(-sim.t), atol=1e-8)

    def test_coupling_identities_exact(self):
        spec = replace(quadratic_network(), integrator=FAST)
        sim = simulate(spec)
        E = spec.graph.incidence_matrix()
        np.testing.assert_array_equal(sim.zeta, sim.y @ E)
        np.testing.assert_array_equal(sim.u, -(sim.mu @ E.T))

    def test_quadratic_pair_reaches_known_steady_state(self):
        sim = simulate(replace(quadratic_network(), integrator=FAST))
        assert sim.converged
        np.testing.assert_allclose(sim.steady_state, [5.0 / 3.0, 7.0 / 3.0],
                                   atol=1e-4)

    def test_blow_up_detected(self):
        runaway = AgentODE(f=lambda x, u: x * x, h=lambda x: x)
        spec = NetworkSpec(Graph(1, ()), (runaway,), (), np.array([5.0]),
                           IntegratorConfig(horizon=2.0))
        with pytest.raises(NonFiniteState), np.errstate(over="ignore"):
            simulate(spec)

    def test_rows_at_a_step_start_keep_the_state_near_float_range(self):
        spec = NetworkSpec(Graph.path(3), (quadratic_agent(1e308),) * 3,
                           (ControllerSpec(gain=1.0),) * 2,
                           np.array([0.1, 0.0, 0.0]), FAST)
        sim = simulate(spec)
        assert sim.t[0] == 0.0 and sim.x[0].tolist() == [0.1, 0.0, 0.0]
        assert np.isfinite(sim.x).all() and np.isfinite(sim.y).all()

    def test_non_finite_output_names_its_row_time(self):
        # the state e^-t stays finite; the output is infinite once it falls
        # below 1/2, first at the first step that ends past ln 2, read from
        # the same run with a finite output
        finite = AgentODE(f=lambda x, u: -x, h=lambda x: x)
        spec = NetworkSpec(Graph(1, ()), (finite,), (), np.array([1.0]),
                           IntegratorConfig(horizon=2.0))
        t = simulate(spec).t
        message = f"signals not finite at t = {t[np.argmax(t > math.log(2.0))]:.3f}"
        agent = replace(finite, h=lambda x: np.where(x < 0.5, np.inf, x))
        with pytest.raises(NonFiniteState, match=f"^{re.escape(message)}$"):
            simulate(replace(spec, agents=(agent,)))

    def test_network_at_rest_steps_at_the_cap(self):
        # x0 = 0 and f(0, 0) = 0: the peak |x| stays 0 and so does every
        # error estimate, which must let the steps grow from the floor to
        # h_max (x10 a step) with no nan and no warning
        spec = replace(quadratic_network((0.0, 0.0, 0.0)),
                       integrator=IntegratorConfig(horizon=20.0, tol_conv=0.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sim = simulate(spec)
            with np.errstate(all="raise"):
                steps = [t for t, _, _ in network_module.dormand_prince(
                    lambda x: np.zeros_like(x), np.zeros(3), 20.0, 1e-3, 5.0)]
        assert sim.t[-1] == 20.0 and not np.any(sim.x) and not np.any(sim.u)
        assert len(sim.t) - 1 == 3 + math.ceil((20.0 - 0.111) / 0.5)
        assert steps[:4] == [0.001, 0.011, 0.111, 1.111] and steps[-1] == 20.0
        assert len(steps) == 4 + math.ceil((20.0 - 1.111) / 5.0)

    def test_stored_signals_do_not_depend_on_the_row_count(self):
        # rows that two runs share carry equal signals, whatever the number
        # of rows each run stores; a small window caps the steps at 0.005,
        # so the runs store about 200 and 1600 rows
        rng = np.random.default_rng(7)
        n = 20
        edges = [(int(rng.integers(i)), i) for i in range(1, n)]
        edges += [(i, j) for i, j in rng.integers(n, size=(15, 2)).tolist() if i < j]
        spec = NetworkSpec(
            Graph(n, tuple(edges)), (pendulum_gradient_agent(),) * n,
            tuple(ControllerSpec(gain=g) for g in rng.uniform(0.5, 2.0, len(edges))),
            rng.uniform(-20.0, 20.0, n))
        spec = apply_network_transform(spec, [Transform2(1.0, 2.5, 0.0, 1.0)] * n)
        short, long = (simulate(replace(spec, integrator=IntegratorConfig(
            horizon=horizon, convergence_window=0.01, tol_conv=0.0)))
            for horizon in (1.0, 8.0))
        shared = len(short.t) - 1
        assert np.array_equal(short.t[:shared], long.t[:shared])
        for name in ("x", "u", "y", "zeta", "mu"):
            assert np.array_equal(getattr(short, name)[:shared],
                                  getattr(long, name)[:shared]), name

    def test_stored_u_is_the_u_the_agents_got(self):
        # every stored row's u is, bit for bit, the u that f received at that
        # row's state, on a random graph where some u sums three or more
        # edge terms; all vertices share f, so f sees the whole state
        rng = np.random.default_rng(7)
        n = 20
        edges = [(int(rng.integers(i)), i) for i in range(1, n)]
        edges += [(i, j) for i, j in rng.integers(n, size=(15, 2)).tolist() if i < j]
        graph = Graph(n, tuple(edges))
        assert np.abs(graph.incidence_matrix()).sum(axis=1).max() >= 3
        base, received = pendulum_gradient_agent(), {}

        def f(x, u):
            received[x.tobytes()] = u.copy()
            return base.f(x, u)

        sim = simulate(NetworkSpec(
            graph, (replace(base, f=f),) * n,
            tuple(ControllerSpec(gain=g) for g in rng.uniform(0.5, 2.0, len(edges))),
            rng.uniform(-20.0, 20.0, n), IntegratorConfig(horizon=8.0)))
        assert len(sim.t) > 100
        for x, u in zip(sim.x, sim.u):
            assert np.array_equal(received[x.tobytes()], u)

    @pytest.mark.parametrize("horizon", [0.0, 4e-4])
    def test_run_without_a_step_stores_its_start(self, horizon):
        # a horizon that rounds to no step of dt stores the row t = 0 alone,
        # with the signals at x0, and does not converge
        spec = replace(quadratic_network((1.0, 2.0, 4.0)), x0=[0.5, -1.0, 2.0],
                       integrator=IntegratorConfig(dt=1e-3, horizon=horizon))
        sim = simulate(spec)
        E = spec.graph.incidence_matrix()
        assert sim.t.tolist() == [0.0] and not sim.converged
        np.testing.assert_array_equal(sim.x, [spec.x0])
        np.testing.assert_array_equal(sim.y, [spec.x0])
        np.testing.assert_array_equal(sim.zeta, [spec.x0 @ E])
        np.testing.assert_array_equal(sim.mu, [spec.x0 @ E])
        np.testing.assert_array_equal(sim.u, [-(spec.x0 @ E) @ E.T])
        np.testing.assert_array_equal(sim.steady_state, spec.x0)

    def test_rows_are_the_steps(self, monkeypatch):
        real, steps = network_module.dormand_prince, []

        def counted(*args):
            for step in real(*args):
                steps.append(step[0])
                yield step

        monkeypatch.setattr(network_module, "dormand_prince", counted)
        sim = simulate(replace(quadratic_network(), integrator=FAST))
        assert len(sim.t) == 1 + len(steps) and sim.t[0] == 0.0
        assert sim.t[1:].tolist() == steps and np.all(np.diff(sim.t) > 0.0)
        assert sim.converged and sim.t[-1] < FAST.horizon
        sim = simulate(replace(quadratic_network(),
                               integrator=IntegratorConfig(horizon=3.0, tol_conv=0.0)))
        assert sim.t[-1] == 3.0 and np.all(np.diff(sim.t) > 0.0)

    @staticmethod
    def _linear_path_error(centres, x0):
        """Largest distance of a stored x from the exact trajectory, of
        max|x*|, on a 5-vertex path of quadratic agents (tol_conv 0,
        horizon 20); and the run.

        With unit gains x' = -(I + E·Eᵀ)x + c, so every stored row is
        x* + V·e^(-Λt)·Vᵀ(x0 - x*) for the eigenpairs (Λ, V) of I + E·Eᵀ.
        """
        spec = replace(quadratic_network(centres), x0=x0,
                       integrator=IntegratorConfig(horizon=20.0, tol_conv=0.0))
        sim = simulate(spec)
        E = spec.graph.incidence_matrix()
        lam, V = np.linalg.eigh(np.eye(5) + E @ E.T)
        x_star = V @ ((V.T @ centres) / lam)
        exact = x_star + (np.exp(-np.outer(sim.t, lam)) * (V.T @ (x0 - x_star))) @ V.T
        return np.abs(sim.x - exact).max() / np.abs(x_star).max(), sim

    @pytest.mark.parametrize("seed", range(4))
    def test_linear_path_rows_match_the_exponential(self, seed):
        centres = np.random.default_rng(seed).uniform(-3.0, 3.0, 5)
        assert self._linear_path_error(centres, np.zeros(5))[0] <= 1e-9

    def test_linear_path_rows_scale_with_the_units(self):
        # x0 and centres scaled by 2^k scale every stored row by 2^k, with
        # the same step times, and each scale meets the exponential's bound
        rng = np.random.default_rng(5)
        centres, x0 = rng.uniform(-3.0, 3.0, 5), rng.uniform(-3.0, 3.0, 5)
        error, base = self._linear_path_error(centres, x0)
        assert error <= 1e-9
        for k in (-30, -20, -10, 10, 20, 30):
            error, sim = self._linear_path_error(2.0 ** k * centres, 2.0 ** k * x0)
            assert error <= 1e-9, k
            assert np.array_equal(sim.t, base.t), k
            for name in ("x", "u", "y", "zeta", "mu"):
                assert np.array_equal(getattr(sim, name),
                                      2.0 ** k * getattr(base, name)), (k, name)

    def test_non_finite_trial_step_is_retried(self):
        # sqrt(x) is NaN below zero: once x is tiny, steps of a few time
        # units put some stages there, and those steps are retried smaller
        nan_calls = []

        def flow(x, u):
            dx = -x + 0.0 * np.sqrt(x)
            nan_calls.append(not np.isfinite(dx).all())
            return dx

        spec = NetworkSpec(
            Graph(1, ()), (AgentODE(f=flow, h=lambda x: x),), (),
            np.array([1.0]),
            IntegratorConfig(horizon=60.0, convergence_window=10.0,
                             tol_conv=0.0))
        with np.errstate(invalid="ignore"):
            sim = simulate(spec)
        assert any(nan_calls)
        assert sim.t[-1] == 60.0
        np.testing.assert_allclose(sim.y[:, 0], np.exp(-sim.t), rtol=0.0,
                                   atol=1e-8)

    @pytest.mark.parametrize("layout", ["per-vertex", "alternating"])
    @pytest.mark.parametrize("transformed", [False, True])
    def test_shared_agent_matches_scalar_evaluation(self, layout, transformed):
        # one group of equal agents is evaluated with one array call per
        # stage; the reference wraps each agent's f and h in closures of its
        # own, so that each vertex is a group of its own (scalar calls), or
        # two groups alternate (index-array calls)
        def own(agent):
            return replace(agent, f=lambda x, u: agent.f(x, u),
                           h=lambda x: agent.h(x))

        shared = replace(pendulum_network(), integrator=IntegratorConfig(horizon=6.0))
        if layout == "per-vertex":
            agents = tuple(own(pendulum_gradient_agent()) for _ in range(5))
        else:
            pair = (own(pendulum_gradient_agent()), own(pendulum_gradient_agent()))
            agents = tuple(pair[i % 2] for i in range(5))
        reference = replace(shared, agents=agents)
        if transformed:
            T = Transform2(1.0, 2.5, 0.0, 1.0)
            shared = apply_network_transform(shared, [T] * 5)
            reference = apply_network_transform(reference, [T] * 5)
        for name in ("f", "h"):
            assert len(network_module._agent_groups(shared.agents, name)) == 1
            assert len(network_module._agent_groups(reference.agents, name)) == (
                5 if layout == "per-vertex" else 2)
        a, b = simulate(shared), simulate(reference)
        assert a.converged == b.converged
        for got, want in ((a.t, b.t), (a.x, b.x), (a.y, b.y)):
            assert np.array_equal(got, want)

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

        agent = AgentODE(f=math_sine_flow, h=lambda x: x)
        spec = NetworkSpec(Graph.path(3), (agent,) * 3,
                           (ControllerSpec(gain=1.0),) * 2, np.zeros(3),
                           IntegratorConfig(horizon=1.0))
        with pytest.raises(InvalidSpec,
                           match=r"vertex \[0, 1, 2\].*math_sine_flow"):
            simulate(spec)

    def test_output_map_of_state_and_input_is_refused(self):
        # h takes the state alone; an input-dependent output is declared by
        # the feedthrough, so a two-argument h is refused by its signature
        agent = AgentODE(f=lambda x, u: -x + u, h=lambda x, u: x + 5.0 * u)
        spec = NetworkSpec(Graph.path(2), (agent,) * 2, (ControllerSpec(gain=1.0),),
                           np.zeros(2), IntegratorConfig(horizon=1.0))
        with pytest.raises(InvalidSpec, match=r"vertex \[0, 1\].*h\(x\)"):
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
                                h=lambda x: x, feedthrough=D)
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


def _output(agent, x, u):
    """The agent's output y = h(x) + feedthrough·u."""
    return agent.h(x) + agent.feedthrough * u


class TestTransformAgent:
    def test_feedthrough_agent_loses_feedthrough(self):
        agent = nonmonotone_demo_agent()
        out = transform_agent(agent, Transform2(1.0, 1.0, 1.0, 2.0))
        assert abs(out.feedthrough) <= 1e-12
        xs = np.linspace(-4.0, 4.0, 41)
        for x in xs:
            for ut in (-1.0, 0.0, 2.0):
                assert abs(out.f(x, ut) - (-np.cbrt(x) + ut)) <= 1e-12
                assert abs(_output(out, x, ut) - x) <= 1e-12

    def test_feedback_shear_on_gradient_agent(self):
        r1, r2 = 2.5, 0.1
        agent = pendulum_gradient_agent(r1, r2)
        out = transform_agent(agent, Transform2(1.0, r1, 0.0, 1.0))
        for x in np.linspace(-5.0, 5.0, 21):
            want = -r1 * np.sin(x) - (r1 + r2) * x + 1.5
            assert abs(out.f(x, 1.5) - want) <= 1e-12
            assert abs(_output(out, x, 1.5) - x) <= 1e-12

    def test_identity_preserves_fields(self):
        agent = pendulum_gradient_agent()
        out = transform_agent(agent, Transform2.identity())
        for x in np.linspace(-3.0, 3.0, 11):
            assert out.f(x, 0.7) == agent.f(x, 0.7)
            assert _output(out, x, 0.7) == _output(agent, x, 0.7)

    def test_round_trip_restores_vector_field(self):
        agent = nonmonotone_demo_agent()
        T = Transform2(1.0, 1.0, 1.0, 2.0)
        back = transform_agent(transform_agent(agent, T), T.inverse())
        for x in np.linspace(-3.0, 3.0, 31):
            for u in (-1.0, 0.3, 2.0):
                assert abs(back.f(x, u) - agent.f(x, u)) <= 1e-12
                assert abs(_output(back, x, u) - _output(agent, x, u)) <= 1e-12

    def test_transformed_output_is_the_transformed_pair(self):
        # y~ = c·u + d·y at the input u that the new input u~ stands for
        agent = nonmonotone_demo_agent()
        T = Transform2(1.5, -0.5, 2.0, 3.0)
        out = transform_agent(agent, T)
        x, ut = np.linspace(-3.0, 3.0, 31)[:, None], np.array([-1.0, 0.3, 2.0])
        u = (ut - T.b * agent.h(x)) / (T.a + T.b * agent.feedthrough)
        np.testing.assert_allclose(out.f(x, ut), agent.f(x, u), rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(_output(out, x, ut),
                                   T.c * u + T.d * _output(agent, x, u),
                                   rtol=0.0, atol=1e-12)

    def test_one_call_of_h_per_evaluation(self):
        calls = []
        agent = AgentODE(f=lambda x, u: -x + u, h=partial(_counting_output, calls),
                         feedthrough=0.25)
        out = transform_agent(agent, Transform2(1.0, 2.0, 0.5, 1.5))
        xs = np.linspace(-1.0, 1.0, 7)
        out.h(xs)
        assert calls == [(7,)]
        out.f(xs, xs)
        assert calls == [(7,), (7,)]

    def test_network_transform_counts(self):
        spec = pendulum_network()
        with pytest.raises(DimensionMismatch):
            apply_network_transform(spec, [Transform2.identity()])


class TestSolvers:
    def test_newton_step_stops_unsolved_at_no_curvature(self):
        # H = diag(1, 0), g = (1, 1): the first CG step is exact along (1, 1),
        # and the next direction (0, -2) has no curvature, so the step so far
        # comes back unsolved
        p, solved = network_module._newton_step(
            np.array([1.0, 1.0]), lambda v: np.array([v[0], 0.0]))
        np.testing.assert_array_equal(p, [-2.0, -2.0])
        assert not solved

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
        spec = replace(quadratic_network(), controllers=(ControllerSpec(gain=500.0),))
        res = solve_opp(spec)
        np.testing.assert_allclose(res.primal, [2.0, 2.0], atol=2e-2)

    def test_no_edges_flow_problem_is_trivial(self):
        spec = NetworkSpec(Graph(1, ()), (quadratic_agent(3.0),), (),
                           np.zeros(1))
        res = solve_ofp(spec)
        assert res.coupling.size == 0
        np.testing.assert_array_equal(res.primal, [0.0])

    def test_non_quadratic_flow_problem_converges(self):
        # not one quadratic: the solver must iterate until a step keeps its cells
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
        # with no Newton iteration left the solve stops at zero
        monkeypatch.setattr(network_module, "_NEWTON_ITERATIONS", 0)
        with pytest.raises(NoConvergence, match=r"stopped with gradient residual "
                           r".* at the iteration cap of 0$"):
            solver(self._sinh_spec())

    @staticmethod
    def _kinked_solve(width, calls, monkeypatch):
        """solve_opp beside a supplied potential whose slope rises by 1
        across one cell ``width`` wide, where the minimizer lies, with a 1
        in ``calls`` per Newton step; an ulp of y moves the gradient by
        about 2e-16 / width, past the residual bound."""
        g = np.sort(np.r_[np.linspace(-5.0, 5.0, 1001), 1.0 + width])
        kink = IntegralFunction(g, 0.5 * g * g + np.maximum(g - 1.0, 0.0))
        bowl = IntegralFunction(g, 0.5 * (g - 4.0) ** 2)

        def counted(*args, _real=network_module._newton_step):
            calls.append(1)
            return _real(*args)

        monkeypatch.setattr(network_module, "_newton_step", counted)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            solve_opp(quadratic_network(centers=(0.0, 0.0)),
                      node_potentials=[kink, bowl])

    def test_step_that_cannot_move_ends_the_solve(self, monkeypatch):
        # a cell 1e-15 wide is a few ulps of y: the steps jump across it
        # until one no longer moves y, and the solve stops there
        calls = []
        with pytest.raises(NoConvergence, match=r"stopped with gradient residual "
                           r".* at a step that cannot move z$"):
            self._kinked_solve(1e-15, calls, monkeypatch)
        assert len(calls) < network_module._NEWTON_ITERATIONS

    def test_exact_step_rounding_past_the_bound_raises(self, monkeypatch):
        # a cell 1e-12 wide: the Newton step lands in it and keeps every
        # cell, so it is exact, but the rounding of y leaves the gradient
        # residual above its bound, and the guard raises
        with pytest.raises(NoConvergence, match=r"stopped with gradient residual "
                           r".* at a Newton step that keeps every cell$"):
            self._kinked_solve(1e-12, [], monkeypatch)

    def test_flat_potentials_are_crossed_at_every_slope(self):
        # a·h(y - 5) with h the Huber function, curved on [4, 6] and linear
        # past it, on a dyadic grid, so the curvature at y = 0 is exactly 0
        # and the gradient (-a, -a) lies where Q vanishes: no Newton step
        # is solved there.  The first step's length must come from the grid,
        # not from a, else a small a crawls to the curved cells
        g = np.arange(-16.0, 16.25, 0.25)
        huber = np.where(np.abs(g - 5.0) <= 1.0, 0.5 * (g - 5.0) ** 2,
                         np.abs(g - 5.0) - 0.5)
        iterations = set()
        for a in (2.0 ** -20, 2.0 ** -7, 1.0, 2.0 ** 10):
            pot = IntegralFunction(g, a * huber)
            res = solve_opp(quadratic_network(centers=(0.0, 0.0)),
                            node_potentials=[pot, pot])
            np.testing.assert_array_equal(res.primal, [5.0, 5.0])
            iterations.add(res.iterations)
        assert len(iterations) == 1 and iterations.pop() <= 3

    @staticmethod
    def _refused(solver, spec, monkeypatch):
        """The PreconditionFailed ``solver`` raises on ``spec`` with no
        Newton step run and every warning an error."""
        monkeypatch.setattr(network_module, "_minimize_convex", None)  # never called
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PreconditionFailed) as caught:
                solver(spec)
        return str(caught.value)

    @staticmethod
    def _no_steady_state(vertices, inf_sum, sup_sum):
        return (f"no steady state on the component of vertices {vertices}: "
                f"Σ inf u = {inf_sum} and Σ sup u = {sup_sum} do not enclose 0")

    @staticmethod
    def _clip_pair(offset, noise=0.0):
        """Two agents u = clip(y, -1, 1) + offset (plus noise) on a 2-path."""
        def u_of_y(y):
            return (np.clip(y, -1.0, 1.0) + offset
                    + noise * np.random.default_rng(0).standard_normal(y.shape))
        return NetworkSpec(Graph.path(2), (_relation_agent(u_of_y),) * 2,
                           (ControllerSpec(gain=1.0),), np.zeros(2))

    @pytest.mark.parametrize("offset, sums", [(1.5, ("1", "5")), (-1.5, ("-5", "-1"))])
    def test_unbounded_potential_problem_raises(self, monkeypatch, offset, sums):
        # u = clip(y, -1, 1) ± 1.5 is at least 0.5 in magnitude, of one sign,
        # so no outputs make the inputs sum to 0 and no steady state exists:
        # both models end flat, and their end slopes' sums lie on one side
        # of 0.  The potential problem refuses before any Newton step
        assert (self._refused(solve_opp, self._clip_pair(offset), monkeypatch)
                == self._no_steady_state([0, 1], *sums))

    @pytest.mark.parametrize("offset, sums", [(1.5, ("1", "5")), (-1.5, ("-5", "-1"))])
    def test_flow_past_a_saturation_raises(self, monkeypatch, offset, sums):
        # the same network has no steady flow either, and the flow problem
        # reads the same K* models, so it refuses alike before any step
        assert (self._refused(solve_ofp, self._clip_pair(offset), monkeypatch)
                == self._no_steady_state([0, 1], *sums))

    @pytest.mark.parametrize("solver", [solve_opp, solve_ofp])
    @pytest.mark.parametrize("case", ["noisy-flat-ends", "isolated-vertex", "two-components"])
    def test_no_steady_state_named_by_component(self, monkeypatch, solver, case):
        # noise inside the certificate's band leaves an end flat; a vertex
        # with no edge, or a component beside a feasible one, is decided on
        # its own, and only its vertices are named
        clip = _relation_agent(lambda y: np.clip(y, -1.0, 1.0) + 1.5)
        pair = (quadratic_agent(1.0), quadratic_agent(2.0))
        spec, vertices, sums = {
            "noisy-flat-ends": (self._clip_pair(1.5, 1e-10), [0, 1], ("1", "5")),
            "isolated-vertex": (NetworkSpec(Graph(3, ((0, 1),)), pair + (clip,),
                                            (ControllerSpec(gain=1.0),), np.zeros(3)),
                                [2], ("0.5", "2.5")),
            "two-components": (NetworkSpec(Graph(4, ((0, 1), (3, 2))), pair + (clip,) * 2,
                                           (ControllerSpec(gain=1.0),) * 2, np.zeros(4)),
                               [2, 3], ("1", "5")),
        }[case]
        assert self._refused(solver, spec, monkeypatch) == self._no_steady_state(vertices, *sums)

    @pytest.mark.parametrize("offset", [1.0, -1.0])
    def test_sum_exactly_zero_is_admitted(self, offset):
        # u = clip(y, -1, 1) ± 1 reaches 0 on a flat end: Σ inf u (or
        # Σ sup u) is exactly 0, and every y = (t, t) past that end, where
        # both inputs are 0, is a steady state.  Both problems solve: the
        # outputs agree and lie on the flat stretch, up to the C¹ model's
        # smoothing of its kink (two cells of 1.5e-3), and the flows are 0
        opp, ofp = solve_opp(self._clip_pair(offset)), solve_ofp(self._clip_pair(offset))
        assert opp.primal[0] == opp.primal[1]
        assert -offset * opp.primal[0] >= 1.0 - 3e-3
        np.testing.assert_array_equal(ofp.primal, [0.0, 0.0])

    @pytest.mark.parametrize("center", [10.0, 30.0, 100.0, -10.0, -30.0, -100.0])
    def test_flow_past_a_flat_end_is_the_model_limit(self, center):
        # u = clip(y, -1, 1) beside a quadratic agent centred at c has the
        # steady state y = (c ∓ 2, c ∓ 1) with the first agent saturated, so
        # its flow is ±1, at a flat end of its u.  The potential problem
        # finds it to rounding while y lies on the quadratic's grid (±20);
        # past it the quadratic's end cell extends its model with the
        # curvature its rounded values give, off by 2.3e-9 at 30 and 1.6e-7
        # at 100 (sampling the relation's own slopes would mend it, ROADMAP
        # item 13).  The conjugate model extends the flat end, and the flow
        # problem's flow lands past it: the guard names the vertex, and does
        # not deny the steady state
        spec = NetworkSpec(Graph.path(2), (_relation_agent(lambda y: np.clip(y, -1.0, 1.0)),
                                           quadratic_agent(center)),
                           (ControllerSpec(gain=1.0),), np.zeros(2))
        sign = math.copysign(1.0, center)
        want = [center - 2.0 * sign, center - sign]
        atol = 1e-12 if abs(center) < 20.0 else 2e-9 * abs(center)
        np.testing.assert_allclose(solve_opp(spec).primal, want, rtol=0.0, atol=atol)
        with pytest.raises(NoConvergence, match=rf"^vertex 0: steady-state flow -?1\.0\d* "
                           rf"lies past the flat end {sign:g} of the relation's u, where "
                           rf"the flow model's end quadratic departs from the relation$"):
            solve_ofp(spec)

    def test_constant_u_refused_by_the_flow_problem(self, monkeypatch):
        # u = 0.5 whatever y: the flow potential is the indicator of u = 0.5,
        # a conjugate model of one node, which no Newton step can read; the
        # potential problem solves the same network
        spec = NetworkSpec(Graph.path(2), (_relation_agent(lambda y: 0.5 + 0.0 * y),
                                           quadratic_agent(0.0)),
                           (ControllerSpec(gain=1.0),), np.zeros(2))
        np.testing.assert_allclose(solve_opp(spec).primal, [-1.0, -0.5], rtol=0.0, atol=1e-12)
        monkeypatch.setattr(network_module, "_minimize_convex", None)  # never called
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PreconditionFailed,
                               match=r"^vertex 0: relation u is constant at 0\.5$"):
                solve_ofp(spec)

    @pytest.mark.parametrize("centers", [(30.0, -45.0), (30.0, -60.0)])
    def test_quadratic_flows_past_the_grid_stand(self, centers):
        # u = y - c sampled for y in [-20, 20]: the steady state puts the
        # second agent at the end of its grid or 10 past it, where the
        # model's end quadratic is the relation itself
        spec = NetworkSpec(Graph.path(2), tuple(map(quadratic_agent, centers)),
                           (ControllerSpec(gain=1.0),), np.zeros(2))
        gap = (centers[0] - centers[1]) / 3.0
        opp, ofp = solve_opp(spec), solve_ofp(spec)
        np.testing.assert_allclose(opp.primal, [centers[0] - gap, centers[1] + gap],
                                   rtol=0.0, atol=1e-11)
        np.testing.assert_allclose(ofp.primal, [-gap, gap], rtol=0.0, atol=1e-11)
        assert abs(opp.objective + ofp.objective) <= 1e-11

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
            spec = replace(quadratic_network(tuple(centers)),
                           controllers=(ControllerSpec(gain=500.0),))
        else:
            spec, centers = self._seeded_quadratic_network(n, shape, seed)
        E = spec.graph.incidence_matrix()
        G = np.diag([c.gain for c in spec.controllers])
        # steady state y = u + c with u = -E G Eᵀ y
        y = np.linalg.solve(np.eye(n) + E @ G @ E.T, centers)
        # the second Newton step keeps every cell, so both solutions are
        # exact to rounding: within 1.1e-12 on these networks
        opp, ofp = solve_opp(spec), solve_ofp(spec)
        atol = 1e-11 * np.abs(y).max()
        np.testing.assert_allclose(opp.primal, y, rtol=0.0, atol=atol)
        np.testing.assert_allclose(ofp.primal, y - centers, rtol=0.0, atol=atol)
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
        # the potential objective is about -1000 n, so at n = 40 a last
        # step's decrease drowns in its rounding: the step that keeps every
        # cell is taken without comparing objectives
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

    @pytest.mark.parametrize("x, d", [
        # strictly increasing slopes, with a -0.0 abscissa at the anchor
        ([-2.0, -1.0, -0.0, 1.0, 2.5], [-3.0, -1.0, 0.5, 2.0, 4.0]),
        # one flat run of the slopes
        ([-2.0, -1.0, 0.0, 1.0, 2.0, 3.0], [-1.0, 0.0, 1.0, 1.0, 1.0, 2.0]),
        # a dip lifted into a run
        ([-2.0, -1.0, 0.0, 1.0, 2.0, 3.0], [-1.0, 0.5, 0.4, 0.6, 1.0, 2.0]),
        # a -0.0 node slope, and a flat run of signed zeros
        ([-2.0, -1.0, 0.0, 1.0], [-1.0, -0.0, 1.0, 2.0]),
        ([-1.0, -0.0, 1.0, 2.0], [-0.0, 0.0, -0.0, 0.0]),
    ], ids=["increasing", "flat-run", "dip", "signed-zero", "signed-zero-run"])
    def test_conjugate_matches_merged_runs(self, x, d):
        # skipping the running maximum where d rises, and the run merge
        # where no run exists, changes no bit
        x, d = np.array(x), np.array(d)
        model = (x, d, relations_module._trapezoid(x, d, 0.5))
        for got, want in zip(network_module._conjugate(model), merged_conjugate(model)):
            np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))

    @given(st.lists(st.tuples(st.floats(0.05, 3.0),
                              st.sampled_from([-1.0, -0.0, 0.0, 2.0]) | st.floats(-10.0, 10.0)),
                    min_size=2, max_size=25), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_conjugate_matches_merged_runs_on_drawn_slopes(self, nodes, rising):
        widths, d = (np.array(c) for c in zip(*nodes))
        d = np.sort(d) if rising else d
        x = np.cumsum(widths) - widths.sum() / 2.0
        model = (x, d, relations_module._trapezoid(x, d, 0.5))
        for got, want in zip(network_module._conjugate(model), merged_conjugate(model)):
            np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("relation, want", [
        (quadratic_agent(1.0).relation, []),
        (_relation_agent(lambda y: np.clip(y, -1.0, 1.0) + 1e-11
                         * np.random.default_rng(0).standard_normal(y.shape)).relation,
         ["maximum", "maximum", "minimum"]),
    ], ids=["rising", "noisy-flat-run"])
    def test_running_extrema_taken_only_where_slopes_dip(self, relation, want, monkeypatch):
        # the conjugate model takes a running maximum of the nodal slopes,
        # legendre one of the cell slopes and a running minimum after it;
        # legendre's output is convex by construction, and none of its cell
        # slopes' running extrema is taken
        F = relations_module.integral_function(relation, relations_module.OF_K_INVERSE)
        ys = np.linspace(-2.0, 2.0, 101)
        calls = []
        for module in (network_module, relations_module):
            monkeypatch.setattr(module, "np", _CountingNumpy(calls))
        network_module._conjugate(network_module._c1_models([F], 1)[0])
        legendre(F, ys)
        assert calls == want

    def test_potentials_read_their_grids_once(self, monkeypatch):
        # integral_function's grid is a copy of finite samples that step up:
        # one np.diff of the abscissa serves the sum and the certificate, and
        # only the summed values are read again (a sum can overflow);
        # from_function reads the grid it is given once
        rel = quadratic_agent(1.0).relation
        grid = np.linspace(-2.0, 2.0, 41)
        calls = []
        for module in (relations_module, errors_module):
            monkeypatch.setattr(module, "np", _CountingNumpy(calls, ("diff", "isfinite")))
        F = relations_module.integral_function(rel, relations_module.OF_K_INVERSE)
        G = IntegralFunction.from_function(lambda y: 0.5 * y * y, grid)
        monkeypatch.undo()

        def passes(name, *arrays):
            return sum(call[0] == name and any(np.shares_memory(call[1], a) for a in arrays)
                       for call in calls)

        assert passes("diff", rel.y, F.grid) == passes("diff", G.grid) == 1
        assert passes("isfinite", rel.y, F.grid) == 0
        assert passes("isfinite", F.values) == passes("isfinite", G.grid) == 1

    @pytest.mark.parametrize("solver", [solve_opp, solve_ofp])
    @pytest.mark.parametrize("n", [0, 1])
    def test_potential_of_fewer_than_two_samples_refused(self, solver, n):
        convex = IntegralFunction.from_function(lambda y: 0.5 * y * y,
                                                np.linspace(-5.0, 5.0, 101))
        short = IntegralFunction(np.zeros(n), np.zeros(n))
        with pytest.raises(DimensionMismatch) as err:
            solver(quadratic_network((1.0, 3.0)), node_potentials=[convex, short])
        assert str(err.value) == f"vertex 1: potential needs 2 or more samples, not {n}"

    def test_conjugate_of_an_agent_model_matches_merged_runs(self):
        F = relations_module.integral_function(quadratic_agent(1.0).relation,
                                               relations_module.OF_K_INVERSE)
        model = network_module._c1_models([F], 1)[0]
        for got, want in zip(network_module._conjugate(model), merged_conjugate(model)):
            np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))

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
        np.testing.assert_allclose(report.prediction.primal, [0.0], atol=1e-6)

    def test_network_without_vertices_passes_with_zero_gap(self):
        spec = NetworkSpec(Graph(0, ()), (), (), np.zeros(0), FAST)
        report = predict_and_verify(spec, [])
        assert report.passed and report.gap == 0.0
        assert report.prediction.primal.shape == report.simulation.steady_state.shape == (0,)

    def test_shifted_quadratics_pass(self):
        # the lines u = y - 100 and u = y - 101 are maximal: a check that
        # measured from the origin once refused both agents
        spec = NetworkSpec(Graph.path(2), (quadratic_agent(100.0), quadratic_agent(101.0)),
                           (ControllerSpec(gain=1.0),), np.zeros(2),
                           IntegratorConfig(horizon=30.0))
        assert predict_and_verify(spec, [Transform2.identity()] * 2).passed

    def test_nonmonotone_agents_rejected(self):
        spec = replace(pendulum_network(), integrator=FAST)
        with pytest.raises(PreconditionFailed):
            predict_and_verify(spec, [Transform2.identity()] * 5)

    def test_agent_without_relation_rejected(self):
        bare = AgentODE(f=lambda x, u: -x + u, h=lambda x: x)
        spec = NetworkSpec(Graph.path(2), (quadratic_agent(0.0), bare),
                           (ControllerSpec(gain=1.0),), np.zeros(2), FAST)
        with pytest.raises(PreconditionFailed,
                           match="^agent 1: no steady-state relation declared$"):
            predict_and_verify(spec, [Transform2.identity()] * 2)

    def test_each_distinct_agent_checked_once(self, monkeypatch):
        calls = []

        def counted(rel, _real=network_module.is_cursive):
            calls.append(rel)
            return _real(rel)
        monkeypatch.setattr(network_module, "is_cursive", counted)
        for name in ("is_monotone", "is_maximal_monotone"):
            monkeypatch.setattr(relations_module, name, None)  # never called
        shared, other = quadratic_agent(1.0), quadratic_agent(2.0)
        spec = NetworkSpec(Graph.path(4), (shared, shared, other, shared),
                           (ControllerSpec(gain=1.0),) * 3, np.zeros(4), FAST)
        assert predict_and_verify(spec, [Transform2.identity()] * 4).passed
        # two transformed agents, one scan each for maximality and strictness
        assert len(calls) == 2 and calls[0] is not calls[1]

    def test_shared_failing_agent_named_at_every_vertex(self):
        spec = NetworkSpec(Graph.path(3), (_kinked_agent(),) * 3,
                           (ControllerSpec(gain=1.0),) * 2, np.zeros(3), FAST)
        named = "; ".join(f"agent {i}: relation is not strictly monotone" for i in range(3))
        with pytest.raises(PreconditionFailed, match=f"^{named}$"):
            predict_and_verify(spec, [Transform2.identity()] * 3)


class _Reached(Exception):
    """Raised in place of the Newton loop: the solver admitted the network."""


def _reached(*args):
    raise _Reached


@st.composite
def mixed_networks(draw):
    """A path, a random graph (which may leave vertices isolated) or no
    edges, with agents u = clip(y, -1, 1) + c (an offset c) and quadratic
    agents u = y - c (None), the offsets chosen so that no component's sum
    of inf u or of sup u lies within 1e-3 of 0."""
    n = draw(st.integers(1, 6))
    shape = draw(st.sampled_from(["path", "random", "isolated"]))
    if shape == "path":
        edges = [(i, i + 1) for i in range(n - 1)]
    elif shape == "random":
        pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        edges = [(h, t) for h, t in draw(st.lists(pairs, max_size=2 * n)) if h != t]
    else:
        edges = []
    offsets = draw(st.lists(st.one_of(st.none(), st.floats(-3.0, 3.0)),
                            min_size=n, max_size=n))
    for members in _components(n, edges):
        clipped = [offsets[i] for i in members]
        if None not in clipped:
            sums = (sum(clipped) - len(clipped), sum(clipped) + len(clipped))
            assume(min(map(abs, sums)) > 1e-3)
    return n, edges, offsets


def _components(n, edges):
    """Vertex lists of the connected components, by their least vertex."""
    root = list(range(n))

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    for h, t in edges:
        a, b = sorted((find(h), find(t)))
        root[b] = a
    return [[v for v in range(n) if find(v) == r] for r in range(n) if find(r) == r]


class TestExistenceRule:
    """Both solvers decide existence by the closed-form rule before any
    Newton step: a component has no steady state exactly when
    Σ inf uᵢ > 0 or Σ sup uᵢ < 0 over it (ROADMAP item 36)."""

    @staticmethod
    def _spec(n, edges, offsets, scale):
        def agent(c):
            if c is None:  # a quadratic agent's line, curved at both model ends
                u_of_s, reach = (lambda s: scale * (s - 0.5)), 20.0
            else:
                u_of_s, reach = (lambda s: scale * (np.clip(s, -1.0, 1.0) + c)), 3.0
            rel = PlanarRelation.from_param_curve(u_of_s, lambda s: scale * s,
                                                  (-reach, reach), 201)
            return AgentODE(f=lambda x, u: -x, h=lambda x: x, relation=rel)

        return NetworkSpec(Graph(n, tuple(edges)), tuple(map(agent, offsets)),
                           (ControllerSpec(gain=1.0),) * len(edges), np.zeros(n))

    @given(mixed_networks())
    @settings(max_examples=150, deadline=None)
    def test_verdict_is_the_closed_form_rule(self, network):
        n, edges, offsets = network
        refused = None
        for members in _components(n, edges):
            clipped = [offsets[i] for i in members]
            if None not in clipped and (sum(clipped) > len(clipped)
                                        or sum(clipped) < -len(clipped)):
                refused = members
                break
        want = (f"no steady state on the component of vertices {refused}: "
                if refused else None)
        with mock.patch.object(network_module, "_minimize_convex", _reached):
            for k in (-30, 0, 30):
                spec = self._spec(n, edges, offsets, 2.0 ** k)
                for solver in (solve_opp, solve_ofp):
                    with warnings.catch_warnings():
                        warnings.simplefilter("error")
                        try:
                            solver(spec)
                        except _Reached:
                            got = None
                        except PreconditionFailed as exc:
                            got = str(exc)[:str(exc).index(": ") + 2]
                    assert got == want, (k, solver.__name__)


def _first_order_agent(a, b, c, d, e, reach=20.0):
    """dx/dt = -a·x + b·u + e, y = c·x + d·u with its steady-state line
    y = g·u + y0, g = cb/a + d and y0 = ce/a, declared for |u| <= reach."""
    g, y0 = c * b / a + d, c * e / a
    rel = PlanarRelation.from_param_curve(lambda s: s, lambda s: g * s + y0, (-reach, reach))
    return AgentODE(f=partial(_first_order_f, a, b, e), h=partial(_linear_output, c),
                    feedthrough=d, relation=rel), g, y0


def _first_order_f(a, b, e, x, u):
    return -a * x + b * u + e


def _linear_output(c, x):
    return c * x


class TestFirstOrderAgents:
    """Networks of first-order agents with feedthrough against the linear
    solve (ROADMAP item 29).  Each agent rests on the line y = gᵢ·u + y0ᵢ,
    and u = -L·y with L = E G Eᵀ, so y = (I + diag(g)·L)⁻¹·y0.  K*ᵢ is a
    quadratic, which the C¹ models reproduce, so both problems are exact to
    rounding."""

    @staticmethod
    def _network(n, shape, seed, shear):
        """A seeded network, the transformed lines' (g, y0) under the shear
        (u, y) -> (u, y + shear·u), and one transform per vertex."""
        rng = np.random.default_rng(seed)
        base, _ = TestSolvers._seeded_quadratic_network(n, shape, seed)
        made = [_first_order_agent(*rng.uniform(0.5, 2.0, 3), rng.uniform(0.0, 1.0),
                                   rng.uniform(-3.0, 3.0)) for _ in range(n)]
        agents, g, y0 = zip(*made)
        spec = replace(base, agents=agents, integrator=IntegratorConfig(horizon=200.0))
        return (spec, np.array(g) + shear, np.array(y0),
                [Transform2(1.0, 0.0, shear, 1.0)] * n)

    @staticmethod
    def _linear_solve(spec, g, y0):
        E = spec.graph.incidence_matrix()
        L = E @ np.diag([c.gain for c in spec.controllers]) @ E.T
        y = np.linalg.solve(np.eye(len(g)) + g[:, None] * L, y0)
        return y, -L @ y

    @pytest.mark.parametrize("n, shape, seed", [
        (2, "path", 0), (5, "path", 1), (5, "random", 2), (20, "path", 3), (20, "random", 4)])
    def test_both_problems_match_the_linear_solve(self, n, shape, seed):
        spec, g, y0, _ = self._network(n, shape, seed, 0.0)
        y, u = self._linear_solve(spec, g, y0)
        opp, ofp = solve_opp(spec), solve_ofp(spec)
        np.testing.assert_allclose(opp.primal, y, rtol=0.0, atol=TIGHT * np.abs(y).max())
        np.testing.assert_allclose(ofp.primal, u, rtol=0.0, atol=TIGHT * np.abs(u).max())
        assert abs(opp.objective + ofp.objective) <= TIGHT * np.abs(y).max() ** 2

    @pytest.mark.parametrize("shear", [0.0, 0.5])
    @pytest.mark.parametrize("n, shape, seed", [(5, "path", 5), (5, "random", 6)])
    def test_prediction_matches_the_linear_solve(self, n, shape, seed, shear):
        # the shear adds shear·u to each output: the same agents with
        # feedthrough d + shear, whose lines are y = (g + shear)·u + y0
        spec, g, y0, transforms = self._network(n, shape, seed, shear)
        y, _ = self._linear_solve(spec, g, y0)
        report = predict_and_verify(spec, transforms)
        assert report.passed
        np.testing.assert_allclose(report.prediction.primal, y, rtol=0.0,
                                   atol=TIGHT * np.abs(y).max())
        np.testing.assert_allclose(report.simulation.steady_state, y, rtol=0.0, atol=1e-5)


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
        (lambda d: d["agents"][1].update(kind="nope"),
         r"^\$\.agents\[1\]\.kind: unknown agent kind 'nope'$"),
        # one object for every entry is named at its own path, not at [0]
        (lambda d: d.update(agents={"kind": "nope"}),
         r"^\$\.agents\.kind: unknown agent kind 'nope'$"),
        (lambda d: d.update(agents={"params": {}}), r"^\$\.agents: missing key 'kind'$"),
        (lambda d: d.update(agents={"kind": "quadratic", "params": {"centre": 2.0}}),
         r"^\$\.agents\.params: .*'centre'"),
        # a parameter is one number, named at its own path
        (lambda d: d.update(agents={"kind": "pendulum-gradient", "params": {"r1": [0.0]}}),
         r"^\$\.agents\.params\.r1: DimensionMismatch: r1 must be a number, not of shape \(1,\)$"),
        (lambda d: d["agents"][1]["params"].update(center=[3.0]),
         r"^\$\.agents\[1\]\.params\.center: DimensionMismatch: center must be a number"),
        (lambda d: d["agents"][1]["params"].update(center=math.nan),
         r"^\$\.agents\[1\]\.params\.center: NonFiniteValue: center = nan is not finite$"),
        # an integer past the float range was once a bare OverflowError
        (lambda d: d["agents"][1]["params"].update(center=10**400),
         r"^\$\.agents\[1\]\.params\.center: NonFiniteValue: center cannot be read as "
         r"floats: int too large to convert to float$"),
        (lambda d: d["x0"].__setitem__(0, -10**400),
         r"^\$\.x0: NonFiniteValue: x0 cannot be read as floats: int too large to convert "
         r"to float$"),
        (lambda d: d.update(controllers={}), r"^\$\.controllers: missing key 'gain'$"),
        (lambda d: d.update(controllers={"gain": -1.0}), r"^\$\.controllers: .*positive"),
        (lambda d: d["integrator"].update(step=0.1), r"^\$\.integrator: .*'step'"),
        (lambda d: d["graph"].update(vertices=math.inf),
         r"^\$\.graph\.vertices: inf is not an integer$"),
        (lambda d: d["graph"].update(vertices=2.5),
         r"^\$\.graph\.vertices: 2\.5 is not an integer$"),
        # a negative count is named as the JSON gave it, where it is read
        (lambda d: d["graph"].update(vertices=-1),
         r"^\$\.graph\.vertices: -1 must be a non-negative integer$"),
        (lambda d: d["graph"].update(vertices=-1e308),
         r"^\$\.graph\.vertices: -1e\+308 must be a non-negative integer$"),
        # a count must match the initial states before it sizes any list
        (lambda d: d.update(agents=d["agents"][0], graph={"vertices": 1e308, "edges": []}),
         r"^\$\.x0: 2 initial states for \$\.graph\.vertices = 1e\+308$"),
        (lambda d: d["graph"]["edges"][0].__setitem__(1, math.inf),
         r"^\$\.graph\.edges\[0\]: inf is not an integer$"),
        (lambda d: d["graph"]["edges"][0].__setitem__(0, 0.5),
         r"^\$\.graph\.edges\[0\]: 0\.5 is not an integer$"),
        (lambda d: d["graph"]["edges"][0].__setitem__(1, -1),
         r"^\$\.graph\.edges\[0\]: vertex index -1 out of range for 2 vertices$"),
        (lambda d: d["graph"]["edges"][0].__setitem__(0, 2.0),
         r"^\$\.graph\.edges\[0\]: vertex index 2\.0 out of range for 2 vertices$"),
        (lambda d: d["graph"]["edges"][0].__setitem__(1, 0),
         r"^\$\.graph: DimensionMismatch: self-loop at vertex 0$"),
        (lambda d: d["integrator"].update(horizon=1e308, dt=0.01),
         r"^\$\.integrator: .*horizon 1e\+308 holds too many steps of dt 0\.01"),
        # a misspelt key would leave its default (a centre of 0, a horizon of 100)
        (lambda d: d["agents"][1].update(param=d["agents"][1].pop("params")),
         r"^\$\.agents\[1\]: unknown key 'param', not one of kind, params$"),
        (lambda d: d.update(integrater=d.pop("integrator")),
         r"^\$: unknown key 'integrater', not one of graph, agents, controllers, x0, "
         r"integrator$"),
        (lambda d: d["graph"].update(vertex=2), r"^\$\.graph: unknown key 'vertex'"),
        (lambda d: d["controllers"][0].update(gains=2.0),
         r"^\$\.controllers\[0\]: unknown key 'gains', not one of gain$"),
        (lambda d: d.update(agents={"kind": "quadratic", "center": 2.0}),
         r"^\$\.agents: unknown key 'center'"),
        (lambda d: d.update(controllers={"gain": 1.0, "k": 2.0}),
         r"^\$\.controllers: unknown key 'k'"),
        # an object's path holds an object, so nothing reads a list or a number as one
        (lambda d: d["agents"][1].update(params=None),
         r"^\$\.agents\[1\]\.params: null is not an object$"),
        (lambda d: d["agents"][1].update(params=[1.0]),
         r"^\$\.agents\[1\]\.params: \[1\.0\] is not an object$"),
        (lambda d: d.update(integrator=[1.0]), r"^\$\.integrator: \[1\.0\] is not an object$"),
        (lambda d: d.update(graph=[2]), r"^\$\.graph: \[2\] is not an object$"),
        (lambda d: d.update(agents=3), r"^\$\.agents: 3 is not an object or a list$"),
        (lambda d: d.update(controllers=[1.0]),
         r"^\$\.controllers\[0\]: 1\.0 is not an object$"),
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
        sim = simulate(replace(quadratic_network(), integrator=FAST))
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

    def test_transformed_relation_matches_dynamics(self):
        # h~(x) = det T/(a + b·D)·h(x) stays strictly monotone
        agent = transform_agent(nonmonotone_demo_agent(), Transform2(1.0, 1.0, 1.0, 2.0))
        assert agent.check_relation()

    def test_pendulum_draws_match_their_relations(self):
        # 30 of these draws put two roots in one cell of the 0.05 grid that
        # the check once bracketed roots on, and read False
        rng = np.random.default_rng(0)
        draws = [(rng.uniform(0.5, 10.0), rng.uniform(0.01, 1.0)) for _ in range(100)]
        assert all(pendulum_gradient_agent(r1, r2).check_relation() for r1, r2 in draws)

    @pytest.mark.parametrize("make", [pendulum_gradient_agent, odd_cubic_agent,
                                      nonmonotone_demo_agent])
    def test_relation_shifted_in_y_fails(self, make):
        agent = make()
        rel = agent.relation
        shifted = PlanarRelation(rel.u, rel.y + 1e-6 * np.abs(rel.y).max(), rel.sigma)
        assert not replace(agent, relation=shifted).check_relation()

    def test_output_not_strictly_monotone_is_refused(self):
        rel = PlanarRelation.from_param_curve(lambda s: s, lambda s: s, (0.0, 3.0))
        agent = AgentODE(f=lambda x, u: -x + u, h=lambda x: np.abs(x), relation=rel)
        with pytest.raises(PreconditionFailed, match="h\\(x\\) is not strictly monotone"):
            agent.check_relation()

    @pytest.mark.parametrize("slope", [1.0, -1.0])
    def test_window_at_the_interval_end(self, slope):
        # the samples y = ±50 have their equilibria at x = ±50, where h is
        # already inside the band; beyond ±50 a window is empty, which is
        # refused by name rather than read as a wrong relation
        def agent(end):
            rel = PlanarRelation.from_param_curve(lambda s: s, lambda s: slope * s,
                                                  (-end, end))
            return AgentODE(f=lambda x, u: -x + u, h=lambda x: slope * x,
                            relation=rel)

        assert agent(50.0).check_relation()
        with pytest.raises(PreconditionFailed, match=(
                rf"sample 0, \(u, y\) = \(-60, {-60 * slope:g}\): y - feedthrough·u is "
                r"outside the range of h on \[-50, 50\]")):
            agent(60.0).check_relation()

    def test_agent_without_relation_passes_the_check(self):
        assert AgentODE(f=lambda x, u: -x + u, h=lambda x: x).check_relation()

    def test_static_controller_gain_positive(self):
        with pytest.raises(ValueError):
            ControllerSpec(gain=-1.0)
        with pytest.raises(ValueError):
            ControllerSpec(gain=math.nan)
        with pytest.raises(TypeError):
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
    return AgentODE(f=lambda x, u: -x, h=lambda x: x, relation=rel)


def _saturated_agent():
    """Saturation y = clip(u, -1, 1), maximally monotone with two flat runs."""
    s = np.linspace(-3.0, 3.0, 601)
    return AgentODE(f=lambda x, u: -x + u, h=lambda x: np.clip(x, -1.0, 1.0),
                    relation=PlanarRelation(s, np.clip(s, -1.0, 1.0), s))


def _point_list_agent():
    """quadratic_agent() with its relation's samples as a point list (no sigma)."""
    agent = quadratic_agent()
    return replace(agent, relation=PlanarRelation(agent.relation.u, agent.relation.y))


def _bare_spec():
    bare = AgentODE(f=lambda x, u: -x + u, h=lambda x: x)
    return NetworkSpec(Graph.path(2), (quadratic_agent(0.0), bare),
                       (ControllerSpec(gain=1.0),), np.zeros(2), FAST)


def _bowls(count):
    """``count`` convex node potentials 0.5 (y - c)^2, centres 1, 2, ..."""
    grid = np.linspace(-5.0, 5.0, 101)
    return [IntegralFunction.from_function(lambda y, c=c: 0.5 * (y - c) ** 2, grid)
            for c in range(1, count + 1)]


@pytest.mark.parametrize("call, error, match", [
    (lambda: NetworkSpec(Graph.path(2), (quadratic_agent(0.0),) * 2, (),
                         np.zeros(2)),
     DimensionMismatch, "0 controllers for 1 edges"),
    (lambda: NetworkSpec(Graph.path(2), (quadratic_agent(0.0),) * 2,
                         (ControllerSpec(gain=1.0),), np.zeros(3)),
     DimensionMismatch, "initial state length"),
    (lambda: NetworkSpec(Graph(2, ((0, 1),)), (quadratic_agent(),) * 2,
                         (ControllerSpec(1.0),), np.zeros((2, 1))),
     DimensionMismatch, r"^x0 must be 1-D, not of shape \(2, 1\)$"),
    (lambda: find_equilibria(quadratic_agent(), [[0.0, 1.0]]), DimensionMismatch,
     r"^input levels must be 1-D, not of shape \(1, 2\)$"),
    (lambda: find_equilibria(quadratic_agent(), [0.0, float("nan")]), NonFiniteValue,
     r"^input levels\[1\] = nan is not finite$"),
    (lambda: simulate(replace(quadratic_network(), integrator=IntegratorConfig(dt=0.0))),
     InvalidSpec, "^integrator step must be positive$"),
    (lambda: transform_agent(replace(quadratic_agent(0.0), feedthrough=1.0),
                             Transform2(1.0, -1.0, 0.0, 1.0)),
     SingularTransform, r"a \+ b\*feedthrough vanished"),
    (lambda: solve_opp(_bare_spec()), PreconditionFailed,
     "lacks a steady-state relation"),
    (lambda: predict_and_verify(
        NetworkSpec(Graph(1, ()), (_kinked_agent(),), (), np.zeros(1), FAST),
        [Transform2.identity()]),
     PreconditionFailed, "^agent 0: relation is not strictly monotone$"),
    # solve_opp takes a point list; the cursivity check needs the curve
    (lambda: predict_and_verify(
        NetworkSpec(Graph.path(3), (quadratic_agent(), _point_list_agent(), quadratic_agent()),
                    (ControllerSpec(gain=1.0),) * 2, np.zeros(3), FAST),
        [Transform2.identity()] * 3),
     PreconditionFailed, "^agent 1: cursivity check needs a parameterized curve$"),
    (lambda: replace(quadratic_agent(), relation=PlanarRelation([], [])).check_relation(),
     InvalidSamples, "^relation check: the relation has no samples$"),
    # y = clip(u, -1, 1) rises nowhere on its flat runs: only its inverse is
    # strictly monotone, and the potential integrates u over y
    (lambda: predict_and_verify(
        NetworkSpec(Graph(1, ()), (_saturated_agent(),), (), np.zeros(1), FAST),
        [Transform2.identity()]),
     PreconditionFailed, "^agent 0: relation is not strictly monotone$"),
    # each potential is flat at 1e308 in float, so their sum overflows
    (lambda: solve_opp(quadratic_network(), node_potentials=[
        IntegralFunction.from_function(lambda y, c=c: 1e308 + (y - c) ** 2,
                                       np.linspace(-5.0, 5.0, 101))
        for c in (1.0, 3.0)]),
     NoConvergence, "non-finite objective"),
    (lambda: solve_opp(quadratic_network(), node_potentials=_bowls(1)),
     DimensionMismatch, "^1 node potentials for 2 vertices$"),
    (lambda: solve_ofp(quadratic_network(), node_potentials=_bowls(3)),
     DimensionMismatch, "^3 node potentials for 2 vertices$"),
    (lambda: ControllerSpec(gain=np.inf), NonFiniteValue,
     "^controller gain = inf is not finite$"),
    (lambda: Graph(2, ((0, 1.5),)), InvalidSpec,
     r"^edge \(0,1.5\): vertex indices must be integers"),
    (lambda: Graph(math.inf, ()), InvalidSpec,
     r"^vertex count inf must be a non-negative integer"),
    (lambda: Graph(2, ((0, 1), (0,))), DimensionMismatch,
     r"^edge 1 = \(0,\) is not a vertex pair$"),
    (lambda: Graph(2, ((0, 1, 1),)), DimensionMismatch,
     r"^edge 0 = \(0, 1, 1\) is not a vertex pair$"),
    # Graph checks the count and the edges before range() or a loop reads them
    (lambda: Graph.path(1.5), InvalidSpec,
     r"^vertex count 1\.5 must be a non-negative integer$"),
    (lambda: Graph.path("a"), InvalidSpec,
     r"^vertex count 'a' must be a non-negative integer$"),
    (lambda: Graph(2, 5), DimensionMismatch, r"^edges 5 are not a sequence$"),
    # Python counts a bool as an integer, so True would be one vertex
    (lambda: Graph(True, ()), InvalidSpec,
     r"^vertex count True must be a non-negative integer$"),
    (lambda: Graph.path(True), InvalidSpec,
     r"^vertex count True must be a non-negative integer$"),
    (lambda: Graph(2, ((True, False),)), InvalidSpec,
     r"^edge \(True,False\): vertex indices must be integers$"),
    (lambda: spec_from_json("{"), InvalidSpec,
     r"^\$: JSONDecodeError: Expecting property name .*\(char 1\)$"),
    # the document's shape is named before any entry is read
    (lambda: spec_from_json('"abc"'), InvalidSpec, r"^\$: the document is not a JSON object$"),
    (lambda: spec_from_json("[]"), InvalidSpec, r"^\$: the document is not a JSON object$"),
    (lambda: IntegratorConfig(horizon=-5.0), InvalidSpec,
     "^horizon must not be negative, got -5.0$"),
    (lambda: IntegratorConfig(convergence_window=-1.0), InvalidSpec,
     "^convergence_window must not be negative, got -1.0$"),
    (lambda: IntegratorConfig(tol_conv=-1.0), InvalidSpec,
     "^tol_conv must not be negative, got -1.0$"),
    (lambda: IntegratorConfig(dt=0.01, horizon=1e308), InvalidSpec,
     r"^horizon 1e\+308 holds too many steps of dt 0.01$"),
    (lambda: IntegratorConfig(dt="a"), NonFiniteValue, "^dt " + WORD),
    (lambda: IntegratorConfig(horizon=[1.0, [2.0]]), NonFiniteValue, "^horizon " + RAGGED),
    (lambda: ControllerSpec(gain=-1.0), InvalidSpec,
     "^controller gain must be positive, got -1.0$"),
    (lambda: ControllerSpec("a"), NonFiniteValue, "^controller gain " + WORD),
    (lambda: ControllerSpec([1.0, [2.0]]), NonFiniteValue, "^controller gain " + RAGGED),
    (lambda: NetworkSpec(Graph.path(2), (quadratic_agent(),) * 2, (ControllerSpec(1.0),),
                         [0.0, [1.0]]), NonFiniteValue, "^x0 " + RAGGED),
    (lambda: NetworkSpec(Graph.path(2), (quadratic_agent(),) * 2, (ControllerSpec(1.0),),
                         ["a", 1.0]), NonFiniteValue, "^x0 " + WORD),
    (lambda: find_equilibria(quadratic_agent(), [[0.0], [1.0, 2.0]]), NonFiniteValue,
     "^input levels " + RAGGED),
    (lambda: find_equilibria(quadratic_agent(), "a"), NonFiniteValue,
     "^input levels " + WORD),
    (lambda: verify_passivation(nonmonotone_demo_agent(), Transform2.identity(),
                                PassivityIndices(0.0, 0.0), trials="a"),
     InvalidSpec, "^trials must be an integer of at least 1, got 'a'$"),
], ids=["controller_count", "x0_length", "x0_2d", "equilibria_levels_2d",
        "equilibria_level_nan", "dt", "feedthrough",
        "opp_without_relation", "not_strictly_monotone", "point_list_relation",
        "empty_relation", "saturation", "opp_overflow",
        "opp_one_potential_short", "ofp_one_potential_over",
        "infinite_gain", "fractional_vertex", "infinite_vertex_count", "edge_single",
        "edge_triple", "path_fractional", "path_word", "edges_not_sequence",
        "bool_vertex_count", "path_bool", "bool_vertex_index",
        "spec_not_json", "spec_string", "spec_list",
        "negative_horizon", "negative_window", "negative_tol_conv",
        "horizon_overflows_step_count", "dt_word", "horizon_ragged", "negative_gain",
        "gain_word", "gain_ragged", "x0_ragged", "x0_word", "equilibria_levels_ragged",
        "equilibria_levels_word", "trials_word"])
def test_bad_input_raises(call, error, match):
    with pytest.raises(error, match=match):
        call()

