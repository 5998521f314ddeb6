"""Ready-made agents, plants, and networks used by tests, CLI, and scripts.

Each factory is named for the behavior it exhibits:

- ``odd_cubic_agent``: scalar agent whose steady-state inverse relation is
  the non-monotone cubic u = y^3 - y (output-passive short).
- ``nonmonotone_demo_agent``: agent with output feedthrough whose
  steady-state relation and inverse are both non-monotone; the standard
  demonstration target for the monotonizing transform.
- ``pendulum_gradient_agent``: gradient system with a sinusoidal potential;
  cursive but non-monotone steady-state relation.
- ``unstable_plant_tf``: second-order transfer function with one unstable
  pole, the worked example for the LTI index path.
- ``pendulum_network`` / ``quadratic_network``: seeded diffusively-coupled
  fixtures for the simulation and optimization paths.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .lti import RationalTF
from .network import (
    AgentODE,
    ControllerSpec,
    Graph,
    IntegratorConfig,
    NetworkSpec,
)
from .pqi import PassivityIndices
from .relations import PlanarRelation

# Agent kernels: f(x, u) and h(x).  A factory binds its parameters, if it has
# any, in front of them with functools.partial, so agents built with equal
# parameters have equal callables and the simulator evaluates their vertices in
# one array call.


def _state_output(x):
    return x


def _half_square_storage(x, xe):
    return 0.5 * (x - xe) ** 2


def _odd_cubic_f(x, u):
    return -x + np.cbrt(x) + u


def _odd_cubic_h(x):
    return np.cbrt(x)


def _demo_f(x, u):
    return -np.cbrt(x) + 0.5 * x + 0.5 * u


def _demo_h(x):
    return 0.5 * x


def _pendulum_f(r1, r2, x, u):
    return -r1 * np.sin(x) - r2 * x + u


def _quadratic_f(center, x, u):
    return -x + u + center


def odd_cubic_agent() -> AgentODE:
    """dx/dt = -x + cbrt(x) + u, y = cbrt(x); inverse relation u = y^3 - y,
    sampled at ``DEFAULT_GRID_POINTS`` values of y in [-3, 3]."""
    relation = PlanarRelation.from_param_curve(
        lambda s: s**3 - s, lambda s: s, (-3.0, 3.0)
    )
    return AgentODE(
        f=_odd_cubic_f,
        h=_odd_cubic_h,
        storage=_half_square_storage,
        indices=PassivityIndices(-1.0, 0.0),
        relation=relation,
    )


def nonmonotone_demo_agent() -> AgentODE:
    """dx/dt = -cbrt(x) + x/2 + u/2, y = x/2 - u/2.

    Steady states trace (u, y) = (2s - s^3, s^3 - s) with s the cube root of
    the equilibrium state: non-monotone in both directions, but cursive.  The
    relation is sampled at ``DEFAULT_GRID_POINTS`` values of s in [-3, 3].
    """
    relation = PlanarRelation.from_param_curve(
        lambda s: 2.0 * s - s**3, lambda s: s**3 - s, (-3.0, 3.0)
    )
    return AgentODE(
        f=_demo_f,
        h=_demo_h,
        feedthrough=-0.5,
        storage=_half_square_storage,
        indices=PassivityIndices(-2.0 / 3.0, -1.0 / 3.0),
        relation=relation,
    )


def pendulum_gradient_agent(r1: float = 2.5, r2: float = 0.1) -> AgentODE:
    """Gradient flow of U(x) = -r1*cos(x) + r2*x^2/2 driven by u, with y = x.

    The steady-state relation u = r1*sin(y) + r2*y, sampled at
    ``DEFAULT_GRID_POINTS`` values of y in [-40, 40], is cursive but
    non-monotone whenever r1 > r2.
    """
    relation = PlanarRelation.from_param_curve(
        lambda s: r1 * np.sin(s) + r2 * s, lambda s: s, (-40.0, 40.0)
    )
    return AgentODE(
        f=partial(_pendulum_f, r1, r2),
        h=_state_output,
        storage=_half_square_storage,
        relation=relation,
    )


def quadratic_agent(center: float = 0.0) -> AgentODE:
    """dx/dt = -x + u + center, y = x; steady state y = u + center.

    The inverse relation u = y - center integrates to the shifted quadratic
    potential (y - center)^2 / 2.
    """
    relation = PlanarRelation.from_param_curve(
        lambda s: s - center, lambda s: s, (-20.0, 20.0)
    )
    return AgentODE(
        f=partial(_quadratic_f, center),
        h=_state_output,
        storage=_half_square_storage,
        relation=relation,
    )


def unstable_plant_tf() -> RationalTF:
    """0.75 / (s^2 + 2s - 2): stable pole plus one unstable pole."""
    return RationalTF.make([0.75], [-2.0, 2.0, 1.0])


def pendulum_network(
    n_agents: int = 5,
    integrator: IntegratorConfig | None = None,
) -> NetworkSpec:
    """Path graph of default gradient-pendulum agents with unit edge gains.

    Initial states are drawn uniformly from [-20, 20] with seed 4 so runs
    are reproducible.  With five agents the untransformed network settles
    into several output clusters while the transformed network still
    reaches consensus at zero.
    """
    rng = np.random.default_rng(4)
    x0 = rng.uniform(-20.0, 20.0, size=n_agents)
    graph = Graph.path(n_agents)
    agents = (pendulum_gradient_agent(),) * n_agents
    controllers = tuple(ControllerSpec(gain=1.0) for _ in range(graph.edge_count))
    return NetworkSpec(graph, agents, controllers, x0,
                       integrator or IntegratorConfig())


def quadratic_network(
    centers=(1.0, 3.0),
    gain: float = 1.0,
    integrator: IntegratorConfig | None = None,
) -> NetworkSpec:
    """Chain of quadratic agents; closed-form optimum makes it the duality fixture."""
    n = len(centers)
    graph = Graph.path(n)
    agents = tuple(quadratic_agent(c) for c in centers)
    controllers = tuple(ControllerSpec(gain=gain) for _ in range(graph.edge_count))
    return NetworkSpec(graph, agents, controllers, np.zeros(n),
                       integrator or IntegratorConfig())


AGENT_REGISTRY = {
    "odd-cubic": odd_cubic_agent,
    "nonmonotone-demo": nonmonotone_demo_agent,
    "pendulum-gradient": pendulum_gradient_agent,
    "quadratic": quadratic_agent,
}
