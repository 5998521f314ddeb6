"""Diffusively-coupled networks: simulation, transforms, dual optimization.

Agents sit on vertices and static positive gains on the edges of a directed
graph; the coupling is ζ = Eᵀy, μ = Gζ, u = −Eμ with E the incidence matrix
and G the diagonal of edge gains.  The module integrates the closed loop with
an adaptive Dormand–Prince 5(4) stepper whose step never falls below the
configured ``dt``, applies per-agent 2x2 I/O transforms in closed form, and
predicts steady states by minimizing the potential objective over outputs
with one finite Newton–CG solver, in numpy alone, on C¹ models of the
sampled potentials, and reads the edge flows off its minimizer; the same
solver minimizes the flow objective over edge variables for supplied flow
potentials.  The stepper and the root bracketer are shared with the
dissipation certificate's reach bound and the equilibrium search.
"""

from __future__ import annotations

import inspect
import json
import math
import numbers
import re
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidSamples,
    InvalidSpec,
    NoConvergence,
    NonConvexCertificate,
    NonFiniteState,
    PreconditionFailed,
    SingularTransform,
    ToolkitError,
    WrongRepresentation,
    _floats,
)
from .relations import (
    DECREASE_RTOL,
    OF_K_INVERSE,
    SLOPE_EPS,
    IntegralFunction,
    PlanarRelation,
    _running_max,
    _trapezoid,
    _write_csv,
    integral_function,
    is_cursive,
    transform_relation,
)


@dataclass(frozen=True)
class Graph:
    """Directed graph given by a vertex count and (head, tail) edge pairs;
    a bool is refused as a count or an index, though Python counts it as one."""

    vertex_count: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        n = self.vertex_count
        if type(n) is bool or not (isinstance(n, numbers.Integral) and n >= 0):
            raise InvalidSpec(f"vertex count {n!r} must be a non-negative integer")
        try:
            object.__setattr__(self, "edges", tuple(self.edges))
        except TypeError:
            raise DimensionMismatch(f"edges {self.edges!r} are not a sequence") from None
        for e, edge in enumerate(self.edges):
            try:
                h, t = edge
            except (TypeError, ValueError):
                raise DimensionMismatch(f"edge {e} = {edge!r} is not a vertex pair") from None
            if not all(isinstance(v, numbers.Integral) and type(v) is not bool for v in (h, t)):
                raise InvalidSpec(f"edge ({h},{t}): vertex indices must be integers")
            if not (0 <= h < n and 0 <= t < n):
                raise DimensionMismatch(f"edge ({h},{t}) out of vertex range")
            if h == t:
                raise DimensionMismatch(f"self-loop at vertex {h}")

    @classmethod
    def path(cls, n: int) -> "Graph":
        cls(n, ())  # the vertex count is checked before range(n - 1) reads it
        return cls(n, tuple((i, i + 1) for i in range(n - 1)))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def incidence_matrix(self) -> np.ndarray:
        E, (heads, tails) = np.zeros((self.vertex_count, len(self.edges))), self._ends().T
        E[heads, np.arange(len(heads))], E[tails, np.arange(len(tails))] = 1.0, -1.0
        return E

    def _ends(self) -> np.ndarray:
        """The edges as an (edge count) x 2 integer array of (head, tail)."""
        return np.array(self.edges, dtype=int).reshape(-1, 2)


# ---------------------------------------------------------------------------
# Numeric kernels


def _agent_error(fn, where: str, exc: Exception) -> InvalidSpec:
    name = getattr(fn, "__qualname__", repr(fn))
    return InvalidSpec(
        f"{where}: {name} failed on array input ({type(exc).__name__}: {exc}); "
        "agent f(x, u), h(x) and storage(x, x_eq) must evaluate elementwise on numpy arrays"
    )


def agent_call(fn, x, *u):
    """fn(x, *u) on equal-shape arrays; InvalidSpec if fn cannot do that."""
    try:
        return np.broadcast_to(fn(x, *u), np.shape(x))
    except (TypeError, ValueError) as exc:
        raise _agent_error(fn, "agent", exc) from exc


def bracket_roots(f, u_values, lo: float, hi: float, cells: int):
    """Roots of x -> f(x, u) on [lo, hi] for every input level u at once.

    Each level's grid of ``cells + 1`` points is evaluated in one array call
    on read-only arrays.  A cell whose left end is an exact zero yields that
    grid point.  The cells with a strict sign change are narrowed together by
    ITP steps (Oliveira & Takahashi, ACM TOMS 47(1), 2020) on Illinois false
    position (Dowell & Jarratt, BIT 11, 1971).  Each round the interpolated
    point moves toward its bracket's midpoint by 0.1·w²/c, w the bracket's
    width and c the cell's, and by at least one ulp (or onto the midpoint,
    if that is nearer), so that it lands past a root it has nearly found,
    however close to the bracket's end; then it is drawn toward the midpoint
    just far enough that after n rounds no bracket is wider than 2^(2-n)·c.
    The false-position point itself, where it lies inside the bracket, is
    evaluated in the same array call: an exact zero there closes the bracket
    at once, and a sign change between it and the ITP point leaves the
    bracket between the two, so a linear ``f`` needs no truncation rounds.
    A bracket leaves the loop once its ends are adjacent floats (it yields
    their midpoint) or it hits an exact zero (it yields that point), so each
    round calls ``f`` only on the brackets still open; 80 rounds at most.
    Returns the roots and, for each, the index of its input level, ordered
    by level and then by cell.
    """
    us = np.atleast_1d(np.asarray(u_values, dtype=float))
    xs = np.linspace(lo, hi, cells + 1)
    X, U = np.meshgrid(xs, us, copy=False)
    X.flags.writeable = U.flags.writeable = False
    vals = agent_call(f, X, U)
    va, vb = vals[:, :-1], vals[:, 1:]
    zero = va == 0.0
    level, cell = np.nonzero(zero | (np.sign(va) * vb < 0.0))
    roots = xs[cell]
    k = np.flatnonzero(~zero[level, cell])
    # x1 is the latest point and f1 its value; x0 is the other end, whose
    # Illinois value g0 halves in each round after the first that keeps x0
    lv, ix = level[k], cell[k]
    u, x0, g0, x1, f1 = us[lv], xs[ix], va[lv, ix], xs[ix + 1], vb[lv, ix]
    width = abs(hi - lo) / cells
    for j in range(80):
        m = 0.5 * (x0 + x1)
        shut = (m == x0) | (m == x1)
        if shut.any():
            roots[k[shut]] = m[shut]
            k, u, x0, g0, x1, f1, m = (v[~shut] for v in (k, u, x0, g0, x1, f1, m))
        if not k.size:
            break
        w = np.abs(x1 - x0)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            xf = x1 + f1 / (f1 - g0) * (x0 - x1)
        gap = m - xf
        step = np.maximum(0.1 / width * w * w, np.abs(np.spacing(xf)))
        reach = np.maximum(width * 2.0 ** (1 - j) - 0.5 * w, 0.0)
        # measured from xf, so a step below an ulp of m still moves it; m
        # itself once the step reaches it, or for a nan xf
        x = np.where(step < np.abs(gap), xf + np.copysign(step, gap), m)
        x = np.clip(x, m - reach, m + reach)
        xf = np.where(np.abs(gap) < 0.5 * w, xf, x)
        probes = np.stack([x, xf])
        fx, ff = agent_call(f, probes, np.broadcast_to(u, probes.shape))
        flip = np.sign(fx) != np.sign(f1)
        x0, g0 = np.where(flip, x1, x0), np.where(flip, f1, g0 * (0.5 if j else 1.0))
        x1, f1 = x, fx
        x0 = np.where(fx == 0.0, x, x0)
        # xf lies between x and the end on its side of the midpoint; inside
        # the new bracket it splits that bracket again
        held = np.sign(xf - x0) * np.sign(xf - x1) < 0.0
        cross = held & (np.sign(ff) != np.sign(fx))
        x0, g0 = np.where(cross, x, x0), np.where(cross, fx, g0)
        x1, f1 = np.where(held, xf, x1), np.where(held, ff, f1)
        x0 = np.where(held & (ff == 0.0), xf, x0)
    else:
        roots[k] = 0.5 * (x0 + x1)
    return roots, level


def _output_gap(h, x, t):
    return h(x) - t


@dataclass(frozen=True)
class AgentODE:
    """Scalar-state agent dx/dt = f(x, u), y = h(x) + feedthrough·u.

    ``feedthrough`` is the one place where the output depends on the input.
    ``f(x, u)``, ``h(x)`` and ``storage(x, x_eq)`` must evaluate elementwise
    on numpy arrays of equal shape (and on scalars): the simulator calls
    ``f`` once for all vertices whose ``f`` is equal by value, and ``h``
    likewise (see :func:`_agent_groups`), and the certificate calls them on
    read-only grids, so an ``f`` that writes into its input raises
    InvalidSpec.  Optional extras carry a storage candidate S(x, x_eq),
    declared passivity indices, and the steady-state relation of the
    optimization path, which needs h strictly monotone (:meth:`check_relation`).
    """

    f: Callable[[float, float], float]
    h: Callable[[float], float]
    feedthrough: float = 0.0
    storage: Callable[[float, float], float] | None = None
    indices: object | None = None
    relation: PlanarRelation | None = None

    def check_relation(self) -> bool:
        """Declared relation consistent with the dynamics at 50 of its samples.

        Each sampled (u, y), evenly spaced in index, must have a forced
        equilibrium in its window: the states x in [-50, 50] whose output
        h(x) + feedthrough·u is within tol = 1e-8·(Y + |y|) of y, Y the
        relation's largest |y|.  As h is strictly monotone, the window is one
        interval, and its ends are where h crosses y - feedthrough·u ∓ tol,
        or ±50 where h(±50) already lies in that band; one
        :func:`bracket_roots` call finds all of them.  The root is certified
        by one call of ``f`` at all window ends: an exact zero or a sign
        change of f(., u) across the window, rather than a small |f|, which
        is unbounded below for infinite-slope dynamics like cube roots.  An
        h not strictly monotone on a 2001-point grid of [-50, 50], or a sample
        whose window is empty, raises PreconditionFailed; no sample, InvalidSamples.
        """
        if self.relation is None:
            return True
        if not len(self.relation.u):
            raise InvalidSamples("relation check: the relation has no samples")
        h0 = agent_call(self.h, np.linspace(-50.0, 50.0, 2001))
        rise = np.diff(h0)
        if not (np.all(rise > 0.0) or np.all(rise < 0.0)):
            raise PreconditionFailed("relation check: h(x) is not strictly "
                                     "monotone in x on [-50, 50]")
        idx = np.linspace(0, len(self.relation.u) - 1, 50).astype(int)
        us, ys = self.relation.u[idx], self.relation.y[idx]
        tol = 1e-8 * (np.abs(self.relation.y).max() + np.abs(ys))
        t = ys - self.feedthrough * us
        roots, level = bracket_roots(partial(_output_gap, self.h),
                                     np.concatenate([t - tol, t + tol]), -50.0, 50.0, 1)
        crossing = np.full(2 * len(t), np.nan)
        crossing[level] = roots
        crossing = crossing.reshape(2, -1)
        left = np.where(np.abs(h0[0] - t) <= tol, -50.0, np.fmin(*crossing))
        right = np.where(np.abs(h0[-1] - t) <= tol, 50.0, np.fmax(*crossing))
        # a band edge that h meets exactly at 50 is no bracketed root, and
        # that window is the one point 50
        ends = np.stack([np.fmin(left, right), np.fmax(left, right)])
        if np.isnan(ends[0]).any():
            k = np.argmax(np.isnan(ends[0]))
            raise PreconditionFailed(
                f"relation check: sample {idx[k]}, (u, y) = ({us[k]:.6g}, {ys[k]:.6g}): "
                "y - feedthrough·u is outside the range of h on [-50, 50]")
        fa, fb = agent_call(self.f, ends, np.broadcast_to(us, ends.shape))
        certified = (fa == 0.0) | (fb == 0.0) | (np.sign(fa) * np.sign(fb) < 0.0)
        return bool(np.all(certified))


@dataclass(frozen=True)
class ControllerSpec:
    """Static edge controller μ = gain·ζ with potential gain/2·ζ²."""

    gain: float

    def __post_init__(self):
        gain = _floats(self.gain, "controller gain", ())
        if not gain > 0.0:
            raise InvalidSpec(f"controller gain must be positive, got {gain}")
        object.__setattr__(self, "gain", gain)


@dataclass(frozen=True)
class IntegratorConfig:
    """Settings of :func:`simulate`.

    ``dt`` is the step floor: steps adapt between it and half the
    ``convergence_window``; a run stores its start and every accepted step.
    The run is converged, and stops, once the max state-derivative norm has
    stayed below ``tol_conv`` for ``convergence_window``; otherwise it ends
    at ``horizon``, so ``tol_conv = 0`` runs to the horizon.  A setting that
    is not a finite number raises NonFiniteValue naming it; a negative one,
    dt = 0 or a horizon of more steps of dt than a float can count raises
    InvalidSpec.  Both are ValueErrors.
    """

    dt: float = 1e-3
    horizon: float = 100.0
    convergence_window: float = 1.0
    tol_conv: float = 1e-6

    def __post_init__(self):
        for name in ("dt", "horizon", "convergence_window", "tol_conv"):
            value = _floats(getattr(self, name), name, ())
            if value < 0.0:
                raise InvalidSpec(f"{name} must not be negative, got {value}")
            object.__setattr__(self, name, value)
        if self.dt <= 0.0:
            raise InvalidSpec("integrator step must be positive")
        if not math.isfinite(self.horizon / self.dt):
            raise InvalidSpec(f"horizon {self.horizon} holds too many steps of dt {self.dt}")


@dataclass(frozen=True)
class NetworkSpec:
    graph: Graph
    agents: tuple[AgentODE, ...]
    controllers: tuple[ControllerSpec, ...]
    x0: np.ndarray
    integrator: IntegratorConfig = field(default_factory=IntegratorConfig)

    def __post_init__(self):
        if len(self.agents) != self.graph.vertex_count:
            raise DimensionMismatch(
                f"{len(self.agents)} agents for {self.graph.vertex_count} vertices"
            )
        if len(self.controllers) != self.graph.edge_count:
            raise DimensionMismatch(
                f"{len(self.controllers)} controllers for "
                f"{self.graph.edge_count} edges"
            )
        x0 = _floats(self.x0, "x0", (None,))
        if len(x0) != self.graph.vertex_count:
            raise DimensionMismatch("initial state length != vertex count")
        object.__setattr__(self, "x0", x0)


@dataclass
class SimResult:
    t: np.ndarray
    x: np.ndarray        # (rows, vertices)
    u: np.ndarray
    y: np.ndarray
    zeta: np.ndarray     # (rows, edges)
    mu: np.ndarray
    converged: bool
    steady_state: np.ndarray  # terminal y estimate

    def to_csv(self, path) -> None:
        n = self.y.shape[1]
        m = self.zeta.shape[1]
        header = ["t"] + [f"{name}{i}" for name, count in (("x", n), ("u", n), ("y", n),
                                                            ("zeta", m), ("mu", m))
                          for i in range(count)]
        _write_csv(path, header, [self.t, self.x, self.u, self.y, self.zeta, self.mu])

    def summary_dict(self) -> dict:
        return {
            "converged": bool(self.converged),
            "t_end": float(self.t[-1]),
            "steady_state_y": [float(v) for v in self.steady_state],
            "terminal_u": [float(v) for v in self.u[-1]],
        }


def _value_key(obj):
    """Hashable key under which equal callables, and their bound values, agree.

    A ``functools.partial`` keys on its function and the keys of its bound
    arguments, taken recursively; a float on its exact bits (so 0.0 and
    -0.0 differ); anything else, ints and bools too, on its identity.
    """
    if isinstance(obj, partial):
        return (_value_key(obj.func), tuple(map(_value_key, obj.args)),
                tuple((k, _value_key(v)) for k, v in sorted(obj.keywords.items())))
    if isinstance(obj, float):
        return type(obj), obj.hex()
    return (id(obj),)


def _agent_groups(agents, name: str):
    """(callable, selector) per distinct value of the agents' ``name`` callable.

    Vertices whose callables are equal by :func:`_value_key` (the same
    object, or partials of one kernel bound to equal values) form one group,
    in first-seen order.  A group of two or more vertices is selected by an
    index array and evaluated with one array call; a single vertex is
    selected by its index and evaluated with scalars, which costs less than
    a 1-element array.
    """
    members: dict[tuple, tuple[Callable, list[int]]] = {}
    for i, agent in enumerate(agents):
        fn = getattr(agent, name)
        members.setdefault(_value_key(fn), (fn, []))[1].append(i)
    return [(fn, ix[0] if len(ix) == 1 else np.array(ix))
            for fn, ix in members.values()]


def _evaluate(groups, x, *u):
    """Per-vertex values of each group's callable at x, and at u if given."""
    out = np.empty(x.shape)
    try:
        for fn, sel in groups:
            out[sel] = fn(x[sel], *[v[sel] for v in u])
    except (TypeError, ValueError) as exc:
        vertex = np.arange(len(x))[sel].tolist()
        raise _agent_error(fn, f"agent at vertex {vertex}", exc) from exc
    return out


# Dormand–Prince 5(4) pair (Dormand & Prince 1980).  Stage s is evaluated at
# x + h·(_DP_STAGES[s-1] @ K[:s]); the last row is the 5th-order solution,
# so its stage is the next step's first ("first same as last").
_DP_STAGES = tuple(np.array(row) for row in (
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    [35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
))
# 5th- minus 4th-order weights: h·(_DP_ERROR @ K) estimates the local error
_DP_ERROR = np.array([-71 / 57600, 0, 71 / 16695, -71 / 1920, 17253 / 339200,
                      -22 / 525, 1 / 40])
# step acceptance: RMS over components of the error at most SIM_RTOL times
# the largest |x| the run has reached
SIM_RTOL = 1e-9
# a gap in time below TIME_TIE·dt is rounding: a step lands on t_end, a window ties
TIME_TIE = 0.01


def dormand_prince(f, x, t_end: float, dt: float, h_max: float):
    """Accepted steps of an adaptive Dormand–Prince 5(4) pair for dx/dt = f(x).

    Steps from (0, x) to ``t_end``, with steps between the floor ``dt`` and
    ``h_max`` whose error estimate (RMS over x) is at most ``SIM_RTOL`` times
    the peak: the largest |x| among x, the accepted states and the trial
    state.  The error is thus measured in the run's own units: when
    f(2^k·x) = 2^k·f(x), starting from 2^k·x scales every accepted state by
    2^k and leaves the step times as they are, short of overflow and
    underflow.  A step whose peak is 0 meets the bound only with an error
    estimate of 0, as in a network at rest.  A step at the floor is
    accepted whatever its error; a non-finite step above the floor is
    retried smaller, one at the floor raises :class:`NonFiniteState`.
    Yields each accepted step's end time, state and derivative (overwritten
    by the next step), the last ending at ``t_end``; :func:`simulate` relies
    on the last call of ``f`` before each yield being at the yielded state.
    """
    rms = 1.0 / np.sqrt(max(x.size, 1))
    peak = float(abs(x).max(initial=0.0))
    K = np.empty((7,) + x.shape)  # stages of the current step
    K[0] = f(x)
    t, h = 0.0, dt
    while t < t_end:
        h = min(max(h, dt), h_max)
        at_floor = h <= dt or t_end - t <= dt
        if t_end - t - h < TIME_TIE * dt:  # land on t_end
            h = t_end - t
        for s, weights in enumerate(_DP_STAGES, start=1):
            x_new = x + (h * weights) @ K[:s]
            K[s] = f(x_new)
        finite = bool(np.isfinite(x_new).all())
        err = np.inf
        if finite:
            trial_peak = max(peak, float(abs(x_new).max(initial=0.0)))
            local = h * (_DP_ERROR @ K)
            if trial_peak:  # divided before the norm, which would overflow near 1e308
                err = rms * float(np.linalg.norm(local / trial_peak)) / SIM_RTOL
            elif not local.any():
                err = 0.0
        factor = min(10.0, max(0.2, 0.9 * max(err, 1e-10) ** -0.2))
        if not (err <= 1.0 or at_floor):
            h *= factor
            continue
        if not finite:
            raise NonFiniteState(f"state blew up at t = {t:.3f}")
        t, x, peak = (t_end if t_end - t <= h else t + h), x_new, trial_peak
        K[0] = K[6]
        yield t, x, K[0]
        h *= factor


def simulate(spec: NetworkSpec) -> SimResult:
    """Adaptive Dormand–Prince 5(4) integration of the diffusively-coupled loop.

    :func:`dormand_prince` steps it between the floor ``dt`` and half the
    convergence window up to ``horizon`` rounded to a multiple of ``dt``, so
    no run takes more steps than fixed steps of ``dt``; each step's error is
    bounded relative to the largest |x| the run has reached.  Rows are
    stored at t = 0 and at every accepted step, the last of which ends at
    the stop time.

    The couplings ζ = Eᵀy and u = -Eμ are evaluated, never integrated, so
    the stored signals satisfy them exactly.  A stored row's u, y, ζ and μ
    are the ones the right-hand side computed at its state, so the agents
    were driven by the stored u.  With feedthrough D the loop
    y = h(x) + D·u, u = -E G Eᵀ y is linear in y and solved with an inverse
    computed once.  The convergence flag is set, at an accepted step, once
    the last step end with max state-derivative norm not below ``tol_conv``
    lies at least ``convergence_window`` back, less ``TIME_TIE``·dt so that
    rounding cannot decide a tie; integration stops there.  Overflow is not
    warned of: a non-finite trial step is retried or raised by
    :func:`dormand_prince`, and a stored row whose x, u, y, ζ or μ is not
    finite raises :class:`NonFiniteState` naming its time.
    """
    cfg = spec.integrator
    n = spec.graph.vertex_count
    E = spec.graph.incidence_matrix()
    Et, negE = E.T.copy(), -E
    gains = np.array([c.gain for c in spec.controllers], dtype=float)
    D = np.array([a.feedthrough for a in spec.agents], dtype=float)
    try:
        loop_inv = (np.linalg.inv(np.eye(n) + D[:, None] * (E @ (gains[:, None] * Et)))
                    if np.any(D != 0.0) else None)
    except np.linalg.LinAlgError as exc:
        raise InvalidSpec(f"feedthrough loop I + D·E·G·Eᵀ is singular ({exc})") from exc
    f_groups = _agent_groups(spec.agents, "f")
    h_groups = _agent_groups(spec.agents, "h")

    def signals(x):
        """u, y, ζ, μ at x."""
        y = _evaluate(h_groups, x)
        if loop_inv is not None:
            y = loop_inv @ y
        zeta = Et @ y
        mu = gains * zeta
        return negE @ mu, y, zeta, mu

    def xdot(x):
        nonlocal latest  # the signals of the last evaluation, stored with its row
        latest = signals(x)
        return _evaluate(f_groups, x, latest[0])

    dt = cfg.dt
    window = max(cfg.convergence_window, dt)
    last_moving = 0.0  # last step end whose derivative norm was not below tol_conv
    converged = False
    with np.errstate(over="ignore", invalid="ignore"):
        latest = signals(spec.x0)
        rows = [(0.0, spec.x0, *latest)]
        for t, x, x_dot in dormand_prince(xdot, spec.x0, int(round(cfg.horizon / dt)) * dt,
                                          dt, max(0.5 * window, dt)):
            rows.append((t, x, *latest))
            if not float(np.abs(x_dot).max(initial=0.0)) < cfg.tol_conv:
                last_moving = t
            if t - last_moving >= window - TIME_TIE * dt:
                converged = True
                break
    ts, xs, u, y, zeta, mu = map(np.array, zip(*rows))
    finite = np.isfinite(np.hstack((xs, u, y, zeta, mu))).all(axis=1)
    if not finite.all():
        raise NonFiniteState(f"signals not finite at t = {ts[np.argmin(finite)]:.3f}")
    return SimResult(t=ts, x=xs, u=u, y=y, zeta=zeta, mu=mu,
                     converged=converged, steady_state=y[-1])


# ---------------------------------------------------------------------------
# Per-agent I/O transforms


def _transformed_f(f, h, b, denom, x, ut):
    return f(x, (ut - b * h(x)) / denom)


def _scaled_h(h, k, x):
    return k * h(x)


def transform_agent(agent: AgentODE, transform) -> AgentODE:
    """Closed-form agent realizing the transformed I/O pair.

    With (u~, y~) = T(u, y), T = [[a, b], [c, d]], and y = h(x) + D·u:
    h~(x) = (det T/(a + b·D))·h(x), D~ = (c + d·D)/(a + b·D) and
    f~(x, u~) = f(x, (u~ - b·h(x))/(a + b·D)).  The new f and h are
    module-level kernels bound with ``functools.partial`` to the agent's f
    and h and to these numbers, so equal agents under equal transforms get
    equal callables (see :func:`_agent_groups`).
    """
    a, b, c, d = transform.a, transform.b, transform.c, transform.d
    D = agent.feedthrough
    denom = a + b * D
    if abs(denom) <= 1e-12 * (abs(a) + abs(b * D)):
        raise SingularTransform(
            "a + b*feedthrough vanished; transformed input undefined"
        )
    relation = (None if agent.relation is None
                else transform_relation(agent.relation, transform))
    return replace(
        agent,
        f=partial(_transformed_f, agent.f, agent.h, b, denom),
        h=partial(_scaled_h, agent.h, transform.det / denom),
        feedthrough=(c + d * D) / denom,
        relation=relation,
        indices=None,
    )


def _once_per_object(items, build, key=id) -> list:
    """[build(item) for item in items], calling build once per distinct key."""
    made = {}
    for item in items:
        if key(item) not in made:
            made[key(item)] = build(item)
    return [made[key(item)] for item in items]


def apply_network_transform(spec: NetworkSpec, transforms) -> NetworkSpec:
    """Per-vertex I/O transforms applied to every agent of the network.

    Vertices sharing an agent object and a transform object share the
    transformed agent, built once.  Equal agents under equal transforms get
    equal callables however they were built, so the simulator evaluates
    them together (see :func:`_agent_groups`).
    """
    if len(transforms) != spec.graph.vertex_count:
        raise DimensionMismatch("one transform per vertex required")
    agents = _once_per_object(list(zip(spec.agents, transforms)),
                              lambda pair: transform_agent(*pair),
                              key=lambda pair: (id(pair[0]), id(pair[1])))
    return replace(spec, agents=tuple(agents))


# ---------------------------------------------------------------------------
# Dual network optimization


@dataclass(frozen=True)
class OptimizationResult:
    """Solution of one dual steady-state problem.

    ``residual`` is the max-norm of the model objective's gradient at the
    minimizer of the problem that was solved; ``iterations`` counts that
    solve's Newton steps, the last of them the one that kept every model
    cell (0 when the problem has no variables or the gradient at the start
    is zero; see :func:`_minimize_convex`).  The flow problem on derived
    potentials runs the potential problem's solve and reports its
    iterations and residual (:func:`solve_ofp`).
    """

    objective: float
    primal: np.ndarray       # y for the potential problem, u for the flow one
    coupling: np.ndarray     # zeta or mu
    iterations: int
    residual: float


def _c1_models(funs, vertices: int) -> list:
    """C¹ model (grid, nodal slopes, nodal values) of each certified-convex Fᵢ,
    one per vertex (else DimensionMismatch).

    A model's derivative is the linear interpolant of its nodal slopes and
    its values their trapezoid sum, so it is convex wherever the slopes
    never fall; the end cells' quadratics extend it past the grid.  The
    slopes come from one of two sources.  A K* from
    :func:`integral_function` keeps the u samples its values sum: those are
    the relation's own slopes, so the model is (grid, u, values) as they
    are, exact, with nothing read or summed again; where noise dips the u
    samples within the certificate's band, they are lifted to their running
    maximum and summed again, so every model is convex by construction.  A
    supplied potential has only its values, so its slopes are derived: the
    averages of adjacent cell slopes, and at each end the second-order
    one-sided slope of the two end cells, nondecreasing whenever the cell
    slopes are, which reproduce a quadratic sampled on a uniform grid
    exactly.  Each Fᵢ needs two or more samples.
    """
    if len(funs) != vertices:
        raise DimensionMismatch(f"{len(funs)} node potentials for {vertices} vertices")
    for i, F in enumerate(funs):
        if len(F.grid) < 2:
            raise DimensionMismatch(
                f"vertex {i}: potential needs 2 or more samples, not {len(F.grid)}")
        if not F.convexity_certificate:
            raise NonConvexCertificate(
                f"vertex {i}: potential failed the convexity certificate")

    def model(F: IntegralFunction):
        x = F.grid
        if F._slopes is not None:
            d = _running_max(F._slopes)
            return x, d, F.values if d is F._slopes else _trapezoid(x, d, 0.0)
        h = np.diff(x)
        s = np.diff(F.values) / h
        d = np.empty(len(x))
        np.add(s[:-1], s[1:], out=d[1:-1])
        d[1:-1] *= 0.5
        k = min(2, len(s))  # one cell: its slope at both ends
        d[0] = s[0] + (s[0] - s[k - 1]) * h[0] / (x[k] - x[0])
        d[-1] = s[-1] + (s[-1] - s[-k]) * h[-1] / (x[-1] - x[-1 - k])
        del s  # the cell slopes are not held while the values are summed
        return x, d, _trapezoid(x, d, F.values[0], h)

    return _once_per_object(funs, model)


# Safety cap on the Newton iterations of _minimize_convex, and the share of
# its first-order decrease a line-search step must achieve (Armijo).
_NEWTON_ITERATIONS = 500
_ARMIJO = 1e-4


class _Iterate(NamedTuple):
    """A point of _minimize_convex: objective, gradient, its max-norm
    residual and the residual's bound, and each model's value, slope, cell
    and curvature at its argument."""

    f: float
    grad: np.ndarray
    residual: float
    bound: float
    val: np.ndarray
    slope: np.ndarray
    cell: list
    curv: np.ndarray


def _newton_step(g, hv):
    """Newton step p from Hp = -g by conjugate gradients, and whether it is
    solved: to a residual 1e-10 times |g| within 2n + 2 directions.

    A direction with no positive curvature ends the iteration unsolved, with
    the step so far, or with -g if there is none (Nocedal & Wright, Alg. 7.1).
    """
    p, r, d, rr = np.zeros_like(g), g, -g, g @ g
    tol = 1e-20 * rr
    for j in range(2 * len(g) + 2):
        Hd = hv(d)
        dHd = d @ Hd
        if not dHd > 0.0:
            return (p if j else d), False
        alpha = rr / dHd
        p, r = p + alpha * d, r + alpha * Hd
        rr, rr_old = r @ r, rr
        if rr <= tol:
            break
        d = -r + (rr / rr_old) * d
    return p, rr <= tol


def _minimize_convex(models, B, Q):
    """Minimize Σᵢ Fᵢ((Bz)ᵢ) + ½ zᵀQz over z by Newton's method, finitely.

    Each Fᵢ is a convex C¹ piecewise-quadratic model (x, d, m), so with the
    cell of each (Bz)ᵢ fixed the objective is one quadratic, whose value,
    gradient and Hessian product Bᵀ(curv·(Bv)) + Qv are exact.  A step of
    :func:`_newton_step` that is solved and keeps every cell lands on that
    quadratic's minimizer, which is then the objective's own, and ends the
    iteration (the finite Newton method: Sun & Han, SIAM J. Optim. 1997;
    Mangasarian, Optim. Methods Softw. 2002); so does a zero gradient.  Any
    other step is halved until it lowers the objective by _ARMIJO of its
    first-order decrease, from at most the widest model grid's length, and
    from that length if it is unsolved.  A minimizer is assumed to exist:
    the potential problem decides that before calling it (:func:`_u_limits`),
    and supplied flow potentials are coercive with their μ²/2g term.  A step
    that cannot move z, a non-finite objective or the cap of
    _NEWTON_ITERATIONS ends the iteration early.  Whatever ended it, a
    max-norm gradient residual above 1e-6 of the larger of its two parts
    plus a floor raises NoConvergence naming the reason.  The floor is
    1e-12 of the largest |nodal slope|, read off each model's two end
    slopes: exact for nondecreasing slopes, as a relation's lifted u are,
    and within the certificate's band for derived ones.  The bound scales
    with the units, like z.  Returns the
    minimizer, the iteration count and the last iterate, which holds the
    objective, the residual and each model's value and slope there; with no
    variables, the empty z with objective 0 and no iteration.  One model per
    row of B (per vertex): B is the identity for the potential problem and
    −E for supplied flow potentials, the one caller of a general B.
    """
    floor = 1e-12 * max((max(-d[0], d[-1]) for _, d, _ in models), default=0.0)

    def at(z) -> _Iterate:
        w, cell = B @ z, []
        val, slope, curv = np.empty((3, len(w)))
        for i, ((x, d, m), wi) in enumerate(zip(models, w)):
            j = min(max(int(np.searchsorted(x, wi)) - 1, 0), len(x) - 2)
            t, c = wi - x[j], (d[j + 1] - d[j]) / (x[j + 1] - x[j])
            val[i], slope[i], curv[i] = m[j] + t * (d[j] + 0.5 * c * t), d[j] + c * t, c
            cell.append(j)
        node, Qz = B.T @ slope, Q @ z
        # a sum past the float range is inf, which ends the iteration
        with np.errstate(over="ignore"):
            f = val.sum() + 0.5 * z @ Qz
        grad = node + Qz
        bound = floor + 1e-6 * max(np.abs(node).max(initial=0.0), np.abs(Qz).max(initial=0.0))
        return _Iterate(f, grad, float(np.abs(grad).max(initial=0.0)), bound,
                        val, slope, cell, curv)

    z, iterations = np.zeros(B.shape[1]), 0
    now, why = at(z), "at a Newton step that keeps every cell"
    width = max((float(x[-1] - x[0]) for x, _, _ in models), default=0.0)

    def hv(v):  # the Hessian at the current iterate ``now``, times v
        return B.T @ (now.curv * (B @ v)) + Q @ v

    while now.grad.any() and np.isfinite(now.f):
        if iterations == _NEWTON_ITERATIONS:
            why = f"at the iteration cap of {iterations}"
            break
        iterations += 1
        p, solved = _newton_step(now.grad, hv)
        length = np.linalg.norm(p)
        t = 1.0 if solved and length <= width else width / length
        drop, moved = _ARMIJO * (now.grad @ p), z + t * p
        while np.isfinite(moved).all() and (moved != z).any():
            trial = at(moved)
            exact = solved and t == 1.0 and trial.cell == now.cell
            if exact or trial.f <= now.f + t * drop:
                break
            t *= 0.5
            moved = z + t * p
        else:
            why = "at a step that cannot move z"
            break
        z, now = moved, trial
        if exact:
            break
    if not np.isfinite(now.f):
        why = "at a non-finite objective"
    if not (np.isfinite(now.f) and now.residual <= now.bound):
        raise NoConvergence(
            f"steady-state problem stopped with gradient residual "
            f"{now.residual:.3e} (bound {now.bound:.3e}) {why}")
    return z, iterations, now


def _kstars(agents) -> list:
    """The potential K*ᵢ of each agent, built once per agent object; an
    agent whose K* cannot be built is named by its first vertex."""
    def kstar(pair):
        i, agent = pair
        if agent.relation is None:
            raise PreconditionFailed(f"vertex {i}: agent lacks a steady-state relation")
        try:
            return integral_function(agent.relation, OF_K_INVERSE)
        except ToolkitError as exc:
            raise type(exc)(f"vertex {i}: {exc}") from exc

    return _once_per_object(list(enumerate(agents)), kstar, key=lambda pair: id(pair[1]))


def _u_limits(models, graph: Graph) -> None:
    """PreconditionFailed where the K*ᵢ models (x, d, m) show that no steady
    state exists; the existence rule of both solvers.

    A model is certified nondecreasing, so its end slopes bound its slope,
    uᵢ.  An end cell whose slope rises by no more than the slopes' band,
    DECREASE_RTOL of d[-1] − d[0] plus SLOPE_EPS of the larger end |d|, is
    flat, and its slope is the bound; a curved end cell's quadratic extends
    the model for ever, to −∞ or +∞.  Along y = t·1 on a connected component
    the coupling vanishes, so a minimizer exists when Σ inf uᵢ < 0 < Σ sup uᵢ
    there and none when either inequality is reversed (the recession
    condition: Rockafellar, Convex Analysis, 1970, §27).  The first component
    that breaks it is named with both sums.  A sum of exactly 0 is admitted:
    steady states then exist, but not one alone.  The components come from
    min-label propagation with pointer jumping, a few array rounds.
    """
    # the end slopes and the slopes one node in from each end
    lo, lo1, hi1, hi = np.reshape([(d[0], d[1], d[-2], d[-1]) for _, d, _ in models], (-1, 4)).T
    band = DECREASE_RTOL * (hi - lo) + SLOPE_EPS * np.maximum(abs(lo), abs(hi))
    limits = np.where([lo1 - lo <= band, hi - hi1 <= band], [lo, hi], [[-np.inf], [np.inf]])
    # each vertex takes the least label of its edges' ends, then that label's own;
    # with no flat end every vertex alone has sums −∞ and +∞, and needs no label
    label, last, edges = np.arange(len(models)), None, graph._ends()
    while np.isfinite(limits).any() and not np.array_equal(label, last):
        last, label = label, label.copy()
        np.minimum.at(label, edges.ravel(), np.repeat(last[edges].min(axis=1), 2))
        label = label[label]
    inf_sum, sup_sum = (np.bincount(label, row, len(label)) for row in limits)
    for k in np.flatnonzero((inf_sum > 0.0) | (sup_sum < 0.0))[:1]:
        raise PreconditionFailed(
            f"no steady state on the component of vertices {np.flatnonzero(label == k).tolist()}"
            f": Σ inf u = {inf_sum[k]:.6g} and Σ sup u = {sup_sum[k]:.6g} do not enclose 0")


def _solve_potentials(spec: NetworkSpec, node_potentials, E, gains):
    """The potential problem's minimizer y, Newton iterations and last
    iterate (see :func:`_minimize_convex`), on the C¹ models of the K*ᵢ:
    each agent's relation integrated in the inverse direction unless
    ``node_potentials`` supplies them.  Refused before any Newton step where
    the models admit no minimizer (:func:`_u_limits`)."""
    if node_potentials is None:
        node_potentials = _kstars(spec.agents)
    models = _c1_models(node_potentials, spec.graph.vertex_count)
    _u_limits(models, spec.graph)
    return _minimize_convex(models, np.eye(len(E)), E @ (gains[:, None] * E.T))


def solve_opp(spec: NetworkSpec, grid=None, node_potentials=None) -> OptimizationResult:
    """Steady-state outputs from the optimal potential problem.

    Minimizes Σᵢ K*ᵢ(yᵢ) + ½ yᵀ E G Eᵀ y over the outputs y, with G the
    diagonal of edge gains, so the edge terms are the exact quadratics
    gₑ/2·ζₑ².  K*ᵢ is each agent's relation integrated in the inverse
    direction unless ``node_potentials`` supplies it; every K*ᵢ must carry
    the convexity certificate.  The problem is solved, and its objective
    reported, on the C¹ models of the K*ᵢ (see :func:`_minimize_convex`).
    A network whose models admit no minimizer is refused before any Newton
    step (PreconditionFailed naming the component, :func:`_u_limits`).
    ``grid`` is accepted for symmetry with :func:`solve_ofp`; neither
    problem uses it.
    """
    E = spec.graph.incidence_matrix()
    gains = np.array([c.gain for c in spec.controllers], dtype=float)
    y, iters, last = _solve_potentials(spec, node_potentials, E, gains)
    return OptimizationResult(float(last.f), y, E.T @ y, iters, last.residual)


def solve_ofp(spec: NetworkSpec, grid=None, node_potentials=None) -> OptimizationResult:
    """Steady-state flows from the optimal flow problem over edge variables.

    The problem is to minimize Σᵢ Kᵢ((-Eμ)ᵢ) + Σₑ μₑ²/(2gₑ) over the edge
    flows μ, the Fenchel dual of :func:`solve_opp`'s problem (Rockafellar,
    Convex Analysis, 1970, §31; Bürger, Zelazo & Allgöwer, Automatica 50,
    2014).  Without ``node_potentials`` the potential problem is solved,
    with its existence rule and on the same C¹ models of the K*ᵢ, and its
    optimality conditions give the flows: μ = G·Eᵀy and u = −Eμ.  The
    objective is the flow problem's own, by the Fenchel–Young equality
    Kᵢ(sᵢ) = yᵢ·sᵢ − K*ᵢ(yᵢ) at the model slopes sᵢ at y, so the two
    objectives sum to y·∇OPP(y), zero at the optimum; the iterations and the
    residual are the potential problem's, and the residual is the largest
    |sᵢ − uᵢ|, the distance of the flows from the relations' u.  A flow on a
    flat end of a relation, or a relation whose u is constant, is read off
    like any other.  Supplied ``node_potentials`` are the Kᵢ, which must
    carry the convexity certificate, and the flow problem itself is solved
    over μ by :func:`_minimize_convex` and reported like the potential
    problem; no existence check is needed, as the μ²/2g term makes that
    objective coercive.  ``grid`` is accepted for symmetry with
    :func:`solve_opp`; neither problem uses it.
    """
    E = spec.graph.incidence_matrix()
    gains = np.array([c.gain for c in spec.controllers], dtype=float)
    if node_potentials is None:
        y, iters, last = _solve_potentials(spec, None, E, gains)
        mu = gains * (E.T @ y)
        objective = y @ last.slope - last.val.sum() + mu @ (mu / gains) / 2
    else:
        models = _c1_models(node_potentials, spec.graph.vertex_count)
        mu, iters, last = _minimize_convex(models, -E, np.diag(1.0 / gains))
        objective = last.f
    return OptimizationResult(float(objective), -E @ mu, mu, iters, last.residual)


# ---------------------------------------------------------------------------
# Prediction + verification


@dataclass
class PredictionReport:
    """What :func:`predict_and_verify` computed: the transformed network, the
    potential problem's solution, the transformed network's simulation, and
    the largest gap between their steady states with the bound it must meet."""

    spec: NetworkSpec
    prediction: OptimizationResult
    simulation: SimResult
    gap: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.simulation.converged and self.gap <= self.tolerance


def predict_and_verify(spec: NetworkSpec, transforms) -> PredictionReport:
    """Transform the network, predict its steady state, and simulate it.

    The report passes when the run converges to within 1e-2 of the prediction.
    Preconditions checked and reported on failure: every transformed agent
    relation is a parameterized curve, maximally monotone (by Minty's
    theorem, a complete nondecreasing curve) and strictly monotone: the
    potential integrates u over y, so y must rise wherever u rises.  One
    :func:`is_cursive` scan per agent object reads both, its ``cursive`` and
    ``strict`` flags.  Every controller is MEIP by construction (a static
    positive gain).
    """
    tspec = apply_network_transform(spec, transforms)

    def fault(agent):
        """The precondition the agent breaks, or None; one call per agent object."""
        if agent.relation is None:
            return "no steady-state relation declared"
        try:
            report = is_cursive(agent.relation)
        except WrongRepresentation as exc:  # a point list, or a curve of one sample
            return str(exc)
        if not report.cursive:
            return "transformed relation is not maximally monotone"
        return None if report.strict else "relation is not strictly monotone"

    failures = [f"agent {i}: {why}"
                for i, why in enumerate(_once_per_object(tspec.agents, fault)) if why]
    if failures:
        raise PreconditionFailed("; ".join(failures))

    opt = solve_opp(tspec)
    sim = simulate(tspec)
    gap = float(np.max(np.abs(sim.steady_state - opt.primal), initial=0.0))
    return PredictionReport(tspec, opt, sim, gap, 1e-2)


# ---------------------------------------------------------------------------
# JSON ingest


def _json_integer(value, path: str) -> int:
    """A JSON integer, or a float with an integer value, as int; else InvalidSpec."""
    if isinstance(value, numbers.Integral) or (isinstance(value, float)
                                                and value.is_integer()):
        return int(value)
    raise InvalidSpec(f"{path}: {value!r} is not an integer")


def _json_edge(edge, n: int, path: str) -> tuple:
    """A JSON edge as its vertex indices, each an integer below ``n``.

    An entry that is not a pair, or an index out of range, raises InvalidSpec
    with the value as the JSON gave it.
    """
    if not (isinstance(edge, (list, tuple)) and len(edge) == 2):
        raise InvalidSpec(f"{path}: {json.dumps(edge)} is not a vertex pair")
    ends = tuple(_json_integer(v, path) for v in edge)
    for v, i in zip(edge, ends):
        if not 0 <= i < n:
            raise InvalidSpec(f"{path}: vertex index {v!r} out of range for {n} vertices")
    return ends


# the keys of a JSON object by its path, or None where its reader refuses unknown ones
_JSON_KEYS = {r"\$": ("graph", "agents", "controllers", "x0", "integrator"),
              r"\$\.graph": ("vertices", "edges"), r"\$\.agents(\[\d+\])?": ("kind", "params"),
              r"\$\.controllers(\[\d+\])?": ("gain",), r"\$\.agents(\[\d+\])?\.params": None,
              r"\$\.integrator": None}


def _refuse_malformed(node, path: str) -> None:
    """InvalidSpec naming the first fault of the document's shape: not an
    object at an object's path (a list may stand at $.agents and $.controllers),
    a key unknown at its path, or a string, null, true or false but an
    agent's kind (Python reads true as 1, numpy the string "1" as 1.0)."""
    if path == "$" and not isinstance(node, dict):
        raise InvalidSpec("$: the document is not a JSON object")
    shape = [keys for at, keys in _JSON_KEYS.items() if re.fullmatch(at, path)]
    listed = path in ("$.agents", "$.controllers")
    if shape and not (isinstance(node, dict) or listed and isinstance(node, list)):
        raise InvalidSpec(f"{path}: {json.dumps(node, default=repr)} is not an object"
                          + (" or a list" if listed else ""))
    if isinstance(node, (str, bool)) or node is None:
        if not re.fullmatch(r"\$\.agents(\[\d+\])?\.kind", path):
            raise InvalidSpec(f"{path}: {json.dumps(node)} is not a number")
    elif isinstance(node, dict):
        known = next(iter(shape), None) or node
        for key, child in node.items():
            if key not in known:
                raise InvalidSpec(f"{path}: unknown key {key!r}, not one of {', '.join(known)}")
            # a key that is not one word is quoted, as in $.x["a b"]
            step = (f".{key}" if re.fullmatch(r"\w+", str(key))
                    else f"[{json.dumps(str(key))}]")
            _refuse_malformed(child, path + step)
    elif isinstance(node, list):
        for i, child in enumerate(node):
            _refuse_malformed(child, f"{path}[{i}]")


@contextmanager
def _located(path: str):
    """Report a malformed JSON entry as InvalidSpec naming its path; an
    InvalidSpec that names a path already passes unchanged."""
    try:
        yield
    except (KeyError, IndexError, TypeError, ValueError, DimensionMismatch) as exc:
        if isinstance(exc, InvalidSpec) and str(exc).startswith("$"):
            raise
        reason = (f"missing key {exc.args[0]!r}" if isinstance(exc, KeyError)
                  else f"{type(exc).__name__}: {exc}")
        raise InvalidSpec(f"{path}: {reason}") from exc


def _json_entries(raw, count: int, path: str, build) -> list:
    """build(entry, entry_path) for each entry of a JSON list, or ``count``
    times the value of one object that stands for every entry; equal list
    entries share one value.  A fault names the entry's JSON path: ``path``
    itself for the one object, ``path[i]`` for a list entry."""
    if isinstance(raw, dict):
        with _located(path):
            return [build(raw, path)] * count
    built, values = {}, []
    with _located(path):
        for i, entry in enumerate(raw):
            with _located(f"{path}[{i}]"):
                key = json.dumps(entry, sort_keys=True, default=repr)
                if key not in built:
                    built[key] = build(entry, f"{path}[{i}]")
            values.append(built[key])
    return values


def spec_from_json(doc: str | dict) -> NetworkSpec:
    """Build a NetworkSpec from a JSON document.

    Expected shape::

        {"graph": {"vertices": 5, "edges": [[0,1], ...]},
         "agents": [{"kind": "pendulum-gradient", "params": {...}}, ...],
         "controllers": [{"gain": 1.0}, ...],
         "x0": [...],
         "integrator": {"dt": 1e-3, "horizon": 100.0}}

    ``agents`` may be a single object applied to every vertex, and so may
    ``controllers``; a fault in such an object is named at its own path
    (``$.agents.kind``), one in a list entry at the entry's
    (``$.agents[0].kind``).  Agent kinds resolve through the built-in
    fixtures of :data:`pqikit.systems.AGENT_REGISTRY`; equal agent entries
    share one agent object, and the simulator evaluates vertices whose agents
    were built with equal parameters in one array call (see
    :func:`_agent_groups`).
    The vertex count and the edge indices must be integers, and the count
    must match the length of ``x0``, a flat list of finite numbers; each
    agent parameter is one finite number, named at its own path
    (``$.agents.params.r1``) where it is not.  Text that
    is not JSON, a document that is not an object, a key not shown above (or
    not a parameter of the agent kind or of :class:`IntegratorConfig`) and a
    missing or malformed entry (not an object where one is expected; a string
    but an agent's kind, a null, a true or a false) raise InvalidSpec at its path.
    """
    from .systems import AGENT_REGISTRY
    with _located("$"):
        doc = json.loads(doc) if isinstance(doc, str) else doc
        _refuse_malformed(doc, "$")
        g, raw_agents, raw_ctrl = doc["graph"], doc["agents"], doc["controllers"]
        raw_x0 = doc["x0"]
    with _located("$.graph"):
        raw_n = g["vertices"]
        n = _json_integer(raw_n, "$.graph.vertices")
        if n < 0:
            raise InvalidSpec(f"$.graph.vertices: {raw_n!r} must be a non-negative integer")
        graph = Graph(n, tuple(_json_edge(edge, n, f"$.graph.edges[{e}]")
                               for e, edge in enumerate(g["edges"])))
    with _located("$.x0"):
        x0 = _floats(raw_x0, "x0", (None,))
    # the vertex count sizes every list below, so it must match the states given
    if len(x0) != graph.vertex_count:
        raise InvalidSpec(f"$.x0: {len(x0)} initial states for "
                          f"$.graph.vertices = {raw_n!r}")

    def agent(entry, path):
        kind = entry["kind"]
        if kind not in AGENT_REGISTRY:
            raise InvalidSpec(f"{path}.kind: unknown agent kind {kind!r}")
        make, params = AGENT_REGISTRY[kind], dict(entry.get("params", {}))
        # each parameter the kind takes is one finite number; the call
        # refuses a name the kind does not take
        taken = inspect.signature(make).parameters
        for name in [name for name in params if name in taken]:
            with _located(f"{path}.params.{name}"):
                params[name] = _floats(params[name], name, ())
        with _located(f"{path}.params"):
            return make(**params)

    agents = _json_entries(raw_agents, graph.vertex_count, "$.agents", agent)
    controllers = _json_entries(raw_ctrl, graph.edge_count, "$.controllers",
                                lambda c, path: ControllerSpec(gain=c["gain"]))

    with _located("$.integrator"):
        integ = IntegratorConfig(**doc.get("integrator", {}))
    with _located("$"):
        return NetworkSpec(graph, tuple(agents), tuple(controllers), x0, integ)
