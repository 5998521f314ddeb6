"""Synthesis of monotonizing/passivizing I/O transformations.

Given a source and a target quadratic inequality, a 2x2 map sending one
solution cone onto the other is assembled from the boundary rays; a sign test
on the ray sums picks the correct one of the two candidates.  The map is then
factored into four realizable stages (output feedback, post-gain, input
feedthrough, pre-gain), and a numeric dissipation certificate checks that the
transformed system satisfies the requested inequality on a state–input grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidSpec,
    NoStorageFunction,
    NonFiniteValue,
    PreconditionFailed,
    SingularTransform,
    _floats,
)
from .network import agent_call, bracket_roots, dormand_prince
from .pqi import PQI, PassivityIndices, _inverse, boundary_rays, is_singular


@dataclass(frozen=True)
class Transform2:
    """Invertible map [[a, b], [c, d]] of floats on stacked (u, y) pairs; building
    a non-finite one raises NonFiniteValue, a singular one SingularTransform,
    and from_matrix of an array that is not 2x2 DimensionMismatch."""

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        m = _floats(((self.a, self.b), (self.c, self.d)), "map", (2, 2)).tolist()
        for name, value in zip("abcd", m[0] + m[1]):
            object.__setattr__(self, name, value)
        if is_singular(m):
            raise SingularTransform(f"map {m}: det below tolerance")

    @classmethod
    def from_matrix(cls, m) -> "Transform2":
        (a, b), (c, d) = _floats(m, "map", (2, 2)).tolist()
        return cls(a, b, c, d)

    @classmethod
    def identity(cls) -> "Transform2":
        return cls(1.0, 0.0, 0.0, 1.0)

    def matrix(self) -> np.ndarray:
        return np.array([[self.a, self.b], [self.c, self.d]])

    @property
    def det(self) -> float:
        return self.a * self.d - self.b * self.c

    def inverse(self) -> "Transform2":
        return Transform2.from_matrix(_inverse(self.matrix()))

    def __call__(self, u, y):
        """Map input/output samples (finite numbers or arrays) to the new pair."""
        u, y = _floats(u, "transform input u", None), _floats(y, "transform input y", None)
        return self.a * u + self.b * y, self.c * u + self.d * y


# Realization of each elementary factor, in application order.
STAGE_REALIZATIONS = {
    "delta_A": "output-feedback",
    "delta_B": "post-gain",
    "delta_C": "input-feedthrough",
    "delta_D": "pre-gain",
}

_COLUMN_SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])


@dataclass(frozen=True)
class ElementaryDecomposition:
    """Gains of T = L_D @ L_C @ L_B @ L_A (optionally after a column swap)."""

    delta_A: float
    delta_B: float
    delta_C: float
    delta_D: float
    column_swapped: bool

    def factors(self) -> list[np.ndarray]:
        """The four elementary matrices, in application order L_A..L_D."""
        return [
            np.array([[1.0, self.delta_A], [0.0, 1.0]]),
            np.array([[1.0, 0.0], [0.0, self.delta_B]]),
            np.array([[1.0, 0.0], [self.delta_C, 1.0]]),
            np.array([[self.delta_D, 0.0], [0.0, 1.0]]),
        ]

    def reconstruct(self) -> np.ndarray:
        """Product of the factors; equals the original T including any swap."""
        la, lb, lc, ld = self.factors()
        m = ld @ lc @ lb @ la
        if self.column_swapped:
            m = m @ _COLUMN_SWAP
        return m


def mapping_transform(source: PQI, target: PQI) -> Transform2:
    """A map carrying the source cone onto the target cone.

    The transformed inequality equals the target up to a positive scalar.
    Two candidates send boundary onto boundary; evaluating each inequality on
    the sum of its own rays tells which candidate maps interior to interior:
    matching signs select the plain candidate, opposite signs the one with the
    second target ray negated.
    """
    rs = np.column_stack(boundary_rays(source))
    rt = np.column_stack(boundary_rays(target))
    alpha1 = source(rs[0, 0] + rs[0, 1], rs[1, 0] + rs[1, 1])
    alpha2 = target(rt[0, 0] + rt[0, 1], rt[1, 0] + rt[1, 1])
    rs_inv = np.linalg.inv(rs)
    if alpha1 * alpha2 >= 0.0:
        m = rt @ rs_inv
    else:
        m = (rt * np.array([[1.0, -1.0], [1.0, -1.0]])) @ rs_inv
    return Transform2.from_matrix(m)


def passivize(
    indices: PassivityIndices,
    target: PassivityIndices | None = None,
) -> Transform2:
    """Transform making a system with the given indices meet the target ones.

    Defaults to target (0, 0): plain passivity, i.e. a monotone transformed
    steady-state relation.
    """
    if target is None:
        target = PassivityIndices(0.0, 0.0)
    return mapping_transform(indices.pqi(), target.pqi())


def decompose(transform: Transform2) -> ElementaryDecomposition:
    """Factor T into output-feedback, post-gain, feedthrough and pre-gain.

    Requires the (1,1) entry to carry weight; when it is small the columns
    are swapped first (always possible for invertible T, and it keeps the
    b/a and d - (b/a)c gain formulas well conditioned) and the flag records
    the swap.
    """
    a, b, c, d = transform.a, transform.b, transform.c, transform.d
    scale = max(abs(a), abs(b), abs(c), abs(d))
    swapped = abs(a) <= 1e-2 * scale and abs(b) > abs(a)
    if swapped:
        a, b = b, a
        c, d = d, c
    return ElementaryDecomposition(
        delta_A=b / a,
        delta_B=d - (b / a) * c,
        delta_C=c,
        delta_D=a,
        column_swapped=swapped,
    )


# ---------------------------------------------------------------------------
# Numeric dissipation certificate

U_RANGE = (-2.0, 2.0)  # inputs of the sampled equilibria and of the grid
X0_RANGE = (-3.0, 3.0)  # start states whose reach the grid covers
HORIZON = 10.0  # time over which the grid covers that reach


@dataclass
class PassivationReport:
    """Worst-case violation of the transformed dissipation inequality."""

    max_violation: float
    tolerance: float
    trials: int
    equilibria: list

    @property
    def passed(self) -> bool:
        return self.max_violation <= self.tolerance


def find_equilibria(system, u_values):
    """Sample forced equilibria: roots of f(x, u) = 0 on 400 cells of [-10, 10].

    The roots come from :func:`~pqikit.network.bracket_roots`.  Returns a
    list of (x_eq, u_eq, y_eq) triples; one entry per sign change of f over
    the cell grid (or exact zero at a cell's left end), for each input level.
    Input levels that are not a finite 1-D sequence are refused by name.
    """
    us = _floats(u_values, "input levels", (None,))
    roots, level = bracket_roots(system.f, us, -10.0, 10.0, 400)
    ys = agent_call(system.h, roots) + system.feedthrough * us[level]
    return [(float(x), float(u), float(y)) for x, u, y in zip(roots, us[level], ys)]


def _reach(f, us):
    """An interval holding every state reachable within HORIZON from X0_RANGE.

    By the comparison principle for scalar ODEs, a trajectory from the box
    under any inputs among ``us`` stays between x⁻ and x⁺, where
    x⁺' = max_j f(x⁺, u_j) starts at the top of the box and
    x⁻' = min_j f(x⁻, u_j) at the bottom.  Both are integrated as one
    2-vector by :func:`~pqikit.network.dormand_prince` (floor 1e-3, steps of
    at most 1); each is monotone in time, so its end state and its start
    bound it.  A bound that blows up raises NonFiniteState with its time.
    """
    U = np.tile(np.asarray(us, dtype=float), (2, 1))
    U.flags.writeable = False
    out = np.empty(2)

    def bounds(x):
        v = f(x[:, None], U)
        if np.shape(v) != U.shape:  # broadcast_to costs more than f here
            v = np.broadcast_to(v, U.shape)
        out[0], out[1] = v[0].min(), v[1].max()
        return out

    x = np.array(X0_RANGE)
    for _, x, _ in dormand_prince(bounds, x, HORIZON, 1e-3, 1.0):
        pass
    return min(x[0], X0_RANGE[0]), max(x[1], X0_RANGE[1])


def _refuse_non_finite(name, values, xs, us):
    """NonFiniteValue naming the first grid point (xs[i], us[j]) where
    values[i, j] is not finite."""
    bad = ~np.isfinite(values)
    if bad.any():
        i, j = np.unravel_index(np.argmax(bad), bad.shape)
        raise NonFiniteValue(f"{name} is not finite at (x, u) = "
                             f"({xs[i]:.6g}, {us[j]:.6g})")


def verify_passivation(
    system,
    transform: Transform2,
    indices_target: PassivityIndices,
    trials: int = 100,
    seed: int = 0,
) -> PassivationReport:
    """Check the transformed dissipation inequality on a state–input grid.

    The storage rate (numeric directional derivative of the supplied storage
    candidate along ``f``) is compared against the transformed supply rate
    shifted by each sampled equilibrium: at most 20 of the forced equilibria
    at 20 inputs in U_RANGE, chosen by ``seed`` when there are more.  The
    grid has ``20·trials + 1`` states and ``4·trials + 1`` inputs in
    U_RANGE, so ``trials`` sets its resolution; the states span X0_RANGE,
    every equilibrium and every state that a trajectory from X0_RANGE can
    reach within HORIZON (see :func:`_reach`); ``h`` is called once, on the
    states.  The report passes when no violation exceeds 1e-6.  A system
    with no equilibrium to check against raises PreconditionFailed, a grid
    point where f, the output, the storage rate or the supply is not finite
    NonFiniteValue.
    """
    if system.storage is None:
        raise NoStorageFunction("system supplies no storage-function candidate")
    if not isinstance(trials, (int, np.integer)) or trials < 1:
        raise InvalidSpec(f"trials must be an integer of at least 1, got {trials!r}")

    eqs = find_equilibria(system, np.linspace(*U_RANGE, 20))
    if not eqs:
        raise PreconditionFailed(
            f"no forced equilibrium: f(x, u) has no root for x in [-10, 10] at "
            f"20 inputs u in U_RANGE {list(U_RANGE)}, so there is nothing to "
            "check the dissipation inequality against")
    if len(eqs) > 20:
        idx = np.random.default_rng(seed).choice(len(eqs), size=20, replace=False)
        eqs = [eqs[i] for i in sorted(idx)]

    f, h = system.f, system.h
    u_grid = np.linspace(*U_RANGE, 4 * trials + 1)
    lo, hi = _reach(f, u_grid)
    x_eqs = [x_eq for x_eq, _, _ in eqs]
    x_grid = np.linspace(min(lo, *x_eqs), max(hi, *x_eqs), 20 * trials + 1)
    X, U = np.meshgrid(x_grid, u_grid, indexing="ij")
    xdots = agent_call(f, X, U)
    _refuse_non_finite("f", xdots, x_grid, u_grid)
    ys = agent_call(h, x_grid)[:, None] + system.feedthrough * U
    _refuse_non_finite("h", ys, x_grid, u_grid)
    ut, yt = transform(U, ys)

    rho_t, nu_t = indices_target.rho, indices_target.nu
    step = 1e-6 * (1.0 + np.abs(x_grid))
    worst = -np.inf
    for x_eq, u_eq, y_eq in eqs:
        ue_t, ye_t = transform(u_eq, y_eq)
        # dS/dt = S'(x) * xdot, via central difference in the state
        slope = ((agent_call(system.storage, x_grid + step, x_eq)
                  - agent_call(system.storage, x_grid - step, x_eq)) / (2.0 * step))
        sdot = slope[:, None] * xdots
        _refuse_non_finite("storage rate", sdot, x_grid, u_grid)
        du = ut - ue_t
        dy = yt - ye_t
        supply = -rho_t * dy * dy - nu_t * du * du + dy * du
        _refuse_non_finite("supply", supply, x_grid, u_grid)
        worst = max(worst, float(np.max(sdot - supply)))
    return PassivationReport(
        max_violation=worst,
        tolerance=1e-6,
        trials=trials,
        equilibria=eqs,
    )
