"""Synthesis of monotonizing/passivizing I/O transformations.

Given a source and a target quadratic inequality, a 2x2 map sending one
solution cone onto the other is assembled from the boundary rays; a sign test
on the ray sums picks the correct one of the two candidates.  The map is then
factored into four realizable stages (output feedback, post-gain, input
feedthrough, pre-gain), and a numeric dissipation certificate checks that the
transformed system satisfies the requested inequality along trajectories.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoStorageFunction, NonFiniteValue, SingularTransform
from .network import agent_call, bracket_roots, dormand_prince
from .pqi import PQI, PassivityIndices, _inverse, boundary_rays, is_singular


@dataclass(frozen=True)
class Transform2:
    """Invertible map [[a, b], [c, d]] acting on stacked (u, y) pairs; building a
    non-finite one raises NonFiniteValue, a singular one SingularTransform."""

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        if is_singular(((self.a, self.b), (self.c, self.d))):  # so is a non-finite map
            m = self.matrix()
            if not np.isfinite(m).all():
                raise NonFiniteValue(f"map {m.tolist()} has a non-finite entry")
            raise SingularTransform(f"map {m.tolist()}: det below tolerance")

    @classmethod
    def from_matrix(cls, m) -> "Transform2":
        m = np.asarray(m, dtype=float)
        return cls(m[0, 0], m[0, 1], m[1, 0], m[1, 1])

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
        """Map input/output samples (scalars or arrays) to the new pair."""
        u = np.asarray(u, dtype=float)
        y = np.asarray(y, dtype=float)
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

U_RANGE = (-2.0, 2.0)  # inputs of the sampled equilibria and of the trials
X0_RANGE = (-3.0, 3.0)  # initial states of the trials
SEGMENTS = 10  # a trial's input is constant over each of these unit time spans


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
    """
    us = np.atleast_1d(np.asarray(u_values, dtype=float))
    roots, level = bracket_roots(system.f, us, -10.0, 10.0, 400)
    ys = agent_call(system.h, roots, us[level])
    return [(float(x), float(u), float(y)) for x, u, y in zip(roots, us[level], ys)]


def _storage_rate(storage, x, x_eq, xdot):
    """Directional numeric derivative of S along the vector field."""
    step = 1e-6 * (1.0 + np.abs(x))
    # dS/dt = S'(x) * xdot, via central difference in the state.
    return ((agent_call(storage, x + step, x_eq) - agent_call(storage, x - step, x_eq))
            / (2.0 * step) * xdot)


def verify_passivation(
    system,
    transform: Transform2,
    indices_target: PassivityIndices,
    trials: int = 100,
    seed: int = 0,
) -> PassivationReport:
    """Simulate random trajectories and check the transformed inequality.

    Trials start in X0_RANGE, and their inputs in U_RANGE are constant over
    each of SEGMENTS unit time spans; all trials of a segment step together
    with :func:`~pqikit.network.dormand_prince` (floor 1e-3, cap the
    segment), which calls the system's ``f`` on the trial arrays.  Every
    0.02 time units the storage rate (numeric directional derivative of the
    supplied storage candidate) is compared against the transformed supply
    rate shifted by each sampled equilibrium, at most 20 of the forced
    equilibria at 20 inputs in U_RANGE; the report passes when no violation
    exceeds 1e-6.
    """
    if system.storage is None:
        raise NoStorageFunction("system supplies no storage-function candidate")
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    rng = np.random.default_rng(seed)

    eqs = find_equilibria(system, np.linspace(*U_RANGE, 20))
    if len(eqs) > 20:
        idx = rng.choice(len(eqs), size=20, replace=False)
        eqs = [eqs[i] for i in sorted(idx)]

    dt, stride = 1e-3, 20
    # one row more than the segments use: the starts are the draws after
    # it, so each seed's trials, and every report, keep their bits
    u_levels = rng.uniform(*U_RANGE, size=(SEGMENTS + 1, trials))
    x = rng.uniform(*X0_RANGE, size=trials)

    f, h = system.f, system.h
    xs, us = [], []
    for k, u in enumerate(u_levels[:SEGMENTS]):
        for _, x, _, _, row_x in dormand_prince(
                lambda x, u=u: f(x, u), x, float(k), k + 1.0, dt, 1.0, stride):
            xs.append(row_x)
            us.append(np.broadcast_to(u, row_x.shape))

    xs = np.concatenate(xs)  # (times, trials)
    us = np.concatenate(us)
    ys = h(xs, us)
    xdots = f(xs, us)
    ut, yt = transform(us, ys)

    rho_t, nu_t = indices_target.rho, indices_target.nu
    worst = -np.inf
    for x_eq, u_eq, y_eq in eqs:
        ue_t, ye_t = transform(u_eq, y_eq)
        sdot = _storage_rate(system.storage, xs, x_eq, xdots)
        du = ut - ue_t
        dy = yt - ye_t
        supply = -rho_t * dy * dy - nu_t * du * du + dy * du
        worst = max(worst, float(np.max(sdot - supply)))
    return PassivationReport(
        max_violation=worst,
        tolerance=1e-6,
        trials=trials,
        equilibria=eqs,
    )
