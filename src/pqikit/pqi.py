"""Projective quadratic inequalities and their double-cone solution sets.

A PQI is the planar inequality ``a*xi**2 + b*xi*chi + c*chi**2 >= 0``.  When
``b**2 - 4*a*c > 0`` its solution set is a symmetric double-cone, bounded by
two rays on which the quadratic form vanishes.  This module provides the
algebra (non-triviality, membership, pullback under linear maps) and the
geometry (boundary rays, cone construction with an interior probe).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateRays, InvalidSpec, NonFiniteValue, SingularTransform,
                     TrivialPQI, _floats)

# Relative tolerance for the discriminant zero test, see also `is_nontrivial`.
DISC_RTOL = 1e-12
# Relative band for membership: |value| <= MEMBER_RTOL * |coeffs| * |z|^2.
MEMBER_RTOL = 1e-9


@dataclass(frozen=True)
class PQI:
    """Coefficient triple of ``a*xi**2 + b*xi*chi + c*chi**2 >= 0``, finite."""

    a: float
    b: float
    c: float

    def __post_init__(self):
        for name in ("a", "b", "c"):
            object.__setattr__(self, name,
                               _floats(getattr(self, name), f"PQI coefficient {name}", ()))
        if self.a == 0.0 and self.b == 0.0 and self.c == 0.0:
            raise InvalidSpec("PQI coefficients must not all be zero")

    def __call__(self, xi, chi):
        return self.a * xi * xi + self.b * xi * chi + self.c * chi * chi

    @property
    def coeffs(self) -> np.ndarray:
        return np.array([self.a, self.b, self.c], dtype=float)

    def normalized(self) -> "PQI":
        """Scale coefficients to unit Euclidean norm (sign preserved).

        Coefficients are pre-scaled by their largest magnitude so the norm
        never squares values whose squares would underflow to subnormals.
        """
        s = float(np.max(np.abs(self.coeffs)))
        v = np.asarray(self.coeffs) / s
        n = float(np.linalg.norm(v))
        return PQI(v[0] / n, v[1] / n, v[2] / n)


@dataclass(frozen=True)
class PassivityIndices:
    """Output index rho and input index nu, finite, with rho*nu < 1/4, a
    finite discriminant 1 - 4*rho*nu and a non-trivial induced PQI."""

    rho: float
    nu: float

    def __post_init__(self):
        for name in ("rho", "nu"):
            object.__setattr__(self, name,
                               _floats(getattr(self, name), f"passivity index {name}", ()))
        if not self.rho * self.nu < 0.25:
            raise TrivialPQI(
                f"indices rho={self.rho}, nu={self.nu} give rho*nu >= 1/4"
            )
        p = self.pqi()
        disc = discriminant(p)
        if not math.isfinite(disc):
            raise NonFiniteValue(f"indices rho={self.rho}, nu={self.nu} overflow "
                                 "the discriminant 1 - 4*rho*nu")
        if not is_nontrivial(p):
            raise TrivialPQI(f"indices rho={self.rho}, nu={self.nu} give a trivial PQI: "
                             f"1 - 4*rho*nu = {disc} is not above {DISC_RTOL} of "
                             "rho^2 + 1 + nu^2")

    def pqi(self) -> PQI:
        """The induced increment inequality -nu*xi^2 + xi*chi - rho*chi^2 >= 0."""
        return PQI(-self.nu, 1.0, -self.rho)


@dataclass(frozen=True)
class SymmetricDoubleCone:
    """Double cone stored as two unit boundary rays plus an interior probe.

    Each ray is identified with its antipode; the probe pins down which pair
    of opposite sectors the cone occupies; each is a pair of finite floats.
    """

    ray1: tuple[float, float]
    ray2: tuple[float, float]
    interior_probe: tuple[float, float]

    def __post_init__(self):
        for name in ("ray1", "ray2", "interior_probe"):
            pair = _floats(getattr(self, name), f"cone {name}", (2,))
            object.__setattr__(self, name, tuple(pair.tolist()))

    def _basis_inverse(self) -> np.ndarray:
        r = np.column_stack([self.ray1, self.ray2])
        if is_singular(r):
            raise DegenerateRays("boundary rays are colinear")
        return _inverse(r)

    def contains(self, point) -> bool:
        """Geometric membership: same sector pair as the interior probe, with a
        boundary band of 1e-12·|w|², w the point in ray coordinates."""
        inv = self._basis_inverse()
        w = inv @ _floats(point, "point", (2,))
        wp = inv @ np.asarray(self.interior_probe, dtype=float)
        band = 1e-12 * float(w @ w)
        if wp[0] * wp[1] > 0:
            return bool(w[0] * w[1] >= -band)
        return bool(w[0] * w[1] <= band)


def discriminant(p: PQI) -> float:
    return p.b * p.b - 4.0 * p.a * p.c


def _scaled(p: PQI) -> tuple[float, float, float]:
    """The coefficients over the power of two of the largest |coefficient|.

    Scaling by a power of two is exact, so normal-range coefficients keep
    their verdicts and rays bit for bit, and no unit of the PQI makes
    b^2 - 4ac of the scaled triple overflow or underflow: only coefficients
    far apart from each other can.
    """
    e = math.frexp(max(abs(p.a), abs(p.b), abs(p.c)))[1]
    return tuple(math.ldexp(v, -e) for v in (p.a, p.b, p.c))


def is_nontrivial(p: PQI) -> bool:
    """True iff b^2 - 4ac > 0, with a relative zero band of DISC_RTOL,
    decided on the scaled coefficients of `_scaled`."""
    a, b, c = _scaled(p)
    return b * b - 4.0 * a * c > DISC_RTOL * (a * a + b * b + c * c)


def boundary_rays(p: PQI) -> tuple[np.ndarray, np.ndarray]:
    """Canonical direction pair spanning the cone boundary.

    The quadratic form vanishes on both returned rays.  Representatives are
    chosen so that factoring the form as a*(xi - s_minus*chi)(xi - s_plus*chi)
    yields rays (-s_minus, -1) and (s_plus, 1); for a == 0 the factorization
    chi*(b*xi + c*chi) yields (1, 0) and (-c, b).  This fixed convention keeps
    the two-cone mapping construction reproducible.
    """
    if not is_nontrivial(p):
        raise TrivialPQI(f"discriminant {discriminant(p)} is not positive")
    a, b, c = _scaled(p)
    scale = math.sqrt(a * a + b * b + c * c)
    sqrt_d = math.sqrt(b * b - 4.0 * a * c)
    # The paired-root formulas are cancellation-free for any nonzero a, so
    # the chi = 0 fallback is reserved for leading coefficients so small the
    # exact root q/a (bounded by scale/|a|) would overflow useful range.
    if abs(a) > 1e-30 * scale:
        # cancellation-free root pairing: one root via (-b -/+ sqrt_d)/2a, the
        # other via c over that quantity, nonzero since b^2 - 4ac > 0 here
        if b >= 0.0:
            q = -0.5 * (b + sqrt_d)
            s_minus = q / a
            s_plus = c / q
        else:
            q = -0.5 * (b - sqrt_d)
            s_plus = q / a
            s_minus = c / q
        return np.array([-s_minus, -1.0]), np.array([s_plus, 1.0])
    # a == 0: one boundary line is chi = 0, the other b*xi + c*chi = 0
    # (b != 0 since the discriminant is b^2); scale by b for invariance.
    return np.array([1.0, 0.0]), np.array([-c / b, 1.0])


def _unit(v: np.ndarray) -> tuple[float, float]:
    n = float(np.linalg.norm(v))
    return (float(v[0] / n), float(v[1] / n))


def solution_set(p: PQI) -> SymmetricDoubleCone:
    """Build the double cone solving a non-trivial PQI.

    The probe is the bisector of the two unit rays if it satisfies the strict
    inequality, otherwise its 90-degree rotation (the bisector of the
    complementary sector pair), which then must lie strictly inside.
    """
    r1, r2 = boundary_rays(p)
    u1, u2 = _unit(r1), _unit(r2)
    probe = np.array([u1[0] + u2[0], u1[1] + u2[1]])
    if p(probe[0], probe[1]) <= 0.0:
        probe = np.array([-probe[1], probe[0]])
    return SymmetricDoubleCone(u1, u2, (float(probe[0]), float(probe[1])))


def contains(p: PQI, point) -> bool:
    """Direct evaluation with the relative tolerance band MEMBER_RTOL."""
    xi, chi = _floats(point, "point", (2,)).tolist()
    band = MEMBER_RTOL * float(np.linalg.norm(p.coeffs)) * (xi * xi + chi * chi)
    return p(xi, chi) >= -band


def is_singular(t) -> bool:
    """Whether the 2x2 map t (an array or nested pairs) is singular: its
    determinant is not finite, or |det t| is tiny against both its row and
    its column norm products (a well-defined map with badly scaled rows or
    columns fails only one), so the verdict does not depend on its scale."""
    (a, b), (c, d) = t
    a, b, c, d = float(a), float(b), float(c), float(d)
    det = a * d - b * c
    cols = math.hypot(a, c) * math.hypot(b, d)
    rows = math.hypot(a, b) * math.hypot(c, d)
    return not math.isfinite(det) or det == 0.0 or abs(det) <= 1e-12 * min(cols, rows)


def _inverse(t: np.ndarray) -> np.ndarray:
    """Adjugate over determinant of the 2x2 array t, on Python floats, so an
    entry past float range is inf without a RuntimeWarning."""
    (a, b), (c, d) = t.tolist()
    det = a * d - b * c
    return np.array([[d / det, -b / det], [-c / det, a / det]])


def pullback(p: PQI, transform) -> PQI:
    """The PQI q with q(z) = p(T^{-1} z) for an invertible 2x2 map T.

    Accepts a 2x2 array or anything exposing ``.matrix()``.  The arithmetic
    is on Python floats, so coefficients past float range reach PQI's
    NonFiniteValue without a RuntimeWarning.
    """
    t = transform.matrix() if hasattr(transform, "matrix") else _floats(transform, "map", (2, 2))
    if is_singular(t):
        raise SingularTransform(f"map {t.tolist()}: |det T| below tolerance")
    # T^{-1} = [[al, be], [ga, de]]; substitute xi = al*xi' + be*chi', etc.
    (al, be), (ga, de) = _inverse(t).tolist()
    a, b, c = float(p.a), float(p.b), float(p.c)
    qa = a * al * al + b * al * ga + c * ga * ga
    qb = 2.0 * a * al * be + b * (al * de + be * ga) + 2.0 * c * ga * de
    qc = a * be * be + b * be * de + c * de * de
    return PQI(qa, qb, qc)
