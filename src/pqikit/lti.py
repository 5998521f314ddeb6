"""LTI analysis path: stability, L-infinity norms, and passivity indices.

Transfer functions are rational with real coefficients.  Stability is read
off companion-matrix roots with a margin relative to each pole's magnitude.
Peak gains and frequency-domain indices are exact extrema over omega >= 0:
on the imaginary axis |G|^2, Re G and Re 1/G are ratios a(x)/b(x) of real
polynomials in x = omega^2, so each extremum is the best of x = 0, the
positive real roots of a'b - ab' and the limit x -> infinity; a zero of G
on the axis makes Re 1/G unbounded instead.  The index
formulas turn a stabilized loop gain into an equilibrium-independent
passivity-index pair, and a loop transformation maps a transfer function
through a 2x2 I/O change of coordinates.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as P

from .errors import (
    DegenerateDegree,
    DegenerateTransformedTF,
    DestabilizingLambda,
    DegreeDrop,
    NoStabilizingLambda,
    NonpositiveGain,
    SingularDenominator1p2lm,
    UnstableDenominator,
)
from .pqi import PassivityIndices


@dataclass(frozen=True)
class FrequencyIndices:
    """Strict passivity indices read off the imaginary axis.

    rho is the infimum of Re 1/G(j omega) and nu the infimum of Re G(j omega)
    over omega >= 0, both exact; rho is -inf when Re 1/G is unbounded below
    (relative degree two or more) and +inf for G = 0.  Unlike
    PassivityIndices this pair is not tied to a non-trivial quadratic
    inequality (both values can be large and positive for a system that is
    simultaneously input- and output-strictly passive), so no product bound
    is enforced.
    """

    rho: float
    nu: float


STABILITY_MARGIN = 1e-9
COMMON_ROOT_TOL = 1e-8


@dataclass(frozen=True)
class RealPolynomial:
    """Real polynomial: ascending coefficients, trailing exact zeros trimmed."""

    coeffs: tuple[float, ...]

    @classmethod
    def make(cls, coeffs) -> "RealPolynomial":
        c = np.trim_zeros(np.atleast_1d(np.asarray(coeffs, dtype=float)), "b")
        return cls(tuple(float(v) for v in c) or (0.0,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return self.coeffs == (0.0,)

    def __call__(self, s):
        return P.polyval(s, np.asarray(self.coeffs))

    def roots(self) -> np.ndarray:
        return np.roots(self.coeffs[::-1])

    def __add__(self, other: "RealPolynomial") -> "RealPolynomial":
        return RealPolynomial.make(P.polyadd(self.coeffs, other.coeffs))

    def scaled(self, k: float) -> "RealPolynomial":
        return RealPolynomial.make(np.asarray(self.coeffs) * k)


def is_stable(q: RealPolynomial) -> bool:
    """Every root r satisfies Re r < -STABILITY_MARGIN * |r|.

    The margin is relative to each pole's magnitude, so the verdict does not
    change when time is rescaled (s -> alpha*s).
    """
    if q.degree < 1:
        raise DegenerateDegree("stability is undefined for constant polynomials")
    r = q.roots()
    return bool(np.all(r.real < -STABILITY_MARGIN * np.abs(r)))


@dataclass(frozen=True)
class RationalTF:
    """Proper rational transfer function num/den with real coefficients."""

    num: RealPolynomial
    den: RealPolynomial

    @classmethod
    def make(cls, num, den) -> "RationalTF":
        n = num if isinstance(num, RealPolynomial) else RealPolynomial.make(num)
        d = den if isinstance(den, RealPolynomial) else RealPolynomial.make(den)
        if d.is_zero:
            raise ValueError("denominator must be nonzero")
        if n.degree > d.degree:
            raise ValueError("transfer function must be proper (deg num <= deg den)")
        return cls(n, d)._cancel_common_roots()

    def _cancel_common_roots(self) -> "RationalTF":
        if self.num.degree < 1 or self.den.degree < 1:
            return self
        nr, kept_d = list(self.num.roots()), []
        for r in self.den.roots():
            hit = [i for i, z in enumerate(nr)
                   if abs(z - r) <= COMMON_ROOT_TOL * max(abs(z), abs(r))]
            if hit:
                nr.pop(hit[0])
            else:
                kept_d.append(r)
        if len(kept_d) == self.den.degree:
            return self
        warnings.warn("cancelling near-common numerator/denominator roots",
                      stacklevel=3)
        return RationalTF(
            RealPolynomial.make(P.polyfromroots(nr).real * self.num.coeffs[-1]),
            RealPolynomial.make(P.polyfromroots(kept_d).real * self.den.coeffs[-1]))

    def __call__(self, s):
        return self.num(s) / self.den(s)

    def to_json_dict(self) -> dict:
        return {"num": list(self.num.coeffs), "den": list(self.den.coeffs)}

    @classmethod
    def from_json_dict(cls, d: dict) -> "RationalTF":
        return cls.make(d["num"], d["den"])


def _real_product(u, w):
    """Re(u(j omega) conj(w(j omega))) in x = omega^2, trailing zeros trimmed.

    Its odd powers of omega vanish exactly: u(j omega) has coefficients u_k j^k.
    """
    uj, wj = (c * np.array([1.0, 1j, -1.0, -1j])[np.arange(len(c)) % 4]
              for c in (u, w))
    return np.trim_zeros(P.polymul(uj, wj.conj()).real[::2], "b")


def _ratio_limit(a, b, end: int) -> float:
    """Limit of a(x)/b(x) as x -> 0 (end 0) or x -> infinity (end -1)."""
    ia, ib = np.flatnonzero(a)[end], np.flatnonzero(b)[end]
    if ia == ib:
        return float(a[ia] / b[ib])
    return math.copysign(math.inf, a[ia] * b[ib]) if (ia < ib) == (end == 0) else 0.0


def _axis_extremum(u, w, v, maximize: bool) -> float:
    """Exact extremum over omega >= 0 of Re(u conj(w))/|v|^2 at s = j omega.

    Candidates as in the module docstring; the two ends are limits of a/b and
    may be infinite.  Every candidate lies on the axis, so a spurious or
    inexact root of a'b - ab' can only lose, never overshoot.
    """
    a, b = _real_product(u, w), _real_product(v, v)
    if not len(b):
        return math.inf  # v = 0: Re 1/G of G = 0
    if not len(a):
        return 0.0
    # a'b - ab' has degree deg a + deg b - 1, one less when they are equal; a
    # rounding residue left in that term would add a root near 1/eps
    keep = len(a) + len(b) - 2 - (len(a) == len(b))
    slope = np.trim_zeros(P.polysub(P.polymul(P.polyder(a), b),
                                    P.polymul(a, P.polyder(b)))[:keep], "b")
    x = P.polyroots(slope).real if len(slope) > 1 else np.empty(0)
    jw = 1j * np.sqrt(x[x > 0.0])
    uj, wj, vj = (P.polyval(jw, c) for c in (u, w, v))
    vals = np.real(uj * np.conj(wj)) / np.abs(vj) ** 2
    vals = np.concatenate([vals[np.isfinite(vals)],
                           [_ratio_limit(a, b, 0), _ratio_limit(a, b, -1)]])
    return float(vals.max() if maximize else vals.min())


def _re_ratio_unbounded(u, v) -> bool:
    """Whether Re u/v is unbounded on the imaginary axis.

    Near a simple zero j omega_0 of v, u/v is r/(s - j omega_0) plus a
    bounded part, and Re r/(j(omega - omega_0)) runs to both infinities
    unless the residue r = u/v' there is real.  A zero counts as on the axis,
    and r as not real, at 1e-9 relative.
    """
    if len(v) < 2:
        return False
    z = P.polyroots(v)
    z = z[(z.imag > 0.0) & (np.abs(z.real) <= 1e-9 * np.abs(z))]
    if not z.size:  # the common case; skips the residues
        return False
    r = P.polyval(z, u) / P.polyval(z, P.polyder(v))
    return bool(np.any(np.abs(r.imag) > 1e-9 * np.abs(r)))


def _unit_frequency(G: RationalTF, what: str):
    """Coefficients of p, q in G(omega_s s) = p/q for a stable G.

    omega_s = |q_0/q_n|^(1/n) is the geometric mean of the pole magnitudes.
    """
    if G.den.degree >= 1 and not is_stable(G.den):
        raise UnstableDenominator(f"{what} requires a stable denominator")
    num, den = np.asarray(G.num.coeffs), np.asarray(G.den.coeffs)
    w_s = abs(den[0] / den[-1]) ** (1.0 / G.den.degree) if G.den.degree else 1.0
    return num * w_s ** np.arange(len(num)), den * w_s ** np.arange(len(den))


def linf_norm(G: RationalTF) -> float:
    """Peak magnitude sup_omega |G(j omega)| for a stable transfer function.

    Exact up to polynomial-root accuracy: the stationary points of |G|^2 in
    omega^2, plus omega = 0 and omega -> infinity, on G(omega_s s).
    """
    p, q = _unit_frequency(G, "peak gain")
    return math.sqrt(_axis_extremum(p, p, q, maximize=True))


def l2gain_to_input_index(beta: float) -> float:
    """Input-index bound -(beta^2 + 1/4) guaranteed by a finite L2 gain."""
    if not beta > 0.0:
        raise NonpositiveGain(f"L2 gain must be positive, got {beta}")
    return -(beta * beta + 0.25)


def loop_mu(G: RationalTF, lam: float) -> float:
    """mu = peak of the stabilized loop p/(q + lam*p) plus 1/4."""
    shifted = G.den + G.num.scaled(lam)
    if shifted.is_zero:
        raise DegreeDrop(f"q + {lam}*p vanishes identically")
    if shifted.degree != G.den.degree:
        raise DegreeDrop(
            f"q + {lam}*p drops degree from {G.den.degree} to {shifted.degree}"
        )
    try:
        return linf_norm(RationalTF(G.num, shifted)) + 0.25
    except UnstableDenominator:
        raise DestabilizingLambda(
            f"q + {lam}*p is not a stable polynomial") from None


def eips_indices(G: RationalTF, lam: float) -> PassivityIndices:
    """Equilibrium-independent passivity indices from a stabilizing loop gain.

    With p/q = G and q + lam*p stable of unchanged degree, the peak of the
    stabilized loop p/(q + lam*p) plus 1/4 gives mu, and the index pair is
    rho = -lam(1 + lam*mu)/(1 + 2*lam*mu), nu = -mu/(1 + 2*lam*mu).
    """
    mu = loop_mu(G, lam)
    denom = 1.0 + 2.0 * lam * mu
    if abs(denom) <= 1e-12:
        raise SingularDenominator1p2lm("1 + 2*lambda*mu vanished")
    rho = -lam * (1.0 + lam * mu) / denom
    nu = -mu / denom
    return PassivityIndices(rho, nu)


def lambda_search(G: RationalTF, grid) -> float:
    """Grid value of lambda minimizing mu among the admissible candidates.

    Admissible means q + lambda*p keeps the denominator degree and is stable.
    """
    best_lam, best_mu = None, np.inf
    for lam in np.asarray(grid, dtype=float):
        try:
            mu = loop_mu(G, float(lam))
        except (DegreeDrop, DestabilizingLambda):
            continue
        if mu < best_mu:
            best_lam, best_mu = float(lam), mu
    if best_lam is None:
        raise NoStabilizingLambda("no grid value stabilizes q + lambda*p")
    return best_lam


def transformed_tf(G: RationalTF, transform) -> RationalTF:
    """Loop-transformed transfer function (c*q + d*p)/(a*q + b*p).

    Follows from u-tilde = (a + b*G)u and y-tilde = (c + d*G)u in the
    frequency domain; near-common roots of the two combinations cancel with
    a warning.
    """
    a, b, c, d = transform.a, transform.b, transform.c, transform.d
    den = G.den.scaled(a) + G.num.scaled(b)
    num = G.den.scaled(c) + G.num.scaled(d)
    if den.is_zero:
        raise DegenerateTransformedTF("a*q + b*p vanished identically")
    if num.degree > den.degree:
        raise DegenerateTransformedTF(
            "transformed numerator degree exceeds denominator degree"
        )
    return RationalTF.make(num, den)


def tf_passivity_indices(G: RationalTF) -> FrequencyIndices:
    """Frequency-domain strict indices of a stable transfer function.

    The input index is the infimum of Re G(j omega), the output index the
    infimum of Re 1/G(j omega), both over omega >= 0 and found exactly like
    the peak gain.  Re 1/G is unbounded below when the relative degree is two
    or more, or when G has a zero on the imaginary axis where 1/G has a
    residue that is not real, and the output index is then -inf.  Positive
    values certify input- and output-strict passivity.
    """
    p, q = _unit_frequency(G, "index search")
    rho = (-math.inf if _re_ratio_unbounded(q, p)
           else _axis_extremum(q, p, p, maximize=False))
    return FrequencyIndices(rho, _axis_extremum(p, q, q, maximize=False))
