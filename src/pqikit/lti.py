"""LTI analysis path: stability, L-infinity norms, and passivity indices.

Transfer functions are rational with real coefficients.  Stability is read
off companion-matrix roots with a margin relative to each pole's magnitude.
Peak gains and frequency-domain indices are exact extrema over omega >= 0:
on the imaginary axis |G|^2, Re G and Re 1/G are ratios a(x)/b(x) of real
polynomials in x = omega^2, so each extremum is the best of x = 0, the
positive real roots of a'b - ab' and the limit x -> infinity; a zero of G
on the axis can make Re 1/G unbounded instead.  The stability test and this
extremum work on rows, one polynomial problem per row, so a lambda grid
search is one stacked solve: every shift q + lambda*p is screened, rescaled
and scored at once, and a single transfer function is the one-row case.
The kernel's numpy-call count does not grow with its row count, so one
row costs about what two do: the strict indices nu and rho of a transfer
function are one two-row problem, and a numerator and denominator of equal
degree share one root solve.  Degree-1 rows need no eigenvalue solve: a 1x1
companion matrix is its own eigenvalue, so the peak gain of a constant over
a quadratic, whose slope polynomial has degree 1, costs no solve beyond the
denominator's stability screen.
The index formulas turn a stabilized loop gain into an
equilibrium-independent passivity-index pair, and a loop transformation
maps a transfer function through a 2x2 I/O change of coordinates.
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
    ImproperTF,
    NoStabilizingLambda,
    NonFiniteValue,
    NonpositiveGain,
    SingularDenominator1p2lm,
    ToolkitError,
    UnstableDenominator,
    _floats,
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
MULTIPLE_ZERO_EPS = 4.0 * np.finfo(float).eps


@dataclass(frozen=True)
class RealPolynomial:
    """Real polynomial: ascending coefficients, trailing exact zeros trimmed."""

    coeffs: tuple[float, ...]

    def __post_init__(self):
        coeffs = _floats(self.coeffs, "polynomial coefficients", (None,)).tolist()
        while coeffs and coeffs[-1] == 0.0:
            coeffs.pop()
        object.__setattr__(self, "coeffs", tuple(coeffs) or (0.0,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return self.coeffs == (0.0,)

    def __call__(self, s):
        return P.polyval(s, np.asarray(self.coeffs))


@dataclass(frozen=True)
class RationalTF:
    """Proper rational transfer function num/den, each a RealPolynomial or
    its coefficients; a zero or lower-degree denominator raises ImproperTF."""

    num: RealPolynomial
    den: RealPolynomial

    def __post_init__(self):
        for part in ("num", "den"):
            if not isinstance(getattr(self, part), RealPolynomial):
                object.__setattr__(self, part, RealPolynomial(getattr(self, part)))
        if self.den.is_zero:
            raise ImproperTF("denominator must be nonzero")
        if self.num.degree > self.den.degree:
            raise ImproperTF(f"transfer function must be proper: numerator degree "
                             f"{self.num.degree} exceeds denominator degree "
                             f"{self.den.degree}")

    @classmethod
    def make(cls, num, den) -> "RationalTF":
        """cls(num, den) with near-common roots cancelled until none is left."""
        G = cls(num, den)
        if G.num.degree < 1 or G.den.degree < 1:
            return G
        n, d = np.asarray(G.num.coeffs), np.asarray(G.den.coeffs)
        try:
            nr, dr = _roots(n[None])[0], _roots(d[None])[0]
        except NonFiniteValue as exc:
            part = ("numerator" if not np.isfinite(_companion_column(n[None])).all()
                    else "denominator")
            raise NonFiniteValue(f"{part} {exc}") from None
        # Python numbers: the same arithmetic as numpy scalars, at less cost
        nr, kept_d = nr.tolist(), []
        for r in dr.tolist():
            hit = [i for i, z in enumerate(nr)
                   if abs(z - r) <= COMMON_ROOT_TOL * max(abs(z), abs(r))]
            if hit:
                nr.pop(hit[0])
            else:
                kept_d.append(r)
        if len(kept_d) == G.den.degree:
            return G
        warnings.warn("cancelling near-common numerator/denominator roots",
                      stacklevel=2)
        return cls.make(P.polyfromroots(nr).real * G.num.coeffs[-1],
                        P.polyfromroots(kept_d).real * G.den.coeffs[-1])

    def __call__(self, s):
        return self.num(s) / self.den(s)

    def to_json_dict(self) -> dict:
        return {"num": list(self.num.coeffs), "den": list(self.den.coeffs)}


def _lengths(c: np.ndarray) -> np.ndarray:
    """Per row, one past the last nonzero coefficient (0 for a zero row)."""
    return ((c != 0.0) * np.arange(1, c.shape[1] + 1)).max(axis=1, initial=0)


def _companion_column(c: np.ndarray) -> np.ndarray:
    """-c_k/c_n per row: the last column of each row's companion matrix.

    It is non-finite when the top vanishes, or when a root lies beyond float
    range (a ratio overflows).
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return -c[:, :-1] / c[:, -1:]


def _finite_column(c: np.ndarray) -> np.ndarray:
    """_companion_column of c; a row where it is not finite, a root beyond
    float range, raises NonFiniteValue naming that row."""
    col = _companion_column(c)
    if not np.isfinite(col).all():
        bad = ~np.isfinite(col).all(axis=1)
        raise NonFiniteValue(f"polynomial {c[np.argmax(bad)].tolist()} has a "
                             "root beyond float range")
    return col


def _roots(c: np.ndarray) -> np.ndarray:
    """Roots of each row of c (ascending, equal lengths, nonzero tops).

    A row whose companion matrix overflows raises NonFiniteValue naming
    that row (_finite_column).
    """
    return _companion_roots(_finite_column(c))


def _companion_roots(col: np.ndarray) -> np.ndarray:
    """Eigenvalues of the companion matrices whose last columns are the
    rows of col, every entry finite.

    One stacked eigenvalue solve of the companion matrices that
    numpy.polynomial's polyroots builds, so one row still costs about what
    two do.  Degree-1 rows need no solve: a 1x1 companion matrix is its own
    eigenvalue, so the root is the column -c_0/c_1, which is also what the
    solve returns wherever LAPACK does not rescale the matrix (roots of
    magnitude about 1e-138 to 1e138, or 0).
    """
    n = col.shape[1]
    if n == 1:
        return col
    A = np.zeros((len(col), n, n))
    A.reshape(len(col), n * n)[:, n::n + 1] = 1.0  # the sub-diagonal
    A[:, :, -1] = col
    return np.linalg.eigvals(A)


def _stable(q: np.ndarray, col: np.ndarray) -> np.ndarray:
    """Per row of q: every root r satisfies Re r < -STABILITY_MARGIN * |r|.

    Rows share a length and have nonzero tops, and col is their finite
    companion column (_finite_column); constants count as stable.
    A zero constant term is a root at 0.
    """
    if q.shape[1] < 2:
        return np.ones(len(q), dtype=bool)
    r = _companion_roots(col)
    return (q[:, 0] != 0.0) & (r.real < -STABILITY_MARGIN * np.abs(r)).all(axis=1)


def is_stable(q: RealPolynomial) -> bool:
    """Every root r satisfies Re r < -STABILITY_MARGIN * |r|.

    The margin is relative to each pole's magnitude, so the verdict does not
    change when time is rescaled (s -> alpha*s).
    """
    if q.degree < 1:
        raise DegenerateDegree("stability is undefined for constant polynomials")
    c = np.asarray(q.coeffs)[None]
    return bool(_stable(c, _finite_column(c))[0])


def _polymul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row-wise product of polynomials (ascending coefficients)."""
    if x.shape[1] == 1:  # the loop's 0 + x_0 y, which turns -0.0 into 0.0
        return x * y + 0.0
    out = np.zeros((max(len(x), len(y)), x.shape[1] + y.shape[1] - 1))
    for k in range(x.shape[1]):
        out[:, k:k + y.shape[1]] += x[:, k:k + 1] * y
    return out


# (-1)^floor(k/2) for the coefficients k of rows up to degree 63
_SIGNS = (-1.0) ** (np.arange(64) // 2)


def _real_product(u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Re(u(j omega) conj(w(j omega))) in x = omega^2, row by row.

    u(j omega) = ue(x) + j omega uo(x), where ue and uo take the even and the
    odd coefficients with alternating signs, so the product is
    ue we + x uo wo.  Coefficient k carries the sign (-1)^floor(k/2).
    """
    n = max(u.shape[1], w.shape[1])
    sign = _SIGNS[:n] if n <= _SIGNS.size else (-1.0) ** (np.arange(n) // 2)
    su = u * sign[:u.shape[1]]
    sw = su if w is u else w * sign[:w.shape[1]]
    out = np.zeros((max(len(u), len(w)), (u.shape[1] + w.shape[1]) // 2))
    even = _polymul(su[:, ::2], sw[:, ::2])
    out[:, :even.shape[1]] = even
    if u.shape[1] > 1 and w.shape[1] > 1:
        odd = _polymul(su[:, 1::2], sw[:, 1::2])
        out[:, 1:1 + odd.shape[1]] += odd
    return out


def _ratio_limits(a, b, la, lb) -> np.ndarray:
    """Per row, the limits of a(x)/b(x) as x -> 0 and as x -> infinity.

    Near each end a/b behaves as (a_i/b_k) x^(i - k) for the lowest or the
    highest nonzero coefficients; la, lb are the rows' trimmed lengths.
    """
    ia = np.array([(a != 0.0).argmax(axis=1), la - 1]).T
    ib = np.array([(b != 0.0).argmax(axis=1), lb - 1]).T
    rows = np.arange(len(a))[:, None]
    ea, eb = a[rows, ia], b[rows, ib]
    grows = (ia < ib) == np.array([True, False])
    return np.where(ia == ib, ea / eb,
                    np.where(grows, np.copysign(np.inf, ea * eb), 0.0))


def _polyval_rows(c: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Each row of the coefficient array c at the points in the same row of s.

    Horner's rule with numpy.polynomial's polyval operations in its order,
    so the values are those of P.polyval(s.T, c.T, tensor=False).T.
    """
    out = c[:, -1:] + s * 0
    for k in range(c.shape[1] - 2, -1, -1):
        out = c[:, k:k + 1] + out * s
    return out


def _real_roots(c: np.ndarray) -> np.ndarray:
    """Real parts of each row's roots, nan-padded to one fewer than c's width.

    Rows are grouped by trimmed length, one stacked solve per group; a row
    of trimmed length 0 or 1 has no roots, and when every row has one
    trimmed length the group is all of c, with no row selection.
    """
    ls = _lengths(c)
    lengths = set(ls.tolist())
    x = np.full((len(c), max(c.shape[1] - 1, 0)), np.nan)
    for n in sorted(lengths - {0, 1}):
        rows = slice(None) if len(lengths) == 1 else np.flatnonzero(ls == n)
        x[rows, :n - 1] = _roots(c[rows, :n]).real
    return x


def _axis_extremum(u, w, v, maximize: bool) -> np.ndarray:
    """Exact extremum over omega >= 0 of Re(u conj(w))/|v|^2 at s = j omega.

    One problem per row of the coefficient arrays u, w, v (a single row
    broadcasts).  Candidates as in the module docstring; the two ends are
    limits of a/b and may be infinite; an end coefficient of a that is a
    rounding residue is zeroed first.  The slope polynomials' roots come
    from _real_roots, one stacked solve per trimmed length.  Every candidate
    lies on the axis, so a spurious or inexact root of a'b - ab' can only
    lose, never overshoot.
    """
    a, b = _real_product(u, w), _real_product(v, v)
    if w is not u:  # each end of |u|^2 is one square
        # an end a_k within 8 ulps of the sum of its terms' magnitudes
        # |u_i w_(2k-i)| is the residue of terms that cancel
        size = _polymul(np.abs(u), np.abs(w))[:, ::2]
        ends = np.array([(a != 0.0).argmax(axis=1), _lengths(a) - 1]).T
        rows = np.arange(len(a))[:, None]
        a[rows, ends] *= (np.abs(a[rows, ends])
                          > 8.0 * np.finfo(float).eps * size[rows, ends])
    la, lb = _lengths(a), _lengths(b)
    # a'b - ab' has degree deg a + deg b - 1, one less when they are equal; a
    # rounding residue left in that term would add a root near 1/eps
    slope = (_polymul(a[:, 1:] * np.arange(1, a.shape[1]), b)
             - _polymul(a, b[:, 1:] * np.arange(1, b.shape[1])))
    keep = la + lb - 2 - (la == lb)
    slope[np.arange(slope.shape[1]) >= keep[:, None]] = 0.0
    x = _real_roots(slope)
    on_axis = x > 0.0
    jw = 1j * np.sqrt(np.where(on_axis, x, 0.0))
    # every caller passes one array twice, which is evaluated once
    uj = _polyval_rows(u, jw)
    wj = uj if w is u else _polyval_rows(w, jw)
    vj = wj if v is w else _polyval_rows(v, jw)
    fill = -np.inf if maximize else np.inf
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        vals = (uj * np.conj(wj)).real / np.abs(vj) ** 2
        vals = np.where(on_axis & np.isfinite(vals), vals, fill)
        vals = np.concatenate([vals, _ratio_limits(a, b, la, lb)], axis=1)
    ext = vals.max(axis=1) if maximize else vals.min(axis=1)
    # v = 0 is Re 1/G of G = 0
    return np.where(lb == 0, np.inf, np.where(la == 0, 0.0, ext))


def _re_ratio_unbounded(u, v) -> bool:
    """Whether Re u/v is unbounded below on the imaginary axis.

    Near a simple zero j omega_0 of v, Re u/v runs to both infinities unless
    the residue u/v' is real.  With x = omega^2, an m-fold zero is a 2m-fold
    zero of b = |v|^2 at x0 = omega_0^2, and a = Re(u conj v) vanishes there
    to an order k >= m.  So a/b behaves as A (x - x0)^(k - 2m), A of the
    sign of the k-th derivative of a at x0, and is unbounded below when
    2m - k is odd, or even and positive with A < 0.  The eigenvalue solve
    returns an m-fold zero as m roots that are exact for some v perturbed
    by about eps |v|, |v| the polynomial of v's coefficient magnitudes.  So
    the roots near the axis are grouped along it (gaps of 1e-3 relative),
    and a group of m roots at most h from their mean c is tested as one
    m-fold zero at c when h^m |v^(m)(c)|/m! <= MULTIPLE_ZERO_EPS |v|(|c|),
    for m = 2 a spread of about 2 sqrt(eps) relative.  Each group is also
    split at its largest gap and both parts are tested the same way, down
    to single roots: a merged verdict adds the -inf of a multiple zero and
    never takes away that of a simple one, so simple zeros too close to
    tell from a double zero keep their own verdicts.  A zero counts as on
    the axis within STABILITY_MARGIN, where :func:`_stable` refuses it, a
    residue as not real and a derivative of a as zero at 1e-9 (of |a|'s).
    """
    if len(v) < 2:
        return False
    z = _roots(v[None])[0]
    z = z[(z.imag > 0.0) & (np.abs(z.real) <= 1e-3 * np.abs(z))]
    if not z.size:  # the common case; skips the groups
        return False
    z = z[np.argsort(z.imag)]
    a = _real_product(u[None], v[None])[0]
    zeros = np.split(z, np.flatnonzero(np.diff(z.imag) > 1e-3 * z.imag[1:]) + 1)
    while zeros:
        zero = zeros.pop()
        mean, m = zero.mean(), len(zero)
        on_axis = abs(mean.real) <= STABILITY_MARGIN * abs(mean)
        if m == 1:
            r = P.polyval(mean, u) / P.polyval(mean, P.polyder(v))
            if on_axis and abs(r.imag) > 1e-9 * abs(r):
                return True
            continue
        zeros.extend(np.split(zero, [np.argmax(np.diff(zero.imag)) + 1]))
        spread = np.abs(zero - mean).max() ** m / math.factorial(m)
        if not on_axis or (spread * abs(P.polyval(mean, P.polyder(v, m)))
                           > MULTIPLE_ZERO_EPS * P.polyval(abs(mean), np.abs(v))):
            continue
        d, size = ([P.polyval(mean.imag**2, P.polyder(c, k)) for k in range(2 * m)]
                   for c in (a, np.abs(a)))
        k = next((k for k in range(m, 2 * m) if abs(d[k]) > 1e-9 * size[k]), 2 * m)
        if k < 2 * m and ((2 * m - k) % 2 or d[k] < 0.0):
            return True
    return False


def _unit_frequency(p: np.ndarray, q: np.ndarray):
    """Rows of p, q and e in G(omega_s s) = 2^e p/q, one omega_s per row of q.

    omega_s = |q_0/q_n|^(1/n) is the geometric mean of the pole magnitudes
    (1 for a constant q).  Each row is then scaled by a power of two to a
    largest coefficient in [1/2, 1), exactly, so squared gains stay in float
    range and normal-range extrema scaled back by 2^e are unchanged bit for bit.
    """
    w_s = np.abs(q[:, :1] / q[:, -1:]) ** (1.0 / max(q.shape[1] - 1, 1))
    powers = w_s ** np.arange(q.shape[1])  # p is never wider than q
    p, q = p * powers[:, :p.shape[1]], q * powers
    ep = np.frexp(np.abs(p).max(axis=1, keepdims=True))[1]
    eq = np.frexp(np.abs(q).max(axis=1, keepdims=True))[1]
    return np.ldexp(p, -ep), np.ldexp(q, -eq), (ep - eq)[:, 0]


def _stable_den(G: RationalTF, what: str) -> np.ndarray:
    """The coefficient row of G's denominator, which must be stable."""
    if G.den.degree and not is_stable(G.den):
        raise UnstableDenominator(f"{what} requires a stable denominator")
    return np.asarray(G.den.coeffs)[None]


def _padded_num(G: RationalTF) -> np.ndarray:
    """G's numerator coefficients, padded with zeros to the denominator's width."""
    p = np.zeros(G.den.degree + 1)
    p[:G.num.degree + 1] = G.num.coeffs
    return p


def _peak_gain(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """sup_omega |p/q| at s = j omega for each row of q (stable).

    A gain past float range is inf.
    """
    p, q, e = _unit_frequency(p, q)
    with np.errstate(over="ignore"):
        return np.ldexp(np.sqrt(_axis_extremum(p, p, q, maximize=True)), e)


def linf_norm(G: RationalTF) -> float:
    """Peak magnitude sup_omega |G(j omega)| for a stable transfer function.

    Exact up to polynomial-root accuracy: the stationary points of |G|^2 in
    omega^2, plus omega = 0 and omega -> infinity, on G(omega_s s).
    """
    return float(_peak_gain(np.asarray(G.num.coeffs)[None],
                            _stable_den(G, "peak gain"))[0])


def l2gain_to_input_index(beta: float) -> float:
    """Input-index bound -(beta^2 + 1/4) guaranteed by a finite L2 gain."""
    beta = _floats(beta, "L2 gain", ())
    if beta <= 0.0:
        raise NonpositiveGain(f"L2 gain must be positive, got {beta}")
    return -(beta * beta + 0.25)


def _shift_rows(G: RationalTF, lams: np.ndarray) -> np.ndarray:
    """Coefficient rows of q + lam*p, one per entry of the float vector lams.

    A nan or infinite coefficient raises NonFiniteValue, naming the first
    such lam, before any root is taken.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        rows = np.asarray(G.den.coeffs) + lams[:, None] * _padded_num(G)
    if not np.isfinite(rows).all():
        bad = np.flatnonzero(~np.isfinite(rows).all(axis=1))
        raise NonFiniteValue(f"lambda entry {bad[0]} ({lams[bad[0]]}) gives "
                             "q + lambda*p a non-finite coefficient")
    return rows


def loop_mu(G: RationalTF, lam: float) -> float:
    """mu = peak of the stabilized loop p/(q + lam*p) plus 1/4; a peak past
    the float range raises NonFiniteValue."""
    lam = _floats(lam, "lambda", ())
    shifted = RealPolynomial(_shift_rows(G, np.array([lam]))[0])
    if shifted.is_zero:
        raise DegreeDrop(f"q + {lam}*p vanishes identically")
    if shifted.degree != G.den.degree:
        raise DegreeDrop(
            f"q + {lam}*p drops degree from {G.den.degree} to {shifted.degree}"
        )
    try:
        mu = linf_norm(RationalTF(G.num, shifted)) + 0.25
    except UnstableDenominator:
        raise DestabilizingLambda(
            f"q + {lam}*p is not a stable polynomial") from None
    if not math.isfinite(mu):
        raise NonFiniteValue(f"mu = {mu} at lambda = {lam}: the peak gain of "
                             "p/(q + lambda*p) leaves the float range")
    return mu


def eips_indices(G: RationalTF, lam: float) -> PassivityIndices:
    """Equilibrium-independent passivity indices from a stabilizing loop gain.

    With p/q = G and q + lam*p stable of unchanged degree, the peak of the
    stabilized loop p/(q + lam*p) plus 1/4 gives mu, and the index pair is
    rho = -lam(1 + lam*mu)/(1 + 2*lam*mu), nu = -mu/(1 + 2*lam*mu).
    """
    return _indices_from_mu(lam, loop_mu(G, lam))


def _indices_from_mu(lam: float, mu: float) -> PassivityIndices:
    """The EIPS index pair of :func:`eips_indices` from lambda and its mu."""
    denom = 1.0 + 2.0 * lam * mu
    if abs(denom) <= 1e-12:
        raise SingularDenominator1p2lm("1 + 2*lambda*mu vanished")
    try:
        return PassivityIndices(-lam * (1.0 + lam * mu) / denom, -mu / denom)
    except ToolkitError as exc:
        raise type(exc)(f"lambda = {lam}, mu = {mu}: {exc}") from exc


def _grid_mu(G: RationalTF, grid: np.ndarray) -> np.ndarray:
    """loop_mu for every lambda of a float vector in one stacked solve.

    Rows q + lambda*p that drop degree or have a root beyond float range
    are masked out, one stacked root solve screens the rest for stability,
    and the admissible rows share one row-wise extremum; inadmissible
    entries get mu = inf.
    """
    rows = _shift_rows(G, grid)
    col = _companion_column(rows)
    admissible = (rows[:, -1] != 0.0) & np.isfinite(col).all(axis=1)
    admissible[admissible] = _stable(rows[admissible], col[admissible])
    mu = np.full(len(rows), np.inf)
    p = np.asarray(G.num.coeffs)[None]
    mu[admissible] = _peak_gain(p, rows[admissible]) + 0.25
    return mu


def lambda_search(G: RationalTF, grid) -> float:
    """Grid value of lambda minimizing mu among the admissible candidates.

    Admissible means q + lambda*p keeps the denominator degree and is stable.
    The whole grid is scored in one stacked solve (_grid_mu), and ties go
    to the first grid value.  The grid must be a finite 1-D sequence.
    """
    grid = _floats(grid, "lambda grid", (None,))
    mu = _grid_mu(G, grid)
    scored = mu < np.inf  # nan never wins
    if not scored.any():
        raise NoStabilizingLambda("no grid value stabilizes q + lambda*p")
    best = np.argmin(np.where(scored, mu, np.inf))
    return float(grid[best])


def transformed_tf(G: RationalTF, transform) -> RationalTF:
    """Loop-transformed transfer function (c*q + d*p)/(a*q + b*p), exact.

    Follows from u-tilde = (a + b*G)u and y-tilde = (c + d*G)u.  An
    invertible transform adds no common root, so nothing is cancelled: a
    stable common factor of G changes no peak gain or index.
    """
    q, p = np.asarray(G.den.coeffs), _padded_num(G)
    den = RealPolynomial(transform.a * q + transform.b * p)
    num = RealPolynomial(transform.c * q + transform.d * p)
    if den.is_zero:
        raise DegenerateTransformedTF("a*q + b*p vanished identically")
    if num.degree > den.degree:
        raise DegenerateTransformedTF(
            "transformed numerator degree exceeds denominator degree"
        )
    return RationalTF(num, den)


def tf_passivity_indices(G: RationalTF) -> FrequencyIndices:
    """Frequency-domain strict indices of a stable transfer function.

    The input index is the infimum of Re G(j omega), the output index the
    infimum of Re 1/G(j omega), both over omega >= 0 and found exactly like
    the peak gain, in one stacked two-row solve.  Re 1/G is unbounded below
    when the relative degree is two or more, or at some zeros of G on the
    imaginary axis (see _re_ratio_unbounded), and the output index is then
    -inf.  An end coefficient of Re(q conj p) within rounding of its terms
    counts as zero, so a limit whose terms cancel, as x -> infinity for
    (s+0.2)/(s+0.1)^2, reads 0.  Positive values certify input- and
    output-strict passivity.
    """
    p, q, e = _unit_frequency(_padded_num(G)[None], _stable_den(G, "index search"))
    qp = np.concatenate([q, p])
    nu, rho = np.ldexp(_axis_extremum(np.concatenate([p, q]), qp, qp,
                                      maximize=False), [e[0], -e[0]])
    if _re_ratio_unbounded(q[0], p[0, :G.num.degree + 1]):
        rho = -math.inf
    return FrequencyIndices(float(rho), float(nu))
