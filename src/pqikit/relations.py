"""Steady-state I/O relations: transport, integral functions, duals, checks.

A planar relation is a set of (u, y) pairs a system can hold at equilibrium,
stored as samples plus, for a curve, the parameter of each sample.
Relations are transported under 2x2 maps (directly or stage by stage through
an elementary decomposition), integrated into convex potentials, conjugated
by a discrete Legendre transform, and tested for monotonicity and for the
numeric surrogate of cursivity that underpins the maximality check.
Integration merges ties in the abscissa with an array mask.  Only a
potential whose own samples earn the convexity certificate is conjugated,
exactly: binary searches over the running maximum and minimum of its cell
slopes bracket each maximizer, one sample wherever the slopes never dip.
Near self-intersections of a chain, a curve whose every axis is monotone
along the parameter, are decided by the pairs just beyond the parameter
gap, one pass.  On any other curve they are found by one sort of the
samples into square grid cells, small enough that a crowded cell proves
one by pigeonhole; otherwise only pairs of neighbour cells are measured.
Every tolerance is relative to the size of its own operands (an axis's
largest magnitude, a curve's median sample norm), never an absolute floor,
so rescaling u and y by one positive factor changes no verdict.  A factor
per axis changes none of the monotonicity and potential verdicts, but
cursivity measures Euclidean lengths, which it changes.
Everything here is numpy alone.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (DimensionMismatch, InvalidSamples, InvalidSpec, MultiValued,
                     NonConvexCertificate, WrongRepresentation, _floats)

DEFAULT_GRID_POINTS = 4001
# Relative gap below which integral_function merges adjacent abscissae.
TIE_RTOL = 1e-12


def _write_csv(path, header, columns) -> None:
    """CSV of the columns side by side under ``header``, cells repr(float).

    No float repr needs quoting, so each row is joined by hand into the
    bytes ``csv.writer`` would write for it.
    """
    rows = np.column_stack(columns).astype(float).tolist()
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        fh.writelines(",".join(map(repr, row)) + "\r\n" for row in rows)


def _trapezoid(x, v, first: float, dx=None) -> np.ndarray:
    """Trapezoid-rule integral of the samples v over x, from ``first`` at x[0],
    summed in place in the result; ``dx`` is np.diff(x) where the caller has it."""
    out = np.empty(len(x))
    out[0], tail = first, out[1:]
    np.multiply(0.5, np.diff(x) if dx is None else dx, out=tail)
    tail *= v[:-1] + v[1:]
    np.add(np.cumsum(tail, out=tail), first, out=tail)
    return out


def _map_samples(f: Callable, x: np.ndarray, what: str) -> np.ndarray:
    """f(x) read as finite floats, a number standing for every sample of x;
    unwarned, so the reader names the first sample a map made non-finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        v = _floats(f(x), what, (None,))
    if len(v) not in (1, len(x)):
        raise DimensionMismatch(f"{what} must be 1 or {len(x)} numbers, not {len(v)}")
    return v * np.ones_like(x)


@dataclass(frozen=True)
class PlanarRelation:
    """Planar relation: samples (u, y), a curve exactly when ``sigma`` is set.

    ``sigma`` is the curve parameter of each sample; a point list has none.
    The samples are stored as 1-D float arrays of one length, every one finite.
    """

    u: np.ndarray
    y: np.ndarray
    sigma: np.ndarray | None = None

    def __post_init__(self):
        names = ("u", "y") + (() if self.sigma is None else ("sigma",))
        for name in names:
            object.__setattr__(self, name, _floats(getattr(self, name),
                                                   f"relation {name}", (None,)))
        shapes = [getattr(self, name).shape for name in names]
        if len(set(shapes)) > 1:
            raise DimensionMismatch(f"relation {', '.join(names)} must be 1-D of one "
                                    f"length, not of shapes {', '.join(map(str, shapes))}")

    @classmethod
    def from_param_curve(
        cls,
        u_of_sigma: Callable,
        y_of_sigma: Callable,
        sigma_range: tuple[float, float],
        n: int = DEFAULT_GRID_POINTS,
    ) -> "PlanarRelation":
        sigma = np.linspace(sigma_range[0], sigma_range[1], n)
        return cls(_map_samples(u_of_sigma, sigma, "relation u"),
                   _map_samples(y_of_sigma, sigma, "relation y"), sigma)

    @classmethod
    def from_points(cls, u, y) -> "PlanarRelation":
        pts = np.unique(cls(u, y).points, axis=0)
        return cls(pts[:, 0], pts[:, 1])

    @property
    def points(self) -> np.ndarray:
        return np.column_stack([self.u, self.y])

    def inverse(self) -> "PlanarRelation":
        """Swap the roles of input and output (an involution)."""
        sigma = None if self.sigma is None else self.sigma.copy()
        return PlanarRelation(self.y.copy(), self.u.copy(), sigma)

    # -- serialization ----------------------------------------------------
    def to_csv(self, path) -> None:
        """Columns sigma, u, y; a point list's sigma is the sample index."""
        sig = self.sigma if self.sigma is not None else np.arange(len(self.u))
        _write_csv(path, ["sigma", "u", "y"], [sig, self.u, self.y])


@dataclass(frozen=True)
class IntegralFunction:
    """Sampled potential: strictly increasing grid plus accumulated values,
    every sample finite; the samples decide ``convexity_certificate``."""

    grid: np.ndarray
    values: np.ndarray
    convexity_certificate: bool = field(init=False)

    def __post_init__(self):
        x = _floats(self.grid, "integral-function grid", (None,))
        v = _floats(self.values, "integral-function values", (None,))
        object.__setattr__(self, "grid", x)
        object.__setattr__(self, "values", v)
        if x.shape != v.shape:
            raise DimensionMismatch(f"integral-function grid and values must be 1-D of "
                                    f"one length, not {x.shape} and {v.shape}")
        h = np.diff(x)
        if not np.all(h > 0):
            i = int(np.argmin(h > 0)) + 1
            raise InvalidSamples(f"integral-function grid must be strictly increasing, "
                                 f"not abscissa {x[i]} at sample {i} after {x[i - 1]}")
        object.__setattr__(self, "convexity_certificate", _convex_certificate(h, v))

    def __call__(self, x):
        return np.interp(x, self.grid, self.values)

    @classmethod
    def from_function(cls, f: Callable, grid) -> "IntegralFunction":
        grid = _floats(grid, "integral-function grid", (None,))
        return cls(grid, _map_samples(f, grid, "integral-function values"))

    def to_csv(self, path) -> None:
        _write_csv(path, ["x", "value"], [self.grid, self.values])


def _convex_certificate(h: np.ndarray, values: np.ndarray) -> bool:
    """Nonnegative second differences over cells of widths h, band relative to the slopes.

    The band is 1e-9 of the largest cell slope, plus, where that alone
    fails, the rounding of the two cell slopes involved: 4 ulps of the
    largest value per cell width, so a line summed by trapezoids passes
    on any grid.  A cell slope past float range leaves the potential
    uncertified; a second difference or a band past it is the infinity it
    rounds to, so a bound that overflows on a subnormal cell certifies.
    """
    if len(h) < 2:
        return True
    with np.errstate(over="ignore"):
        slopes = np.diff(values) / h
        if not np.isfinite(slopes).all():
            return False
        second, band = np.diff(slopes), 1e-9 * np.abs(slopes).max()
        if np.all(second >= -band):
            return True
        rounding = 4.0 * np.finfo(float).eps * np.abs(values).max() / h
        return bool(np.all(second >= -(band + rounding[:-1] + rounding[1:])))


# ---------------------------------------------------------------------------
# Transport


def transform_relation(rel: PlanarRelation, transform) -> PlanarRelation:
    """Pointwise image of the relation under an invertible 2x2 map."""
    ut, yt = transform(rel.u, rel.y)
    return PlanarRelation(ut, yt, rel.sigma)


def compose_via_stages(rel: PlanarRelation, dec) -> PlanarRelation:
    """Apply the four elementary factors one at a time.

    Stage order is output feedback, post-gain, input feedthrough, pre-gain
    (after an optional column swap); the composite must agree with the direct
    single-map transport, which the test suite uses as a consistency oracle.
    """
    z = rel.points.T.copy()
    if dec.column_swapped:
        z = z[::-1]
    for factor in dec.factors():
        z = factor @ z
    return PlanarRelation(z[0], z[1],
                          sigma=None if rel.sigma is None else rel.sigma.copy())


# ---------------------------------------------------------------------------
# Integral functions and Legendre duals

OF_K = "of_k"
OF_K_INVERSE = "of_k_inverse"


def integral_function(rel: PlanarRelation, direction: str = OF_K) -> IntegralFunction:
    """Cumulative-trapezoid potential of the relation in one direction.

    ``of_k`` integrates y as a function of u; ``of_k_inverse`` integrates u
    as a function of y.  The relation must be single-valued in the chosen
    direction: runs of abscissae each within ``TIE_RTOL`` (relative) of the
    previous one are merged into their first sample, genuine folds raise.
    Values are anchored to zero at the left end of the grid.

    Steps are skipped where they are identities.  Abscissae that step up
    past the tie gap are a monotone curve with no tie and no fold, so
    neither check runs; strictly increasing ones are their own stable sort
    order, so they are not sorted.  The result is the same bits either
    way, and the grid is a copy, never the relation's own array.
    """
    if direction == OF_K:
        x, v = rel.u, rel.y
    elif direction == OF_K_INVERSE:
        x, v = rel.y, rel.u
    else:
        raise InvalidSpec(f"unknown direction {direction!r}")
    if not len(x):
        raise InvalidSamples(f"integral_function ({direction}): the relation has no samples")
    dx = np.diff(x)
    slack = TIE_RTOL * float(np.abs(x).max())
    keep = dx > slack
    if not keep.all():
        # a curve is single-valued in this direction iff the abscissa is
        # monotone along the parameter
        if rel.sigma is not None and not (np.all(dx >= -slack) or np.all(dx <= slack)):
            raise MultiValued("curve abscissa is not monotone in the parameter")
        if not np.all(dx > 0):
            order = np.argsort(x, kind="stable")
            x, v = x[order], v[order]
            dx = np.diff(x)
            keep = dx > slack
    if keep.all():
        gx, gv = x.copy(), v
    else:
        dx = None
        keep = np.concatenate(([True], keep))
        # each sample is compared with the first sample of its tie run
        first = np.maximum.accumulate(np.where(keep, np.arange(len(x)), 0))
        vf = v[first]
        band = 1e-8 * (np.abs(v) + np.abs(vf) + float(np.abs(v).max()))
        fold = ~keep & (np.abs(v - vf) > band)
        if fold.any():
            i = int(np.argmax(fold))
            raise MultiValued(
                f"relation folds near abscissa {x[i]}: values {vf[i]} and {v[i]}"
            )
        gx, gv = x[keep], v[keep]
    if len(gx) < 2:
        raise MultiValued("relation reduces to a single abscissa")
    # unwarned: the constructor names the first value past the float range
    with np.errstate(over="ignore", invalid="ignore"):
        values = _trapezoid(gx, gv, 0.0, dx)
    return IntegralFunction(gx, values)


def legendre(F: IntegralFunction, dual_grid) -> IntegralFunction:
    """Discrete Legendre transform F*(y) = max_i (y*x_i - F(x_i)) of a convex F,
    at each y of ``dual_grid``.

    F must carry the convexity certificate, else NonConvexCertificate.  The
    term y*x_i - F(x_i) rises from sample i to i + 1 exactly when y exceeds
    cell slope i, so it rises up to the first sample whose running maximum
    slope reaches y and falls from the first whose running minimum of the
    slopes onward does; the best sample between is the maximizer (more than
    one sample only for a y inside the slope band of a dip).  Windows are
    maximized in batches, so that they take O(len(grid) + len(dual_grid))
    memory however much they overlap.  Cell slopes that never decrease are
    their own running maximum (numpy keeps the later of equal values) and
    every window is the one sample lo, so neither extremum is taken.
    """
    if not len(F.grid):
        raise InvalidSamples("legendre: the potential has no samples")
    if not F.convexity_certificate:
        raise NonConvexCertificate(
            "legendre: potential failed the convexity certificate")
    ys = _floats(dual_grid, "legendre: dual grid", (None,))
    x, v = F.grid, F.values
    slopes = np.diff(v) / np.diff(x)
    rising = np.all(slopes[1:] >= slopes[:-1])
    lo = np.searchsorted(slopes if rising else np.maximum.accumulate(slopes), ys)
    vals = ys * x[lo] - v[lo]
    if rising:  # the least slope from lo on is slope lo, never below y
        return IntegralFunction(ys, vals)
    # a window is wider than one sample where the least slope from lo on is below y
    falling = np.minimum.accumulate(np.r_[slopes, np.inf][::-1])[::-1]
    w = np.flatnonzero(falling[lo] < ys)
    lo, width = lo[w], np.searchsorted(falling, ys[w]) - lo[w] + 1
    # batches of whole windows, each ending where the summed width passes k·2**20
    end = np.cumsum(width)
    cuts = np.searchsorted(end, np.arange(2**20, end[-1:].sum(), 2**20)) + 1
    for b in map(slice, np.r_[0, cuts], np.r_[cuts, len(w)]):
        start = np.cumsum(width[b]) - width[b]
        j = np.arange(width[b].sum()) - np.repeat(start - lo[b], width[b])
        vals[w[b]] = np.maximum.reduceat(np.repeat(ys[w[b]], width[b]) * x[j] - v[j], start)
    return IntegralFunction(ys, vals)


# ---------------------------------------------------------------------------
# Monotonicity and cursivity


def is_monotone(rel: PlanarRelation, strict: bool = False) -> bool:
    """Increment test (u2-u1)(y2-y1) >= 0 over all sample pairs.

    Sorting by input reduces the pairwise check to adjacent comparisons;
    a strictly increasing u is its own sort order, so it is not sorted.
    Strict mode additionally requires a positive product whenever the inputs
    differ.
    """
    u, y = rel.u, rel.y
    du = np.diff(u)
    if not np.all(du > 0.0):
        order = np.lexsort((y, u))
        u, y = u[order], y[order]
        du = np.diff(u)
    dy = np.diff(y)
    if not np.all(dy >= -1e-9 * float(np.abs(y).max(initial=0.0))):
        return False
    if strict:
        distinct = du > 1e-12 * float(np.abs(u).max(initial=0.0))
        if np.any(dy[distinct] <= 0.0):
            return False
    return True


@dataclass(frozen=True)
class CursivityReport:
    """Outcome of the numeric cursivity surrogate, one flag per condition."""

    continuous: bool
    diverges: bool
    no_self_intersection: bool
    notes: tuple[str, ...]

    @property
    def cursive(self) -> bool:
        return self.continuous and self.diverges and self.no_self_intersection


def _ends_grow(norms: np.ndarray) -> bool:
    """Norms trend upward over the final decile of the parameter range."""
    n = len(norms)
    dec = norms[max(0, n - max(2, n // 10)):]
    checkpoints = dec[np.linspace(0, len(dec) - 1, min(10, len(dec))).astype(int)]
    slack = 1e-9 * float(checkpoints.max())
    return bool(np.all(np.diff(checkpoints) >= -slack))


def _norm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Lengths of the vectors (a, b), sqrt(a*a + b*b): of two columns,
    np.linalg.norm(..., axis=1) sums the squares in one add, so these are
    its bits."""
    return np.sqrt(a * a + b * b)


def _median(x: np.ndarray) -> float:
    """np.median of x, which holds neither nan nor -0.0, as no length does:
    the middle order statistic, or the mean (lo + hi)/2 of the two middle
    ones, from one partition."""
    k = len(x) // 2
    if len(x) % 2:
        return float(np.partition(x, k)[k])
    lo, hi = np.partition(x, (k - 1, k))[k - 1:k + 1]
    return float((lo + hi) / 2.0)


def is_cursive(rel: PlanarRelation) -> CursivityReport:
    """Numeric surrogate for the cursive property of a parameterized curve.

    Checks three finite-grid stand-ins: adjacent images stay within a
    Lipschitz-consistent bound (continuity), the point norm escapes past a
    multiple of its median at both parameter ends with monotone growth over
    the end decile (divergence), and no two parameter-distant samples nearly
    coincide within the median segment length, more than 20 samples apart
    (self-intersection measure: on a chain, whose every axis is monotone
    along the parameter, one pass over the pairs 21 apart, otherwise one
    sort into grid cells; see :func:`_no_near_self_intersection`).  Both
    segment scales are floored at 1e-6 of the median sample norm (of the
    largest if the median is zero).
    Lengths and medians are taken on the u and y columns, with the bits of
    np.linalg.norm and np.median (:func:`_norm`, :func:`_median`), over the
    power of two of their largest magnitude.  The division is exact, so a
    curve whose squared coordinates and steps stay in the float range keeps
    its report bit for bit, and no curve's norms or cells leave that range
    (a nonzero norm is at least sqrt(5e-324), so the radius and the cell
    side are 0 or normal).  The notes give lengths in the curve's own units.
    These support but cannot prove the limit properties; the report says
    which passed.
    """
    if rel.sigma is None:
        raise WrongRepresentation("cursivity check needs a parameterized curve")
    if len(rel.u) < 2:
        raise WrongRepresentation(
            f"cursivity check needs a curve of 2 or more samples, not {len(rel.u)}")
    e = math.frexp(max(np.abs(rel.u).max(), np.abs(rel.y).max()))[1]
    u, y = np.ldexp(rel.u, -e), np.ldexp(rel.y, -e)
    notes: list[str] = []
    norms = _norm(u, y)
    med = _median(norms)
    # of the segment scales, from the curve's own size: its median norm, or
    # its largest where more than half the samples sit at the origin
    floor = 1e-6 * (med or float(norms.max()))
    du, dy = np.diff(u), np.diff(y)
    seg = _norm(du, dy)
    med_seg = _median(seg)
    continuous = bool(seg.max() <= max(10.0 * med_seg, floor))
    if not continuous:
        notes.append("jump: a grid segment exceeds 10x the median segment length")

    threshold = 1.5 * med
    diverges = (
        norms[0] > threshold
        and norms[-1] > threshold
        and _ends_grow(norms)
        and _ends_grow(norms[::-1])
    )
    if not diverges:
        with np.errstate(over="ignore"):  # a length past the float range is inf
            first, last, bound = np.ldexp([norms[0], norms[-1], threshold], e)
        notes.append(
            f"divergence surrogate failed: end norms ({first:.3g}, "
            f"{last:.3g}) vs threshold {bound:.3g}"
        )

    no_self_intersection = _no_near_self_intersection(
        u, y, du, dy, max(med_seg, floor), 20)
    if not no_self_intersection:
        notes.append("near self-intersection: parameter-distant samples coincide")

    return CursivityReport(continuous, bool(diverges), no_self_intersection,
                           tuple(notes))


def _no_near_self_intersection(u: np.ndarray, y: np.ndarray, du: np.ndarray,
                               dy: np.ndarray, radius: float, gap: int) -> bool:
    """No two samples (u, y) more than ``gap`` steps apart lie within ``radius``.

    ``du`` and ``dy`` are the steps np.diff(u) and np.diff(y).  A chain,
    whose every axis is monotone along the index, takes an exact O(n)
    pass.  For i < j < k on a chain |x_k - x_i| >= |x_j - x_i| in each
    axis, and rounding keeps that order: a rounded difference, square, sum
    and square root never decrease as their operands grow.  So the measured
    distance from sample i never decreases along the chain, and the pair
    (i, i + gap + 1) is the nearest of i's distant pairs.

    Any other curve is sorted by the square cell of the plane its samples
    fall in.  The side is a power of two, so a cell's bounds are exact, and
    below radius/1.5: any two samples of one cell lie within the radius, and
    the cell proves an intersection as soon as its sample indices span more
    than ``gap`` (one holding more than gap + 1 samples always does; an
    exact repeat shares its cell).  Otherwise each cell holds at most
    gap + 1 samples, and each sample is measured only against the samples
    of the cells after its own within ``reach`` cells in both directions,
    so the candidate count stays linear in the samples.
    """
    if ((np.all(du >= 0.0) or np.all(du <= 0.0))
            and (np.all(dy >= 0.0) or np.all(dy <= 0.0))):
        d = _norm(u[gap + 1:] - u[:-gap - 1], y[gap + 1:] - y[:-gap - 1])
        return not bool(np.any(d < radius))
    m, e = np.frexp(radius)
    side = np.ldexp(1.0, int(e) - (1 if m >= 0.75 else 2))  # radius/side in [1.5, 3)
    # a margin over the radius, so that no pair whose rounded distance
    # falls below it lies out of reach
    reach = int(radius * (1.0 + 1e-6) / side) + 1
    # cell coordinates with gaps wider than the reach closed up to it,
    # which keeps every neighbourhood and bounds the key below n^2 * 16
    col, row = (_close_gaps(np.floor(c / side), reach) for c in (u, y))
    width = int(row.max()) + 2 * reach + 1
    key = col * width + row + reach
    order = np.argsort(key, kind="stable")  # indices ascend within a cell
    key = key[order]
    start = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    end = np.r_[start[1:], len(key)]
    if np.any(order[end - 1] - order[start] > gap):
        return False
    # the cells after a sample's own, column by column: rows above it in
    # its own column, rows within the reach in the next ``reach`` columns
    lo = np.concatenate([np.searchsorted(key, key + a * width - (reach if a else -1))
                         for a in range(reach + 1)])
    hi = np.concatenate([np.searchsorted(key, key + a * width + reach, "right")
                         for a in range(reach + 1)])
    count = hi - lo
    i = order[np.repeat(np.tile(np.arange(len(key)), reach + 1), count)]
    j = order[np.repeat(lo - np.cumsum(count) + count, count) + np.arange(count.sum())]
    far = np.abs(i - j) > gap
    i, j = i[far], j[far]
    return not bool(np.any(_norm(u[i] - u[j], y[i] - y[j]) < radius))


def _close_gaps(c: np.ndarray, reach: int) -> np.ndarray:
    """Integer ranks of c with every gap between distinct values cut to reach + 1."""
    values, inverse = np.unique(c, return_inverse=True)
    steps = np.minimum(np.diff(values), reach + 1).astype(np.int64)
    return np.r_[0, np.cumsum(steps)][inverse]


def is_maximal_monotone(rel: PlanarRelation) -> bool:
    """Monotone and (numerically) cursive; the operational maximality test."""
    return is_monotone(rel) and is_cursive(rel).cursive
