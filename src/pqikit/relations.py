"""Steady-state I/O relations: transport, integral functions, duals, checks.

A planar relation is a set of (u, y) pairs a system can hold at equilibrium,
stored as samples plus, for a curve, the parameter of each sample.
Relations are transported under 2x2 maps (directly or stage by stage through
an elementary decomposition), integrated into convex potentials, conjugated
by a discrete Legendre transform, and tested for monotonicity and for
maximality, which by Minty's theorem (1962) one pass over a curve decides:
the curve must be a chain in the pairwise order, every later sample at or
up and to the right of every earlier one, so one scan against each axis's
running maximum is the whole maximality check.  Inversion, reversal and a
power of two per axis change none of its flags.  Integration merges ties
in the abscissa with an array mask.  Only a potential whose own samples
earn the convexity certificate is conjugated, exactly: binary searches
over the running maximum and minimum of its cell slopes bracket each
maximizer, one sample wherever the slopes never dip.
Every tolerance is relative to its own operands (an axis's largest
magnitude or range, a curve's nearby steps), never an absolute floor: a
power of two per axis changes no verdict, and a factor per axis none of
monotonicity or of a potential.  A shift of an axis moves its largest
magnitude, so it can change a verdict.
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
# A decrease within this share of its operands' largest magnitude is rounding.
DECREASE_RTOL = 1e-9
# Rounding of a cell slope, per largest |value| over the cell width: 4 ulps.
SLOPE_EPS = 4.0 * np.finfo(float).eps


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

    The band is DECREASE_RTOL of the largest cell slope, plus, where that
    alone fails, the rounding of the two cell slopes involved: SLOPE_EPS of
    the largest value per cell width, so a line summed by trapezoids passes
    on any grid.  A cell slope past float range leaves the potential
    uncertified; a second difference or a band past it is the infinity it
    rounds to, so a bound that overflows on a subnormal cell certifies.
    """
    with np.errstate(over="ignore"):
        slopes = np.diff(values) / h
        if not np.isfinite(slopes).all():
            return False
        second, band = np.diff(slopes), DECREASE_RTOL * np.abs(slopes).max(initial=0.0)
        if np.all(second >= -band):
            return True
        rounding = SLOPE_EPS * np.abs(values).max() / h
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
    z = np.array([rel.y, rel.u] if dec.column_swapped else [rel.u, rel.y])
    for factor in dec.factors():
        z = factor @ z
    return PlanarRelation(z[0], z[1], rel.sigma)


# ---------------------------------------------------------------------------
# Integral functions and Legendre duals

OF_K = "of_k"
OF_K_INVERSE = "of_k_inverse"


@np.errstate(over="ignore", invalid="ignore")
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
    way, and the grid is a copy, never the relation's own array.  Nothing
    is warned: a value past the float range is named by the constructor.
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
        # each term scaled before the sum, so the band is finite wherever v is
        band = 1e-8 * np.abs(v)
        band += band[first] + band.max()
        fold = ~keep & (np.abs(v - vf) > band)
        if fold.any():
            i = int(np.argmax(fold))
            raise MultiValued(
                f"relation folds near abscissa {x[i]}: values {vf[i]} and {v[i]}"
            )
        gx, gv = x[keep], v[keep]
    if len(gx) < 2:
        raise MultiValued("relation reduces to a single abscissa")
    return IntegralFunction(gx, _trapezoid(gx, gv, 0.0, dx))


@np.errstate(over="ignore", invalid="ignore")
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
    every window is the one sample lo, so neither extremum is taken.  As in
    :func:`integral_function`, a value past the float range is named, not warned.
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
    a strictly increasing u is its own sort order, so it is not sorted.  A
    fall of y within DECREASE_RTOL of its largest |y| is rounding.  Strict
    mode also requires a rise of y where u rises past a tie (``TIE_RTOL``).
    """
    u, y = rel.u, rel.y
    du = np.diff(u)
    if not np.all(du > 0.0):
        order = np.lexsort((y, u))
        u, y = u[order], y[order]
        du = np.diff(u)
    dy = np.diff(y)
    if not np.all(dy >= -DECREASE_RTOL * float(np.abs(y).max(initial=0.0))):
        return False
    if strict:
        distinct = du > TIE_RTOL * float(np.abs(u).max(initial=0.0))
        if np.any(dy[distinct] <= 0.0):
            return False
    return True


@dataclass(frozen=True)
class CursivityReport:
    """Outcome of the one-pass cursivity check, one flag per condition."""

    continuous: bool
    diverges: bool
    chain: bool
    notes: tuple[str, ...]

    @property
    def cursive(self) -> bool:
        return self.continuous and self.diverges and self.chain


def _over_range(x: np.ndarray) -> np.ndarray:
    """x over the power of two at or above its range (1 if x is constant)."""
    with np.errstate(over="ignore"):  # a range past the float range is inf
        spread = float(x.max() - x.min())
    return np.ldexp(x, -math.frexp(spread)[1] if math.isfinite(spread) else -1025)


def is_cursive(rel: PlanarRelation) -> CursivityReport:
    """Whether a parameterized curve is a complete nondecreasing chain, in
    one pass over its samples in parameter order.

    By Minty's theorem (Duke Math. J. 1962) a monotone relation on the real
    line is maximal exactly when I + R is onto: when its graph is an
    unbroken nondecreasing curve, unbounded at both ends.  Each axis is
    taken over the power of two at or above its range (so a shift keeps its
    weight and a power of two per axis every flag), and a step's length is
    |du| + |dy|.  Oriented so that s = u + y rises from end to end, the
    curve is a chain when s strictly rises and every later sample lies at
    or up and to the right of every earlier one, within ``DECREASE_RTOL``
    of each axis's largest magnitude: no sample falls that far below its
    axis's running maximum.  A chain is monotone over every pair of its
    samples, and cannot meet itself; any other curve is not decided.
    Swapping the axes or reversing the samples changes no flag.
    It is continuous when no run of one or two steps holds a step over 10
    times each step on both sides of the run (it may steepen at any rate,
    but not leap and settle back), and diverges when each end decile's mean
    step is positive and at least 0.1 of the median.  Each note names the
    first sample where its condition fails, in the curve's own units.
    """
    if rel.sigma is None:
        raise WrongRepresentation("cursivity check needs a parameterized curve")
    n = len(rel.u)
    if n < 2:
        raise WrongRepresentation(
            f"cursivity check needs a curve of 2 or more samples, not {n}")
    u, y = _over_range(rel.u), _over_range(rel.y)
    if u[-1] - u[0] + (y[-1] - y[0]) < 0.0:  # s = u + y falls from end to end
        u, y = -u, -y
    du, dy = np.diff(u), np.diff(y)
    step = np.abs(du) + np.abs(dy)
    # the steps 2 and 1 before and 1 and 2 after each; past an end, unbounded
    pad = np.concatenate(([np.inf, np.inf], step, [np.inf, np.inf]))
    b2, b1, a1, a2 = pad[:-4], pad[1:-3], pad[3:-1], pad[4:]
    # the larger flank of the least flanked run of 1 or 2 steps holding each
    flank = np.minimum(np.minimum(np.maximum(b1, a1), np.maximum(b2, a1)), np.maximum(b1, a2))
    k, mid = max(1, len(step) // 10), len(step) // 2
    ends = np.array([step[:k].mean(), step[-k:].mean()])
    stalls = np.zeros(n, dtype=bool)
    stalls[[0, -1]] = (ends == 0.0) | (ends < 0.1 * np.partition(step, mid)[mid])
    notes: list[str] = []

    def holds(fails, what):
        if fails.any():
            i = int(fails.argmax())
            notes.append(f"{what} at sample {i}, (u, y) = ({rel.u[i]:.6g}, {rel.y[i]:.6g})")
        return not fails.any()

    # step i breaks where s does not rise or sample i + 1 falls below an
    # earlier sample on either axis: below that axis's running maximum
    breaks = du + dy <= 0.0
    for z in (u, y):
        breaks |= z[1:] - np.maximum.accumulate(z)[:-1] < -DECREASE_RTOL * float(np.abs(z).max())
    chain = holds(breaks, "not a chain: the curve turns back or stands still")
    continuous = holds(step > 10.0 * flank, "jump: a step over 10x the steps around it starts")
    diverges = holds(stalls, "stalls: an end decile moves under 0.1 of the median step, the end")
    return CursivityReport(continuous, diverges, chain, tuple(notes))


def is_maximal_monotone(rel: PlanarRelation) -> bool:
    """Whether the curve is cursive (:func:`is_cursive`): its chain is
    monotone over every pair of samples, so by Minty's theorem it is
    maximal, I + R being onto.  That one scan is the whole check, and it
    reads the same on the relation, its inverse and its reversal; a point
    list raises WrongRepresentation."""
    return is_cursive(rel).cursive
