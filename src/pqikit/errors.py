"""Exception hierarchy for the toolkit.

Every error raised by the library derives from :class:`ToolkitError` so that
callers (and the CLI) can catch the whole family with one handler.
:func:`_floats` is the one reader of numbers handed in from outside.
"""

import math

import numpy as np


class ToolkitError(Exception):
    """Base class for all toolkit errors."""


class TrivialPQI(ToolkitError):
    """The quadratic inequality has no interior (discriminant <= tolerance)."""


class SingularTransform(ToolkitError):
    """A 2x2 transform is not invertible within tolerance."""


class NoStorageFunction(ToolkitError):
    """A dissipation certificate was requested without a storage candidate."""


class MultiValued(ToolkitError):
    """Relation folds in the requested direction; no integral function."""


class WrongRepresentation(ToolkitError):
    """A curve-only operation got a relation without a curve parameter."""


class DegenerateDegree(ToolkitError):
    """Polynomial degree too low for the requested test."""


class UnstableDenominator(ToolkitError):
    """Transfer-function denominator is not Hurwitz."""


class DestabilizingLambda(ToolkitError):
    """q + lambda*p is not a stable polynomial."""


class DegreeDrop(ToolkitError):
    """q + lambda*p lost degree (leading coefficient cancelled)."""


class SingularDenominator1p2lm(ToolkitError):
    """1 + 2*lambda*mu vanished; index formulas undefined."""


class DegenerateTransformedTF(ToolkitError):
    """Loop-transformed transfer function degenerated (a*q + b*p == 0)."""


class ImproperTF(ToolkitError, ValueError):
    """A transfer function's denominator is zero or of lower degree than its
    numerator; the message gives the degrees."""


class NoStabilizingLambda(ToolkitError):
    """No grid value of lambda stabilizes q + lambda*p."""


class NonFiniteState(ToolkitError):
    """Simulation state became non-finite (blow-up)."""


class DimensionMismatch(ToolkitError):
    """Inconsistent dimensions in a network specification."""


class InvalidSpec(ToolkitError, ValueError):
    """A network spec, one of its agents or a setting is malformed; the
    message says where.

    Raised for JSON specs with a missing or ill-typed entry (named by its JSON
    path), for agents whose ``f``/``h`` cannot evaluate on numpy arrays
    (named by vertex and callable), and for a setting outside its allowed
    values (a negative step, an unknown direction, an all-zero PQI).
    """


class NonConvexCertificate(ToolkitError):
    """An integral function lacks the convexity certificate required here."""


class NoConvergence(ToolkitError):
    """An iterative solve ended above its bound: out of steps, stalled or non-finite."""


class PreconditionFailed(ToolkitError):
    """A condition required for steady-state prediction, or for a dissipation
    certificate (a forced equilibrium to check against), does not hold; this
    includes a network with no steady state, refused before any solve with
    the component of vertices and the sums of its relations' inf u and sup u."""


class InvalidSamples(ToolkitError, ValueError):
    """A relation or potential has no samples, or a potential's grid does not
    strictly increase; the message names which, and the first sample that
    steps back."""


class NonFiniteValue(ToolkitError, ValueError):
    """A coefficient or grid value is not a finite number (nan, infinite, or
    not a number at all); the message says which."""


def _floats(value, what: str, shape: tuple | None) -> np.ndarray | float:
    """``value`` read as finite floats of ``shape``: a float for ``()``, else
    an array; ``(None,)`` is a vector of any length (a number is one entry),
    ``None`` any shape (a float stays a float).  A value numpy cannot read (a
    ragged list, a word, an integer past the float range) raises
    NonFiniteValue with numpy's reason, another
    shape DimensionMismatch, and a nan or infinite entry NonFiniteValue naming
    the first one's index and value; each message starts with ``what``.
    """
    if shape in ((), None) and isinstance(value, float) and math.isfinite(value):
        return float(value)  # a float skips numpy, about 2 µs a call
    try:
        a = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise NonFiniteValue(f"{what} cannot be read as floats: {exc}") from None
    vector = shape == (None,)
    if vector:
        a = np.atleast_1d(a)
    if shape is not None and a.shape != (a.shape[:1] if vector else shape):
        want = {(None,): "1-D", (): "a number", (2, 2): "2x2"}[shape]
        raise DimensionMismatch(f"{what} must be {want}, not of shape {a.shape}")
    finite = np.isfinite(a).ravel()
    if np.count_nonzero(finite) < finite.size:  # cheaper than finite.all()
        i = np.unravel_index(np.argmin(finite), a.shape)
        at = f"[{', '.join(map(str, i))}]" if i else ""
        raise NonFiniteValue(f"{what}{at} = {a[i]} is not finite")
    return float(a) if shape == () else a
