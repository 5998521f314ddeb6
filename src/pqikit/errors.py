"""Exception hierarchy for the toolkit.

Every error raised by the library derives from :class:`ToolkitError` so that
callers (and the CLI) can catch the whole family with one handler.
"""


class ToolkitError(Exception):
    """Base class for all toolkit errors."""


class TrivialPQI(ToolkitError):
    """The quadratic inequality has no interior (discriminant <= tolerance)."""


class SingularTransform(ToolkitError):
    """A 2x2 transform is not invertible within tolerance."""


class DegenerateRays(ToolkitError):
    """Boundary ray matrix is singular; cone construction impossible."""


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


class NonpositiveGain(ToolkitError):
    """An L2 gain must be strictly positive."""


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
    """A network spec or one of its agents is malformed; the message says where.

    Raised for JSON specs with a missing or ill-typed entry (named by its JSON
    path) and for agents whose ``f``/``h`` cannot evaluate on numpy arrays
    (named by vertex and callable).
    """


class NonConvexCertificate(ToolkitError):
    """An integral function lacks the convexity certificate required here."""


class NoConvergence(ToolkitError):
    """An iterative solve ended above its bound: out of steps, stalled or non-finite."""


class PreconditionFailed(ToolkitError):
    """A condition required for steady-state prediction, or for a dissipation
    certificate (a forced equilibrium to check against), does not hold."""


class InvalidSamples(ToolkitError, ValueError):
    """A relation or potential has no samples, or a potential's grid does not
    strictly increase; the message names which, and the first sample that
    steps back."""


class NonFiniteValue(ToolkitError, ValueError):
    """A coefficient or grid value is nan or infinite; the message says which."""
