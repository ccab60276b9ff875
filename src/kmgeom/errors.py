"""Exception hierarchy for the geometry engine.

Every designated failure mode of an operation raises a dedicated subclass of
:class:`GeometryError`, so callers (and the CLI) can distinguish "the input is
not a Lie algebra" from "this construction is undefined for your invariant".
"""


class GeometryError(Exception):
    """Base class for all engine errors."""


class DimensionMismatch(GeometryError):
    """Operands do not match the model dimension."""


class ModelFormatError(GeometryError):
    """A model file could not be parsed into a valid description."""


class DegenerateMetric(GeometryError):
    """Metric determinant below tolerance; no Levi-Civita connection."""


class NotNullity(GeometryError):
    """Structure is valid but the curvature does not satisfy a nullity condition."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


class SasakianOrInvalid(GeometryError):
    """kappa >= 1: the Boeckx invariant is undefined."""


class SasakianDegenerate(GeometryError):
    """Operation requires a non-Sasakian structure: the fit is outside the Sasakian
    band (kappa < 1 - tol, mu determined)."""


class DegenerateInvariant(GeometryError):
    """Class IV or V (|I_M| within tol of 1): no tower node 2 exists."""


class InvariantTooSmall(GeometryError):
    """Operation requires class I or III (|I_M| > 1)."""


class InvalidPangPair(GeometryError):
    """Pang coefficients (a, b) half given, or not of the sign of I_M."""


class NotTransversal(GeometryError):
    """The two Legendre distributions together with the Reeb field do not span."""


class DegeneratePang(GeometryError):
    """Pang form is singular; the Libermann map is undefined."""


class NotIntegrable(GeometryError):
    """Induced paracontact structure fails integrability; connection coincidence inapplicable."""


class ClassificationMismatch(GeometryError):
    """Pang-based and invariant-based class tags disagree."""


class InternalInconsistency(GeometryError):
    """Two independent computations of the same predicate disagree (engine bug signal)."""


class NonPositiveLambda(GeometryError):
    """Family constructor requires lambda > 0."""
