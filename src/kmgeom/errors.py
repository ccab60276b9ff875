"""Exception hierarchy for the geometry engine.

Every designated failure mode of an operation raises a dedicated subclass of
:class:`GeometryError`, so callers (and the CLI) can distinguish "the input is
not a Lie algebra" from "this construction is undefined for your invariant".
Each failure mode has one class: a structure of the wrong kind is a
:class:`DimensionMismatch` and one in the Sasakian band a :class:`SasakianDegenerate`,
whichever operation finds it.  A check that no valid input can fail, one where the
engine disagrees with its own fit, raises :class:`InternalInconsistency`.

Each class has one contract in the CLI: a construction's designated error, whatever
its class, is that construction's ``{"error": reason}`` row; README's error contract
table gives, for each class, the input that reaches it and its exit code or row.
"""


class GeometryError(Exception):
    """Base class for all engine errors."""


class DimensionMismatch(GeometryError):
    """Operands do not match the model dimension, or have a NaN or infinite entry, or a
    structure is of the wrong kind: a stack mixing kinds or contact forms, or a
    paracontact structure given to an operation on contact structures."""


class ModelFormatError(GeometryError):
    """A model file could not be parsed into a valid description."""


class DegenerateMetric(GeometryError):
    """Metric singular to the one scale-free rank test (its smallest singular value not
    above tol times its largest); no Levi-Civita connection."""


class NotNullity(GeometryError):
    """Structure is valid but the curvature does not satisfy a nullity condition."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


class SasakianDegenerate(GeometryError):
    """Operation requires a non-Sasakian structure, and this one is in the Sasakian band
    (kappa >= 1 - tol, or mu indeterminate), where the Boeckx invariant is undefined; or
    its h lacks the +-lambda eigenspaces of multiplicity n that such a structure has."""


class DegenerateInvariant(GeometryError):
    """Class IV or V (|I_M| within tol of 1): no tower node 2 exists."""


class InvariantTooSmall(GeometryError):
    """Operation requires class I or III (|I_M| > 1)."""


class InvalidPangPair(GeometryError):
    """Pang coefficients (a, b) half given, not of the sign of I_M, or generating
    constants beyond the float range or an invariant within [-1, 1]."""


class NotTransversal(GeometryError):
    """The two Legendre distributions together with the Reeb field do not span."""


class DegeneratePang(GeometryError):
    """Pang form is singular; the Libermann map is undefined."""


class ClassificationMismatch(GeometryError):
    """Pang-based and invariant-based class tags disagree."""


class InternalInconsistency(GeometryError):
    """Two independent computations of the same predicate disagree (engine bug signal):
    a derived structure fails its own checks, or an h-eigendistribution of a structure
    that passed the nullity fit and the non-Sasakian guard is not involutive, although
    D(+-lambda) of a non-Sasakian (kappa, mu)-space are (Blair, Koufogiorgos and
    Papantoniou, Israel J. Math. 91, 1995)."""


class NonPositiveLambda(GeometryError):
    """Family constructor requires lambda > 0."""
