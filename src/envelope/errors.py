"""Exception family shared across the package."""

from __future__ import annotations


class EnvelopeError(Exception):
    """Base class for every error raised by this package."""


class ParseError(EnvelopeError):
    """Expression text violates the grammar or names an unknown identifier."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class PoleProximityError(EnvelopeError):
    """Evaluation was requested too close to a pole of the expression."""


class PoleFindingError(EnvelopeError):
    """The pole census refused: an order bound or divisor degree past its
    cap, a zero divisor or one it cannot factor, or a hole past the cap."""


class GeometryError(EnvelopeError):
    """Invalid or degenerate geometric input."""


class PointOnPathError(GeometryError):
    """Winding number requested for a point lying on (or nearly on) the path."""


class WindingResidualError(GeometryError):
    """Accumulated argument failed to land near an integer multiple of 2*pi."""


class QuadratureBudgetError(EnvelopeError):
    """Adaptive refinement exhausted its panel budget; the integrand is
    effectively non-integrable at the requested tolerance."""


class NonFiniteIntegrandError(EnvelopeError):
    """An integrand is infinite or NaN on the first panels of a path, or its
    values there overflow the float range, so no refinement can converge."""


class ScaleOverflowError(EnvelopeError):
    """The zero-test scale of some degree, base * reach^k, leaves the float
    range, so no value of that degree could be told from zero."""


class ExtensionPreconditionError(EnvelopeError):
    """Extension evaluation refused: some basis moment is nonzero, so no
    holomorphic extension to the envelope exists."""


class CurveDataError(EnvelopeError):
    """Sampled boundary data is malformed or too coarse for the request."""


class PoleInDomainError(EnvelopeError, ValueError):
    """The expression has a pole inside the domain, where it was promised
    holomorphic."""
