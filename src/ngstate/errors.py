"""Exception types shared across the package.

Everything raised on purpose derives from NgStateError so callers can
catch the library's own complaints without swallowing genuine bugs.
"""


class NgStateError(Exception):
    """Base class for all errors raised by this package."""


class HeisenbergViolation(NgStateError):
    """Measured second moments violate F*K - R**2 >= 1/4."""


class NonPositiveA(NgStateError):
    """Kinetic coefficient A of the exponent must be strictly positive."""


class Unreachable(NgStateError):
    """Requested four-point ratio lies below the saturation floor."""


class RegimeError(NgStateError):
    """Peak-specific quantity requested for a state without a peak."""


class QuadratureNonPositive(NgStateError):
    """Phase-space integral came out non-positive beyond tolerance."""


class NotConverged(NgStateError):
    """Large-N sequence did not settle within the requested spread."""

    def __init__(self, message, value=None, spread=None):
        super().__init__(message)
        self.value = value
        self.spread = spread


class AsymptoticRegimeViolation(NgStateError):
    """Displaced-overlap formula used outside its asymptotic regime."""


class BracketError(NgStateError):
    """A root solve or cut search found no sign change within its bracket."""


class PrecisionLoss(NgStateError):
    """A closed form cannot be evaluated in double precision at these inputs."""


class NonFiniteValue(NgStateError):
    """A table holds NaN or inf; the writers refuse it."""
