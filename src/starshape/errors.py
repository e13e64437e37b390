"""Exception hierarchy for the starshape package.

Every error raised by the library derives from :class:`StarshapeError`, so
callers can catch one base class.  Most subclasses also derive from the
closest built-in (ValueError / ArithmeticError) to stay friendly to generic
handlers.
"""


class StarshapeError(Exception):
    """Base class for all starshape errors."""


class ZeroVectorError(StarshapeError, ValueError):
    """Point is (numerically) the origin, which is excluded from the sample space."""


class DimensionMismatchError(StarshapeError, ValueError):
    """Input dimension does not match the descriptor's ambient dimension."""


class NonSmoothPointError(StarshapeError, ValueError):
    """Gradient requested at a ridge point in strict mode."""


class NotADensityError(StarshapeError, ValueError):
    """Supplied sphere function does not integrate to 1 within tolerance."""


class NonPositiveError(StarshapeError, ValueError):
    """A quantity that must be strictly positive is not."""


class DivergentError(StarshapeError, ArithmeticError):
    """Radial integral diverges for the requested dimension."""


class QuadratureFailureError(StarshapeError, ArithmeticError):
    """A quadrature rule did not reach its error target."""


class NotUnitVectorError(StarshapeError, ValueError):
    """Direction argument is not on the unit sphere."""


class BoundsUnavailableError(StarshapeError, RuntimeError):
    """Sphere bounds required by a sampler are missing or degenerate."""


class NotOnCrossSectionError(StarshapeError, ValueError):
    """Point does not satisfy g(z) = 1 within tolerance."""


class NotPositiveDefiniteError(StarshapeError, ValueError):
    """Matrix is not symmetric positive-definite."""


class BadDegreesOfFreedomError(StarshapeError, ValueError):
    """Wishart degrees of freedom must exceed p - 1."""


class DegenerateRootsError(StarshapeError, ValueError):
    """Generalized eigenvalues are not distinct within the gap tolerance."""


class OutOfRangeError(StarshapeError, ValueError):
    """Matrix/eigenvalue argument violates its open-interval constraint."""


class NotOrderedError(StarshapeError, ValueError):
    """Eigenvalue vector is not strictly decreasing."""


class NotTriangularError(StarshapeError, ValueError):
    """Matrix is not lower-triangular with positive diagonal."""


class TooFewSamplesError(StarshapeError, ValueError):
    """Sample size below the minimum for the requested test."""


class DegenerateBinsError(StarshapeError, ValueError):
    """Fewer than two bins survive expected-count merging."""


class ConfigError(StarshapeError, ValueError):
    """Invalid run configuration or distribution JSON."""
