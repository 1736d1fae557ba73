"""Exception vocabulary shared across the package.

Numerical routines here fail loudly and specifically: a caller that feeds a
half-space moment a non-unit vector, or an integration that blows up, gets a
typed error rather than a NaN.
"""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class DimensionError(ValueError):
    """Array arguments have inconsistent or unexpected shapes."""


class ZeroVectorError(DomainError):
    """A direction was required but the vector has (numerically) zero norm."""


class DegenerateAngleError(DomainError):
    """An angle-dependent closed form was evaluated at a degenerate angle."""


class ConvergenceError(RuntimeError):
    """An iterative computation exceeded its iteration budget."""


class DivergenceError(RuntimeError):
    """A simulated trajectory blew up or left its admissible region."""


class UnavailableError(RuntimeError):
    """No evaluation path exists for the requested quantity."""


class ConfigError(ValueError):
    """An experiment configuration failed validation."""
