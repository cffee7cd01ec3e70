"""Exception types shared across the package.

Separate classes (rather than bare ValueError) so callers can distinguish
input mistakes from numerical breakdowns surfaced at runtime.
"""


class GenChebError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(GenChebError, ValueError):
    """Operands have incompatible shapes."""


class MissingTildeData(GenChebError, ValueError):
    """The three-term scheme needs the companion matrix and right-hand side."""


class MissingLambda1(GenChebError, ValueError):
    """The classical and three-term schemes need the dominant eigenvalue."""


class NotConverged(GenChebError, RuntimeError):
    """Stopping tolerance not reached; best iterate and trace attached."""

    def __init__(self, message, best=None, trace=None):
        super().__init__(message)
        self.best = best
        self.trace = trace


class Divergence(NotConverged):
    """Residual grew past the divergence guard or stopped being finite.

    Signals a spectral radius at or above one, or a scheme run outside its
    applicability; best iterate and trace attached.
    """


class InapplicableSpectrum(GenChebError, ValueError):
    """No power-transform order k makes the acceleration apply.

    The dominant eigenvalue is zero or not inside the unit disc, its power
    at the selected k is below the smallest normal double (or, for the
    three-term scheme, below the coefficient stream's floor), or the
    dominant set is not a root-of-unity family.
    """


class NoConvergence(GenChebError, RuntimeError):
    """Power iteration stalled; likely several dominant eigenvalues."""

    def __init__(self, message, estimate=None, residual=None):
        super().__init__(message)
        self.estimate = estimate
        self.residual = residual


class UnreadableMatrix(GenChebError, ValueError):
    """A Matrix Market file could not be parsed."""
