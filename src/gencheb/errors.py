"""Exception types shared across the package.

Separate classes (rather than bare ValueError) so callers can distinguish
input mistakes from numerical breakdowns surfaced at runtime.
"""


class GenChebError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(GenChebError, ValueError):
    """Operands have incompatible shapes."""


class DegenerateCoefficient(GenChebError, ArithmeticError):
    """Coefficient denominator underflowed after window renormalization.

    Signals an evaluation point at or beyond a polynomial root; not expected
    for spectral radii inside the unit disc.
    """


class ConvergenceFailure(GenChebError, RuntimeError):
    """A dense eigensolve did not meet its residual contract."""


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
    """The dominant eigenvalue is zero or not inside the unit disc."""


class NotUniqueDominant(GenChebError, ValueError):
    """Bound-based k selection requires a unique dominant eigenvalue."""


class NoConvergence(GenChebError, RuntimeError):
    """Power iteration stalled; likely several dominant eigenvalues."""

    def __init__(self, message, estimate=None, residual=None):
        super().__init__(message)
        self.estimate = estimate
        self.residual = residual


class FixtureCorrupt(GenChebError, RuntimeError):
    """A built-in reference fixture failed its self-check."""


class UnreadableMatrix(GenChebError, ValueError):
    """A Matrix Market file could not be parsed."""
