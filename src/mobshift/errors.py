"""Exception types shared across the package.

Two families matter to callers: ``NumericsError`` covers computations that
could not be completed to the required accuracy (the CLI maps these to exit
code 3), and ``ParameterError`` covers inputs outside an operation's domain
(exit code 2).
"""


class NumericsError(Exception):
    """A computation could not be completed to the required accuracy."""


class SingularMatrixError(NumericsError):
    """Linear solve refused: condition estimate beyond the trust threshold."""

    def __init__(self, estimate: float, message: str | None = None):
        self.estimate = estimate
        if message is None:
            message = f"condition estimate {estimate:.3e} exceeds the trusted range"
        super().__init__(message)


class NotSkewAdjointError(NumericsError):
    """Matrix exponential refused: the generator is not skew-Hermitian in the basis it was built in."""


class GridSizeError(NumericsError):
    """Circle sampling grid too small for the requested coefficient window."""


class ParameterError(ValueError):
    """Inputs outside the domain an operation supports."""


class ClassificationError(ParameterError):
    """Parameters that do not belong to any supported series."""


class ParameterRangeError(ParameterError):
    """Norm recurrence left the positive reals: parameters outside the unitary range."""


class PoleError(ParameterError):
    """Evaluation requested at a pole."""


class EmptyInteriorError(ParameterError):
    """Padding leaves no interior indices."""


class WindowMismatchError(ValueError):
    """Operands live on incompatible index windows or bases."""

