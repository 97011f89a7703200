"""Exception taxonomy shared by all numradlab modules."""


class NumradError(Exception):
    """Base class for all numradlab errors."""


class NotHermitian(NumradError):
    """Raised when an operation requires a Hermitian matrix and the input is not."""


class DomainViolation(NumradError):
    """Raised when a scalar function is evaluated outside its declared domain."""


class NotInvertible(NumradError):
    """Raised when a positive-invertible operand has spectrum below the cutoff."""


class NotPositive(NumradError):
    """Raised when an operand required to be positive semidefinite is not."""


class DimensionMismatch(NumradError):
    """Raised when matrix or vector dimensions are incompatible."""


class InvalidBounds(NumradError):
    """Raised for malformed scalar bounds, e.g. m <= 0 or M < m."""


class UnsupportedParameter(NumradError):
    """Raised for parameter values outside an operation's supported range."""


class NotSuperquadratic(NumradError):
    """Raised when a function without the superquadratic flag is used as one."""


class BudgetExhausted(NumradError):
    """Raised when a sampling loop exceeds its draw budget."""


class MatrixFormatError(NumradError):
    """Raised for malformed matrix exchange documents."""

    def __init__(self, message, line=None, column=None):
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column
