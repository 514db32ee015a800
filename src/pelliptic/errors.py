"""Exception types shared across the package."""


class PellipticError(Exception):
    """Base class for all package errors."""


class InputError(PellipticError, ValueError):
    """Rejected input: bad dimensions, out-of-domain parameters, malformed data."""


class DimensionMismatchError(InputError):
    """Operands do not agree in (n, m)."""


class NumericalFailureError(PellipticError, RuntimeError):
    """A numerical routine failed to converge or produced non-finite values.

    ``partial`` carries whatever state was computed before the failure.
    """

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class GenerationError(PellipticError, RuntimeError):
    """A random generator could not meet its construction contract."""
