"""Exception types shared across the package, and the guard that turns
non-finite arithmetic into a numerical failure."""

from contextlib import contextmanager

import numpy as np


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


@contextmanager
def finite_arithmetic():
    """Floating-point overflow or an invalid operation inside raises
    NumericalFailureError instead of carrying inf or NaN on. A NaN reads
    as "not positive", so a search that ran on one would report a tensor
    near the top of the double range as failing its condition. Usable as
    a decorator."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError as exc:
        raise NumericalFailureError(f"non-finite arithmetic ({exc})", partial=None) from exc
