"""Exceptions shared across modules."""


class BrillouinError(Exception):
    """Base class for all library errors."""


class ToleranceNotMet(BrillouinError):
    """A quadrature did not stabilize within the requested tolerance.

    Carries the best available value and its error estimate so callers
    can decide whether to degrade gracefully.
    """

    def __init__(self, message, value=None, err=None):
        super().__init__(message)
        self.value = value
        self.err = err


class EnvelopeBoundError(BrillouinError, ValueError):
    """A computed coefficient breaks the a-priori envelope bound 4 pi G max|v|."""
