"""Exceptions shared across modules."""

from contextlib import contextmanager


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


class ParameterError(ValueError):
    """A model parameter lies outside its domain; ``field`` names it, as a
    dotted path relative to the planet description (``peak.c``)."""

    def __init__(self, field, message):
        super().__init__(message)
        self.field = field

    @staticmethod
    @contextmanager
    def within(prefix):
        """Re-raise a ParameterError from the block with ``prefix.`` prepended to its field."""
        try:
            yield
        except ParameterError as exc:
            raise ParameterError(f"{prefix}.{exc.field}", str(exc)) from None
