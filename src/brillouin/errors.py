"""Exceptions shared across modules."""


class BrillouinError(Exception):
    """Base class for all library errors."""


class ToleranceNotMet(BrillouinError):
    """A quadrature did not stabilize within the requested tolerance.

    Carries the best available value and its error estimate so callers
    can decide whether to degrade gracefully.  When it is raised, and what
    it carries, is the refinement ladder's contract: see
    ``brillouin._panels.refine``.
    """

    def __init__(self, message, value=None, err=None):
        super().__init__(message)
        self.value = value
        self.err = err


class EnvelopeBoundError(BrillouinError, ValueError):
    """A computed coefficient breaks the a-priori envelope bound 4 pi G max|v|."""


class ParameterError(ValueError):
    """A model or config parameter lies outside its domain; ``field`` names
    it, as a field path below where it was read (``peak.c`` in a planet,
    ``config.balayage.masses[0].m`` in a config)."""

    def __init__(self, field, message):
        super().__init__(message)
        self.field = field

