"""Exception hierarchy shared by all mesocat modules."""


class MesocatError(Exception):
    """Base class for all domain errors raised by this package."""


class InvalidArgumentError(MesocatError, ValueError):
    """An argument violates a documented precondition."""


class ZeroStateError(MesocatError):
    """A state (a stack's first at ``index``) has zero norm, e.g. a zero-probability detection."""

    def __init__(self, message: str, index: tuple = ()):
        super().__init__(message)
        self.index = index


class PositivityError(MesocatError):
    """A density shows an eigenvalue outside [0, 1] or a trace away from 1 beyond roundoff.

    Raised instead of clamping or rescaling so that genuine bugs are not
    masked as noise.
    """


class TruncationError(MesocatError):
    """A Fock-space cutoff is too small for the requested amplitude."""


class UnsupportedInputError(MesocatError):
    """The input is valid in principle but outside this implementation's scope."""


class AuditError(MesocatError):
    """A run fails a self-check: the bath spectrum's moments, or the read-back of a written file."""


class ConfigError(MesocatError):
    """A scenario configuration fails schema validation.

    ``field_path`` points at the offending entry, e.g. ``bath.modes``.
    """

    def __init__(self, field_path: str, message: str):
        self.field_path = field_path
        super().__init__(f"{field_path}: {message}")
