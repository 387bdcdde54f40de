"""Exception types shared across the package.

The CLI maps these onto exit codes: configuration problems exit 2,
numeric failures (overflow, missing brackets, idempotent scans) exit 3.
"""


class NaryError(Exception):
    """Base class for all package errors."""


class ArityClassError(NaryError):
    """A string length is not in the admissible arity class."""


class DomainEscapeError(NaryError):
    """An evaluation produced a value outside the operation's domain,
    or a non-finite intermediate, carried as ``value`` when there is one."""

    def __init__(self, message, value=None):
        super().__init__(message)
        self.value = value


class CodomainError(NaryError):
    """A generator codomain is not one of the admissible interval forms."""


class InversionError(NaryError):
    """Monotone inversion failed: target outside range or the sampled
    sign pattern contradicts monotonicity."""


class RegistryError(NaryError):
    """Unknown builtin name, or a builtin instantiated at an invalid arity."""


class AllIdempotentError(NaryError):
    """The explicit base point, or every point the base-point scan
    evaluated, looked idempotent, so the extraction has no anchor to
    calibrate against. A scan that evaluated no point raises
    :class:`DomainEscapeError` instead."""


class PrecisionExhaustedError(NaryError):
    """Power-string evaluation overflowed or left the domain.

    Carries the rational index (p, q, k) that triggered the failure.
    """

    def __init__(self, message, p=None, q=None, k=None):
        super().__init__(message)
        self.p = p
        self.q = q
        self.k = k


class BracketNotFoundError(NaryError):
    """A capped search gave up: top-level unit steps of ``phi_at`` never
    reach a grid point, or the window sampler finds too few tuples."""


class MonotonicityViolationError(NaryError):
    """A sequence or table that must be strictly monotone regressed
    beyond tolerance."""
