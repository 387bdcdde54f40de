"""Numeric failures on a lawful setup: overflow, missing brackets,
idempotent scans, monotonicity breakdown.

The CLI maps exit codes by base type alone: a configuration problem is
a ``ValueError`` and exits 2, and every class here is a
:class:`NaryError` and exits 3.
"""


class NaryError(Exception):
    """Base class of every numeric failure the package raises."""


class DomainEscapeError(NaryError):
    """An evaluation produced a value outside the operation's domain,
    or a non-finite intermediate, carried as ``value`` when there is one."""

    def __init__(self, message, value=None):
        super().__init__(message)
        self.value = value


class InversionError(NaryError):
    """Monotone inversion failed: target outside range or the sampled
    sign pattern contradicts monotonicity."""


class AllIdempotentError(NaryError):
    """The explicit base point, or every point the base-point scan
    evaluated, looked idempotent, so the extraction has no anchor to
    calibrate against. A scan that evaluated no point raises
    :class:`DomainEscapeError` instead."""


class BracketNotFoundError(NaryError):
    """A capped search gave up: top-level unit steps of ``phi_at`` never
    reach a grid point, or a tabulated window yields too few tuples."""


class MonotonicityViolationError(NaryError):
    """A sequence or table that must be strictly monotone regressed
    beyond tolerance."""
