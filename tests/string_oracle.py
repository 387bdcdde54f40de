"""The string search for generator values: the differential oracle of the
extraction by diagonal units in ``naryops.extraction``.

Given a continuous, symmetric, cancellative, associative operation f and
a non-idempotent base point c, the generator value at x is the infimum of
the admissible rationals r = (p - q)/k for which the repeated-point string
c^p evaluates strictly above x^k c^q. That set is an upper set, so at a
fixed denominator k the threshold is found by bisecting p. Its cost grows
as 1/resolution (about 2,000 op evaluations per point at 1/1024), so the
tests run it only at coarse resolutions.
"""

import math
from dataclasses import dataclass

from naryops import extraction
from naryops.errors import BracketNotFoundError
from naryops.extension import BranchDirection, ExtendedOp, MembershipOutcome, RationalIndex

#: string-length doublings allowed while bracketing one threshold
_MAX_DOUBLINGS = 60


@dataclass(frozen=True)
class StringEstimate:
    """One generator value of the string search: a rational midpoint with
    a half-width bound, pinned exactly when an equality case was detected."""

    x: float
    value: float
    half_width: float
    pinned: bool
    k: int
    memberships: int


def class_ceil(n: int, m: int) -> int:
    """Smallest string length >= max(m, 1) in the arity class of n, the
    lengths = 1 (mod n-1)."""
    if m <= 1:
        return 1
    return 1 + -((1 - m) // (n - 1)) * (n - 1)


def rational_grid(n: int, target: float, resolution: float) -> RationalIndex:
    """The admissible rational nearest the target on the grid of spacing
    (n-1)/k, with k the smallest admissible denominator at or below the
    requested resolution and q the smallest admissible value making p >= 1.
    """
    if resolution <= 0.0:
        raise ValueError("resolution must be positive")
    step = n - 1  # lengths of the arity class are = 1 (mod step)
    k = class_ceil(n, math.ceil(step / resolution))
    # numerator d = p - q must be = 1 (mod n-1); pick the admissible value
    # closest to k * target
    d = 1 + step * round((k * target - 1) / step)
    if d >= 1:
        q = 0
        p = d
    else:
        q = step * math.ceil((1 - d) / step)
        p = d + q
    idx = RationalIndex(p, q, k)
    idx.require_admissible(n)
    return idx


class _Pinned(Exception):
    """An undetermined comparison at the RationalIndex it carries: the
    threshold sits exactly there (the equality case)."""


def _gallop(hit, step: int, x: float, wanted: str) -> tuple[int, int]:
    """The first offset among step, 2*step, 4*step, ... at which
    ``hit(offset)`` holds, and the offset tried before it (0 when the
    first one hits). Raises :class:`BracketNotFoundError` after
    _MAX_DOUBLINGS + 1 misses."""
    before, offset = 0, step
    for _ in range(_MAX_DOUBLINGS + 1):
        if hit(offset):
            return before, offset
        before, offset = offset, 2 * offset
    raise BracketNotFoundError(
        f"no {wanted} outcome after {_MAX_DOUBLINGS + 1} doublings at x={x!r}"
    )


def phi_at(
    g: ExtendedOp,
    c: float,
    x: float,
    direction: BranchDirection,
    resolution: float,
) -> StringEstimate:
    """Bracket and bisect the membership threshold for one point.

    The rational value of the branch-local generator at x is the infimum
    of the members; expansion doubles the string lengths until both an
    Out and an In are seen, then p is bisected at fixed k and q. An
    undetermined comparison pins the value exactly (the equality case).
    Raises :class:`BracketNotFoundError` when the doubling cap is hit and
    :class:`DomainEscapeError` when string values overflow.
    Comparisons go through the module attribute
    ``naryops.extraction.sx_membership``, so a test can count them.
    """
    step = g.base.arity - 1
    k = class_ceil(g.base.arity, math.ceil(step / resolution))
    used = 0

    def member(p: int, q: int) -> bool:
        nonlocal used
        used += 1
        idx = RationalIndex(p, q, k)
        outcome = extraction.sx_membership(g, c, x, idx, direction)
        if outcome is MembershipOutcome.UNDETERMINED:
            raise _Pinned(idx)
        return outcome is MembershipOutcome.IN

    try:
        q = 0
        if member(1, 0):
            # push q up until the rational (1 - q)/k drops below the threshold
            q = _gallop(lambda off: not member(1, off), step, x, "Out")[1]
        # (1 + q - q)/k reproduces the In seen at (1, 0); an Out there is
        # band flakiness, and p grows as after an Out at (1, 0)
        p_lo, p_hi = 1, 1 + q
        if q == 0 or not member(1 + q, q):
            before, offset = _gallop(lambda off: member(1 + q + off, q), step, x, "In")
            p_hi = 1 + q + offset
            if before:
                p_lo = 1 + q + before
        # bisect p: membership is monotone in the rational by the upper-set
        # property, so the threshold sits between the last Out and first In
        while p_hi - p_lo > step:
            p_mid = p_lo + ((p_hi - p_lo) // step // 2) * step
            if member(p_mid, q):
                p_hi = p_mid
            else:
                p_lo = p_mid
    except _Pinned as pin:
        return StringEstimate(
            x=x, value=pin.args[0].value, half_width=0.0, pinned=True, k=k, memberships=used
        )
    return StringEstimate(
        x=x,
        value=(0.5 * (p_lo + p_hi) - q) / k,
        half_width=0.5 * step / k,
        pinned=False,
        k=k,
        memberships=used,
    )
