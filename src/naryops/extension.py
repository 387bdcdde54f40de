"""Extension of an n-ary operation to every arity in its class.

An arity-n operation evaluates strings whose length m satisfies
m = 1 (mod n-1) by left-nested substitution: fold the first n points,
then absorb n-1 further points per step. The unary rule is the identity,
which makes substituting a single evaluated point a no-op.

The repeated-point strings c^p and x^k c^q, their exponents
(:class:`RationalIndex`) and their three-way comparison
(:func:`sx_membership`) are the string search that generator extraction
ran before it walked diagonal units. No command evaluates them. The power
strings are plain left folds, kept for the tests' string oracle and under
the names that the benchmark's tracer patches; the tracer only counts
their calls and evaluates no string itself.
"""

from __future__ import annotations

import enum
import itertools
from typing import Sequence

from .core import NaryOp, Record
from .errors import DomainEscapeError

__all__ = [
    "BranchDirection",
    "RationalIndex",
    "MembershipOutcome",
    "sx_membership",
    "ExtendedOp",
    "nested_trials",
    "split_trials",
]


class ExtendedOp:
    """A base operation evaluable on every string length of its arity
    class by one left fold, :meth:`eval`.

    It holds no cache: :meth:`power` and :meth:`string_power` fold the
    repeated-point strings c^p and x^k c^q afresh, for the tests' string
    oracle and the names the benchmark's tracer patches. No command calls
    them.
    """

    def __init__(self, base: NaryOp):
        self.base = base

    def eval(self, xs: Sequence[float]) -> float:
        """Left-nested evaluation of a string with length in the arity class."""
        m = len(xs)
        n = self.base.arity
        step = n - 1
        if m < 1 or (m - 1) % step:  # m outside the arity class
            raise ValueError(
                f"string length {m} not evaluable at arity {n} (need m = 1 mod {step})"
            )
        if m == 1:
            return float(xs[0])
        checked = self.base.checked
        acc = checked(*xs[:n])
        for pos in range(n, m, step):
            acc = checked(acc, *xs[pos : pos + step])
        return acc

    def power(self, c: float, p: int) -> float:
        """g(c^p)."""
        return self.eval((c,) * p)

    def string_power(self, x: float, k: int, c: float, q: int) -> float:
        """g(x^k c^q); :func:`sx_membership` checks k and q against the
        arity class."""
        return self.eval((x,) * k + (c,) * q)


class RationalIndex(Record):
    """An admissible rational (p - q)/k: at arity n the congruences are
    p = k = 1 and q = 0 (mod n-1), with p, k >= 1 and q >= 0."""

    __slots__ = _fields = ("p", "q", "k")

    def __init__(self, p: int, q: int, k: int):
        if p < 1 or k < 1 or q < 0:
            raise ValueError(f"index ({p}, {q}, {k}) out of range")
        super().__init__(p, q, k)

    @property
    def value(self) -> float:
        return (self.p - self.q) / self.k

    def admissible(self, n: int) -> bool:
        step = n - 1
        return (self.p - 1) % step == 0 and (self.k - 1) % step == 0 and self.q % step == 0

    def require_admissible(self, n: int) -> None:
        if not self.admissible(n):
            raise ValueError(
                f"index ({self.p}, {self.q}, {self.k}) violates the congruences mod {n - 1}"
            )


class BranchDirection(enum.Enum):
    """Which side of its own n-fold power the base point sits on."""

    C_BELOW = "c_below"  # c < f(c^n): powers of c climb
    C_ABOVE = "c_above"  # c > f(c^n): powers of c descend


class MembershipOutcome(enum.Enum):
    IN = "in"
    OUT = "out"
    UNDETERMINED = "undetermined"


def sx_membership(
    g: ExtendedOp,
    c: float,
    x: float,
    idx: RationalIndex,
    direction: BranchDirection,
    band: float = 1e-9,
) -> MembershipOutcome:
    """Three-way comparison of g(c^p) against g(x^k c^q).

    In the climbing branch the rational (p - q)/k is a member when the
    pure-c string evaluates strictly above the mixed string; the mirrored
    branch flips the comparison. Differences within band * (|lhs| + |rhs|)
    are undetermined, the float reading of the exact equality case; the
    scale is purely relative because string values legitimately range from
    huge (growing products) to tiny (products inside the unit interval).
    """
    n = g.base.arity
    idx.require_admissible(n)
    try:
        a = g.power(c, idx.p)
        b = g.string_power(x, idx.k, c, idx.q)
    except DomainEscapeError as exc:
        raise DomainEscapeError(
            f"power string evaluation failed at (p={idx.p}, q={idx.q}, k={idx.k}): {exc}; "
            "reduce the resolution or move the base point toward the idempotent",
            exc.value,
        ) from exc
    d = a - b if direction is BranchDirection.C_BELOW else b - a
    thr = band * (abs(a) + abs(b))
    if d > thr:
        return MembershipOutcome.IN
    if d < -thr:
        return MembershipOutcome.OUT
    return MembershipOutcome.UNDETERMINED


def nested_trials(g: ExtendedOp, splits):
    """Trials of the nested identity g(x g(y) z) = g(x y z), one per
    (x, y, z) split, for :func:`naryops.axioms.falsify`. A length outside
    the arity class raises ValueError from ``g.eval``."""
    for x, y, z in splits:
        x, y, z = tuple(x), tuple(y), tuple(z)
        inner = g.eval(y)
        yield g.eval(x + (inner,) + z), g.eval(x + y + z), {"inputs": (x, y, z)}


def split_trials(g: ExtendedOp, block_lists):
    """Trials of the split identity g(g(b1) ... g(bn)) = g(b1 ... bn), one
    per list of n blocks, for :func:`naryops.axioms.falsify`. A block
    length outside the arity class raises ValueError from
    ``g.eval``."""
    n = g.base.arity
    for blocks in block_lists:
        blocks = tuple(tuple(b) for b in blocks)
        if len(blocks) != n:
            raise ValueError(f"need exactly {n} blocks, got {len(blocks)}")
        heads = tuple(g.eval(b) for b in blocks)
        flat = tuple(itertools.chain.from_iterable(blocks))
        yield g.eval(heads), g.eval(flat), {"inputs": blocks}
