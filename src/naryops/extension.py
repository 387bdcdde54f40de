"""Extension of an n-ary operation to every arity in its class.

An arity-n operation evaluates strings whose length m satisfies
m = 1 (mod n-1) by left-nested substitution: fold the first n points,
then absorb n-1 further points per step. The unary rule is the identity,
which makes substituting a single evaluated point a no-op.

The repeated-point strings c^p and x^k c^q, their exponents
(:class:`RationalIndex`) and their three-way comparison
(:func:`sx_membership`) are the string search that generator extraction
ran before it walked diagonal units; the tests' string oracle and the
benchmark's tracer still use them.
"""

from __future__ import annotations

import enum
import itertools
import random
from dataclasses import dataclass
from typing import Sequence

from .core import ArityClass, NaryOp
from .errors import ArityClassError, DomainEscapeError, PrecisionExhaustedError

__all__ = [
    "BranchDirection",
    "RationalIndex",
    "MembershipOutcome",
    "sx_membership",
    "ExtendedOp",
    "nested_trials",
    "split_trials",
    "random_nested_decomposition",
    "random_split_blocks",
]


class ExtendedOp:
    """A base operation evaluable on every string length of its arity
    class, with caches for the repeated-point strings c^p and x^k c^q.

    No command reads the caches: generator extraction walks diagonal units
    instead. They serve the string search of the tests and the
    benchmark's tracer, which evaluate thousands of such strings with
    shared prefixes. Cached growth applies exactly the same calls in the
    same order as a fresh left-nested evaluation, so cached and fresh
    values are equal bit for bit.

    Concurrency: evaluation is pure; cache fills are idempotent, so a
    racing reader may recompute an entry redundantly without harm.
    """

    def __init__(self, base: NaryOp):
        self.base = base
        self.arity_class = ArityClass(base.arity)
        self._powers: dict[float, dict[int, float]] = {}
        self._mixed: dict[tuple[float, int, float], dict[int, float]] = {}

    @property
    def arity(self) -> int:
        return self.base.arity

    def eval(self, xs: Sequence[float]) -> float:
        """Left-nested evaluation of a string with length in the arity class."""
        m = len(xs)
        n = self.base.arity
        if not self.arity_class.member(m):
            raise ArityClassError(
                f"string length {m} not evaluable at arity {n} (need m = 1 mod {n - 1})"
            )
        if m == 1:
            return float(xs[0])
        acc = self.base.checked(*xs[:n])
        pos = n
        while pos < m:
            acc = self.base.checked(acc, *xs[pos : pos + n - 1])
            pos += n - 1
        return acc

    def power(self, c: float, p: int) -> float:
        """g(c^p) with incremental, per-point caching."""
        if not self.arity_class.member(p):
            raise ArityClassError(f"exponent {p} not in the arity class of {self.base.arity}")
        entry = self._powers.get(c)
        if entry is None:
            entry = self._powers[c] = {1: float(c)}
        elif p in entry:
            return entry[p]
        return self._grow(entry, p, c)

    def string_power(self, x: float, k: int, c: float, q: int) -> float:
        """g(x^k c^q) for k in the arity class and q = 0 (mod n-1)."""
        step = self.arity_class.step()
        if not self.arity_class.member(k):
            raise ArityClassError(f"repeat count {k} not in the arity class")
        if q < 0 or q % step != 0:
            raise ArityClassError(f"tail length {q} must be a nonnegative multiple of {step}")
        if q == 0:
            return self.power(x, k)
        entry = self._mixed.get((x, k, c))
        if entry is None:
            entry = self._mixed[x, k, c] = {0: self.power(x, k)}
        elif q in entry:
            return entry[q]
        return self._grow(entry, q, c)

    def _grow(self, entry: dict[int, float], target: int, c: float) -> float:
        """Extend a cache entry by absorbing n-1 copies of c per step until
        it reaches ``target``. Fills append consecutive multiples of the
        step, so the last inserted key is the largest one cached."""
        step = self.arity_class.step()
        tail = (c,) * step
        checked = self.base.checked
        top = next(reversed(entry))
        acc = entry[top]
        while top < target:
            acc = checked(acc, *tail)
            top += step
            entry[top] = acc
        return acc


@dataclass(frozen=True)
class RationalIndex:
    """An admissible rational (p - q)/k: at arity n the congruences are
    p = k = 1 and q = 0 (mod n-1), with p, k >= 1 and q >= 0."""

    p: int
    q: int
    k: int

    def __post_init__(self):
        if self.p < 1 or self.k < 1 or self.q < 0:
            raise ValueError(f"index ({self.p}, {self.q}, {self.k}) out of range")

    @property
    def value(self) -> float:
        return (self.p - self.q) / self.k

    def admissible(self, n: int) -> bool:
        cls = ArityClass(n)
        return cls.member(self.p) and cls.member(self.k) and cls.member(self.q + 1)

    def require_admissible(self, n: int) -> None:
        if not self.admissible(n):
            raise ArityClassError(
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
        raise PrecisionExhaustedError(
            f"power string evaluation failed at (p={idx.p}, q={idx.q}, k={idx.k}): {exc}; "
            "reduce the resolution or move the base point toward the idempotent",
            p=idx.p,
            q=idx.q,
            k=idx.k,
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
    (x, y, z) split, for :func:`naryops.axioms.falsify`."""
    for x, y, z in splits:
        x, y, z = tuple(x), tuple(y), tuple(z)
        if not g.arity_class.member(len(y)):
            raise ArityClassError(f"inner block length {len(y)} not in the arity class")
        if not g.arity_class.member(len(x) + 1 + len(z)):
            raise ArityClassError(
                f"outer length {len(x) + 1 + len(z)} not in the arity class"
            )
        inner = g.eval(y)
        yield g.eval(x + (inner,) + z), g.eval(x + y + z), {"inputs": (x, y, z)}


def split_trials(g: ExtendedOp, block_lists):
    """Trials of the split identity g(g(b1) ... g(bn)) = g(b1 ... bn), one
    per list of n blocks, for :func:`naryops.axioms.falsify`."""
    n = g.base.arity
    for blocks in block_lists:
        blocks = tuple(tuple(b) for b in blocks)
        if len(blocks) != n:
            raise ArityClassError(f"need exactly {n} blocks, got {len(blocks)}")
        for b in blocks:
            if not g.arity_class.member(len(b)):
                raise ArityClassError(f"block length {len(b)} not in the arity class")
        heads = tuple(g.eval(b) for b in blocks)
        flat = tuple(itertools.chain.from_iterable(blocks))
        yield g.eval(heads), g.eval(flat), {"inputs": blocks}


#: string lengths of the random identity trials, in steps of n-1 beyond 1
_NESTED_STEPS = 5
_SPLIT_STEPS = 2


def random_nested_decomposition(rng: random.Random, n: int) -> tuple[int, int, int]:
    """Lengths (|x|, |y|, |z|) with |y| and |x|+1+|z| in the arity class.

    Total length is at most 1 + _NESTED_STEPS * (n-1).
    """
    step = ArityClass(n).step()
    total = 1 + step * rng.randint(1, _NESTED_STEPS)
    inner = 1 + step * rng.randint(0, (total - 1) // step)
    rest = total - inner
    left = rng.randint(0, rest)
    return left, inner, rest - left


def random_split_blocks(rng: random.Random, n: int) -> tuple[int, ...]:
    """n block lengths, each in the arity class and at most
    1 + _SPLIT_STEPS * (n-1)."""
    step = ArityClass(n).step()
    return tuple(1 + step * rng.randint(0, _SPLIT_STEPS) for _ in range(n))
