"""Extension of an n-ary operation to every arity in its class.

An arity-n operation evaluates strings whose length m satisfies
m = 1 (mod n-1) by left-nested substitution: fold the first n points,
then absorb n-1 further points per step. The unary rule is the identity,
which makes substituting a single evaluated point a no-op.
"""

from __future__ import annotations

import itertools
import random
from typing import Sequence

from .axioms import AxiomReport, Witness, scaled_tolerance
from .core import ArityClass, NaryOp
from .errors import ArityClassError

__all__ = [
    "ExtendedOp",
    "extend_eval",
    "check_nested_identity",
    "check_split_identity",
    "random_nested_decomposition",
    "random_split_blocks",
    "eval_random_nesting",
]


class ExtendedOp:
    """A base operation together with caches for repeated-point strings.

    The caches only matter for generator extraction, which evaluates
    thousands of strings of the form c^p and x^k c^q with shared prefixes.
    Cached growth applies exactly the same calls in the same order as a
    fresh left-nested evaluation, so cached and fresh values are equal
    bit for bit.

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
        entry = self._powers.setdefault(c, {1: float(c)})
        if p in entry:
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
        entry = self._mixed.setdefault((x, k, c), {0: self.power(x, k)})
        if q in entry:
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


def extend_eval(g: ExtendedOp, xs: Sequence[float]) -> float:
    """Evaluate the extension on a string; see :meth:`ExtendedOp.eval`."""
    return g.eval(xs)


def check_nested_identity(
    g: ExtendedOp,
    x: Sequence[float],
    y: Sequence[float],
    z: Sequence[float],
    tol: float = 1e-9,
) -> AxiomReport:
    """Residual of replacing an inner block by its value:
    g(x g(y) z) versus g(x y z)."""
    x, y, z = tuple(x), tuple(y), tuple(z)
    if not g.arity_class.member(len(y)):
        raise ArityClassError(f"inner block length {len(y)} not in the arity class")
    if not g.arity_class.member(len(x) + 1 + len(z)):
        raise ArityClassError(
            f"outer length {len(x) + 1 + len(z)} not in the arity class"
        )
    inner = g.eval(y)
    lhs = g.eval(x + (inner,) + z)
    rhs = g.eval(x + y + z)
    residual = abs(lhs - rhs)
    passed = residual <= scaled_tolerance(tol, lhs, rhs)
    witness = None
    if not passed:
        witness = Witness(kind="nested_identity", inputs=(x, y, z), residual=residual)
    return AxiomReport(
        axiom="identity",
        passed=passed,
        max_residual=residual,
        witness=witness,
        samples_used=1,
        seed=0,
        tolerance=tol,
        label=g.base.label,
    )


def check_split_identity(
    g: ExtendedOp, blocks: Sequence[Sequence[float]], tol: float = 1e-9
) -> AxiomReport:
    """Residual of evaluating block heads first:
    g(g(b1) ... g(bn)) versus g(b1 ... bn)."""
    n = g.base.arity
    blocks = tuple(tuple(b) for b in blocks)
    if len(blocks) != n:
        raise ArityClassError(f"need exactly {n} blocks, got {len(blocks)}")
    for b in blocks:
        if not g.arity_class.member(len(b)):
            raise ArityClassError(f"block length {len(b)} not in the arity class")
    heads = tuple(g.eval(b) for b in blocks)
    flat = tuple(itertools.chain.from_iterable(blocks))
    lhs = g.eval(heads)
    rhs = g.eval(flat)
    residual = abs(lhs - rhs)
    passed = residual <= scaled_tolerance(tol, lhs, rhs)
    witness = None
    if not passed:
        witness = Witness(kind="split_identity", inputs=blocks, residual=residual)
    return AxiomReport(
        axiom="identity",
        passed=passed,
        max_residual=residual,
        witness=witness,
        samples_used=1,
        seed=0,
        tolerance=tol,
        label=g.base.label,
    )


def random_nested_decomposition(
    rng: random.Random, n: int, max_total: int | None = None
) -> tuple[int, int, int]:
    """Lengths (|x|, |y|, |z|) with |y| and |x|+1+|z| in the arity class.

    Total length is at most ``max_total`` (default 1 + 5(n-1)).
    """
    step = ArityClass(n).step()
    cap = max_total if max_total is not None else 1 + 5 * step
    total = 1 + step * rng.randint(1, (cap - 1) // step)
    inner = 1 + step * rng.randint(0, (total - 1) // step)
    rest = total - inner
    left = rng.randint(0, rest)
    return left, inner, rest - left


def random_split_blocks(
    rng: random.Random, n: int, max_blocks: int = 3
) -> tuple[int, ...]:
    """n block lengths, each in the arity class."""
    step = ArityClass(n).step()
    return tuple(1 + step * rng.randint(0, max_blocks - 1) for _ in range(n))


def eval_random_nesting(
    g: ExtendedOp, xs: Sequence[float], rng: random.Random
) -> float:
    """Evaluate a string by repeatedly collapsing a random n-window.

    Every collapse order is a legal nesting, so for an associative base
    the result matches the left-nested fold.
    """
    n = g.base.arity
    work = [float(v) for v in xs]
    if not g.arity_class.member(len(work)):
        raise ArityClassError(f"string length {len(work)} not in the arity class")
    while len(work) > 1:
        i = rng.randint(0, len(work) - n)
        work[i : i + n] = [g.base.checked(*work[i : i + n])]
    return work[0]
