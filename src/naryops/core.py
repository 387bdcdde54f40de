"""Intervals over the extended reals, n-ary operations, arity classes,
and the registry of built-in operations and generators.

Everything here is immutable after construction and evaluation is pure,
so values can be shared freely across workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from .errors import DomainEscapeError, RegistryError

if TYPE_CHECKING:
    from .generator import GeneratorSpec

__all__ = [
    "Interval",
    "interval_contains",
    "NaryOp",
    "ArityClass",
    "lattice",
    "builtin_lookup",
    "BUILTIN_NAMES",
]


@dataclass(frozen=True)
class Interval:
    """A nontrivial real interval with independent open/closed endpoints.

    ``lo`` and ``hi`` are floats, with -inf and +inf for unbounded ends
    (Python floats already order the extended line) and ``-0.0`` stored
    as ``0.0``. Infinite endpoints are forced open; ``lo < hi`` so the
    interval is neither empty nor a singleton, and a NaN endpoint fails
    that test.
    """

    lo: float
    hi: float
    lo_open: bool = True
    hi_open: bool = True

    def __post_init__(self):
        lo = float(self.lo) + 0.0  # normalizes -0.0
        hi = float(self.hi) + 0.0
        if not lo < hi:
            raise ValueError("interval needs lo < hi")
        if (math.isinf(lo) and not self.lo_open) or (math.isinf(hi) and not self.hi_open):
            raise ValueError("infinite endpoint must be open")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @classmethod
    def make(
        cls, lo: float, hi: float, lo_open: bool = True, hi_open: bool = True
    ) -> "Interval":
        return cls(lo, hi, lo_open or math.isinf(lo), hi_open or math.isinf(hi))

    @classmethod
    def real_line(cls) -> "Interval":
        return cls(-math.inf, math.inf, True, True)

    @classmethod
    def parse(cls, text: str) -> "Interval":
        """Parse ``(a,b)``, ``[a,b)``, ``(-inf,b]`` and friends."""
        s = text.strip()
        if len(s) < 5 or s[0] not in "([" or s[-1] not in ")]":
            raise ValueError(f"malformed interval {text!r}")
        body = s[1:-1]
        parts = body.split(",")
        if len(parts) != 2:
            raise ValueError(f"malformed interval {text!r}")

        def endpoint(token: str) -> float:
            try:  # float() also reads inf, +inf, -inf and infinity in any case
                return float(token)
            except ValueError:
                raise ValueError(f"bad interval endpoint {token!r}") from None

        lo, hi = endpoint(parts[0]), endpoint(parts[1])
        if not lo < hi:
            raise ValueError(f"interval {text!r} needs lo < hi")
        return cls.make(lo, hi, s[0] == "(", s[-1] == ")")

    def contains(self, x: float) -> bool:
        return interval_contains(self, x)

    def render(self) -> str:
        left = "(" if self.lo_open else "["
        right = ")" if self.hi_open else "]"
        return f"{left}{_render_endpoint(self.lo)},{_render_endpoint(self.hi)}{right}"

    def clamp_window(self, window: float) -> tuple[float, float]:
        """Finite bounds of the interval intersected with [-window, window]."""
        lo = max(self.lo, -window)
        hi = min(self.hi, window)
        if not lo < hi:
            raise ValueError(
                f"interval {self.render()} does not meet window [-{window}, {window}]"
            )
        return lo, hi


def _render_endpoint(v: float) -> str:
    if math.isinf(v):
        return "+inf" if v > 0 else "-inf"
    return repr(v)


def interval_contains(iv: Interval, x: float) -> bool:
    """True iff x lies in iv, respecting open and closed endpoints."""
    if x != x:  # NaN lies in no interval
        return False
    if (x <= iv.lo) if iv.lo_open else (x < iv.lo):
        return False
    return (x < iv.hi) if iv.hi_open else (x <= iv.hi)


#: the widest spacing of the sampling lattice
_LATTICE_STEP = 0.125

#: the most lattice steps a window spans; index ranges stay machine-sized
_LATTICE_SPAN = 2.0**62


def lattice(iv: Interval, window: float = 10.0) -> tuple[int, int, float]:
    """Dyadic sampling lattice for an interval: indices j with j*h inside
    ``iv`` intersected with ``[-window, window]``.

    Returns (j_min, j_max, h). Lattice points are exact binary floats, so
    operations built from +, -, * stay exact on samples and associativity
    residuals of exact ops are identically zero. The step is halved until the
    window holds at least 16 points, and doubled until it holds at most
    2**62 steps, so every finite window can be sampled: a window on the
    real line keeps the step 1/8 up to 2**58 (about 2.9e17).

    Raises ValueError when the interval is too thin to sample (degenerate)
    or the window is not finite.
    """
    lo, hi = iv.clamp_window(window)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"window {window!r} leaves {iv.render()} unbounded")
    h = _LATTICE_STEP
    while (hi - lo) / h < 16.0 and h > 2.0**-40:
        h /= 2.0
    # halved bounds, as hi - lo overflows on the widest windows
    while hi / 2.0 - lo / 2.0 > _LATTICE_SPAN / 2.0 * h:
        h *= 2.0
    j_min = math.ceil(lo / h)
    if j_min * h == lo and iv.lo_open and lo == iv.lo:
        j_min += 1
    j_max = math.floor(hi / h)
    if j_max * h == hi and iv.hi_open and hi == iv.hi:
        j_max -= 1
    if j_min > j_max:
        raise ValueError(f"interval {iv.render()} too thin to sample")
    return j_min, j_max, h


@dataclass(frozen=True)
class NaryOp:
    """An arity-n operation on an interval, evaluable as a pure function.

    ``eval`` must be deterministic and map domain tuples back into the
    domain; the registry entries are sample-checked for that closure.
    """

    arity: int
    domain: Interval
    eval: Callable[..., float] = field(compare=False)
    label: str = ""
    #: the additive generator, for registry operations that have one
    generator: GeneratorSpec | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.arity < 2:
            raise ValueError("arity must be at least 2")

    def checked(self, *xs: float) -> float:
        """Evaluate and verify the result stayed finite and in the domain.
        The error names the inputs, so a failure replays from its message,
        and carries the rejected value, None after an overflow."""
        try:
            y = self.eval(*xs)
        except OverflowError:  # fsum's intermediate overflow on huge inputs
            raise DomainEscapeError(f"{self.label or 'op'} overflowed at {xs!r}") from None
        if not math.isfinite(y):
            what = f"produced non-finite {y!r}"
        elif not self.domain.contains(y):
            what = f"escaped domain {self.domain.render()}: {y!r}"
        else:
            return y
        raise DomainEscapeError(f"{self.label or 'op'} {what} at {xs!r}", y)


@dataclass(frozen=True)
class ArityClass:
    """String lengths reachable by composing an arity-n operation: the
    positive integers congruent to 1 modulo n-1."""

    n: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("arity class needs n >= 2")

    def member(self, m: int) -> bool:
        return m >= 1 and (m - 1) % (self.n - 1) == 0

    def step(self) -> int:
        return self.n - 1


# --- Built-in gallery -------------------------------------------------------

BUILTIN_NAMES = (
    "sum",
    "translated_sum",
    "product",
    "bounded_product",
    "alternating",
    "identity_generator",
    "log_generator",
)


def builtin_lookup(name: str, n: int = 2):
    """Instantiate a registry entry at arity n.

    Operation names return :class:`NaryOp`, carrying their generator when
    they have one; generator names return a
    :class:`naryops.generator.GeneratorSpec`. ``alternating`` requires an
    odd arity n >= 3.
    """
    from .generator import GeneratorSpec  # local import avoids a cycle

    if name not in BUILTIN_NAMES:
        raise RegistryError(f"unknown builtin {name!r}; known: {', '.join(BUILTIN_NAMES)}")
    line = Interval.real_line()
    half_line = Interval.make(0.0, math.inf)
    identity = GeneratorSpec(
        phi=lambda x: x, domain=line, codomain=line, phi_inverse=lambda y: y,
        label="identity_generator",
    )
    log = GeneratorSpec(
        phi=math.log, domain=half_line, codomain=line, phi_inverse=math.exp,
        label="log_generator",
    )
    if name == "identity_generator":
        return identity
    if name == "log_generator":
        return log

    if n < 2:
        raise RegistryError(f"builtin {name!r} needs arity n >= 2, got {n}")
    if name == "sum":
        return NaryOp(n, line, lambda *xs: math.fsum(xs), f"sum/{n}", identity)
    if name == "translated_sum":
        # phi(x) = x + 1/(n-1), so f = sum + 1 and the neutral point is -1/(n-1)
        s = 1.0 / (n - 1)
        shifted = GeneratorSpec(
            phi=lambda x: x + s, domain=line, codomain=line, phi_inverse=lambda y: y - s,
            label=f"x + 1/{n - 1}",
        )
        return NaryOp(n, line, lambda *xs: math.fsum(xs) + 1.0, f"translated_sum/{n}", shifted)
    if name == "product":
        return NaryOp(n, half_line, lambda *xs: math.prod(xs), f"product/{n}", log)
    if name == "bounded_product":
        unit = Interval.make(0.0, 1.0)
        neg_log = GeneratorSpec(
            phi=math.log, domain=unit, codomain=Interval.make(-math.inf, 0.0),
            phi_inverse=math.exp, label="ln on (0,1)",
        )
        return NaryOp(n, unit, lambda *xs: math.prod(xs), f"bounded_product/{n}", neg_log)
    if name == "alternating":
        if n < 3 or n % 2 == 0:
            raise RegistryError(f"alternating requires an odd arity n >= 3, got {n}")
        return NaryOp(
            n,
            line,
            lambda *xs: math.fsum(x if i % 2 == 0 else -x for i, x in enumerate(xs)),
            f"alternating/{n}",
        )
    raise AssertionError("unreachable")
