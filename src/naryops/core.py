"""Intervals over the extended reals, n-ary operations, and the registry
of built-in operations.

Everything here is immutable after construction and evaluation is pure,
so values can be shared between threads. Registry and expression
operations do not pickle: ``eval`` is a lambda or a generated function.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable

from .errors import DomainEscapeError

if TYPE_CHECKING:
    from .generator import GeneratorSpec

__all__ = [
    "Interval",
    "interval_contains",
    "NaryOp",
    "lattice",
    "window_point",
    "builtin_lookup",
    "BUILTIN_NAMES",
]


class Record:
    """The base of the package's immutable records. A subclass lists its
    fields in ``__slots__``, those its repr shows (``Name(field=value,
    ...)``) in ``_fields``, and those ``==`` and ``hash`` read in
    ``_compared`` when not the same; ``==`` also asks for the same class,
    so ``Num(1.0) != Var(1)``. The one constructor takes a value per slot,
    in slot order; a record that validates or derives fields calls it
    from its own. Assigning or deleting a field raises AttributeError: a
    variant is built with the constructor."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _compared: tuple[str, ...] = ()

    def __init__(self, *values) -> None:
        """Store one value per slot, in the order of ``__slots__``."""
        if len(values) != len(self.__slots__):
            raise TypeError(f"{type(self).__name__} takes one value per slot of {self.__slots__}")
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")

    def __setstate__(self, state) -> None:
        """Restore a copied or unpickled record from its state, ``(None,
        slots)``, as no record has a ``__dict__``."""
        for name, value in state[1].items():
            object.__setattr__(self, name, value)

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._compared or self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"


class Interval(Record):
    """A nontrivial real interval with independent open/closed endpoints.

    ``lo`` and ``hi`` are floats, with -inf and +inf for unbounded ends
    (Python floats already order the extended line) and ``-0.0`` stored
    as ``0.0``. An infinite endpoint must be open: the constructor raises
    ``ValueError`` for a closed one, while :meth:`make` and :meth:`parse`
    force it open. ``lo < hi`` so the interval is neither empty nor a
    singleton, and a NaN endpoint fails that test.
    """

    __slots__ = _fields = ("lo", "hi", "lo_open", "hi_open")

    def __init__(self, lo: float, hi: float, lo_open: bool = True, hi_open: bool = True):
        lo = float(lo) + 0.0  # normalizes -0.0
        hi = float(hi) + 0.0
        if not lo < hi:
            raise ValueError("interval needs lo < hi")
        if (math.isinf(lo) and not lo_open) or (math.isinf(hi) and not hi_open):
            raise ValueError("infinite endpoint must be open")
        super().__init__(lo, hi, lo_open, hi_open)

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
    """True iff x lies in iv, respecting open and closed endpoints: one
    chained comparison, which a NaN fails."""
    if iv.lo_open:
        return iv.lo < x < iv.hi if iv.hi_open else iv.lo < x <= iv.hi
    return iv.lo <= x < iv.hi if iv.hi_open else iv.lo <= x <= iv.hi


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

    Raises ValueError when the interval inside the window holds fewer than
    two lattice points or the window is not finite.
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
    where = f"interval {iv.render()} inside window [-{window}, {window}]"
    if j_min > j_max:
        raise ValueError(f"{where} holds no lattice point")
    # every tuple drawn from one point is constant, so no check could fail
    if j_min == j_max:
        raise ValueError(f"{where} holds one lattice point, {j_min * h!r}")
    return j_min, j_max, h


def window_point(lo: float, hi: float, t: float) -> float:
    """The point a fraction t of the way from lo to hi, lo + (hi - lo) * t,
    from halved bounds, as hi - lo overflows on the widest windows;
    halving and doubling are exact above the subnormals, so a window of
    finite width gets that value bit for bit. The one point-at-a-fraction
    rule of the sampled checks."""
    return 2.0 * (lo / 2.0 + (hi / 2.0 - lo / 2.0) * t)


class NaryOp(Record):
    """An arity-n operation on an interval, evaluable as a pure function.

    ``eval`` must be deterministic and map domain tuples back into the
    domain; the registry entries are sample-checked for that closure.
    ``generator`` is the additive generator, for registry operations that
    have one. Neither ``eval`` nor ``generator`` is compared.
    """

    __slots__ = ("arity", "domain", "eval", "label", "generator")
    _fields = ("arity", "domain", "eval", "label")
    _compared = ("arity", "domain", "label")

    def __init__(
        self, arity: int, domain: Interval, eval: Callable[..., float], label: str = "",
        generator: GeneratorSpec | None = None,
    ):
        if arity < 2:
            raise ValueError("arity must be at least 2")
        super().__init__(arity, domain, eval, label, generator)

    def checked(self, *xs: float) -> float:
        """Evaluate and verify the result stayed finite and in the domain.
        The error names the operation and the inputs, so a failure replays
        from its message, and carries the rejected value, None after an
        overflow, whose OverflowError it keeps as its cause. An escape
        raised inside ``eval`` gets the same names and keeps its value and
        any OverflowError cause."""
        try:
            y = self.eval(*xs)
        except OverflowError as exc:  # fsum's intermediate overflow on huge inputs
            raise DomainEscapeError(f"{self.label or 'op'} overflowed at {xs!r}") from exc
        except DomainEscapeError as exc:
            cause = exc.__cause__ if isinstance(exc.__cause__, OverflowError) else exc
            raise DomainEscapeError(f"{self.label or 'op'} at {xs!r}: {exc}", exc.value) from cause
        # one domain test accepts: infinite ends are open, so a value in
        # the domain is finite and isfinite only picks the rejection message
        if interval_contains(self.domain, y):
            return y
        if math.isfinite(y):
            what = f"escaped domain {self.domain.render()}: {y!r}"
        else:
            what = f"produced non-finite {y!r}"
        raise DomainEscapeError(f"{self.label or 'op'} {what} at {xs!r}", y)


# --- Built-in gallery -------------------------------------------------------

BUILTIN_NAMES = (
    "sum",
    "translated_sum",
    "product",
    "bounded_product",
    "alternating",
)


def builtin_lookup(name: str, n: int = 2):
    """Instantiate a registry operation at arity n, a :class:`NaryOp`
    carrying its generator when it has one: the identity for ``sum``,
    the logarithm for ``product``. ``alternating`` requires an odd arity
    n >= 3.
    """
    from .generator import GeneratorSpec  # local import avoids a cycle

    if name not in BUILTIN_NAMES:
        raise ValueError(f"unknown builtin {name!r}; known: {', '.join(BUILTIN_NAMES)}")
    if n < 2:
        raise ValueError(f"builtin {name!r} needs arity n >= 2, got {n}")
    line = Interval.real_line()
    if name == "sum":
        identity = GeneratorSpec(
            phi=lambda x: x, domain=line, codomain=line, phi_inverse=lambda y: y,
            label="identity_generator",
        )
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
        half_line = Interval.make(0.0, math.inf)
        log = GeneratorSpec(
            phi=math.log, domain=half_line, codomain=line, phi_inverse=math.exp,
            label="log_generator",
        )
        return NaryOp(n, half_line, lambda *xs: math.prod(xs), f"product/{n}", log)
    if name == "bounded_product":
        unit = Interval.make(0.0, 1.0)
        neg_log = GeneratorSpec(
            phi=math.log, domain=unit, codomain=Interval.make(-math.inf, 0.0),
            phi_inverse=math.exp, label="ln on (0,1)",
        )
        return NaryOp(n, unit, lambda *xs: math.prod(xs), f"bounded_product/{n}", neg_log)
    if n < 3 or n % 2 == 0:  # alternating, the last name
        raise ValueError(f"alternating requires an odd arity n >= 3, got {n}")
    return NaryOp(
        n,
        line,
        lambda *xs: math.fsum(x if i % 2 == 0 else -x for i, x in enumerate(xs)),
        f"alternating/{n}",
    )
