"""Building n-ary operations from additive generators.

A generator is a continuous, strictly monotone map phi from the domain
interval onto a codomain interval J that is closed under n-term sums.
The induced operation is phi-inverse of the sum of phi values. Inversion
uses an exact expression when one is supplied and monotone bisection
otherwise.
"""

from __future__ import annotations

import bisect as _bisect
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

from .core import Interval, NaryOp
from .errors import CodomainError, InversionError

__all__ = [
    "GeneratorSpec",
    "CodomainForm",
    "validate_codomain",
    "build_aczelian",
    "invert_monotone",
    "tabulated_generator",
]

#: forms a codomain may take: half-lines pinched at a bound on the correct
#: side of zero, or the whole line
CODOMAIN_FORMS = (
    "neg_open_b",
    "neg_closed_b",
    "pos_open_a",
    "pos_closed_a",
    "full_line",
)


@dataclass(frozen=True)
class CodomainForm:
    form: str
    bound: float | None = None

    def __post_init__(self):
        if self.form not in CODOMAIN_FORMS:
            raise ValueError(f"unknown codomain form {self.form!r}")
        if self.form == "full_line":
            if self.bound is not None:
                raise ValueError("the full line carries no bound")
        elif self.form.startswith("neg"):
            if self.bound is None or self.bound > 0.0:
                raise ValueError("lower half-line forms need a bound <= 0")
        elif self.bound is None or self.bound < 0.0:
            raise ValueError("upper half-line forms need a bound >= 0")


def validate_codomain(J: Interval, n: int) -> CodomainForm:
    """Classify J as one of the admissible forms and confirm that sums of
    n elements of J stay in J.

    The admissible shapes are lower half-lines with bound b <= 0, upper
    half-lines with bound a >= 0, and the full line; endpoint algebra shows
    these are exactly the intervals closed under n-term addition.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    lo_inf = math.isinf(J.lo)
    hi_inf = math.isinf(J.hi)
    if lo_inf and hi_inf:
        return CodomainForm("full_line", None)
    if lo_inf:
        b = J.hi
        # elements below b sum to anything below n*b; closure needs n*b <= b
        if n * b > b:
            raise CodomainError(
                f"codomain {J.render()} not closed under {n}-term sums "
                f"(upper bound {b} must be <= 0)"
            )
        return CodomainForm("neg_open_b" if J.hi_open else "neg_closed_b", b)
    if hi_inf:
        a = J.lo
        if n * a < a:
            raise CodomainError(
                f"codomain {J.render()} not closed under {n}-term sums "
                f"(lower bound {a} must be >= 0)"
            )
        return CodomainForm("pos_open_a" if J.lo_open else "pos_closed_a", a)
    raise CodomainError(
        f"codomain {J.render()} is bounded on both ends; sums of {n} elements escape"
    )


def _approach(endpoint: float, open_end: bool, x0: float, toward_low: bool):
    """Points marching from x0 toward an endpoint: the endpoint itself when
    closed, a shrinking offset sequence width * 10^-k when finite and open,
    geometric expansion when infinite."""
    if math.isinf(endpoint):
        for k in range(1, 200):
            yield x0 - 2.0**k if toward_low else x0 + 2.0**k
    elif not open_end:
        yield endpoint
    else:
        width = abs(x0 - endpoint)
        for k in range(1, 13):
            off = width * 10.0 ** (-k)
            yield endpoint + off if toward_low else endpoint - off


def _safe_phi(phi: Callable[[float], float], x: float) -> float:
    try:
        return phi(x)
    except OverflowError:
        return math.inf


def invert_monotone(
    phi: Callable[[float], float],
    y: float,
    bracket: Interval,
    tol: float | None = None,
) -> float:
    """Solve phi(x) = y for strictly monotone phi by bisection.

    The result x is within tol of the true preimage inside the bracket;
    with the default tol of 1e-12 * (1 + |y|) the phi-residual stays far
    below axiom tolerances for generators of moderate slope. Open ends are
    approached by a shrinking offset sequence, infinite ends by geometric
    expansion; a sign pattern incompatible with monotonicity raises
    :class:`InversionError`.
    """
    if tol is None:
        tol = 1e-12 * (1.0 + abs(y))
    lo = bracket.lo
    hi = bracket.hi
    if math.isfinite(lo) and math.isfinite(hi):
        x0 = 0.5 * (lo + hi)
    elif math.isfinite(lo):
        x0 = lo + 1.0
    elif math.isfinite(hi):
        x0 = hi - 1.0
    else:
        x0 = 0.0

    f0 = _safe_phi(phi, x0)
    if f0 == y:
        return x0
    a = b = x0
    fa = fb = f0
    low_points = _approach(lo, bracket.lo_open, x0, True)
    high_points = _approach(hi, bracket.hi_open, x0, False)
    while (fa - y) * (fb - y) > 0.0:
        advanced = False
        cand = next(low_points, None)
        if cand is not None and cand < a:
            a, fa = cand, _safe_phi(phi, cand)
            advanced = True
        if (fa - y) * (fb - y) <= 0.0:
            break
        cand = next(high_points, None)
        if cand is not None and cand > b:
            b, fb = cand, _safe_phi(phi, cand)
            advanced = True
        if not advanced:
            raise InversionError(
                f"target {y!r} outside the sampled range "
                f"[{min(fa, fb)!r}, {max(fa, fb)!r}] of {bracket.render()}"
            )
    if fa == y:
        return a
    if fb == y:
        return b

    increasing = fb > fa
    slack = 1e-12 * (1.0 + min(abs(fa), abs(fb)))
    while b - a > tol:
        mid = 0.5 * (a + b)
        if mid <= a or mid >= b:
            break
        fm = phi(mid)
        if fm == y:
            return mid
        if fm < min(fa, fb) - slack or fm > max(fa, fb) + slack:
            raise InversionError(
                f"sign pattern violates monotonicity near x={mid!r}: "
                f"phi(mid)={fm!r} outside [{fa!r}, {fb!r}]"
            )
        if (fm < y) == increasing:
            a, fa = mid, fm
        else:
            b, fb = mid, fm
    return 0.5 * (a + b)


@dataclass(frozen=True)
class GeneratorSpec:
    """A strictly monotone continuous generator with domain and codomain.

    ``phi_inverse`` may be an exact callable; when absent, inversion falls
    back to monotone bisection over the domain. ``kind`` distinguishes
    closed-form generators from tabulated ones reconstructed by extraction.
    """

    phi: Callable[[float], float] = field(compare=False)
    domain: Interval = field(default_factory=Interval.real_line)
    codomain: Interval = field(default_factory=Interval.real_line)
    phi_inverse: Callable[[float], float] | None = field(default=None, compare=False)
    kind: str = "closed_form"
    label: str = ""

    def __post_init__(self):
        if self.kind not in ("closed_form", "tabulated"):
            raise ValueError(f"unknown generator kind {self.kind!r}")

    def inverse(self, y: float, tol: float | None = None) -> float:
        if self.phi_inverse is not None:
            return self.phi_inverse(y)
        return invert_monotone(self.phi, y, self.domain, tol)

    def scaled(self, r: float) -> "GeneratorSpec":
        """The generator r * phi, with the codomain mirrored when r < 0."""
        if r == 0.0:
            raise ValueError("scale factor must be nonzero")
        phi = self.phi
        inv = self.phi_inverse
        lo_f = self.codomain.lo
        hi_f = self.codomain.hi
        if r > 0:
            J = Interval.make(r * lo_f, r * hi_f, self.codomain.lo_open, self.codomain.hi_open)
        else:
            J = Interval.make(r * hi_f, r * lo_f, self.codomain.hi_open, self.codomain.lo_open)
        return GeneratorSpec(
            phi=lambda x: r * phi(x),
            domain=self.domain,
            codomain=J,
            phi_inverse=(lambda y: inv(y / r)) if inv is not None else None,
            kind=self.kind,
            label=f"{r}*{self.label}" if self.label else f"{r}*phi",
        )


def build_aczelian(spec: GeneratorSpec, n: int, inversion_tol: float | None = None) -> NaryOp:
    """The n-ary operation induced by a generator: invert the sum of
    generator values.

    Closed-form generators must have an admissible codomain. Tabulated
    generators carry a finite window of the true codomain, so the form
    check is skipped and evaluation fails when a sum leaves the window.
    """
    if spec.kind == "closed_form":
        validate_codomain(spec.codomain, n)

    phi = spec.phi
    inverse = spec.inverse

    def eval_fn(*xs: float) -> float:
        s = math.fsum(phi(x) for x in xs)
        return inverse(s, inversion_tol)

    label = f"generated[{spec.label or 'phi'}]/{n}"
    return NaryOp(n, spec.domain, eval_fn, label)


def tabulated_generator(
    xs: Sequence[float], ys: Sequence[float], label: str = "tabulated"
) -> GeneratorSpec:
    """Piecewise-linear generator through strictly increasing knots.

    Evaluation and inversion solve the covering segment directly; both
    raise ValueError outside the tabulated window (no extrapolation).
    """
    xs = [float(v) for v in xs]
    ys = [float(v) for v in ys]
    if len(xs) != len(ys) or len(xs) < 2:
        raise ValueError("need at least two knots with matching lengths")
    for a, b in zip(xs, xs[1:]):
        if not a < b:
            raise ValueError("knot abscissae must be strictly increasing")
    for a, b in zip(ys, ys[1:]):
        if not a < b:
            raise ValueError("knot values must be strictly increasing")

    def interp(t: float) -> float:
        if not xs[0] <= t <= xs[-1]:
            raise ValueError(f"{t!r} outside tabulated range [{xs[0]}, {xs[-1]}]")
        i = _bisect.bisect_right(xs, t) - 1
        if i == len(xs) - 1:
            return ys[-1]
        w = (t - xs[i]) / (xs[i + 1] - xs[i])
        return ys[i] + w * (ys[i + 1] - ys[i])

    def interp_inv(v: float) -> float:
        if not ys[0] <= v <= ys[-1]:
            raise ValueError(f"{v!r} outside tabulated range [{ys[0]}, {ys[-1]}]")
        i = _bisect.bisect_right(ys, v) - 1
        if i == len(ys) - 1:
            return xs[-1]
        w = (v - ys[i]) / (ys[i + 1] - ys[i])
        return xs[i] + w * (xs[i + 1] - xs[i])

    return GeneratorSpec(
        phi=interp,
        domain=Interval.make(xs[0], xs[-1], False, False),
        codomain=Interval.make(ys[0], ys[-1], False, False),
        phi_inverse=interp_inv,
        kind="tabulated",
        label=label,
    )
