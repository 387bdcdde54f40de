"""Building n-ary operations from additive generators.

A generator is a continuous, strictly monotone map phi from the domain
interval onto a codomain interval J that is closed under n-term sums.
The induced operation is phi-inverse of the sum of phi values. Inversion
uses an exact expression when one is supplied and ITP root-finding
(:func:`invert_monotone`) otherwise.
"""

from __future__ import annotations

import bisect as _bisect
import itertools
import math
import struct
import sys
import threading
from functools import partial
from typing import Callable, Sequence

from . import core
from .core import Interval, NaryOp, Record
from .errors import DomainEscapeError, InversionError, MonotonicityViolationError

__all__ = [
    "GeneratorSpec",
    "validate_codomain",
    "build_aczelian",
    "generator_sum",
    "invert_monotone",
    "estimate_codomain",
    "piecewise_linear",
    "tabulated_generator",
]

def validate_codomain(J: Interval, n: int) -> tuple[str, float | None]:
    """Classify J as one of the admissible forms and confirm that sums of
    n elements of J stay in J; return ``(form, bound)``.

    The admissible shapes are lower half-lines with bound b <= 0
    (``neg_open_b`` or ``neg_closed_b``), upper half-lines with bound
    a >= 0 (``pos_open_a`` or ``pos_closed_a``), and the full line
    (``full_line``, bound None); endpoint algebra shows these are exactly
    the intervals closed under n-term addition.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    lo_inf = math.isinf(J.lo)
    hi_inf = math.isinf(J.hi)
    if lo_inf and hi_inf:
        return "full_line", None
    if lo_inf:
        b = J.hi
        # elements below b sum to anything below n*b; closure needs n*b <= b
        if n * b > b:
            raise ValueError(
                f"codomain {J.render()} not closed under {n}-term sums "
                f"(upper bound {b} must be <= 0)"
            )
        return ("neg_open_b" if J.hi_open else "neg_closed_b"), b
    if hi_inf:
        a = J.lo
        if n * a < a:
            raise ValueError(
                f"codomain {J.render()} not closed under {n}-term sums "
                f"(lower bound {a} must be >= 0)"
            )
        return ("pos_open_a" if J.lo_open else "pos_closed_a"), a
    raise ValueError(
        f"codomain {J.render()} is bounded on both ends; sums of {n} elements escape"
    )


def _float_key(x: float) -> int:
    """Position of x on the float line: neighbouring floats get
    consecutive integers, and 0.0 and -0.0 both get 0."""
    bits = struct.unpack("<q", struct.pack("<d", x))[0]
    return bits if bits >= 0 else -(bits & 0x7FFF_FFFF_FFFF_FFFF)


def _key_float(key: int) -> float:
    """The float at a position of :func:`_float_key`."""
    if key >= 0:
        return struct.unpack("<d", struct.pack("<q", key))[0]
    return struct.unpack("<d", struct.pack("<Q", -key | 1 << 63))[0]


def _approach(endpoint: float, open_end: bool, x0: float, toward_low: bool):
    """Points marching from x0 toward an endpoint: the endpoint itself when
    closed; toward an infinite end, steps 2, 4, ..., 2^64 from x0, then
    steps squared while they stay finite, then the largest float, 68
    points in all; and toward a finite open end a gallop that halves
    the number of floats left between the point and the end, so it
    reaches the float next to the end in at most 64 points."""
    if math.isinf(endpoint):
        sign = -1.0 if toward_low else 1.0
        for k in (*range(1, 65), 128, 256, 512):
            yield x0 + sign * 2.0**k
        yield sign * sys.float_info.max
    elif not open_end:
        yield endpoint
    else:
        key, end = _float_key(x0), _float_key(endpoint)
        while abs(end - key) > 1:
            key = (key + end) // 2
            yield _key_float(key)


def _safe_phi(
    phi: Callable[[float], float], x: float, f_from: float = 0.0, f_to: float = 0.0
) -> float:
    """phi(x), with an OverflowError read as the infinity phi is heading
    toward: -inf when phi moved down from f_from to f_to, +inf otherwise."""
    try:
        return phi(x)
    except OverflowError:
        return -math.inf if f_to < f_from else math.inf


def _start_point(iv: Interval) -> float:
    """Where searches over an interval start: the midpoint when bounded,
    one unit inside a single finite end, zero on the whole line."""
    if math.isfinite(iv.lo) and math.isfinite(iv.hi):
        return 0.5 * (iv.lo + iv.hi)
    if math.isfinite(iv.lo):
        return iv.lo + 1.0
    if math.isfinite(iv.hi):
        return iv.hi - 1.0
    return 0.0


class _Ladder:
    """The samples :func:`invert_monotone` brackets with on one interval:
    phi at the start point, then (x, phi(x)) along :func:`_approach`
    toward each end, skipping points that do not move past the previous
    one. ``sides`` holds the samples toward the low and the high end, in
    the order the approach reaches them. A sample is taken the first time
    a search needs it and kept, so a :class:`GeneratorSpec` pays for each
    of its bracketing samples once.

    A ladder may be shared between threads: samples are only appended,
    under a lock, so a reader indexes a growing prefix of ``sides``
    without one and calls :meth:`extend` past its end. Every phi handed
    to one ladder must take the same values."""

    __slots__ = ("interval", "x0", "f0", "sides", "_points", "_lock")

    def __init__(self, interval: Interval):
        self.interval = interval
        self.x0 = x0 = _start_point(interval)
        self.f0: float | None = None
        self.sides: tuple[list, list] = ([], [])
        self._points = [
            _approach(interval.lo, interval.lo_open, x0, True),
            _approach(interval.hi, interval.hi_open, x0, False),
        ]
        self._lock = threading.Lock()

    def start(self, phi: Callable[[float], float]) -> tuple[float, float]:
        """The start point and the value of phi there."""
        if self.f0 is None:
            with self._lock:
                if self.f0 is None:
                    self.f0 = _safe_phi(phi, self.x0)
        return self.x0, self.f0

    def extend(self, phi: Callable[[float], float], high: bool, i: int) -> bool:
        """Take the next sample toward one end unless sample i exists (i
        is at most the number of samples); False when the approach ends
        first. An OverflowError reads as the infinity phi is heading
        toward (:func:`_safe_phi`); any other error leaves the point to be
        sampled again."""
        samples, points = self.sides[high], self._points[high]
        with self._lock:
            if i < len(samples):  # another thread took it
                return True
            last, f_last = samples[-1] if samples else (self.x0, self.f0)
            for x in points:
                if x > last if high else x < last:
                    break
            else:
                return False
            try:
                samples.append((x, _safe_phi(phi, x, self.f0, f_last)))
            except BaseException:
                self._points[high] = itertools.chain((x,), points)
                raise
        return True


def estimate_codomain(phi: Callable[[float], float], domain: Interval) -> Interval:
    """Heuristic image interval of a monotone map, from phi at the points
    :func:`invert_monotone` brackets with, in its order: the start point,
    then along :func:`_approach` toward the low end and the high end, each
    point past the last one sampled. A closed finite end is a closed bound
    at phi(end). Toward an open end, a limit still moving between the last
    two samples is infinite, a settled one an open bound (zero when tiny).
    A NaN value, the same infinity at every sample, or an escape of phi at
    any sample, which is named with the interval, raises
    :class:`DomainEscapeError`; one limit at both ends, which no monotone
    phi has, raises :class:`MonotonicityViolationError`."""

    def escape(what: str, x: float, exc: DomainEscapeError) -> DomainEscapeError:
        where = f"{what} {x!r} of {domain.render()}"
        return DomainEscapeError(f"generator fails at {where}: {exc}", exc.value)

    x0 = _start_point(domain)
    try:
        f0 = _safe_phi(phi, x0)
    except DomainEscapeError as exc:
        raise escape("the start point", x0, exc) from exc

    def chase(end, open_end, high):
        """The limit toward one end, and whether it is an open bound."""
        prev, last, x_last = None, f0, x0
        for x in _approach(end, open_end, x0, not high):
            if x > x_last if high else x < x_last:
                x_last = x
                try:
                    prev, last = last, _safe_phi(phi, x, f0, last)
                except DomainEscapeError as exc:
                    what = "the sample" if open_end else "the closed end"
                    raise escape(what, x, exc) from exc
                if math.isnan(last):
                    raise DomainEscapeError(f"generator value is nan at x={x!r}")
                if math.isinf(last):
                    return last, True
        if not open_end:  # phi at the end itself (x0 when no float lies between)
            return last, False
        if prev is not None and abs(last - prev) > 1e-6 * (1.0 + abs(last)):
            return math.copysign(math.inf, last - prev), True
        return (0.0 if abs(last) <= 1e-9 else last), True

    ends = chase(domain.lo, domain.lo_open, False), chase(domain.hi, domain.hi_open, True)
    (v_lo, lo_open), (v_hi, hi_open) = sorted(ends)  # a decreasing phi swaps them
    if math.isinf(f0) and v_lo == v_hi == f0:  # no finite value to span
        raise DomainEscapeError(f"generator value is {f0!r} at every sample of {domain.render()}")
    if v_lo == v_hi:
        raise MonotonicityViolationError(
            f"generator is not monotone on {domain.render()}: it tends to {v_lo!r} at both ends"
        )
    return Interval.make(v_lo, v_hi, lo_open, hi_open)


#: ITP constants (Oliveira & Takahashi, ACM TOMS 47(1), 2021). In a
#: bracket of width w that started at width w0, the regula falsi point
#: moves toward the midpoint by _KAPPA1 * w0 * (w / w0) ** _KAPPA2; kappa2
#: inside ITP's [1, 1 + golden ratio) keeps convergence superlinear. The
#: projection allows _N0 steps more than bisection would take.
_KAPPA1 = 0.25
_KAPPA2 = 2.5
_N0 = 1


def _check_monotone(x: float, fx: float, fa: float, fb: float, slack: float) -> None:
    """Raise unless phi(x) = fx lies between the values fa and fb that phi
    takes at the ends of a bracket around x, up to slack."""
    if not min(fa, fb) - slack <= fx <= max(fa, fb) + slack:
        raise InversionError(
            f"sign pattern violates monotonicity near x={x!r}: "
            f"phi(x)={fx!r} outside [{fa!r}, {fb!r}]"
        )


def invert_monotone(
    phi: Callable[[float], float],
    y: float,
    bracket: Interval,
    tol: float | None = None,
) -> float:
    """Solve phi(x) = y for strictly monotone phi by ITP root-finding.

    Bracketing starts at the start point of ``bracket`` and takes one step
    toward each end along :func:`_approach`, as :func:`estimate_codomain`
    does. Once these steps show on which side y lies, only that side
    grows, and the bracket narrows to the last two samples. The samples
    come from a ladder: :meth:`GeneratorSpec.inverse` passes the one it
    keeps for its domain in place of ``bracket``, so it takes each
    sample once for all its targets, and a plain interval gets a fresh
    ladder. The same points in the same order give the same bracket
    either way. ITP then refines it: regula falsi, truncated toward the
    midpoint and projected so that it takes at most
    ceil(log2(width / tol)) + 1 steps. The result is the midpoint of a
    final bracket no wider than tol, an absolute width in x. The default
    tol is four ulps of the bracket end nearer zero, or of the farther
    end when the bracket reaches zero. A target outside the sampled
    range, or a phi value outside the values at the bracket ends, raises
    :class:`InversionError`.
    """
    ladder = bracket if isinstance(bracket, _Ladder) else _Ladder(bracket)
    x0, f0 = ladder.x0, ladder.f0
    if f0 is None:
        x0, f0 = ladder.start(phi)
    if f0 == y:
        return x0
    # the range tests below read "y lies between u and v", False for NaN
    lows, highs = ladder.sides
    a, fa = lows[0] if lows or ladder.extend(phi, False, 0) else (x0, f0)
    if fa == y:
        return a
    b, fb = x0, f0
    if not (fa <= y <= f0 or f0 <= y <= fa):
        if highs or ladder.extend(phi, True, 0):
            b, fb = highs[0]
        if fb == y:
            return b
        _check_monotone(x0, f0, fa, fb, 1e-12 * (1.0 + min(abs(fa), abs(fb))))
        if f0 <= y <= fb or fb <= y <= f0:
            a, fa = x0, f0
        else:
            up = (fb > fa) == (y > fb)
            side, near, f_near, f_far = (highs, b, fb, fa) if up else (lows, a, fa, fb)
            i = 1
            while i < len(side) or ladder.extend(phi, up, i):
                x, fx = side[i]
                if fx == y:
                    return x
                if f_near <= y <= fx or fx <= y <= f_near:
                    break
                near, f_near = x, fx
                i += 1
            else:
                raise InversionError(
                    f"target {y!r} outside the sampled range [{min(f_far, f_near)!r}, "
                    f"{max(f_far, f_near)!r}] of {ladder.interval.render()}"
                )
            (a, fa), (b, fb) = ((near, f_near), (x, fx)) if up else ((x, fx), (near, f_near))
    # a gallop can leave a bracket across many binades, or one whose width
    # overflows; ITP steps in real space, so bisect it in float space until
    # its width is finite and its ends, unless they straddle zero, are
    # within a factor of two
    slack = 1e-12 * (1.0 + min(abs(fa), abs(fb)))
    f_end = fb if math.isinf(fb) else fa
    while not b - a < math.inf or (a > 0.0 and b > 2.0 * a) or (b < 0.0 and a < 2.0 * b):
        x = _key_float((_float_key(a) + _float_key(b)) // 2)
        fx = _safe_phi(phi, x, 0.0, f_end)
        if fx == y:
            return x
        _check_monotone(x, fx, fa, fb, slack)
        if fa <= y <= fx or fx <= y <= fa:
            b, fb = x, fx
        else:
            a, fa = x, fx
    if tol is None:
        tol = 4.0 * math.ulp(min(abs(a), abs(b)) if a > 0.0 or b < 0.0 else max(abs(a), abs(b)))
    return _itp(phi, y, a, fa, b, fb, tol)


def _midpoint(a: float, b: float) -> float:
    """(a + b) / 2, from halves where the sum overflows."""
    mid = 0.5 * (a + b)
    return mid if abs(mid) < math.inf else 0.5 * a + 0.5 * b


def _itp(
    phi: Callable[[float], float], y: float, a: float, fa: float, b: float, fb: float, tol: float
) -> float:
    """Midpoint of a bracket no wider than tol, shrunk from [a, b] whose
    end values fa, fb lie on either side of y."""
    if not tol > 0.0:
        tol = math.ulp(0.0)  # no width is narrower; the loop ends when the bracket collapses
    w0 = b - a
    if w0 <= tol:
        return _midpoint(a, b)
    increasing = fb > fa
    slack = 1e-12 * (1.0 + min(abs(fa), abs(fb)))
    # a monotone phi overflows inside the bracket only next to an end whose
    # value is infinite, so an overflow reads as that infinity (with two
    # finite ends, as an infinity that fails the monotonicity check)
    f_over = -math.inf if (fb if math.isinf(fb) else fa) < 0.0 else math.inf
    ratio = w0 / tol
    halvings = math.log2(ratio) if ratio < math.inf else math.log2(w0) - math.log2(tol)
    n_max = math.ceil(halvings) + _N0
    # each step below is _midpoint, the truncation max(_KAPPA1 * w0 *
    # (w / w0) ** _KAPPA2, 0.5 * tol) and the projection test
    # abs(x_t - mid) <= r, written out as the same float operations
    inf, k1w0, half_tol = math.inf, _KAPPA1 * w0, 0.5 * tol
    for j in range(n_max):
        w = b - a
        if w <= tol:
            break
        mid = 0.5 * (a + b)
        if not -inf < mid < inf:
            mid = 0.5 * a + 0.5 * b
        x_f = a + (y - fa) * w / (fb - fa)
        if not a < x_f < b:  # an infinite end value, or rounding onto an end
            x_f = mid
        if mid >= x_f:
            sigma, gap = 1.0, mid - x_f
        else:
            sigma, gap = -1.0, x_f - mid
        # never below half of tol, so a point already on the root lands
        # across it and closes the bracket
        delta = k1w0 * (w / w0) ** _KAPPA2
        if half_tol > delta:
            delta = half_tol
        x_t = x_f + sigma * delta if delta <= gap else mid
        try:
            r = math.ldexp(tol, n_max - j - 1) - 0.5 * w
        except OverflowError:  # a bracket wider than 2^1023: no projection yet
            r = inf
        x = x_t if -r <= x_t - mid <= r else mid - sigma * r
        if not a < x < b:
            x = mid
            if not a < x < b:
                break
        # _safe_phi inline, and _check_monotone's test for either order of
        # fa and fb, with the call left to build the error
        try:
            fx = phi(x)
        except OverflowError:
            fx = f_over
        if fx == y:
            return x
        if not (fa - slack <= fx <= fb + slack or fb - slack <= fx <= fa + slack):
            _check_monotone(x, fx, fa, fb, slack)
        if (fx < y) == increasing:
            a, fa = x, fx
        else:
            b, fb = x, fx
    return _midpoint(a, b)


#: roots a :class:`GeneratorSpec` keeps before its memo starts over, and
#: the memo's key for the target -0.0
_MEMO_SIZE = 4096
_NEGATIVE_ZERO = "-0.0"


class GeneratorSpec(Record):
    """A strictly monotone continuous generator with domain and codomain.

    ``phi_inverse`` may be an exact callable; when absent, inversion falls
    back to ITP root-finding over the domain (:func:`invert_monotone`).
    Such a spec then keeps a ladder of the bracketing samples on its
    domain, so each sample of phi is taken once, the first time a target
    needs it, and a memo of the roots it has found, so a y it has solved
    before (bit for bit: 0.0 is not -0.0) costs no phi call. The memo
    starts over after _MEMO_SIZE roots. The results are those of
    ``invert_monotone(phi, y, domain)``. A spec may be shared between
    threads; its ladder takes new samples under a lock.
    ``kind`` distinguishes closed-form generators from tabulated ones
    reconstructed by extraction. Neither ``phi`` nor ``phi_inverse`` is
    compared.
    """

    __slots__ = ("phi", "domain", "codomain", "phi_inverse", "kind", "label", "_ladder", "_roots")
    _fields = ("phi", "domain", "codomain", "phi_inverse", "kind", "label")
    _compared = ("domain", "codomain", "kind", "label")

    def __init__(
        self, phi: Callable[[float], float], domain: Interval = Interval.real_line(),
        codomain: Interval = Interval.real_line(),
        phi_inverse: Callable[[float], float] | None = None, kind: str = "closed_form",
        label: str = "",
    ):
        if kind not in ("closed_form", "tabulated"):
            raise ValueError(f"unknown generator kind {kind!r}")
        numeric = phi_inverse is None  # inverted by root-finding
        super().__init__(
            phi, domain, codomain, phi_inverse, kind, label,
            _Ladder(domain) if numeric else None, {} if numeric else None,
        )

    def inverse(self, y: float) -> float:
        """The point whose generator value is y: the one place a sum of
        generator values turns back into a point. A y outside the codomain
        raises :class:`DomainEscapeError` naming y and the codomain."""
        # looked up on the module, so a wrapper patched onto it sees the call
        if not core.interval_contains(self.codomain, y):
            raise DomainEscapeError(
                f"generator sum {y!r} escapes codomain {self.codomain.render()}"
            )
        if self.phi_inverse is not None:
            return self.phi_inverse(y)
        roots = self._roots
        # -0.0 gets a key of its own: as a float it is the key of 0.0
        key = y if y or math.copysign(1.0, y) > 0.0 else _NEGATIVE_ZERO
        x = roots.get(key)
        if x is None:
            x = invert_monotone(self.phi, y, self._ladder, None)
            if len(roots) >= _MEMO_SIZE:
                roots.clear()
            roots[key] = x
        return x


def generator_sum(phi: Callable[[float], float], xs: Sequence) -> float:
    """The sum of the generator values phi(x) over xs, by fsum. On overflow
    the plain sum carries the infinity on to the codomain guard of
    :meth:`GeneratorSpec.inverse`; values of -inf and +inf have no sum and
    raise :class:`DomainEscapeError` naming them and xs."""
    values = list(map(phi, xs))
    try:
        return math.fsum(values)
    except OverflowError:
        return sum(values)
    except ValueError:  # fsum of -inf and +inf
        raise DomainEscapeError(f"generator values {values!r} at {xs!r} have no sum") from None


def build_aczelian(spec: GeneratorSpec, n: int) -> NaryOp:
    """The n-ary operation induced by a generator: invert the sum of
    generator values.

    Closed-form generators must have an admissible codomain. Tabulated
    generators carry a finite window of the true codomain, so the form
    check is skipped. Either way a sum outside the codomain raises
    :class:`DomainEscapeError` (see :meth:`GeneratorSpec.inverse`).
    """
    if spec.kind == "closed_form":
        validate_codomain(spec.codomain, n)

    phi = spec.phi
    inverse = spec.inverse

    def eval_fn(*xs: float) -> float:
        return inverse(generator_sum(phi, xs))

    label = f"generated[{spec.label or 'phi'}]/{n}"
    return NaryOp(n, spec.domain, eval_fn, label)


def piecewise_linear(xs: Sequence[float], ys: Sequence[float], t: float) -> float:
    """Value at t of the polyline through the knots (xs[i], ys[i]), xs
    strictly increasing; ValueError outside [xs[0], xs[-1]] (no
    extrapolation). With the roles of xs and ys swapped it inverts an
    increasing polyline."""
    if not xs[0] <= t <= xs[-1]:
        raise ValueError(f"{t!r} outside tabulated range [{xs[0]}, {xs[-1]}]")
    i = _bisect.bisect_right(xs, t) - 1
    if i == len(xs) - 1:
        return ys[-1]
    w = (t - xs[i]) / (xs[i + 1] - xs[i])
    return ys[i] + w * (ys[i + 1] - ys[i])


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
    for knots, what in ((xs, "abscissae"), (ys, "values")):
        if not all(a < b for a, b in zip(knots, knots[1:])):
            raise ValueError(f"knot {what} must be strictly increasing")
    return GeneratorSpec(
        phi=partial(piecewise_linear, xs, ys),
        domain=Interval.make(xs[0], xs[-1], False, False),
        codomain=Interval.make(ys[0], ys[-1], False, False),
        phi_inverse=partial(piecewise_linear, ys, xs),
        kind="tabulated",
        label=label,
    )
