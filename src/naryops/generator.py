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
import operator
import struct
import sys
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
    "approach",
    "itp",
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


def approach(endpoint: float, open_end: bool, x0: float, toward_low: bool):
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


def _walk(phi: Callable[[float], float], domain: Interval) -> tuple:
    """The samples :func:`invert_monotone` brackets with on a domain, all
    taken at once: phi at the start point, then (x, phi(x)) along
    :func:`approach` toward the low end and the high end, each point past
    the last one sampled, each side up to its first infinite value, which
    no finite target lies beyond. An overflow reads as +inf at the start
    point, as the infinity away from phi(x0) past a side's first sample,
    and at that first sample as -inf when the other side's first value is
    finite and above phi(x0), else +inf. When both first samples overflow,
    phi halved back toward x0 until finite on each side gives the direction
    if the two lie on opposite sides of phi(x0). Returns ``(x0, phi(x0),
    lows, highs)``, each side a tuple in the order the approach reaches it.
    A NaN value, or an escape of phi at any sample, which is named with
    the interval, raises :class:`DomainEscapeError`."""

    def escape(what: str, x: float, exc: DomainEscapeError) -> DomainEscapeError:
        where = f"{what} {x!r} of {domain.render()}"
        return DomainEscapeError(f"generator fails at {where}: {exc}", exc.value)

    x0 = _start_point(domain)
    try:
        f0 = phi(x0)
    except OverflowError:
        f0 = math.inf
    except DomainEscapeError as exc:
        raise escape("the start point", x0, exc) from exc
    inf, sides, first_over = math.inf, [], []
    ends = (domain.lo, domain.lo_open, False), (domain.hi, domain.hi_open, True)
    for end, open_end, high in ends:
        samples, last, fx = [], x0, f0
        for x in approach(end, open_end, x0, not high):
            if x > last if high else x < last:
                last = x
                try:  # on an overflow fx is still the last value
                    fx = phi(x)
                except OverflowError:
                    fx = -inf if fx < f0 else inf
                    if not samples:  # +inf for now: see below
                        first_over.append(high)
                except DomainEscapeError as exc:
                    raise escape("the sample" if open_end else "the closed end", x, exc) from exc
                samples.append((x, fx))
                if not -inf < fx < inf:
                    if fx != fx:
                        raise DomainEscapeError(f"generator value is nan at x={x!r}")
                    break
        sides.append(tuple(samples))
    # a first overflow heads away from the other side's first value, or from phi halfway back
    if len(first_over) == 2:
        backs = []
        for x, fx in (side[0] for side in sides):
            while fx == inf and x != (x := _midpoint(x0, x)):
                try:
                    fx = phi(x)
                except OverflowError:
                    pass
            backs.append(fx)
        if min(backs) < f0 < max(backs):  # on opposite sides of phi(x0)
            sides[backs[1] < f0] = ((sides[backs[1] < f0][0][0], -inf),)
    elif first_over and (other := sides[not first_over[0]]) and f0 < other[0][1] < inf:
        sides[first_over[0]] = ((sides[first_over[0]][0][0], -inf),)
    return x0, f0, *sides


def _table(walk: tuple) -> tuple:
    """A :func:`_walk`'s samples ordered for bisection: ``(sign, keys,
    hits, brackets)``. Ordered by x, the samples fall into runs of equal
    values. ``keys`` holds each run's value times sign (-1.0 for a
    decreasing phi), in increasing order, ``hits`` the x of its sample
    nearest the start point, and ``brackets[i]`` the ``(x, phi(x))`` pairs
    of the last sample of run i and the first of run i + 1, flattened.
    Values that are not monotone raise :class:`InversionError` at the
    first run whose value lies outside those of its neighbours."""
    x0, f0, lows, highs = walk
    samples = (*lows[::-1], (x0, f0), *highs)
    xs, fs = zip(*samples)
    for sign in (1.0, -1.0):  # strictly monotone: every run one sample
        keys = tuple(map(sign.__mul__, fs))
        if all(map(operator.lt, keys, keys[1:])):
            return sign, keys, xs, tuple(zip(xs, fs, xs[1:], fs[1:]))
    runs = [tuple(run) for _, run in itertools.groupby(samples, operator.itemgetter(1))]
    for before, run, after in zip(runs, runs[1:], runs[2:]):
        _check_monotone(*run[0], before[0][1], after[0][1], 0.0)
    sign = -1.0 if fs[-1] < fs[0] else 1.0
    keys = tuple(sign * run[0][1] for run in runs)
    hits = tuple(min(max(x0, run[0][0]), run[-1][0]) for run in runs)
    return sign, keys, hits, tuple((*run[-1], *after[0]) for run, after in zip(runs, runs[1:]))


def _codomain(domain: Interval, walk: tuple) -> Interval:
    """The image interval of phi read off a :func:`_walk` of its domain, as
    :func:`estimate_codomain` describes."""
    _, f0, lows, highs = walk

    def limit(samples: tuple, open_end: bool) -> tuple[float, bool]:
        """The limit toward one end, and whether it is an open bound."""
        values = [f0] + [fx for _, fx in samples[-2:]]
        last = values[-1]
        if samples and math.isinf(last):
            return last, True
        if not open_end:  # phi at the end itself (x0 when no float lies between)
            return last, False
        if samples and abs(last - values[-2]) > 1e-6 * (1.0 + abs(last)):
            return math.copysign(math.inf, last - values[-2]), True
        return (0.0 if abs(last) <= 1e-9 else last), True

    ends = limit(lows, domain.lo_open), limit(highs, domain.hi_open)
    (v_lo, lo_open), (v_hi, hi_open) = sorted(ends)  # a decreasing phi swaps them
    if math.isinf(f0) and v_lo == v_hi == f0:  # no finite value to span
        raise DomainEscapeError(f"generator value is {f0!r} at every sample of {domain.render()}")
    if v_lo == v_hi:
        raise MonotonicityViolationError(
            f"generator is not monotone on {domain.render()}: it tends to {v_lo!r} at both ends"
        )
    return Interval.make(v_lo, v_hi, lo_open, hi_open)


def estimate_codomain(phi: Callable[[float], float], domain: Interval) -> Interval:
    """Heuristic image interval of a monotone map, from phi at the points
    :func:`invert_monotone` brackets with, in its order: the start point,
    then along :func:`approach` toward the low end and the high end, each
    point past the last one sampled. A closed finite end is a closed bound
    at phi(end). Toward an open end, a limit still moving between the last
    two samples is infinite, a settled one an open bound (zero when tiny).
    A NaN value, the same infinity at every sample, or an escape of phi at
    any sample, which is named with the interval, raises
    :class:`DomainEscapeError`; one limit at both ends, which no monotone
    phi has, raises :class:`MonotonicityViolationError`."""
    return _codomain(domain, _walk(phi, domain))


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
    bracket: Interval | GeneratorSpec,
    tol: float | None = None,
) -> float:
    """Solve phi(x) = y for monotone phi by ITP root-finding.

    A :class:`GeneratorSpec` brackets on its domain from the samples it
    took when it was built, so it takes each of them once for all its
    targets; an interval is walked at once, as a spec on it with the real
    line as its codomain. The samples, ordered by x, fall into runs of
    equal values, and one bisection of the runs finds the run on y, whose
    sample nearest the start point is returned, or the two neighbouring
    samples around it. A target past the samples, or a NaN, which
    searches the low side for a rising phi and the high side for a falling
    one, raises :class:`InversionError` naming the last value on the side
    searched and the first on the other side of the start point. Values
    that are not monotone raise it when the spec is built. :func:`itp`
    refines the bracket to within tol.
    """
    if isinstance(bracket, Interval):
        bracket = GeneratorSpec(phi, bracket, Interval.real_line())
    sign, keys, hits, brackets = bracket._table
    k = sign * y
    i, n = _bisect.bisect_left(keys, k), len(keys)
    if i < n and keys[i] == k:
        return hits[i]
    if 0 < i < n:
        a, fa, b, fb = brackets[i - 1]
        return itp(phi, y, a, fa, b, fb, tol)
    # keys rise with x; bisect_left puts a NaN below them all, where it
    # searches the low side of a rising phi, and the high side of a falling one
    x0, f0, lows, highs = bracket._walk
    near, far = (lows, highs) if i == 0 and (sign > 0.0 or y == y) else (highs, lows)
    f_near, f_far = near[-1][1] if near else f0, far[0][1] if far else f0
    raise InversionError(
        f"target {y!r} outside the sampled range [{min(f_far, f_near)!r}, "
        f"{max(f_far, f_near)!r}] of {bracket.domain.render()}"
    )


def _midpoint(a: float, b: float) -> float:
    """(a + b) / 2, from halves where the sum overflows."""
    mid = 0.5 * (a + b)
    return mid if abs(mid) < math.inf else 0.5 * a + 0.5 * b


def itp(
    phi: Callable[[float], float], y: float, a: float, fa: float, b: float, fb: float,
    tol: float | None = None,
) -> float:
    """Midpoint of a bracket no wider than tol, shrunk from [a, b], a <= b,
    whose end values fa, fb lie on either side of y. A bracket across many
    binades, or wider than the largest float, is first bisected in float
    space, with the slack and the overflow reading of its original ends;
    a midpoint on y is returned at once. ITP then refines it: regula
    falsi, truncated toward the midpoint and projected so that it takes at
    most ceil(log2(width / tol)) + 1 steps. tol is an absolute width in x;
    by default four ulps of the bracket end nearer zero, or of the farther
    end when the bracket reaches zero. A monotone phi overflows inside a
    bracket only next to an end whose value is infinite, so an overflow
    reads as that infinity (with two finite ends, as an infinity that
    fails the monotonicity check). A phi value outside the values at the
    bracket ends raises :class:`InversionError`."""
    # ITP steps in real space, so a bracket that spans many binades, or has
    # a width that overflows, is bisected in float space first
    if not b - a < math.inf or (a > 0.0 and b > 2.0 * a) or (b < 0.0 and a < 2.0 * b):
        slack = 1e-12 * (1.0 + min(abs(fa), abs(fb)))
        f_over = -math.inf if (fb if math.isinf(fb) else fa) < 0.0 else math.inf
        while not b - a < math.inf or (a > 0.0 and b > 2.0 * a) or (b < 0.0 and a < 2.0 * b):
            x = _key_float((_float_key(a) + _float_key(b)) // 2)
            try:
                fx = phi(x)
            except OverflowError:
                fx = f_over
            if fx == y:
                return x
            _check_monotone(x, fx, fa, fb, slack)
            if fa <= y <= fx or fx <= y <= fa:
                b, fb = x, fx
            else:
                a, fa = x, fx
    if tol is None:  # a is the end nearer zero when positive, b when negative
        tol = 4.0 * math.ulp(a if a > 0.0 else b if b < 0.0 else max(-a, b))
    elif not tol > 0.0:
        tol = math.ulp(0.0)  # no width is narrower; the loop ends when the bracket collapses
    w0 = b - a
    if w0 <= tol:
        return _midpoint(a, b)
    f_over = -math.inf if (fb if math.isinf(fb) else fa) < 0.0 else math.inf
    ratio = w0 / tol
    halvings = math.log2(ratio) if ratio < math.inf else math.log2(w0) - math.log2(tol)
    n_max = math.ceil(halvings) + _N0
    # each step below is _midpoint, the truncation max(_KAPPA1 * w0 *
    # (w / w0) ** _KAPPA2, 0.5 * tol) toward the midpoint and the projection
    # test abs(x_t - mid) <= r, written out as the same float operations,
    # with tol * 2^e for e = n_max - 1 down to 0 as the projection's reach
    inf, k1w0, half_tol = math.inf, _KAPPA1 * w0, 0.5 * tol
    kappa2, ldexp = _KAPPA2, math.ldexp
    # values times sign rise from a to b; negation is exact, so the steps
    # compute the same floats as on phi itself
    sign = 1.0 if fb > fa else -1.0
    y, fa, fb, f_over = sign * y, sign * fa, sign * fb, sign * f_over
    # 1e-12 * (1 + min(|fa|, |fb|)), with fa < fb
    slack = 1e-12 * (1.0 + (fa if fa > 0.0 else -fb if fb < 0.0 else min(-fa, fb)))
    # a + b lies between 2a and 2b, so it can overflow only when they do
    wide = not (-inf < 2.0 * a and 2.0 * b < inf)
    for e in range(n_max - 1, -1, -1):
        w = b - a
        if w <= tol:
            break
        mid = 0.5 * (a + b)
        if wide and not -inf < mid < inf:
            mid = 0.5 * a + 0.5 * b
        x_f = a + (y - fa) * w / (fb - fa)
        if not a < x_f < b:  # an infinite end value, or rounding onto an end
            x_f = mid
        # never below half of tol, so a point already on the root lands
        # across it and closes the bracket
        delta = k1w0 * (w / w0) ** kappa2
        if half_tol > delta:
            delta = half_tol
        try:
            r = ldexp(tol, e) - 0.5 * w
        except OverflowError:  # a bracket wider than 2^1023: no projection yet
            r = inf
        if mid >= x_f:
            x_t = x_f + delta if delta <= mid - x_f else mid
            x = x_t if -r <= x_t - mid <= r else mid - r
        else:
            x_t = x_f - delta if delta <= x_f - mid else mid
            x = x_t if -r <= x_t - mid <= r else mid + r
        if not a < x < b:
            x = mid
            if not a < x < b:
                break
        # an overflow reads as f_over, and _check_monotone's test runs one side
        # at a time: with fa < y < fb, a value below y can only fall below
        # fa, and a value above y, or a NaN, can only fail against fb
        try:
            fx = sign * phi(x)
        except OverflowError:
            fx = f_over
        if fx == y:
            return x
        if fx < y:
            if fa - slack > fx:
                _check_monotone(x, sign * fx, sign * fa, sign * fb, slack)
            a, fa = x, fx
        else:
            if not fx <= fb + slack:
                _check_monotone(x, sign * fx, sign * fa, sign * fb, slack)
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
    ``codomain`` defaults to the one :func:`estimate_codomain` gives.
    A spec without an inverse or without a codomain walks its domain once,
    when it is built: phi at every sample that inversion brackets with
    and the estimate reads, so a NaN or an escape of phi on the way
    raises there, with the estimate's message. A spec without an inverse
    brackets every target from those samples, sorted once for bisection
    into runs of equal values (values that are not monotone raise
    :class:`InversionError` there), and keeps a memo of the
    roots it has found, so a y it has solved before (bit for bit: 0.0 is
    not -0.0) costs no phi call. The memo starts over after _MEMO_SIZE
    roots; it is all a spec changes after it is built. The results are
    those of ``invert_monotone(phi, y, domain)``.
    ``kind`` distinguishes closed-form generators from tabulated ones
    reconstructed by extraction. Neither ``phi`` nor ``phi_inverse`` is
    compared.
    """

    __slots__ = (
        "phi", "domain", "codomain", "phi_inverse", "kind", "label", "_walk", "_table", "_roots"
    )
    _fields = ("phi", "domain", "codomain", "phi_inverse", "kind", "label")
    _compared = ("domain", "codomain", "kind", "label")

    def __init__(
        self, phi: Callable[[float], float], domain: Interval = Interval.real_line(),
        codomain: Interval | None = None,
        phi_inverse: Callable[[float], float] | None = None, kind: str = "closed_form",
        label: str = "",
    ):
        if kind not in ("closed_form", "tabulated"):
            raise ValueError(f"unknown generator kind {kind!r}")
        walk = table = roots = None
        if phi_inverse is None or codomain is None:
            walk = _walk(phi, domain)
            if codomain is None:
                codomain = _codomain(domain, walk)
            if phi_inverse is None:  # inverted by root-finding
                table, roots = _table(walk), {}
        super().__init__(phi, domain, codomain, phi_inverse, kind, label, walk, table, roots)

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
            x = invert_monotone(self.phi, y, self, None)
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


def piecewise_linear(xs: Sequence[float], ys: Sequence[float]) -> partial:
    """The polyline through the knots (xs[i], ys[i]), xs strictly
    increasing, as a function of t, each segment's differences taken here
    once; ValueError outside [xs[0], xs[-1]] (no extrapolation). With xs
    and ys swapped it inverts an increasing polyline."""
    deltas = zip(xs, ys, map(operator.sub, xs[1:], xs), map(operator.sub, ys[1:], ys))
    return partial(_polyline, xs, (None, *deltas, None), ys[-1])


def _polyline(xs: Sequence[float], segments: tuple, last: float, t: float) -> float:
    # segments[i]: (x, y, dx, dy) of the segment that ends at knot i, None past either end
    if (segment := segments[_bisect.bisect_right(xs, t)]) is not None:
        x, y, dx, dy = segment
        return y + (t - x) / dx * dy
    if t == xs[-1]:
        return last
    raise ValueError(f"{t!r} outside tabulated range [{xs[0]}, {xs[-1]}]")


def tabulated_generator(
    xs: Sequence[float], ys: Sequence[float], label: str = "tabulated"
) -> GeneratorSpec:
    """Piecewise-linear generator through strictly increasing knots.

    Evaluation and inversion solve the covering segment directly; both
    raise ValueError outside the tabulated window (no extrapolation).
    """
    xs, ys = [float(v) for v in xs], [float(v) for v in ys]
    if len(xs) != len(ys) or len(xs) < 2:
        raise ValueError("need at least two knots with matching lengths")
    for knots, what in ((xs, "abscissae"), (ys, "values")):
        if not all(a < b for a, b in zip(knots, knots[1:])):
            raise ValueError(f"knot {what} must be strictly increasing")
    return GeneratorSpec(
        phi=piecewise_linear(xs, ys),
        domain=Interval.make(xs[0], xs[-1], False, False),
        codomain=Interval.make(ys[0], ys[-1], False, False),
        phi_inverse=piecewise_linear(ys, xs),
        kind="tabulated",
        label=label,
    )
