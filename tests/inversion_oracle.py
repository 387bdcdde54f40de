"""A reference for numeric inversion: the straightforward form of
:func:`naryops.generator.invert_monotone` and its ITP refinement, and of
:func:`naryops.generator.estimate_codomain`, with the bracketing samples
kept on a ladder walked by generators and every helper a call.

The package's version walks a spec's domain, or a bare interval, once,
and brackets every target by bisecting those samples; it runs a flat
ITP loop and reads the codomain off the walk. On a ladder :func:`walked`
as the package walks, both must find the same roots and codomains,
raise the same errors and call phi at the same points in the same order
as this one.
"""

from __future__ import annotations

import itertools
import math
import struct
import sys
from typing import Callable

from naryops.core import Interval
from naryops.errors import DomainEscapeError, InversionError, MonotonicityViolationError


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
    """Points marching from x0 toward an endpoint: the endpoint when
    closed; steps 2, 4, ..., 2^64, then squared steps, then the largest
    float toward an infinite end; a float-space gallop toward an open
    finite end."""
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
    toward."""
    try:
        return phi(x)
    except OverflowError:
        return -math.inf if f_to < f_from else math.inf


def _start_point(iv: Interval) -> float:
    if math.isfinite(iv.lo) and math.isfinite(iv.hi):
        return 0.5 * (iv.lo + iv.hi)
    if math.isfinite(iv.lo):
        return iv.lo + 1.0
    if math.isfinite(iv.hi):
        return iv.hi - 1.0
    return 0.0


class Ladder:
    """The bracketing samples on one interval, taken the first time a walk
    reaches them and kept; one ladder may serve many targets."""

    def __init__(self, interval: Interval):
        self.interval = interval
        self.x0 = x0 = _start_point(interval)
        self.f0: float | None = None
        self._sides: tuple[list, list] = ([], [])
        self._points = [
            _approach(interval.lo, interval.lo_open, x0, True),
            _approach(interval.hi, interval.hi_open, x0, False),
        ]

    def start(self, phi):
        if self.f0 is None:
            self.f0 = _safe_phi(phi, self.x0)
        return self.x0, self.f0

    def walk(self, phi, high: bool):
        samples = self._sides[high]
        i = 0
        while i < len(samples) or self._extend(phi, high, i):
            yield samples[i]
            i += 1

    def _extend(self, phi, high: bool, i: int) -> bool:
        samples, points = self._sides[high], self._points[high]
        last, f_last = samples[-1] if samples else (self.x0, self.f0)
        for x in points:
            if x > last if high else x < last:
                break
        else:
            return False
        try:
            samples.append((x, self._value(phi, x, high, f_last)))
        except BaseException:
            self._points[high] = itertools.chain((x,), points)
            raise
        return True

    def _value(self, phi, x: float, high: bool, f_last: float) -> float:
        """phi(x), with an OverflowError read as the infinity phi heads
        toward: away from f0, and at a side's first sample -inf when the
        other side's first value is finite and above f0, else +inf. The low
        side is sampled first, so its first overflow samples the high
        side's first point; the high side's first overflow reads the low
        side as it stands."""
        try:
            return phi(x)
        except OverflowError:
            pass
        if self._sides[high]:
            return -math.inf if f_last < self.f0 else math.inf
        other = self._sides[not high]
        if not high and not other:
            self._extend(phi, True, 0)
        return -math.inf if other and self.f0 < other[0][1] < math.inf else math.inf


def walked(phi, domain: Interval) -> Ladder:
    """A ladder holding the samples a spec takes when it is built: phi at
    the start point, then each side walked up to its first infinite
    value, where the side ends; a NaN value raises."""
    ladder = Ladder(domain)
    ladder.start(phi)
    for high in (False, True):
        for x, fx in ladder.walk(phi, high):
            if math.isnan(fx):
                raise DomainEscapeError(f"generator value is nan at x={x!r}")
            if math.isinf(fx):  # the side ends here, as a spec's walk does
                ladder._points[high] = iter(())
                break
    return ladder


def estimate_codomain(phi, domain: Interval) -> Interval:
    """The image interval of a monotone map, from the samples of a ladder
    walked toward each end: a closed bound at phi(end) for a closed
    finite end; past an open end, infinite where the limit still moves
    between the last two samples, else an open bound, snapped to zero
    when tiny; the same limit at both ends is no monotone map's."""
    ladder = Ladder(domain)
    _, f0 = ladder.start(phi)

    def chase(high, open_end):
        prev, last = None, f0
        for x, fx in ladder.walk(phi, high):
            if math.isnan(fx):
                raise DomainEscapeError(f"generator value is nan at x={x!r}")
            prev, last = last, fx
            if math.isinf(last):
                return last, True
        if not open_end:
            return last, False
        if prev is not None and abs(last - prev) > 1e-6 * (1.0 + abs(last)):
            return math.copysign(math.inf, last - prev), True
        if abs(last) <= 1e-9:
            return 0.0, True
        return last, True

    v_lo, lo_open = chase(False, domain.lo_open)
    v_hi, hi_open = chase(True, domain.hi_open)
    if math.isinf(f0) and v_lo == v_hi == f0:
        raise DomainEscapeError(f"generator value is {f0!r} at every sample of {domain.render()}")
    if v_lo == v_hi:
        raise MonotonicityViolationError(
            f"generator is not monotone on {domain.render()}: it tends to {v_lo!r} at both ends"
        )
    if v_hi < v_lo:
        v_lo, lo_open, v_hi, hi_open = v_hi, hi_open, v_lo, lo_open
    return Interval.make(v_lo, v_hi, lo_open, hi_open)


_KAPPA1 = 0.25
_KAPPA2 = 2.5
_N0 = 1


def _between(y: float, u: float, v: float) -> bool:
    return u <= y <= v or v <= y <= u


def _check_monotone(x: float, fx: float, fa: float, fb: float, slack: float) -> None:
    if not min(fa, fb) - slack <= fx <= max(fa, fb) + slack:
        raise InversionError(
            f"sign pattern violates monotonicity near x={x!r}: "
            f"phi(x)={fx!r} outside [{fa!r}, {fb!r}]"
        )


def invert_monotone(phi, y: float, bracket, tol: float | None = None) -> float:
    """Solve phi(x) = y on an interval, walked as :func:`walked` walks it,
    or on the samples of a walked :class:`Ladder` kept across targets."""
    ladder = bracket if isinstance(bracket, Ladder) else walked(phi, bracket)
    x0, f0 = ladder.start(phi)
    if f0 == y:
        return x0
    lows, highs = ladder.walk(phi, False), ladder.walk(phi, True)
    a, fa = next(lows, (x0, f0))
    if fa == y:
        return a
    b, fb = x0, f0
    if not _between(y, fa, f0):
        b, fb = next(highs, (x0, f0))
        if fb == y:
            return b
        _check_monotone(x0, f0, fa, fb, 1e-12 * (1.0 + min(abs(fa), abs(fb))))
        if _between(y, f0, fb):
            a, fa = x0, f0
        else:
            # phi rises unless the ladder's last value on the high side lies
            # below that on the low side; a NaN searches the low side of a
            # rising phi, the high side of a falling one
            ends = [side[-1][1] if side else f0 for side in ladder._sides]
            up = (not ends[1] < ends[0]) == (y > fb)
            side, near, f_near, f_far = (highs, b, fb, fa) if up else (lows, a, fa, fb)
            for x, fx in side:
                if fx == y:
                    return x
                if _between(y, f_near, fx):
                    break
                near, f_near = x, fx
            else:
                raise InversionError(
                    f"target {y!r} outside the sampled range [{min(f_far, f_near)!r}, "
                    f"{max(f_far, f_near)!r}] of {ladder.interval.render()}"
                )
            (a, fa), (b, fb) = ((near, f_near), (x, fx)) if up else ((x, fx), (near, f_near))
    return refine(phi, y, a, fa, b, fb, tol)


def refine(phi, y: float, a: float, fa: float, b: float, fb: float, tol: float | None = None):
    """The root in a bracket [a, b] whose end values lie on either side of
    y: bisected in float space while it spans binades or has an infinite
    width, then refined by ITP to tol, by default four ulps of the end
    nearer zero, or of the farther end when the bracket reaches zero."""
    slack = 1e-12 * (1.0 + min(abs(fa), abs(fb)))
    f_end = fb if math.isinf(fb) else fa
    while not b - a < math.inf or (
        (a > 0.0 or b < 0.0) and max(abs(a), abs(b)) > 2.0 * min(abs(a), abs(b))
    ):
        x = _key_float((_float_key(a) + _float_key(b)) // 2)
        fx = _safe_phi(phi, x, 0.0, f_end)
        if fx == y:
            return x
        _check_monotone(x, fx, fa, fb, slack)
        if _between(y, fa, fx):
            b, fb = x, fx
        else:
            a, fa = x, fx
    if tol is None:
        tol = 4.0 * math.ulp(min(abs(a), abs(b)) if a > 0.0 or b < 0.0 else max(abs(a), abs(b)))
    return _itp(phi, y, a, fa, b, fb, tol)


def _midpoint(a: float, b: float) -> float:
    mid = 0.5 * (a + b)
    return mid if abs(mid) < math.inf else 0.5 * a + 0.5 * b


def _itp(phi, y: float, a: float, fa: float, b: float, fb: float, tol: float) -> float:
    if not tol > 0.0:
        tol = math.ulp(0.0)
    w0 = b - a
    if w0 <= tol:
        return _midpoint(a, b)
    increasing = fb > fa
    slack = 1e-12 * (1.0 + min(abs(fa), abs(fb)))
    f_over = -math.inf if (fb if math.isinf(fb) else fa) < 0.0 else math.inf
    ratio = w0 / tol
    halvings = math.log2(ratio) if ratio < math.inf else math.log2(w0) - math.log2(tol)
    n_max = math.ceil(halvings) + _N0
    for j in range(n_max):
        w = b - a
        if w <= tol:
            break
        mid = _midpoint(a, b)
        x_f = a + (y - fa) * w / (fb - fa)
        if not a < x_f < b:
            x_f = mid
        sigma = 1.0 if mid >= x_f else -1.0
        delta = max(_KAPPA1 * w0 * (w / w0) ** _KAPPA2, 0.5 * tol)
        x_t = x_f + sigma * delta if delta <= abs(mid - x_f) else mid
        try:
            r = math.ldexp(tol, n_max - j - 1) - 0.5 * w
        except OverflowError:
            r = math.inf
        x = x_t if abs(x_t - mid) <= r else mid - sigma * r
        if not a < x < b:
            x = mid
            if not a < x < b:
                break
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
