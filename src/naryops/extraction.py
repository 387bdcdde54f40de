"""Numeric reconstruction of the additive generator of a black-box
operation, by Aczel's construction of n-adic units.

Given a continuous, symmetric, cancellative, associative operation f and
a non-idempotent base point c, write psi for the branch-local generator
with psi(c) = 1. The units U_0 = c, U_{j+1} = f(U_j, ..., U_j) and U_{j-1},
the root of the diagonal f(t, ..., t) = U_j, have psi(U_j) = n^j. A step
y <- f(y, U_j, ..., U_j) adds (n-1) n^j to psi(y), so a walk of steps from
c to x, or from x to c, reads psi(x) off the steps it takes: about n op
evaluations per level. The resolution fixes the lowest level -J, with
J = ceil(log_n((n-1)/resolution)). Each value lies within its half-width,
half the step of its last effective level, or is pinned when a step lands
exactly on the target. Below float precision a walk stops where units no
longer differ or a step no longer moves y, so its half-width stays true
up to a precision floor: the rounding of each step, a few ulps of
max(1, |psi(x)|) per evaluation. The branch with c above its own power
(c > f(c^n)) walks in mirrored order and the final table is negated, so
the reported generator is always increasing with value -1 at the base
point there, +1 otherwise.
"""

from __future__ import annotations

import math
import random
from itertools import chain, islice
from typing import Sequence

from . import generator
from .axioms import AxiomReport, additivity_trials, falsify, roundtrip_trials
from .core import NaryOp, Record, window_point
from .errors import (
    AllIdempotentError,
    BracketNotFoundError,
    DomainEscapeError,
    InversionError,
    MonotonicityViolationError,
)
# sx_membership is looked up here by the tests' string oracle and patched
# here by the benchmark's tracer
from .extension import BranchDirection, sx_membership
from .generator import GeneratorSpec, piecewise_linear, tabulated_generator

__all__ = [
    "BranchDirection",
    "PhiEstimate",
    "ExtractedGenerator",
    "select_base_point",
    "sx_membership",
    "phi_at",
    "extract_generator",
    "verify_additivity",
    "verify_roundtrip",
]


#: candidate base points swept across the scan window
_SCAN_POINTS = 257

#: relative tolerance below which a base point counts as idempotent, and
#: below which two extracted values count as equal to float precision
_COMPARISON_BAND = 1e-9

#: relative rounding allowance of the checks of an extracted table
_ROUNDING_TOL = 1e-12


class PhiEstimate(Record):
    """One extracted generator value: the midpoint of its last effective
    level with half that level's step as half-width, or the exact value,
    pinned, when a step landed on the target. ``levels`` counts the levels
    walked and ``evaluations`` the op evaluations of the walk."""

    __slots__ = _fields = ("x", "value", "half_width", "pinned", "levels", "evaluations")


def select_base_point(
    f: NaryOp, base_point: float | None = None, window: float = 10.0
) -> tuple[float, BranchDirection]:
    """Pick a calibration point c with f(c^n) clearly away from c: the
    explicit base_point, validated, or the one of _SCAN_POINTS evenly
    spaced points of [-window, window] with the largest |f(c^n) - c|.

    Evaluation is :meth:`NaryOp.checked`, whose :class:`DomainEscapeError`
    the scan takes as a point to skip; a scan that skips every point
    raises :class:`DomainEscapeError` naming its range. Raises
    :class:`AllIdempotentError` when |f(c^n) - c| does not exceed
    10 * _COMPARISON_BAND * (1 + |c| + |f(c^n)|): no branch exists there.
    """
    n = f.arity
    band = 10.0 * _COMPARISON_BAND

    def displacement(c: float) -> tuple[float, float]:
        """f(c^n) - c and its idempotence threshold, scaled term by term
        so that it stays finite next to the largest floats."""
        fc = f.checked(*([c] * n))
        return fc - c, band + band * abs(c) + band * abs(fc)

    if base_point is not None:
        c = base_point
        if not f.domain.contains(c):
            raise ValueError(f"base point {c!r} outside {f.domain.render()}")
        d, threshold = displacement(c)
        if abs(d) <= threshold:
            raise AllIdempotentError(f"explicit base point {c!r} is numerically idempotent")
        return c, BranchDirection.C_BELOW if d > 0 else BranchDirection.C_ABOVE

    lo, hi = f.domain.clamp_window(window)
    lo, hi = (  # a thousandth of the window inside an open end of the domain
        window_point(lo, hi, 1e-3) if f.domain.lo_open and lo == f.domain.lo else lo,
        window_point(hi, lo, 1e-3) if f.domain.hi_open and hi == f.domain.hi else hi,
    )
    best, scanned = None, 0
    for i in range(_SCAN_POINTS):
        c = window_point(lo, hi, i / (_SCAN_POINTS - 1))
        try:
            d, threshold = displacement(c)
        except DomainEscapeError:
            continue
        scanned += 1
        if best is None or abs(d) > abs(best[1]):
            best = c, d, threshold
    label = f.label or "op"
    if best is None:
        raise DomainEscapeError(
            f"no scanned point of {label} in [{lo!r}, {hi!r}] evaluates inside the domain"
        )
    c, d, threshold = best
    if abs(d) <= threshold:
        raise AllIdempotentError(f"all {scanned} scanned points of {label} look idempotent")
    return c, BranchDirection.C_BELOW if d > 0 else BranchDirection.C_ABOVE


def _lowest_level(n: int, resolution: float) -> int:
    """-J = -ceil(log_n((n-1)/resolution)): the highest level whose step
    (n-1) n^level is at most the resolution, compared exactly."""
    p, q = resolution.as_integer_ratio()

    def fits(level: int) -> bool:
        return (n - 1) * q * n ** max(level, 0) <= p * n ** max(-level, 0)

    level = math.floor((math.log(resolution) - math.log(n - 1)) / math.log(n))
    while not fits(level):
        level -= 1
    while fits(level + 1):
        level += 1
    return level


#: steps allowed at the top of a unit table that the float range ends
_MAX_LEVEL_STEPS = 64


class _Units:
    """The units U_j of one extraction, built on first use and shared by
    its points: U_0 = c, U_{j+1} = f(U_j, ..., U_j), and U_{j-1} the root
    of the diagonal t -> f(t, ..., t) = U_j, so the branch-local generator
    is n^j at U_j. The table ends above at the last unit inside the floats
    and the domain, below at the lowest level or where no float lies
    strictly between U_j and the root."""

    def __init__(self, f: NaryOp, c: float, direction: BranchDirection, lowest: int):
        self.f, self.n, self.table = f, f.arity, {0: c}
        self.ahead = direction is BranchDirection.C_BELOW  # branch order is the real order
        self.low = self.high = 0
        self.top, self.bottom = math.inf, lowest

    def before(self, a: float, b: float) -> bool:
        return a < b if self.ahead else a > b

    def diagonal(self, t: float) -> float:
        """f(t, ..., t), or the value with which it escapes the floats or the
        domain. An overflow, an escape with no value and an OverflowError
        as its cause, reads as the infinity behind the walk's order: -inf
        when it is increasing, +inf when it is decreasing. A NaN, or another
        escape without a value, such as a division by zero, raises."""
        try:
            return self.f.checked(*(t,) * self.n)
        except DomainEscapeError as exc:
            if exc.value is None and isinstance(exc.__cause__, OverflowError):
                return -math.inf if self.ahead else math.inf
            if exc.value is None or exc.value != exc.value:
                raise
            return exc.value

    def __call__(self, j: int) -> float | None:
        """U_j, or None beyond either end of the table."""
        while self.high < min(j, self.top):
            u = self.table[self.high]
            try:
                v = self.f.checked(*(u,) * self.n)
            except DomainEscapeError as exc:  # past u it ends the table
                if exc.value is None or not self.before(u, exc.value):
                    raise
                self.top = self.high
                continue
            if not self.before(u, v):
                raise MonotonicityViolationError(f"U_{self.high + 1} = {v!r} is not past {u!r}")
            self.high += 1
            self.table[self.high] = v
        while self.low > max(j, self.bottom):
            if (v := self._root(self.table[self.low])) is None:
                self.bottom = self.low
            else:
                self.low -= 1
                self.table[self.low] = v
        return self.table.get(j)

    def _root(self, u: float) -> float | None:
        """The unit below u: the root of the diagonal at u, refined by
        :func:`naryops.generator.itp` to the last float, or None when no
        float lies strictly between the root and u, or when the diagonal
        overflows at the next float nxt. The search walks away from u,
        from nxt: first to far, which puts the root in the middle of
        [far, nxt] for a near-linear generator, then along
        :func:`naryops.generator.approach` toward the domain end, and to an
        open end itself, until the diagonal crosses u. It starts only when
        the diagonal at nxt lies strictly past u, so the infinity that
        :meth:`diagonal` reads an overflow as is the one it heads toward."""
        dom, before = self.f.domain, self.before
        nxt = math.nextafter(u, -math.inf if self.ahead else math.inf)
        if not dom.contains(nxt) or before(d := self.diagonal(nxt), u):
            return None  # the root lies between nxt and u
        if d == u:
            return nxt
        end, open_end = (dom.lo, dom.lo_open) if self.ahead else (dom.hi, dom.hi_open)
        points = generator.approach(end, open_end, nxt, self.ahead)
        if self.low < self.high:
            far = u - 2.0 * (self.table[self.low + 1] - u) / self.n
            if dom.contains(far) and before(far, nxt):
                points = chain((far,), points)
        if open_end and math.isfinite(end):
            points = chain(points, (end,))
        diagonal, last, f_last = self.diagonal, nxt, d
        for x in points:
            if before(x, last):
                fx = diagonal(x)
                if not before(u, fx):  # the diagonal crossed u between last and x
                    if fx == u:
                        return x
                    if self.ahead:
                        return generator.itp(diagonal, u, x, fx, last, f_last, 0.0)
                    return generator.itp(diagonal, u, last, f_last, x, fx, 0.0)
                last, f_last = x, fx
        raise InversionError(
            f"target {u!r} outside the sampled range [{min(d, f_last)!r}, {max(d, f_last)!r}] "
            f"of the diagonal from {nxt!r} to {last!r}"
        )


def phi_at(units: _Units, x: float) -> PhiEstimate:
    """Walk the units from whichever of c and x comes first in branch order
    toward the other one, the target.

    A step at level j, y <- f(y, U_j, ..., U_j), adds (n-1) n^j to the
    generator value of y and is taken unless it passes the target; a value
    that escapes the floats or the domain past the target passes it. The
    walk climbs one step per level while steps do not pass, then descends
    level by level with at most n - 1 steps each. It stops at the bottom
    of the table, where a step no longer moves y, or on the target, which
    pins the value. Otherwise the value is the steps taken plus half a step
    of the last effective level, its half-width. Raises
    :class:`BracketNotFoundError` when the top level of a table that the
    float range ends needs more than _MAX_LEVEL_STEPS steps.
    """
    n, c, checked, order, table = units.n, units(0), units.f.checked, units.ahead, units.table
    ahead = units.before(c, x)
    y, target = (c, x) if ahead else (x, c)
    digits: dict[int, int] = {}
    evaluations = levels = 0

    def walk(level: int, steps: int, climbing: bool = False) -> str:
        """Up to ``steps`` steps at one level; why the walk stopped."""
        nonlocal y, evaluations, levels
        if (u := table[level] if level in table else units(level)) is None:
            return "table"
        levels += 1
        tail = (u,) * (n - 1)
        for _ in range(steps):
            evaluations += 1
            try:
                t = checked(y, *tail)
            except DomainEscapeError as exc:  # an escape past the target passes it
                t = exc.value
                if t is not None and (target < t if order else t < target):
                    return "passed"
                raise
            if target < t if order else t < target:
                return "passed"
            if t == y and not climbing:
                return "still"
            y, digits[level] = t, digits.get(level, 0) + 1
            if t == target:
                return "pinned"
        return "steps"

    level, repeats, why = 0, 0, "pinned" if x == c else walk(0, 1, True)
    while why == "steps":  # climb; past the float range, repeat the top level
        if level + 1 in table or units(level + 1) is not None:
            level += 1
        elif (repeats := repeats + 1) > _MAX_LEVEL_STEPS:
            raise BracketNotFoundError(f"U_{level} steps do not reach {target!r} from x={x!r}")
        why = walk(level, 1, True)
    while why in ("passed", "steps") and level > units.bottom:
        level -= 1
        why = walk(level, n - 1)
    bottom = level if why in ("passed", "steps") else level + 1
    # 1 +- (steps + half a bottom step) as a ratio of integers, which
    # rounds once; the steps count in halves of (n-1) n^low
    low = min([0, bottom, *digits])
    half_steps = sum(2 * d * n ** (j - low) for j, d in digits.items())
    half_steps += 0 if why == "pinned" else n ** (bottom - low)
    den = 2 * n**-low
    try:
        value = (den + (n - 1) * half_steps if ahead else den - (n - 1) * half_steps) / den
        half_width = 0.0 if why == "pinned" else 0.5 * (n - 1) * float(n) ** bottom
    except OverflowError:
        raise DomainEscapeError(f"generator value at x={x!r} exceeds the float range") from None
    return PhiEstimate(x, value, half_width, why == "pinned", levels, evaluations)


class ExtractedGenerator(Record):
    """A tabulated reconstruction of the generator.

    Samples are strictly increasing in both coordinates, the value at the
    base point is exactly its normalization, and every sample is
    within its half-width of the true branch value. ``interp_slack`` is an
    engineering estimate of the piecewise-linear interpolation error: the
    largest deviation of an interior knot from the chord of its neighbors.
    ``x_values``, ``phi_values`` and their polyline ``interpolate`` are
    computed at construction, as every check of the table reads them;
    the repr leaves them and ``estimates`` out.
    """

    __slots__ = (
        "samples", "c", "direction", "resolution_bound", "realized_resolution", "interp_slack",
        "estimates", "x_values", "phi_values", "interpolate",
    )
    _fields = (
        "samples", "c", "direction", "resolution_bound", "normalization",
        "realized_resolution", "interp_slack",
    )
    _compared = (
        "samples", "c", "direction", "resolution_bound", "realized_resolution", "interp_slack",
        "estimates",
    )

    def __init__(
        self, samples: tuple[tuple[float, float], ...], c: float, direction: BranchDirection,
        resolution_bound: float, realized_resolution: float, interp_slack: float,
        estimates: tuple[PhiEstimate, ...] = (),
    ):
        xs, ys = tuple(x for x, _ in samples), tuple(v for _, v in samples)
        super().__init__(
            samples, c, direction, resolution_bound, realized_resolution, interp_slack, estimates,
            xs, ys, piecewise_linear(xs, ys),
        )

    @property
    def normalization(self) -> float:
        """The value at the base point: 1.0 when c lies below the
        increasing branch, -1.0 otherwise."""
        return 1.0 if self.direction is BranchDirection.C_BELOW else -1.0

    @property
    def knot_error(self) -> float:
        """Error bound e of one interpolated generator value: the per-knot
        resolution bound plus the interpolation slack. Every check of an
        extracted table derives its threshold from e."""
        return self.resolution_bound + self.interp_slack

    def window(self) -> tuple[float, float]:
        """The ends of the tabulated window, which the checks sample and
        the rebuilt operation covers. A grid of the base point alone
        leaves it zero wide, which raises :class:`BracketNotFoundError`."""
        lo, hi = self.x_values[0], self.x_values[-1]
        if lo == hi:
            raise BracketNotFoundError(f"the tabulated window [{lo!r}, {hi!r}] has zero width")
        return lo, hi

    def as_generator_spec(self) -> GeneratorSpec:
        """The table as a piecewise-linear generator over its
        :meth:`window`. Extraction lets neighbouring values tie within its
        error budget, which leaves no inverse: a value not above the one
        before it raises :class:`MonotonicityViolationError` naming both
        points."""
        self.window()
        for (x0, y0), (x1, y1) in zip(self.samples, self.samples[1:]):
            if not y0 < y1:
                raise MonotonicityViolationError(
                    f"extracted values {y0!r} at {x0!r} and {y1!r} at {x1!r} do not increase"
                )
        return tabulated_generator(
            self.x_values, self.phi_values, label=f"extracted[c={self.c}]"
        )

    def max_inverse_slope(self) -> float:
        """Largest dx/dphi across segments: converts generator-space error
        bounds into operation-space bounds."""
        worst = 0.0
        for (x0, y0), (x1, y1) in zip(self.samples, self.samples[1:]):
            if y1 > y0:
                worst = max(worst, (x1 - x0) / (y1 - y0))
        return worst


def _chord_slack(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Largest deviation of a knot from the chord of its neighbours, from
    halved differences and window_point, which do not overflow."""
    worst = 0.0
    for i in range(1, len(xs) - 1):
        w = (xs[i] / 2.0 - xs[i - 1] / 2.0) / (xs[i + 1] / 2.0 - xs[i - 1] / 2.0)
        worst = max(worst, abs(ys[i] - window_point(ys[i - 1], ys[i + 1], w)))
    return worst


def extract_generator(
    f: NaryOp,
    grid: Sequence[float] = (),
    base_point: float | None = None,
    resolution: float = 1.0 / 64.0,
    window: float = 10.0,
) -> ExtractedGenerator:
    """Run the full reconstruction: base point (:func:`select_base_point`
    on ``base_point`` and ``window``), one unit walk per grid point over a
    shared unit table, the mirror negation, and monotonicity verification.

    ``resolution`` fixes the lowest level -J of the unit walk, the highest
    level whose step (n-1) n^-J is at most the resolution; one that is not
    positive and finite raises ValueError before f is evaluated. The base
    point is always included among the samples so the normalization (+1
    climbing, -1 mirrored) is exact by construction.
    ``resolution_bound`` is the largest half-width over the points, and
    ``realized_resolution`` twice that, or the step of the lowest level
    when every point is finer.
    """
    if not 0.0 < resolution < math.inf:
        raise ValueError("resolution must be positive and finite")
    c, direction = select_base_point(f, base_point, window)
    grid = sorted(set(float(v) for v in grid) | {float(c)})
    for v in grid:
        if not f.domain.contains(v):
            raise ValueError(f"grid point {v!r} outside {f.domain.render()}")
    lowest = _lowest_level(f.arity, resolution)
    units = _Units(f, c, direction, lowest)
    estimates = tuple(phi_at(units, v) for v in grid)
    sign = 1.0 if direction is BranchDirection.C_BELOW else -1.0
    values = [sign * e.value for e in estimates]
    resolution_bound = max(e.half_width for e in estimates)
    pairs = list(zip(grid, values))
    band = _COMPARISON_BAND
    for (x0, y0), (x1, y1) in zip(pairs, pairs[1:]):
        # values within the comparison band of each other are equal to float
        # precision, which the rounding of a walk reaches; the absolute term
        # keeps the band open next to a zero of the generator
        if y1 - y0 < -2.0 * resolution_bound - (band + band * abs(y0) + band * abs(y1)):
            raise MonotonicityViolationError(
                f"extracted values regress from {y0!r} at {x0!r} to {y1!r} at {x1!r} "
                f"beyond 2 * {resolution_bound!r}"
            )
    return ExtractedGenerator(
        samples=tuple(pairs),
        c=c,
        direction=direction,
        resolution_bound=resolution_bound,
        realized_resolution=max(2.0 * resolution_bound, (f.arity - 1) * float(f.arity) ** lowest),
        interp_slack=_chord_slack(grid, values),
        estimates=estimates,
    )


def _window_draws(gen: ExtractedGenerator, n: int, samples: int, seed: int):
    """Witness inputs ``(xs,)`` of n-tuples drawn uniformly over the
    tabulated window, each coordinate as ``window_point`` draws it, for a
    check's trials to filter; :class:`BracketNotFoundError` on the draw
    after 500 per sample."""
    lo, hi = gen.window()
    half_lo, half_span = lo / 2.0, hi / 2.0 - lo / 2.0
    rand = random.Random(seed).random
    for _ in range(500 * samples):
        yield (tuple([2.0 * (half_lo + half_span * rand()) for _ in range(n)]),)
    raise BracketNotFoundError(
        f"could not sample {samples} tuples inside the tabulated window "
        f"[{lo!r}, {hi!r}] in {500 * samples} draws"
    )


def verify_additivity(
    gen: ExtractedGenerator,
    f: NaryOp,
    samples: int = 100,
    seed: int = 0,
) -> AxiomReport:
    """Check that the tabulated generator turns f into addition, by the
    trials of :func:`naryops.axioms.additivity_trials` on tuples drawn
    inside the tabulated window. The pass threshold is (n+1) *
    gen.knot_error, for n interpolated inputs and one interpolated output,
    plus _ROUNDING_TOL."""
    n = f.arity
    trials = additivity_trials(f, gen, _window_draws(gen, n, samples, seed))
    return falsify(
        "additivity", islice(trials, samples), _ROUNDING_TOL,
        slack=(n + 1) * gen.knot_error, samples=samples, seed=seed,
        label=f"additivity[{f.label}]",
    )


def verify_roundtrip(
    gen: ExtractedGenerator,
    f: NaryOp,
    samples: int = 100,
    seed: int = 0,
) -> AxiomReport:
    """Compare the operation rebuilt from the table against f, by the
    trials of :func:`naryops.axioms.roundtrip_trials` on tuples drawn
    inside the tabulated window. The threshold is the additivity bound
    (n+1) * gen.knot_error mapped into operation space through the largest
    inverse slope of the table, plus _ROUNDING_TOL, as in
    :func:`verify_additivity`."""
    n = f.arity
    trials = roundtrip_trials(f, gen, _window_draws(gen, n, samples, seed))
    return falsify(
        "roundtrip", islice(trials, samples), _ROUNDING_TOL,
        slack=(n + 1) * gen.knot_error * gen.max_inverse_slope(),
        samples=samples, seed=seed, label=f"roundtrip[{f.label}]",
    )
