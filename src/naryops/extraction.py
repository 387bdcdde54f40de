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
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

from . import generator
from .axioms import AxiomReport, falsify
from .core import Interval, NaryOp
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
    "ExtractionConfig",
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


@dataclass(frozen=True)
class ExtractionConfig:
    """What one extraction runs on: the CLI's ``--c``, ``--grid``,
    ``--resolution`` and ``--window``.

    ``resolution`` fixes the lowest level -J of the unit walk, the highest
    level whose step (n-1) n^-J is at most the resolution. Without a
    ``base_point``, one is chosen across ``[-scan_window, scan_window]``.
    """

    base_point: float | None = None
    grid: tuple[float, ...] = ()
    resolution: float = 1.0 / 64.0
    scan_window: float = 10.0

    def __post_init__(self):
        if not 0.0 < self.resolution < math.inf:
            raise ValueError("resolution must be positive and finite")


@dataclass(frozen=True)
class PhiEstimate:
    """One extracted generator value: the midpoint of its last effective
    level with half that level's step as half-width, or the exact value,
    pinned, when a step landed on the target. ``levels`` counts the levels
    walked and ``evaluations`` the op evaluations of the walk."""

    x: float
    value: float
    half_width: float
    pinned: bool
    levels: int
    evaluations: int


def _window_point(lo: float, hi: float, t: float) -> float:
    """lo + (hi - lo) * t from halved bounds, as hi - lo overflows on the
    widest windows; halving is exact, so narrower windows get that value
    bit for bit."""
    return 2.0 * (lo / 2.0 + (hi / 2.0 - lo / 2.0) * t)


def select_base_point(
    f: NaryOp, cfg: ExtractionConfig
) -> tuple[float, BranchDirection]:
    """Pick a calibration point c with f(c^n) clearly away from c: the
    explicit cfg.base_point, validated, or the one of _SCAN_POINTS evenly
    spaced points of the scan window with the largest |f(c^n) - c|.

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

    if cfg.base_point is not None:
        c = cfg.base_point
        if not f.domain.contains(c):
            raise ValueError(f"base point {c!r} outside {f.domain.render()}")
        d, threshold = displacement(c)
        if abs(d) <= threshold:
            raise AllIdempotentError(f"explicit base point {c!r} is numerically idempotent")
        return c, BranchDirection.C_BELOW if d > 0 else BranchDirection.C_ABOVE

    lo, hi = f.domain.clamp_window(cfg.scan_window)
    nudge = 2e-3 * (hi / 2.0 - lo / 2.0)  # halved bounds, as in _window_point
    if f.domain.lo_open and lo == f.domain.lo:
        lo += nudge
    if f.domain.hi_open and hi == f.domain.hi:
        hi -= nudge
    best, scanned = None, 0
    for i in range(_SCAN_POINTS):
        c = _window_point(lo, hi, i / (_SCAN_POINTS - 1))
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

    def eval(self, args: tuple, ok) -> float:
        """f.checked(*args), except that a value escaping the floats or the
        domain is returned when ``ok(value)``: when it lies past the target
        of a step along the direction of travel. An overflow has no value
        and raises."""
        try:
            return self.f.checked(*args)
        except DomainEscapeError as exc:
            if exc.value is not None and ok(exc.value):
                return exc.value
            raise

    def diagonal(self, t: float) -> float:
        return self.eval((t,) * self.n, lambda v: v == v)

    def __call__(self, j: int) -> float | None:
        """U_j, or None beyond either end of the table."""
        while self.high < min(j, self.top):
            u = self.table[self.high]
            v = self.eval((u,) * self.n, lambda v: self.before(u, v))
            if not self.f.domain.contains(v):
                self.top = self.high
            elif not self.before(u, v):
                raise MonotonicityViolationError(f"U_{self.high + 1} = {v!r} is not past {u!r}")
            else:
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
        """The unit below u, by :func:`naryops.generator.invert_monotone`
        run to the last float, or None when no float lies strictly between
        the root and u. The bracket [far, nxt] has the root in its middle
        for a near-linear generator; when it misses, the bracket reaches
        out to the domain end."""
        dom = self.f.domain
        nxt = math.nextafter(u, -math.inf if self.ahead else math.inf)
        if not dom.contains(nxt) or self.before(d := self.diagonal(nxt), u):
            return None  # the root lies between nxt and u
        if d == u:
            return nxt
        if self.low < self.high:
            far = u - 2.0 * (self.table[self.low + 1] - u) / self.n
            if dom.contains(far) and self.before(far, nxt):
                bracket = Interval.make(min(far, nxt), max(far, nxt), False, False)
                try:
                    return generator.invert_monotone(self.diagonal, u, bracket, 0.0)
                except InversionError:  # the diagonal bends away beyond far
                    pass
        if self.ahead:
            return generator.invert_monotone(
                self.diagonal, u, Interval.make(dom.lo, nxt, dom.lo_open, False), 0.0
            )
        return generator.invert_monotone(
            self.diagonal, u, Interval.make(nxt, dom.hi, False, dom.hi_open), 0.0
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
    n, c = units.n, units(0)
    ahead = units.before(c, x)
    y, target = (c, x) if ahead else (x, c)
    digits: dict[int, int] = {}
    evaluations = levels = 0

    def passes(v: float) -> bool:
        return units.before(target, v)

    def walk(level: int, steps: int, climbing: bool = False) -> str:
        """Up to ``steps`` steps at one level; why the walk stopped."""
        nonlocal y, evaluations, levels
        if (u := units(level)) is None:
            return "table"
        levels += 1
        for _ in range(steps):
            evaluations += 1
            t = units.eval((y,) + (u,) * (n - 1), passes)
            if passes(t):
                return "passed"
            if t == y and not climbing:
                return "still"
            y, digits[level] = t, digits.get(level, 0) + 1
            if t == target:
                return "pinned"
        return "steps"

    level, repeats, why = 0, 0, "pinned" if x == c else walk(0, 1, True)
    while why == "steps":  # climb; past the float range, repeat the top level
        if units(level + 1) is not None:
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


@dataclass(frozen=True)
class ExtractedGenerator:
    """A tabulated reconstruction of the generator.

    Samples are strictly increasing in both coordinates, the value at the
    base point is exactly the stored normalization, and every sample is
    within its half-width of the true branch value. ``interp_slack`` is an
    engineering estimate of the piecewise-linear interpolation error: the
    largest deviation of an interior knot from the chord of its neighbors.
    """

    samples: tuple[tuple[float, float], ...]
    c: float
    direction: BranchDirection
    resolution_bound: float
    normalization: float
    realized_resolution: float
    interp_slack: float
    estimates: tuple[PhiEstimate, ...] = field(repr=False, default=())

    # Unzipped once per instance: ``interpolate`` reads both on every call.
    @cached_property
    def x_values(self) -> tuple[float, ...]:
        return tuple(x for x, _ in self.samples)

    @cached_property
    def phi_values(self) -> tuple[float, ...]:
        return tuple(v for _, v in self.samples)

    def interpolate(self, t: float) -> float:
        return piecewise_linear(self.x_values, self.phi_values, t)

    @property
    def knot_error(self) -> float:
        """Error bound e of one interpolated generator value: the per-knot
        resolution bound plus the interpolation slack. Every check of an
        extracted table derives its threshold from e."""
        return self.resolution_bound + self.interp_slack

    def as_generator_spec(self) -> GeneratorSpec:
        """The table as a piecewise-linear generator. Extraction lets
        neighbouring values tie within its error budget, which leaves no
        inverse: a value not above the one before it raises
        :class:`MonotonicityViolationError` naming both points."""
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
    worst = 0.0
    for i in range(1, len(xs) - 1):
        w = (xs[i] - xs[i - 1]) / (xs[i + 1] - xs[i - 1])
        chord = ys[i - 1] + w * (ys[i + 1] - ys[i - 1])
        worst = max(worst, abs(ys[i] - chord))
    return worst


def extract_generator(f: NaryOp, cfg: ExtractionConfig) -> ExtractedGenerator:
    """Run the full reconstruction: base point, one unit walk per grid
    point over a shared unit table, the mirror negation, and monotonicity
    verification.

    The base point is always included among the samples so the
    normalization (+1 climbing, -1 mirrored) is exact by construction.
    ``resolution_bound`` is the largest half-width over the points, and
    ``realized_resolution`` twice that, or the step of the lowest level
    when every point is finer.
    """
    c, direction = select_base_point(f, cfg)
    grid = sorted(set(float(v) for v in cfg.grid) | {float(c)})
    for v in grid:
        if not f.domain.contains(v):
            raise ValueError(f"grid point {v!r} outside {f.domain.render()}")
    lowest = _lowest_level(f.arity, cfg.resolution)
    units = _Units(f, c, direction, lowest)
    estimates = tuple(phi_at(units, v) for v in grid)
    sign = 1.0 if direction is BranchDirection.C_BELOW else -1.0
    values = [sign * e.value for e in estimates]
    resolution_bound = max(e.half_width for e in estimates)
    pairs = list(zip(grid, values))
    for (x0, y0), (x1, y1) in zip(pairs, pairs[1:]):
        # values within the comparison band of each other are equal to float
        # precision, which the rounding of a walk reaches
        if y1 - y0 < -2.0 * resolution_bound - _COMPARISON_BAND * (abs(y0) + abs(y1)):
            raise MonotonicityViolationError(
                f"extracted values regress from {y0!r} at {x0!r} to {y1!r} at {x1!r} "
                f"beyond 2 * {resolution_bound!r}"
            )
    return ExtractedGenerator(
        samples=tuple(pairs),
        c=c,
        direction=direction,
        resolution_bound=resolution_bound,
        normalization=sign,
        realized_resolution=max(2.0 * resolution_bound, (f.arity - 1) * float(f.arity) ** lowest),
        interp_slack=_chord_slack(grid, values),
        estimates=estimates,
    )


def _window_trials(gen: ExtractedGenerator, n: int, samples: int, seed: int, trial):
    """Rejection-sample n-tuples uniformly over the tabulated window until
    ``samples`` of them give a trial; ``trial(tup)`` returns the trial, or
    None to reject the tuple. Raises :class:`BracketNotFoundError` after
    500 draws per sample."""
    lo, hi = gen.x_values[0], gen.x_values[-1]
    rng = random.Random(seed)
    accepted = draws = 0
    while accepted < samples:
        draws += 1
        if draws > 500 * samples:
            raise BracketNotFoundError(
                f"could not sample {samples} tuples inside the tabulated window "
                f"[{lo!r}, {hi!r}] in {draws - 1} draws"
            )
        t = trial(tuple(_window_point(lo, hi, rng.random()) for _ in range(n)))
        if t is not None:
            accepted += 1
            yield t


def verify_additivity(
    gen: ExtractedGenerator,
    f: NaryOp,
    samples: int = 100,
    seed: int = 0,
) -> AxiomReport:
    """Check that the tabulated generator turns f into addition:
    gen(f(x1..xn)) against the sum of gen(xi).

    Tuples are drawn inside the tabulated window and rejected unless the
    operation value lands back inside it (interpolation only, never
    extrapolation). The pass threshold is (n+1) * gen.knot_error: n
    interpolated inputs and one interpolated output.
    """
    n = f.arity
    lo, hi = gen.x_values[0], gen.x_values[-1]

    def trial(tup):
        y = f.checked(*tup)
        if not lo <= y <= hi:
            return None
        lhs = gen.interpolate(y)
        return lhs, generator.generator_sum(gen.interpolate, tup), {"inputs": (tup,)}

    return falsify(
        "additivity", _window_trials(gen, n, samples, seed, trial), 1e-12,
        slack=(n + 1) * gen.knot_error, samples=samples, seed=seed,
        label=f"additivity[{f.label}]",
    )


def verify_roundtrip(
    gen: ExtractedGenerator,
    f: NaryOp,
    rebuilt: NaryOp,
    samples: int = 100,
    seed: int = 0,
) -> AxiomReport:
    """Compare the operation rebuilt from the table against f on tuples
    whose generator sums stay inside the table.

    The threshold is the additivity bound (n+1) * gen.knot_error mapped
    into operation space through the largest inverse slope of the table,
    plus 1e-9 for rounding.
    """
    n = f.arity
    ys = gen.phi_values

    def trial(tup):
        s = generator.generator_sum(gen.interpolate, tup)
        if not ys[0] <= s <= ys[-1]:
            return None
        return rebuilt.checked(*tup), f.checked(*tup), {"inputs": (tup,)}

    threshold = (n + 1) * gen.knot_error * gen.max_inverse_slope() + 1e-9
    return falsify(
        "roundtrip", _window_trials(gen, n, samples, seed, trial), 0.0,
        slack=threshold, samples=samples, seed=seed, label=f"roundtrip[{f.label}]",
    )
