"""Numeric reconstruction of the additive generator of a black-box
operation.

Given a continuous, symmetric, cancellative, associative operation f and
a non-idempotent base point c, the generator value at x is the infimum of
the admissible rationals r = (p - q)/k for which the repeated-point string
c^p evaluates strictly above x^k c^q. That set is an upper set, so at a
fixed denominator k the threshold is found by bisecting p. The branch with
c above its own power (c > f(c^n)) runs the mirrored comparison and the
final table is negated, so the reported generator is always increasing
with value -1 at the base point there, +1 otherwise.
"""

from __future__ import annotations

import bisect as _bisect
import enum
import math
import random
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

from .axioms import AxiomReport, Witness, scaled_tolerance
from .core import ArityClass, NaryOp
from .errors import (
    AllIdempotentError,
    ArityClassError,
    BracketNotFoundError,
    DomainEscapeError,
    MonotonicityViolationError,
    PrecisionExhaustedError,
)
from .extension import ExtendedOp
from .generator import GeneratorSpec, tabulated_generator

__all__ = [
    "RationalIndex",
    "BranchDirection",
    "MembershipOutcome",
    "ExtractionConfig",
    "PhiEstimate",
    "ExtractedGenerator",
    "OpenEndReport",
    "ScaleReport",
    "select_base_point",
    "detect_open_end",
    "sx_membership",
    "rational_grid",
    "phi_at",
    "extract_generator",
    "verify_additivity",
    "compare_scales",
]


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

    def scaled(self, kappa: int, n: int) -> "RationalIndex":
        """The same rational written with every part multiplied by an
        admissible factor kappa."""
        if not ArityClass(n).member(kappa):
            raise ArityClassError(f"scale factor {kappa} not in the arity class")
        return RationalIndex(self.p * kappa, self.q * kappa, self.k * kappa)

    def shifted(self, j: int, n: int) -> "RationalIndex":
        """The same rational with j added to both p and q (j = 0 mod n-1)."""
        if j < 0 or j % (n - 1) != 0:
            raise ArityClassError(f"shift {j} must be a nonnegative multiple of {n - 1}")
        return RationalIndex(self.p + j, self.q + j, self.k)


class BranchDirection(enum.Enum):
    """Which side of its own n-fold power the base point sits on."""

    C_BELOW = "c_below"  # c < f(c^n): powers of c climb
    C_ABOVE = "c_above"  # c > f(c^n): powers of c descend


class MembershipOutcome(enum.Enum):
    IN = "in"
    OUT = "out"
    UNDETERMINED = "undetermined"


@dataclass(frozen=True)
class ExtractionConfig:
    """Knobs for the extraction pipeline.

    ``resolution`` is the target rational spacing (n-1)/k; the comparison
    band is a relative tolerance below which a string comparison is
    declared undetermined (the float reading of an exact equality).
    """

    base_point: float | None = None
    grid: tuple[float, ...] = ()
    resolution: float = 1.0 / 64.0
    comparison_band: float = 1e-9
    scan_window: float = 10.0
    scan_points: int = 257
    seed: int = 0
    max_doublings: int = 60

    def __post_init__(self):
        if self.resolution <= 0.0:
            raise ValueError("resolution must be positive")
        if self.comparison_band < 0.0:
            raise ValueError("comparison band must be nonnegative")


@dataclass(frozen=True)
class PhiEstimate:
    """One extracted generator value: a rational midpoint with a half-width
    bound, pinned exactly when an equality case was detected."""

    x: float
    value: float
    half_width: float
    pinned: bool
    k: int
    memberships: int


@dataclass(frozen=True)
class OpenEndReport:
    """Outcome of iterating x -> f(x c^{n-1}): the sequence must move
    strictly toward the open end of the interval."""

    direction: BranchDirection
    steps_run: int
    last_value: float
    strictly_monotone: bool


def select_base_point(
    f: NaryOp, cfg: ExtractionConfig
) -> tuple[float, BranchDirection]:
    """Pick a calibration point c with f(c^n) clearly away from c.

    An explicit cfg.base_point is validated and used as-is; otherwise the
    scan window is swept and the displacement |f(c^n) - c| maximized.
    Raises :class:`AllIdempotentError` when nothing exceeds ten comparison
    bands: then every candidate looks idempotent and no branch exists.
    """
    n = f.arity

    def displacement(c: float) -> float:
        return f.eval(*([c] * n)) - c

    def threshold(c: float, fc: float) -> float:
        return 10.0 * cfg.comparison_band * (1.0 + abs(c) + abs(fc))

    if cfg.base_point is not None:
        c = cfg.base_point
        if not f.domain.contains(c):
            raise ValueError(f"base point {c!r} outside {f.domain.render()}")
        d = displacement(c)
        if abs(d) <= threshold(c, d + c):
            raise AllIdempotentError(
                f"explicit base point {c!r} is numerically idempotent",
                scanned=1,
                threshold=threshold(c, d + c),
            )
        return c, BranchDirection.C_BELOW if d > 0 else BranchDirection.C_ABOVE

    lo, hi = f.domain.clamp_window(cfg.scan_window)
    width = hi - lo
    if f.domain.lo_open and lo == f.domain.lo:
        lo += 1e-3 * width
    if f.domain.hi_open and hi == f.domain.hi:
        hi -= 1e-3 * width
    best_c = None
    best_d = 0.0
    scanned = 0
    for i in range(cfg.scan_points):
        c = lo + (hi - lo) * i / (cfg.scan_points - 1)
        try:
            d = displacement(c)
        except DomainEscapeError:
            continue
        if not math.isfinite(d):
            continue
        scanned += 1
        if abs(d) > abs(best_d):
            best_c, best_d = c, d
    if best_c is None or abs(best_d) <= threshold(best_c, best_d + best_c):
        raise AllIdempotentError(
            f"all {scanned} scanned points of {f.label or 'op'} look idempotent",
            scanned=scanned,
            threshold=10.0 * cfg.comparison_band,
        )
    return best_c, BranchDirection.C_BELOW if best_d > 0 else BranchDirection.C_ABOVE


def detect_open_end(
    f: NaryOp, c: float, direction: BranchDirection, steps: int = 20
) -> OpenEndReport:
    """Iterate x -> f(x c^{n-1}) from c and confirm strict movement toward
    the interval end (upward for the climbing branch, downward mirrored).

    A non-monotone step raises :class:`MonotonicityViolationError`; leaving
    the domain raises :class:`DomainEscapeError`, which against a closed
    endpoint means the domain cannot host an operation of this class.
    """
    n = f.arity
    upward = direction is BranchDirection.C_BELOW
    x = c
    for step in range(1, steps + 1):
        try:
            nxt = f.checked(x, *([c] * (n - 1)))
        except DomainEscapeError as exc:
            raise DomainEscapeError(
                f"iterate escaped after {step - 1} steps at {x!r}: {exc}; a closed "
                "endpoint on the escape side contradicts this operation class"
            ) from exc
        if upward and not nxt > x:
            raise MonotonicityViolationError(
                f"iterate failed to increase at step {step}: {nxt!r} <= {x!r}"
            )
        if not upward and not nxt < x:
            raise MonotonicityViolationError(
                f"iterate failed to decrease at step {step}: {nxt!r} >= {x!r}"
            )
        x = nxt
    return OpenEndReport(
        direction=direction, steps_run=steps, last_value=x, strictly_monotone=True
    )


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
    d = a - b
    thr = band * (abs(a) + abs(b))
    if direction is BranchDirection.C_BELOW:
        if d > thr:
            return MembershipOutcome.IN
        if d < -thr:
            return MembershipOutcome.OUT
    else:
        if d < -thr:
            return MembershipOutcome.IN
        if d > thr:
            return MembershipOutcome.OUT
    return MembershipOutcome.UNDETERMINED


def rational_grid(n: int, target: float, resolution: float) -> RationalIndex:
    """The admissible rational nearest the target on the grid of spacing
    (n-1)/k, with k the smallest admissible denominator at or below the
    requested resolution and q the smallest admissible value making p >= 1.
    """
    if resolution <= 0.0:
        raise ValueError("resolution must be positive")
    cls = ArityClass(n)
    step = cls.step()
    k = cls.ceil(math.ceil(step / resolution))
    # numerator d = p - q must be = 1 (mod n-1); pick the admissible value
    # closest to k * target
    d = 1 + step * round((k * target - 1) / step)
    if d >= 1:
        q = 0
        p = d
    else:
        q = step * math.ceil((1 - d) / step)
        p = d + q
    idx = RationalIndex(p, q, k)
    idx.require_admissible(n)
    return idx


def _pinned(x: float, idx: RationalIndex, used: int) -> PhiEstimate:
    return PhiEstimate(
        x=x, value=idx.value, half_width=0.0, pinned=True, k=idx.k, memberships=used
    )


def phi_at(
    g: ExtendedOp,
    c: float,
    x: float,
    direction: BranchDirection,
    cfg: ExtractionConfig,
) -> PhiEstimate:
    """Bracket and bisect the membership threshold for one point.

    The rational value of the branch-local generator at x is the infimum
    of the members; expansion doubles the string lengths until both an
    Out and an In are seen, then p is bisected at fixed k and q. An
    undetermined comparison pins the value exactly (the equality case).
    Raises :class:`BracketNotFoundError` when the doubling cap is hit and
    :class:`PrecisionExhaustedError` when string values overflow.
    """
    n = g.base.arity
    step = n - 1
    cls = ArityClass(n)
    k = cls.ceil(math.ceil(step / cfg.resolution))
    band = cfg.comparison_band
    used = 0

    def member(p: int, q: int) -> MembershipOutcome:
        nonlocal used
        used += 1
        return sx_membership(g, c, x, RationalIndex(p, q, k), direction, band)

    first = member(1, 0)
    if first is MembershipOutcome.UNDETERMINED:
        return _pinned(x, RationalIndex(1, 0, k), used)

    if first is MembershipOutcome.IN:
        # push q up until the rational (1 - q)/k drops below the threshold
        q = step
        doublings = 0
        while True:
            out = member(1, q)
            if out is MembershipOutcome.UNDETERMINED:
                return _pinned(x, RationalIndex(1, q, k), used)
            if out is MembershipOutcome.OUT:
                break
            doublings += 1
            if doublings > cfg.max_doublings:
                raise BracketNotFoundError(
                    f"no Out outcome after {doublings} doublings at x={x!r}"
                )
            q *= 2
        q_fixed = q
        p_lo = 1
        # (1 + q - q)/k reproduces the In seen at (1, 0)
        p_hi = 1 + q_fixed
        confirm = member(p_hi, q_fixed)
        if confirm is MembershipOutcome.UNDETERMINED:
            return _pinned(x, RationalIndex(p_hi, q_fixed, k), used)
        if confirm is MembershipOutcome.OUT:
            # band flakiness; grow p until In reappears
            offset = step
            doublings = 0
            while True:
                p_hi = 1 + q_fixed + offset
                o = member(p_hi, q_fixed)
                if o is MembershipOutcome.IN:
                    break
                if o is MembershipOutcome.UNDETERMINED:
                    return _pinned(x, RationalIndex(p_hi, q_fixed, k), used)
                p_lo = p_hi
                doublings += 1
                if doublings > cfg.max_doublings:
                    raise BracketNotFoundError(
                        f"no In outcome after {doublings} doublings at x={x!r}"
                    )
                offset *= 2
    else:
        q_fixed = 0
        p_lo = 1
        offset = step
        doublings = 0
        while True:
            p_hi = 1 + offset
            o = member(p_hi, 0)
            if o is MembershipOutcome.IN:
                break
            if o is MembershipOutcome.UNDETERMINED:
                return _pinned(x, RationalIndex(p_hi, 0, k), used)
            p_lo = p_hi
            doublings += 1
            if doublings > cfg.max_doublings:
                raise BracketNotFoundError(
                    f"no In outcome after {doublings} doublings at x={x!r}"
                )
            offset *= 2

    # bisect p: membership is monotone in the rational by the upper-set
    # property, so the threshold sits between the last Out and first In
    while p_hi - p_lo > step:
        span = (p_hi - p_lo) // step
        p_mid = p_lo + (span // 2) * step
        o = member(p_mid, q_fixed)
        if o is MembershipOutcome.UNDETERMINED:
            return _pinned(x, RationalIndex(p_mid, q_fixed, k), used)
        if o is MembershipOutcome.IN:
            p_hi = p_mid
        else:
            p_lo = p_mid
    value = (0.5 * (p_lo + p_hi) - q_fixed) / k
    half = 0.5 * step / k
    return PhiEstimate(
        x=x, value=value, half_width=half, pinned=False, k=k, memberships=used
    )


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
    band: float
    estimates: tuple[PhiEstimate, ...] = field(repr=False, default=())

    # Unzipped once per instance: ``interpolate`` reads both on every call.
    @cached_property
    def x_values(self) -> tuple[float, ...]:
        return tuple(x for x, _ in self.samples)

    @cached_property
    def phi_values(self) -> tuple[float, ...]:
        return tuple(v for _, v in self.samples)

    def interpolate(self, t: float) -> float:
        xs = self.x_values
        ys = self.phi_values
        if not xs[0] <= t <= xs[-1]:
            raise ValueError(f"{t!r} outside tabulated range [{xs[0]}, {xs[-1]}]")
        i = _bisect.bisect_right(xs, t) - 1
        if i == len(xs) - 1:
            return ys[-1]
        w = (t - xs[i]) / (xs[i + 1] - xs[i])
        return ys[i] + w * (ys[i + 1] - ys[i])

    def as_generator_spec(self) -> GeneratorSpec:
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
    """Run the full reconstruction: base point, per-point thresholds, the
    mirror negation, and monotonicity verification.

    The base point is always included among the samples so the
    normalization (+1 climbing, -1 mirrored) is exact by construction.
    """
    c, direction = select_base_point(f, cfg)
    grid = sorted(set(float(v) for v in cfg.grid) | {float(c)})
    for v in grid:
        if not f.domain.contains(v):
            raise ValueError(f"grid point {v!r} outside {f.domain.render()}")
    g = ExtendedOp(f)
    estimates = tuple(phi_at(g, c, v, direction, cfg) for v in grid)
    sign = 1.0 if direction is BranchDirection.C_BELOW else -1.0
    values = [sign * e.value for e in estimates]
    resolution_bound = max(e.half_width for e in estimates)
    allowed_regression = 2.0 * resolution_bound
    pairs = list(zip(grid, values))
    for (x0, y0), (x1, y1) in zip(pairs, pairs[1:]):
        if y1 - y0 < -allowed_regression:
            raise MonotonicityViolationError(
                f"extracted values regress from {y0!r} at {x0!r} to {y1!r} at {x1!r} "
                f"beyond 2 * {resolution_bound!r}"
            )
    step = f.arity - 1
    k = estimates[0].k
    return ExtractedGenerator(
        samples=tuple(pairs),
        c=c,
        direction=direction,
        resolution_bound=resolution_bound,
        normalization=sign,
        realized_resolution=step / k,
        interp_slack=_chord_slack(grid, values),
        band=cfg.comparison_band,
        estimates=estimates,
    )


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
    extrapolation). The pass threshold combines per-knot resolution error
    with the stored interpolation slack.
    """
    n = f.arity
    xs = gen.x_values
    lo, hi = xs[0], xs[-1]
    rng = random.Random(seed)
    threshold_base = (n + 1) * (gen.resolution_bound + gen.interp_slack)
    max_residual = 0.0
    witness = None
    worst = -math.inf
    accepted = 0
    attempts = 0
    while accepted < samples:
        attempts += 1
        if attempts > 200 * samples:
            raise ValueError(
                "could not sample tuples mapping back into the tabulated range"
            )
        tup = tuple(rng.uniform(lo, hi) for _ in range(n))
        y = f.eval(*tup)
        if not lo <= y <= hi:
            continue
        accepted += 1
        lhs = gen.interpolate(y)
        rhs = math.fsum(gen.interpolate(v) for v in tup)
        residual = abs(lhs - rhs)
        max_residual = max(max_residual, residual)
        margin = residual - (threshold_base + scaled_tolerance(1e-12, lhs, rhs))
        if margin > 0.0 and margin > worst:
            worst = margin
            witness = Witness(kind="additivity", inputs=(tup,), residual=residual)
    return AxiomReport(
        axiom="identity",
        passed=witness is None,
        max_residual=max_residual,
        witness=witness,
        samples_used=samples,
        seed=seed,
        tolerance=threshold_base,
        label=f"additivity[{f.label}]",
    )


@dataclass(frozen=True)
class ScaleReport:
    """Pointwise ratio of two extracted generators of the same operation:
    by uniqueness up to scale the ratio must be constant."""

    points_used: int
    mean_ratio: float
    spread: float
    slack: float
    passed: bool
    ratios: tuple[float, ...] = ()


def compare_scales(
    gen1: ExtractedGenerator,
    gen2: ExtractedGenerator,
    common_grid: Sequence[float],
    spread_tol: float | None = None,
) -> ScaleReport:
    """Ratios gen1/gen2 on grid points safely away from the shared zero.

    The spread (max - min over mean magnitude) must stay within the
    resolution-derived slack, or within ``spread_tol`` when given.
    """
    floor2 = 5.0 * max(gen2.realized_resolution, gen2.resolution_bound)
    ratios = []
    errors = []
    for t in common_grid:
        v1 = gen1.interpolate(t)
        v2 = gen2.interpolate(t)
        if abs(v2) <= floor2:
            continue
        r = v1 / v2
        ratios.append(r)
        e1 = gen1.resolution_bound + gen1.interp_slack
        e2 = gen2.resolution_bound + gen2.interp_slack
        errors.append((e1 + abs(r) * e2) / max(abs(v2) - e2, 1e-300))
    if not ratios:
        raise ValueError("every grid point sits too close to the generators' zero")
    mean = math.fsum(ratios) / len(ratios)
    spread = (max(ratios) - min(ratios)) / max(abs(mean), 1e-300)
    slack = 2.0 * max(errors) / max(abs(mean), 1e-300) + 1e-9
    allowed = slack if spread_tol is None else max(slack, spread_tol)
    return ScaleReport(
        points_used=len(ratios),
        mean_ratio=mean,
        spread=spread,
        slack=slack,
        passed=spread <= allowed,
        ratios=tuple(ratios),
    )
