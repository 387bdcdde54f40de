"""A reference for the extraction's hot loops: the unit table with its
``eval`` callback, the unit walk :func:`phi_at`, and the sampled checks
:func:`verify_additivity` and :func:`verify_roundtrip` over the
rejection sampler :func:`_window_trials`, each value going through
``window_point``, ``gen.interpolate`` and ``rebuilt.checked``.

The package's versions draw with the two halves of ``window_point``
hoisted, bind the table's interpolation once per check, take the rebuilt
value from the generator sum the trial has range-tested, and call the
operation's ``checked`` straight from the walk; they must give the same
estimates and reports, raise the same errors and evaluate the operation
on the same tuples in the same order as this one. Its
``_search_diagonal`` reads, as the package's ``diagonal`` does, only an
escape caused by an ``OverflowError`` as an overflow, so a division by
zero on the diagonal propagates in both.
"""

from __future__ import annotations

import math
import random

import inversion_oracle

from naryops import generator
from naryops.axioms import AxiomReport, falsify
from naryops.core import NaryOp, window_point
from naryops.errors import (
    BracketNotFoundError,
    DomainEscapeError,
    InversionError,
    MonotonicityViolationError,
)
from naryops.extension import BranchDirection
from naryops.extraction import ExtractedGenerator, PhiEstimate

#: steps allowed at the top of a unit table that the float range ends
_MAX_LEVEL_STEPS = 64

#: relative rounding allowance of the checks of an extracted table
_ROUNDING_TOL = 1e-12


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

    def _search_diagonal(self, t: float) -> float:
        """The diagonal as :meth:`_root`'s search calls it: an overflow,
        which escapes with no value and an OverflowError as its cause,
        raises OverflowError again, and the search reads it as the infinity
        the diagonal heads toward; other escapes propagate."""
        try:
            return self.diagonal(t)
        except DomainEscapeError as exc:
            if isinstance(exc.__cause__, OverflowError):
                raise OverflowError(str(exc)) from None
            raise

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
        """The unit below u, or None when no float lies strictly between the
        root and u: the points far (when it lies in the domain, past the
        next float nxt), then the approach from nxt toward the domain end,
        then an open finite end itself, listed first and sampled in turn
        past the last one sampled, until the diagonal reaches u; the
        reference inversion refines the last step to the last float."""
        dom = self.f.domain
        nxt = math.nextafter(u, -math.inf if self.ahead else math.inf)
        if not dom.contains(nxt) or self.before(d := self.diagonal(nxt), u):
            return None  # the root lies between nxt and u
        if d == u:
            return nxt
        end, open_end = (dom.lo, dom.lo_open) if self.ahead else (dom.hi, dom.hi_open)
        points = []
        if self.low < self.high:
            far = u - 2.0 * (self.table[self.low + 1] - u) / self.n
            if dom.contains(far) and self.before(far, nxt):
                points.append(far)
        points += inversion_oracle._approach(end, open_end, nxt, self.ahead)
        if open_end and math.isfinite(end):
            points.append(end)
        last, f_last = nxt, d
        for x in points:
            if not self.before(x, last):
                continue
            fx = inversion_oracle._safe_phi(self._search_diagonal, x, d, u)
            if f_last <= u <= fx or fx <= u <= f_last:  # the diagonal reached u
                if fx == u:
                    return x
                (a, fa), (b, fb) = sorted([(x, fx), (last, f_last)])
                return inversion_oracle.refine(self._search_diagonal, u, a, fa, b, fb, 0.0)
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


def _window_trials(gen: ExtractedGenerator, n: int, samples: int, seed: int, trial):
    """Rejection-sample n-tuples uniformly over the tabulated window until
    ``samples`` of them give a trial; ``trial(tup)`` returns the trial, or
    None to reject the tuple. Raises :class:`BracketNotFoundError` after
    500 draws per sample."""
    lo, hi = gen.window()
    rng = random.Random(seed)
    accepted = draws = 0
    while accepted < samples:
        draws += 1
        if draws > 500 * samples:
            raise BracketNotFoundError(
                f"could not sample {samples} tuples inside the tabulated window "
                f"[{lo!r}, {hi!r}] in {draws - 1} draws"
            )
        t = trial(tuple(window_point(lo, hi, rng.random()) for _ in range(n)))
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
    extrapolation). The pass threshold is (n+1) * gen.knot_error, for n
    interpolated inputs and one interpolated output, plus _ROUNDING_TOL.
    """
    n = f.arity
    lo, hi = gen.window()

    def trial(tup):
        y = f.checked(*tup)
        if not lo <= y <= hi:
            return None
        lhs = gen.interpolate(y)
        return lhs, generator.generator_sum(gen.interpolate, tup), {"inputs": (tup,)}

    return falsify(
        "additivity", _window_trials(gen, n, samples, seed, trial), _ROUNDING_TOL,
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
    plus the relative rounding allowance _ROUNDING_TOL, as in
    :func:`verify_additivity`.
    """
    n = f.arity
    ys = gen.phi_values

    def trial(tup):
        s = generator.generator_sum(gen.interpolate, tup)
        if not ys[0] <= s <= ys[-1]:
            return None
        return rebuilt.checked(*tup), f.checked(*tup), {"inputs": (tup,)}

    return falsify(
        "roundtrip", _window_trials(gen, n, samples, seed, trial), _ROUNDING_TOL,
        slack=(n + 1) * gen.knot_error * gen.max_inverse_slope(),
        samples=samples, seed=seed, label=f"roundtrip[{f.label}]",
    )
