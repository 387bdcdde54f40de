"""Sampling-based falsification checks: associativity, symmetry,
cancellativity, and idempotent search, and the one loop every sampled
identity check of the package runs through.

These checks can falsify an axiom with a concrete, replayable witness;
they cannot certify it. Samples are drawn from a dyadic lattice inside
the domain window so that operations built from +, -, * are evaluated
exactly and residuals of genuinely associative ops are identically zero.
Operations are evaluated through :meth:`NaryOp.checked`, so a non-finite
value or a domain escape raises :class:`DomainEscapeError` instead of
passing as a residual that compares false.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Sequence

from .core import Interval, NaryOp, lattice
from .extension import ExtendedOp, nested_trials, split_trials
from .generator import generator_sum

__all__ = [
    "Witness",
    "AxiomReport",
    "AllSampledIdempotent",
    "ALL_SAMPLED_IDEMPOTENT",
    "check_associativity",
    "check_symmetry",
    "check_cancellativity",
    "find_idempotents",
    "falsify",
]


@dataclass(frozen=True)
class Witness:
    """A replayable counterexample: stored inputs reproduce the stored
    residual when re-evaluated on the same operation."""

    kind: str
    inputs: tuple[tuple[float, ...], ...]
    residual: float
    equation_index: int | None = None
    permutation: tuple[int, ...] | None = None
    coordinate: int | None = None

    def replay(self, op, helper=None) -> float:
        """Recompute the residual from the stored inputs.

        ``op`` is the NaryOp (the ExtendedOp for the identity kinds, the
        AdjoinedStructure for neutrality); ``helper`` carries the binary
        candidate for reduction witnesses, the rebuilt operation for
        round-trip witnesses and the ExtractedGenerator for additivity.
        """
        if self.kind == "associativity":
            xs, i, n = self.inputs[0], self.equation_index, op.arity
            return abs(_nesting(op.checked, n, xs, i - 1) - _nesting(op.checked, n, xs, i))
        if self.kind == "symmetry":
            xs = self.inputs[0]
            permuted = tuple(xs[j] for j in self.permutation)
            return abs(op.eval(*xs) - op.eval(*permuted))
        if self.kind == "cancellativity":
            a, b = self.inputs
            return op.eval(*b) - op.eval(*a)
        if self.kind in ("nested_identity", "split_identity"):
            trials = nested_trials if self.kind == "nested_identity" else split_trials
            lhs, rhs, _ = next(trials(op, [self.inputs]))
            return abs(lhs - rhs)
        if self.kind == "reduction":
            xs = self.inputs[0]
            return abs(op.eval(*xs) - ExtendedOp(helper).eval(xs))
        if self.kind == "roundtrip":
            xs = self.inputs[0]
            return abs(helper.eval(*xs) - op.eval(*xs))
        if self.kind == "additivity":
            xs = self.inputs[0]
            rhs = generator_sum(helper.interpolate, xs)
            return abs(helper.interpolate(op.eval(*xs)) - rhs)
        if self.kind == "neutrality":
            return op.max_neutrality_residual(self.inputs[0])
        raise ValueError(f"unknown witness kind {self.kind!r}")

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "inputs": [list(t) for t in self.inputs],
            "residual": self.residual,
            "equation_index": self.equation_index,
            "permutation": list(self.permutation) if self.permutation else None,
            "coordinate": self.coordinate,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Witness":
        return cls(
            kind=d["kind"],
            inputs=tuple(tuple(t) for t in d["inputs"]),
            residual=d["residual"],
            equation_index=d.get("equation_index"),
            permutation=tuple(d["permutation"]) if d.get("permutation") else None,
            coordinate=d.get("coordinate"),
        )


@dataclass(frozen=True)
class AxiomReport:
    """Outcome of one check: pass/fail, the worst residual seen, and a
    witness when the check failed. Deterministic given (op, seed, samples)."""

    axiom: str  # associativity | symmetry | cancellativity | identity
    passed: bool
    max_residual: float
    witness: Witness | None
    samples_used: int
    seed: int
    tolerance: float
    label: str = ""

    def to_dict(self) -> dict:
        return {
            "axiom": self.axiom,
            "pass": self.passed,
            "max_residual": self.max_residual,
            "witness": self.witness.to_dict() if self.witness else None,
            "samples_used": self.samples_used,
            "seed": self.seed,
            "tolerance": self.tolerance,
            "label": self.label,
        }


class AllSampledIdempotent:
    """Marker: every grid point satisfied f(x,...,x) = x to tolerance, so
    the idempotent set is (as far as sampling can tell) the whole grid."""

    def __repr__(self) -> str:
        return "AllSampledIdempotent"


ALL_SAMPLED_IDEMPOTENT = AllSampledIdempotent()


def lattice_sampler(
    iv: Interval, window: float, rng: random.Random
) -> Callable[[], float]:
    """Draw exact dyadic points from iv clamped to [-window, window].

    A draw is ``rng.randint(j_min, j_max) * h`` without randint's
    argument handling: ``span.bit_length()`` random bits, drawn again
    while they reach the span, which is how CPython's randint picks its
    offset (``_randbelow_with_getrandbits``), so a seed gives the same
    points either way."""
    j_min, j_max, h = lattice(iv, window)
    span = j_max - j_min + 1
    k = span.bit_length()
    getrandbits = rng.getrandbits

    def draw() -> float:
        r = getrandbits(k)
        while r >= span:
            r = getrandbits(k)
        return (j_min + r) * h

    return draw


def falsify(
    kind: str,
    trials,
    tol: float,
    *,
    slack: float | None = None,
    axiom: str = "identity",
    samples: int = 1,
    seed: int = 0,
    label: str = "",
) -> AxiomReport:
    """The one sample-and-falsify loop.

    ``trials`` yields ``(lhs, rhs, fields)``: the two sides of an identity
    on one sample, evaluated through :meth:`NaryOp.checked`, and the
    :class:`Witness` fields (inputs and the like) that replay it. A trial
    fails unless its residual ``|lhs - rhs|`` is at most the threshold
    ``slack + tol + tol*|lhs| + tol*|rhs|``, summed term by term so that
    ``tol`` 0 never meets an infinite ``|lhs| + |rhs|``; the comparison
    is written so that a NaN residual fails too. The witness is the
    failing trial with the largest margin (residual minus threshold), the
    first one on a tie.
    The report's tolerance is ``slack`` when given and ``tol`` otherwise.
    """
    base = 0.0 if slack is None else slack
    max_residual = 0.0
    witness = None
    worst = -math.inf
    for lhs, rhs, fields in trials:
        residual = abs(lhs - rhs)
        if residual > max_residual:
            max_residual = residual
        threshold = base + tol + tol * abs(lhs) + tol * abs(rhs)
        if not residual <= threshold and (witness is None or residual - threshold > worst):
            worst = residual - threshold
            witness = Witness(kind=kind, residual=residual, **fields)
    return AxiomReport(
        axiom=axiom,
        passed=witness is None,
        max_residual=max_residual,
        witness=witness,
        samples_used=samples,
        seed=seed,
        tolerance=tol if slack is None else slack,
        label=label,
    )


def _nesting(checked: Callable[..., float], n: int, xs: Sequence[float], i: int) -> float:
    """Evaluate the (2n-1)-tuple with the inner application at offset i,
    through ``checked``, the :meth:`NaryOp.checked` of an arity-n op."""
    inner = checked(*xs[i : i + n])
    return checked(*xs[:i], inner, *xs[i + n :])


def check_associativity(
    f: NaryOp,
    samples: int = 500,
    seed: int = 0,
    tol: float = 1e-9,
    window: float = 10.0,
) -> AxiomReport:
    """Compare all adjacent nestings of sampled (2n-1)-tuples.

    Equation index i (1-based, i in [1, n-1]) relates the nesting at
    offset i to the nesting at offset i+1.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    n = f.arity
    draw = lattice_sampler(f.domain, window, random.Random(seed))

    def trials():
        checked = f.checked
        for _ in range(samples):
            xs = tuple([draw() for _ in range(2 * n - 1)])
            values = [_nesting(checked, n, xs, i) for i in range(n)]
            for i in range(n - 1):
                yield values[i], values[i + 1], {"inputs": (xs,), "equation_index": i + 1}

    return falsify(
        "associativity", trials(), tol,
        axiom="associativity", samples=samples, seed=seed, label=f.label,
    )


def check_symmetry(
    f: NaryOp,
    samples: int = 500,
    seed: int = 0,
    tol: float = 1e-9,
    window: float = 10.0,
) -> AxiomReport:
    """Compare f at each sampled tuple against f at the tuple under the
    transposition ``(1, 0, 2, ..., n-1)`` and under the n-cycle
    ``(1, 2, ..., n-1, 0)``; at n = 2 the two are one permutation, checked
    once. So a check costs at most 3 * samples evaluations at every arity.

    The two generate S_n, so f invariant under both at every point is
    invariant under every permutation. And for continuous f, a permutation
    that moves the value at some x is a word in the two, one of whose
    steps moves the value at a point along the way, and so, by continuity,
    on an open set around it that the samples can hit.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    n = f.arity
    swap, cycle = (1, 0, *range(2, n)), (*range(1, n), 0)
    generators = (swap,) if n == 2 else (swap, cycle)
    draw = lattice_sampler(f.domain, window, random.Random(seed))

    def trials():
        checked = f.checked
        for _ in range(samples):
            xs = tuple([draw() for _ in range(n)])
            base = checked(*xs)
            for perm in generators:
                other = checked(*[xs[j] for j in perm])
                yield base, other, {"inputs": (xs,), "permutation": perm}

    return falsify(
        "symmetry", trials(), tol,
        axiom="symmetry", samples=samples, seed=seed, label=f.label,
    )


#: relative step below which a section counts as flat in check_cancellativity
_STRICT_TOL = 1e-12

#: lattice points sampled along each section in check_cancellativity
_POINTS_PER_LINE = 9


def check_cancellativity(
    f: NaryOp,
    lines: int = 100,
    seed: int = 0,
    window: float = 10.0,
) -> AxiomReport:
    """Check that every sampled one-variable section, _POINTS_PER_LINE
    lattice points along one coordinate, is strictly monotone.

    For continuous f this falsifies injectivity-per-variable; it cannot
    certify it. The first line per coordinate freezes the other variables
    at the lattice point nearest zero so annihilator-style failures
    (a constant section) are found deterministically.
    """
    n = f.arity
    rng = random.Random(seed)
    j_min, j_max, h = lattice(f.domain, window)
    draw = lattice_sampler(f.domain, window, rng)
    anchor_j = min(max(0, j_min), j_max)
    checked = f.checked
    max_residual = 0.0
    witness = None
    sections = 0
    for coord in range(n):
        for line in range(lines):
            frozen = (anchor_j * h,) * (n - 1) if line == 0 else tuple([draw() for _ in range(n - 1)])
            js = range(j_min, j_max + 1)
            if len(js) > _POINTS_PER_LINE:
                js = sorted(rng.sample(js, _POINTS_PER_LINE))
            tuples = [frozen[:coord] + (j * h,) + frozen[coord:] for j in js]
            values = [checked(*t) for t in tuples]
            sections += 1
            thr = _STRICT_TOL * (1.0 + max(abs(v) for v in values))
            # each step up (1), down (-1) or flat within thr (0)
            signs = [(b - a > thr) - (b - a < -thr) for a, b in zip(values, values[1:])]
            bad = None
            if 0 in signs:
                bad = signs.index(0)
            elif len(set(signs)) > 1:
                bad = next(t for t, s in enumerate(signs) if s != signs[0])
            if bad is not None and witness is None:
                d = values[bad + 1] - values[bad]
                max_residual = max(max_residual, abs(d))
                witness = Witness(
                    kind="cancellativity",
                    inputs=(tuples[bad], tuples[bad + 1]),
                    residual=d,
                    coordinate=coord,
                )
    return AxiomReport(
        axiom="cancellativity",
        passed=witness is None,
        max_residual=max_residual,
        witness=witness,
        samples_used=sections,
        seed=seed,
        tolerance=_STRICT_TOL,
        label=f.label,
    )


#: width to which find_idempotents bisects a root, and the residual within
#: which a grid point counts as idempotent
_REFINE_TOL = 1e-9


def find_idempotents(f: NaryOp, grid: Sequence[float]):
    """Roots of f(x,...,x) - x over the grid, bisected to _REFINE_TOL.

    Returns the :data:`ALL_SAMPLED_IDEMPOTENT` marker when the residual is
    within _REFINE_TOL at every grid point. Evaluation is checked, so a
    non-finite value raises :class:`DomainEscapeError` naming the inputs
    instead of dropping out of the sign scan.
    """
    pts = list(grid)
    if pts != sorted(pts):
        raise ValueError("grid must be sorted")
    for x in pts:
        if not f.domain.contains(x):
            raise ValueError(f"grid point {x!r} outside {f.domain.render()}")
    n = f.arity

    def h(x: float) -> float:
        return f.checked(*([x] * n)) - x

    values = [h(x) for x in pts]
    if all(abs(v) <= _REFINE_TOL for v in values):
        return ALL_SAMPLED_IDEMPOTENT

    roots = [x for x, v in zip(pts, values) if v == 0.0]
    for (a, va), (b, vb) in zip(zip(pts, values), zip(pts[1:], values[1:])):
        if va * vb < 0.0:
            lo, hi, vlo = a, b, va
            while hi - lo > _REFINE_TOL:
                mid = 0.5 * (lo + hi)
                vm = h(mid)
                if vm == 0.0:
                    lo = hi = mid
                    break
                if (vm > 0.0) == (vlo > 0.0):
                    lo, vlo = mid, vm
                else:
                    hi = mid
            roots.append(0.5 * (lo + hi))

    roots.sort()
    merged: list[float] = []
    for r in roots:
        if not merged or r - merged[-1] > 2.0 * _REFINE_TOL:
            merged.append(r)
    return merged
