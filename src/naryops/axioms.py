"""Sampling-based falsification checks: associativity, symmetry,
cancellativity, and idempotent search, the one loop every sampled
identity check of the package runs through, its seeded draws, and the
trials of each witness kind, which its check and Witness.replay share.

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
from operator import itemgetter, sub
from typing import Callable, Sequence

from .core import Interval, NaryOp, Record, lattice
from .extension import ExtendedOp, nested_trials, split_trials
from .generator import build_aczelian, generator_sum

__all__ = [
    "Witness",
    "AxiomReport",
    "check_associativity",
    "check_symmetry",
    "check_cancellativity",
    "find_idempotents",
    "falsify",
    "falsifier",
    "random_nested_decomposition",
    "random_split_blocks",
]

class Witness(Record):
    """A replayable counterexample: stored inputs reproduce the stored
    residual when re-evaluated on the same operation."""

    __slots__ = _fields = (
        "kind", "inputs", "residual", "equation_index", "permutation", "coordinate"
    )

    def __init__(
        self, kind: str, inputs: tuple[tuple[float, ...], ...], residual: float,
        equation_index: int | None = None, permutation: tuple[int, ...] | None = None,
        coordinate: int | None = None,
    ):
        super().__init__(kind, inputs, residual, equation_index, permutation, coordinate)

    def replay(self, op, helper=None) -> float:
        """Recompute the residual from the stored inputs, bit for bit, by
        the trial of the witness's check with its equation index and
        permutation; it raises where the check raised. ``op`` is the
        checked NaryOp (the ExtendedOp for the identity kinds, the
        AdjoinedStructure for neutrality); ``helper`` is the binary
        candidate for reduction, the ExtractedGenerator for additivity and
        the round trip."""
        if self.kind == "cancellativity":
            a, b = self.inputs
            return op.checked(*b) - op.checked(*a)
        if self.kind not in _TRIALS:
            raise ValueError(f"unknown witness kind {self.kind!r}")
        key = (self.equation_index, self.permutation)
        for lhs, rhs, fields in _TRIALS[self.kind](op, helper, [self.inputs]):
            if (fields.get("equation_index"), fields.get("permutation")) == key:
                return abs(lhs - rhs)
        raise ValueError(f"no {self.kind} trial at {self.inputs!r} matches the witness")

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


class AxiomReport(Record):
    """Outcome of one check: the worst residual seen, and a witness when
    the check failed, so it passed when it holds none. Deterministic given
    (op, seed, samples). ``axiom`` names the law: associativity, symmetry,
    cancellativity or identity. A check of no sample concludes nothing, so
    ``samples_used`` below 1 raises ValueError."""

    __slots__ = ("axiom", "max_residual", "witness", "samples_used", "seed", "tolerance", "label")
    _fields = ("axiom", "passed", *__slots__[1:])

    def __init__(
        self, axiom: str, max_residual: float, witness: Witness | None,
        samples_used: int, seed: int, tolerance: float, label: str = "",
    ):
        if samples_used < 1:
            raise ValueError("samples must be >= 1")
        super().__init__(axiom, max_residual, witness, samples_used, seed, tolerance, label)

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

    @property
    def passed(self) -> bool:
        return self.witness is None


def _below(getrandbits: Callable[[int], int], n: int) -> int:
    """A uniform int in [0, n): ``n.bit_length()`` random bits, drawn again
    while they reach n. This is CPython's ``_randbelow_with_getrandbits``,
    under ``randint`` and ``sample``, so a seed gives the same numbers
    either way. The seeded integer draws of the sampled checks take it or,
    in the lattice and section loops, repeat its rejection inline."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def lattice_sampler(
    iv: Interval, window: float, rng: random.Random
) -> Callable[[int], tuple[float, ...]]:
    """Draw exact dyadic points from iv clamped to [-window, window]:
    ``draw(m)`` gives a tuple of m of them.

    A point is ``rng.randint(j_min, j_max) * h`` without randint's
    argument handling: ``span.bit_length()`` random bits, drawn again
    while they reach span, the stream of :func:`_below`, inline."""
    j_min, j_max, h = lattice(iv, window)
    span = j_max - j_min + 1
    k = span.bit_length()
    getrandbits = rng.getrandbits

    def draw(m: int) -> tuple[float, ...]:
        points = []
        for _ in range(m):
            r = getrandbits(k)
            while r >= span:
                r = getrandbits(k)
            points.append((j_min + r) * h)
        return tuple(points)

    return draw


#: string lengths of the random identity trials, in steps of n-1 beyond 1
_NESTED_STEPS = 5
_SPLIT_STEPS = 2


def _step(n: int) -> int:
    """n - 1, the spacing of the string lengths of arity n's class."""
    if n < 2:
        raise ValueError("arity class needs n >= 2")
    return n - 1


def random_nested_decomposition(rng: random.Random, n: int) -> tuple[int, int, int]:
    """Lengths (|x|, |y|, |z|) with |y| and |x|+1+|z| in the arity class.

    Total length is at most 1 + _NESTED_STEPS * (n-1). The three draws
    are the ``rng.randint`` calls (1, _NESTED_STEPS), (0, total steps)
    and (0, rest), made with :func:`_below`.
    """
    step = _step(n)
    getrandbits = rng.getrandbits
    total = 1 + step * (1 + _below(getrandbits, _NESTED_STEPS))
    inner = 1 + step * _below(getrandbits, (total - 1) // step + 1)
    rest = total - inner
    left = _below(getrandbits, rest + 1)
    return left, inner, rest - left


def random_split_blocks(rng: random.Random, n: int) -> tuple[int, ...]:
    """n block lengths, each in the arity class and at most
    1 + _SPLIT_STEPS * (n-1), drawn as ``rng.randint(0, _SPLIT_STEPS)``
    steps with :func:`_below`."""
    step = _step(n)
    getrandbits = rng.getrandbits
    return tuple([1 + step * _below(getrandbits, _SPLIT_STEPS + 1) for _ in range(n)])


def falsifier(
    kind: str,
    tol: float,
    *,
    slack: float | None = None,
    axiom: str = "identity",
    samples: int = 1,
    seed: int = 0,
    label: str = "",
) -> Callable:
    """The one sample-and-falsify rule, in push form: returns ``push``,
    and ``push(trials)`` takes the trials of an iterable, in as many
    batches as come, until ``push(None)`` returns the AxiomReport of all
    of them. :func:`falsify` is its pull form. A trial that raises ends
    the check: the error leaves ``push`` and the check takes no more.

    A trial ``(lhs, rhs, fields)`` holds the two sides of an identity on
    one sample, evaluated through :meth:`NaryOp.checked`, and the
    :class:`Witness` fields (inputs and the like) that replay it. A trial
    fails unless its residual ``|lhs - rhs|`` is at most the threshold
    ``slack + tol + tol*|lhs| + tol*|rhs|``, summed term by term so that
    ``tol`` 0 never meets an infinite ``|lhs| + |rhs|``; the comparison
    is written so that a NaN residual fails too. The witness is the
    failing trial with the largest margin (residual minus threshold), the
    first one on a tie.
    The report's tolerance is ``slack`` when given and ``tol`` otherwise.
    A check of no trial reports 0 samples, which AxiomReport rejects.
    """
    loop = _falsify_loop(kind, tol, slack, axiom, samples, seed, label)
    next(loop)
    return loop.send


def _falsify_loop(kind, tol, slack, axiom, samples, seed, label):
    """The generator behind :func:`falsifier`: it keeps the check's state
    in its own frame between batches."""
    base = 0.0 if slack is None else slack
    max_residual = 0.0
    witness = None
    worst = -math.inf
    ran = 0
    trials = yield
    while trials is not None:
        for ran, (lhs, rhs, fields) in enumerate(trials, ran + 1):
            residual = abs(lhs - rhs)
            if residual > max_residual:
                max_residual = residual
            threshold = base + tol + tol * abs(lhs) + tol * abs(rhs)
            if not residual <= threshold and (witness is None or residual - threshold > worst):
                worst = residual - threshold
                witness = Witness(kind=kind, residual=residual, **fields)
        trials = yield
    yield AxiomReport(
        axiom=axiom,
        max_residual=max_residual,
        witness=witness,
        samples_used=samples if ran else 0,
        seed=seed,
        tolerance=tol if slack is None else slack,
        label=label,
    )


def falsify(kind: str, trials, tol: float, **report) -> AxiomReport:
    """The pull form of :func:`falsifier`: the report of one check over
    the trials of an iterable. ``report`` takes falsifier's keywords:
    ``slack``, ``axiom``, ``samples``, ``seed`` and ``label``."""
    push = falsifier(kind, tol, **report)
    push(trials)
    return push(None)


def associativity_trials(f: NaryOp, inputs):
    """Trials of associativity at each (2n-1)-tuple xs of the inputs
    ``(xs,)``: its n nestings, inner application first, evaluated once, and
    equation index i in [1, n-1] between the nestings at offsets i-1 and i."""
    n, checked = f.arity, f.checked
    for (xs,) in inputs:
        values = [checked(*xs[:i], checked(*xs[i : i + n]), *xs[i + n :]) for i in range(n)]
        for i in range(n - 1):
            yield values[i], values[i + 1], {"inputs": (xs,), "equation_index": i + 1}


def check_associativity(
    f: NaryOp,
    samples: int = 500,
    seed: int = 0,
    tol: float = 1e-9,
    window: float = 10.0,
) -> AxiomReport:
    """Compare all adjacent nestings of sampled (2n-1)-tuples, the trials
    of :func:`associativity_trials`."""
    draw = lattice_sampler(f.domain, window, random.Random(seed))
    inputs = ((draw(2 * f.arity - 1),) for _ in range(samples))
    return falsify(
        "associativity", associativity_trials(f, inputs), tol,
        axiom="associativity", samples=samples, seed=seed, label=f.label,
    )


def symmetry_trials(f: NaryOp, inputs):
    """Trials of symmetry at each n-tuple xs of the inputs ``(xs,)``: f at
    xs, evaluated once, against f at xs under the transposition
    ``(1, 0, 2, ..., n-1)`` and the n-cycle ``(1, 2, ..., n-1, 0)``, which
    are one permutation at n = 2."""
    n, checked = f.arity, f.checked
    swap, cycle = (1, 0, *range(2, n)), (*range(1, n), 0)
    generators = [(perm, itemgetter(*perm)) for perm in ((swap,) if n == 2 else (swap, cycle))]
    for (xs,) in inputs:
        base = checked(*xs)
        for perm, permute in generators:
            yield base, checked(*permute(xs)), {"inputs": (xs,), "permutation": perm}


def check_symmetry(
    f: NaryOp,
    samples: int = 500,
    seed: int = 0,
    tol: float = 1e-9,
    window: float = 10.0,
) -> AxiomReport:
    """Compare f at each sampled tuple against its two permutations in
    :func:`symmetry_trials`, at most 3 * samples evaluations at any arity.

    The two generate S_n, so f invariant under both at every point is
    invariant under every permutation. And for continuous f, a permutation
    that moves the value at some x is a word in the two, one of whose
    steps moves the value at a point along the way, and so, by continuity,
    on an open set around it that the samples can hit.
    """
    draw = lattice_sampler(f.domain, window, random.Random(seed))
    inputs = ((draw(f.arity),) for _ in range(samples))
    return falsify(
        "symmetry", symmetry_trials(f, inputs), tol,
        axiom="symmetry", samples=samples, seed=seed, label=f.label,
    )


#: relative step below which a section counts as flat in check_cancellativity
_STRICT_TOL = 1e-12

#: lattice points sampled along each section in check_cancellativity
_POINTS_PER_LINE = 9

#: the largest population random.sample draws _POINTS_PER_LINE points of
#: from a pool: 21 + 4 ** ceil(log(3 * 9, 4))
_POOL_LIMIT = 85


def _section_offsets(getrandbits: Callable[[int], int], size: int) -> list[int]:
    """The sorted ``random.Random.sample(range(size), _POINTS_PER_LINE)``
    of the same stream, drawn as :func:`_below` draws: up to _POOL_LIMIT
    points each pick is swapped out of a pool, beyond it a repeat or a
    draw past size is drawn again, as sample does."""
    if size <= _POOL_LIMIT:
        pool = list(range(size))
        picks = []
        for left in range(size, size - _POINTS_PER_LINE, -1):
            j = _below(getrandbits, left)
            picks.append(pool[j])
            pool[j] = pool[left - 1]
        return sorted(picks)
    chosen: set[int] = set()
    k = size.bit_length()
    while len(chosen) < _POINTS_PER_LINE:
        r = getrandbits(k)
        if r < size:
            chosen.add(r)
    return sorted(chosen)


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
    size = j_max - j_min + 1
    draw = lattice_sampler(f.domain, window, rng)
    getrandbits = rng.getrandbits
    anchor_j = min(max(0, j_min), j_max)
    checked = f.checked
    max_residual = 0.0
    witness = None
    sections = 0
    for coord in range(n):
        for line in range(lines):
            frozen = (anchor_j * h,) * (n - 1) if line == 0 else draw(n - 1)
            if size > _POINTS_PER_LINE:
                js = [j_min + t for t in _section_offsets(getrandbits, size)]
            else:
                js = range(j_min, j_max + 1)
            head, tail = frozen[:coord], frozen[coord:]
            values = [checked(*head, j * h, *tail) for j in js]
            sections += 1
            if witness is not None:
                continue  # the first witness is the one reported
            thr = _STRICT_TOL * (1.0 + max(map(abs, values)))
            steps = list(map(sub, values[1:], values))
            if min(steps) > thr or max(steps) < -thr:
                continue  # strictly monotone
            # each step up (1), down (-1) or flat within thr (0)
            signs = [(d > thr) - (d < -thr) for d in steps]
            if 0 in signs:
                bad = signs.index(0)
            else:  # both directions: the first step against the first
                bad = signs.index(-signs[0])
            max_residual = abs(steps[bad])
            witness = Witness(
                kind="cancellativity",
                inputs=((*head, js[bad] * h, *tail), (*head, js[bad + 1] * h, *tail)),
                residual=steps[bad],
                coordinate=coord,
            )
    return AxiomReport(
        axiom="cancellativity",
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

    Returns the grid points themselves when the residual is within
    _REFINE_TOL at every one of them. Evaluation is checked, so a
    non-finite value raises :class:`DomainEscapeError` naming the inputs
    instead of dropping out of the sign scan.
    """
    pts = list(grid)
    if not pts:
        raise ValueError("grid must not be empty")
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
        return pts

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


def reduction_trials(f: NaryOp, diamond: NaryOp, inputs):
    """Trials of the reduction at each n-tuple xs of the inputs ``(xs,)``:
    f at xs against the left fold of ``diamond``, its ExtendedOp evaluation."""
    fold = ExtendedOp(diamond).eval
    for (xs,) in inputs:
        yield f.checked(*xs), fold(xs), {"inputs": (xs,)}


def neutrality_trials(structure, inputs):
    """Trials of an AdjoinedStructure's neutral element at each probe x of
    the inputs ``((x,),)``: |f'(x, e, ..., e) - x| against zero."""
    for inp in inputs:
        yield structure.max_neutrality_residual(inp[0]), 0.0, {"inputs": inp}


def additivity_trials(f: NaryOp, gen, inputs):
    """Trials of an ExtractedGenerator's additivity at each n-tuple xs of
    the inputs ``(xs,)`` whose value f(xs) lies inside the table (no
    extrapolation): gen(f(xs)) against the sum of gen(xi)."""
    checked = f.checked
    lo, hi, interpolate = gen.x_values[0], gen.x_values[-1], gen.interpolate
    for (xs,) in inputs:
        y = checked(*xs)
        if lo <= y <= hi:
            yield interpolate(y), generator_sum(interpolate, xs), {"inputs": (xs,)}


def roundtrip_trials(f: NaryOp, gen, inputs):
    """Trials of the round trip through an ExtractedGenerator at each
    n-tuple of the inputs ``(tup,)`` whose generator sum lies inside the
    table: the operation rebuilt from the table against f. The rebuilt value
    is the table's inverse at that sum, as the rebuilt operation computes
    it; where that fails the rebuilt domain test, the rebuilt op raises.
    The table's spec is built before the first input is taken, so a table
    with tied values raises before any draw."""
    spec = gen.as_generator_spec()
    checked, interpolate, inverse = f.checked, spec.phi, spec.phi_inverse
    xs, ys = gen.x_values, gen.phi_values
    for (tup,) in inputs:
        s = generator_sum(interpolate, tup)
        if ys[0] <= s <= ys[-1]:
            x = inverse(s)
            if not xs[0] <= x <= xs[-1]:
                x = build_aczelian(spec, f.arity).checked(*tup)
            yield x, checked(*tup), {"inputs": (tup,)}


#: the trials of each witness kind but cancellativity, as trials(op, helper, inputs)
_TRIALS = {
    "associativity": lambda op, _, inputs: associativity_trials(op, inputs),
    "symmetry": lambda op, _, inputs: symmetry_trials(op, inputs),
    "nested_identity": lambda op, _, inputs: nested_trials(op, inputs),
    "split_identity": lambda op, _, inputs: split_trials(op, inputs),
    "neutrality": lambda op, _, inputs: neutrality_trials(op, inputs),
    "reduction": reduction_trials,
    "additivity": additivity_trials,
    "roundtrip": roundtrip_trials,
}
