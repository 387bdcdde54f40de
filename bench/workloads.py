"""Invocation lists for the three benchmark workloads.

A workload is a fixed design: a list of cells (command, operation family,
arity, resolution or sample count), each turned into one CLI invocation
whose continuous parameters (grid placement, base point, ``--seed``) are
drawn from the benchmark seed. The design keeps the mix of work the same
from seed to seed, so runs with different seeds stay comparable, while
the seed still changes every input the program sees.

Each invocation carries its oracle expectation (``oracle.py``) and, for
the catalogued known defects, the defect's name. A known defect is an
invocation on which the program is wrong today; it stays in the mix and
counts in ``error_rate``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

from oracle import (
    BuildExpect,
    Expect,
    GalleryExpect,
    PlainExpect,
    ReduceExpect,
    TableExpect,
    WitnessExpect,
    closed_form_op,
    closed_form_phi,
)

RESOLUTIONS = (1.0 / 64.0, 1.0 / 256.0, 1.0 / 1024.0)


@dataclass(frozen=True)
class Invocation:
    """One CLI call: its argv (without ``--format json``), the exit codes
    a correct program may return, the report check, and the known
    defect it reproduces, if any."""

    argv: tuple[str, ...]
    codes: frozenset[int]
    expect: Expect
    defect: str | None = None


def _g(v: float) -> str:
    return f"{v:.6g}"


def _class_ceil(m: int, n: int) -> int:
    """Smallest string length >= m that an arity-n operation evaluates."""
    step = n - 1
    return 1 if m <= 1 else 1 + -((1 - m) // step) * step


def _denominator(n: int, res: float) -> int:
    """The string-length denominator k the extraction uses at a resolution."""
    return _class_ceil(math.ceil((n - 1) / res), n)


def _op_source(family: str, n: int) -> tuple[str, ...]:
    """``--op`` (and ``--interval``) for an operation family at arity n."""
    if family == "expr_sum":
        return ("--op", "expr:" + "+".join(f"x{i}" for i in range(1, n + 1)))
    if family == "cubic_tail":
        return ("--op", "expr:x1+x2+x3^2")
    if family == "expr_product":
        return (
            "--op",
            "expr:" + "*".join(f"x{i}" for i in range(1, n + 1)),
            "--interval",
            "(0,inf)",
        )
    return ("--op", family)


# --- extract ---------------------------------------------------------------


#: commands and the operation families they run on. Product round trips
#: are left to the ``roundtrip_error_model`` fixture below: on most product
#: grids the round trip fails today, because its threshold leaves out the
#: interpolation slack of the curved generator.
EXTRACT_CELLS = (
    ("extract", ("sum", "translated_sum", "product", "expr_sum")),
    ("roundtrip", ("sum", "translated_sum", "expr_sum")),
)


def _extraction_grid(rng: random.Random, family: str, n: int, res: float, points: int):
    """Base point c and a grid on which the generator, normalized at c,
    takes evenly spaced values t over about [-2.3, 2.3].

    The extraction cost grows with |t|, so fixing the t range and drawing
    the scale |phi(c)| and the sign of phi(c) keeps the cost of a cell
    about the same from seed to seed. Product grids are geometric and
    scaled with the string length k, so that x^(2k) and c^(2k) stay inside
    the float range: outside it the string method overflows (the
    ``product_overflow`` defect below).
    """
    mag = rng.uniform(0.8, 1.25)
    sign = rng.choice((1.0, -1.0))
    lo, hi = -rng.uniform(2.2, 2.4), rng.uniform(2.2, 2.4)
    ts = [lo + (hi - lo) * j / (points - 1) for j in range(points)]
    if family == "product":
        mag *= 100.0 / _denominator(n, res)
        c = math.exp(sign * mag)
        xs = [math.exp(t * mag) for t in ts]
    elif family == "translated_sum":
        s = 1.0 / (n - 1)
        c = sign * mag - s
        xs = [t * mag - s for t in ts]
    else:
        c = sign * mag
        xs = [t * mag for t in ts]
    return _g(c), [_g(x) for x in xs]


def extract_invocations(rng: random.Random) -> list[Invocation]:
    out = []
    for command, families in EXTRACT_CELLS:
        for family in families:
            for n in (2, 3, 4):
                for res in RESOLUTIONS:
                    for points in (5, 9):
                        c, grid = _extraction_grid(rng, family, n, res, points)
                        argv = (
                            command,
                            *_op_source(family, n),
                            "--n", str(n),
                            "--c", c,
                            "--grid=" + ",".join(grid),
                            "--resolution", repr(res),
                            "--seed", str(rng.randrange(10**6)),
                        )
                        if command == "roundtrip":
                            argv += ("--samples", "50")
                        phi = closed_form_phi(family, n)
                        out.append(Invocation(argv, frozenset({0}), TableExpect(phi, float(c), grid)))
    return out


_PRODUCT_17 = "0.5,0.59,0.71,0.84,1,1.19,1.41,1.68,2,2.38,2.83,3.36,4,4.76,5.66,6.73,8"

EXTRACT_DEFECTS = (
    Invocation(
        (
            "extract", "--op", "product", "--n", "3", "--c", "2",
            "--grid", _PRODUCT_17, "--resolution", "0.00390625",
        ),
        frozenset({0}),
        TableExpect(closed_form_phi("product", 3), 2.0, _PRODUCT_17.split(",")),
        defect="product_overflow",
    ),
    Invocation(
        ("roundtrip", "--op", "product", "--n", "3", "--c", "2", "--grid", "0.5,1,2"),
        frozenset({0}),
        TableExpect(closed_form_phi("product", 3), 2.0, ["0.5", "1", "2"]),
        defect="roundtrip_error_model",
    ),
)


# --- falsify ---------------------------------------------------------------

_LAWFUL = [
    (family, n)
    for family in ("sum", "translated_sum", "product", "bounded_product", "expr_sum")
    for n in (2, 3, 4, 5)
] + [("expr_product", n) for n in (2, 3, 4)]

_UNLAWFUL = [("alternating", 3), ("alternating", 5), ("cubic_tail", 3)]

#: an operation that is x1 + x2 until its first argument passes about 15.7
#: and NaN beyond; associativity reaches that region only through outer
#: evaluations, whose NaN residuals compare as "not above tolerance"
NAN_TAIL = "expr:x1+x2+(exp(1000*(x1-15))-exp(1000*(x1-15)))"


def falsify_invocations(rng: random.Random) -> list[Invocation]:
    out = []
    for command in ("axioms", "extend"):
        for samples in (40, 120):
            for family, n in _LAWFUL + _UNLAWFUL:
                argv = (
                    command, *_op_source(family, n),
                    "--n", str(n),
                    "--samples", str(samples),
                    "--seed", str(rng.randrange(10**6)),
                )
                lawful = (family, n) in _LAWFUL
                # the alternating operation is associative, so its extension
                # identities hold; only its axioms run must fail (symmetry)
                fails = not lawful and not (family == "alternating" and command == "extend")
                if fails:
                    out.append(Invocation(argv, frozenset({1}), WitnessExpect(closed_form_op(family), n)))
                else:
                    out.append(Invocation(argv, frozenset({0}), PlainExpect()))
    for _ in range(4):
        argv = ("gallery", "--seed", str(rng.randrange(10**6)))
        out.append(Invocation(argv, frozenset({0}), GalleryExpect()))
    return out


FALSIFY_DEFECTS = (
    Invocation(
        ("axioms", "--op", NAN_TAIL, "--n", "2", "--samples", "200"),
        frozenset({1, 3}),
        WitnessExpect(closed_form_op("nan_tail"), 2),
        defect="nan_blind_spot",
    ),
)


# --- generate --------------------------------------------------------------

#: generators without an inverse expression: (phi, codomain form, neutral).
#: Their samples stay in the window [-5, 5]: from about |x| = 10 on, the
#: bisection tolerance of the numeric inverse exceeds the axiom tolerance
#: now and then (the ``inversion_tolerance`` defect, kept in the mix as
#: the x^5+x fixture below).
_NUMERIC = (("x^3+x", "full_line", 0.0), ("x+exp(x)", "full_line", -0.5671432904097838))

#: controls with an explicit inverse: (phi, inverse, interval, form, neutral)
_EXPLICIT = (
    ("exp(x)", "ln(x)", None, "pos_open_a", None),
    ("ln(x)", "exp(x)", "(0,inf)", "full_line", 1.0),
    ("2*x+1", "(x-1)/2", None, "full_line", -0.5),
)


def generate_invocations(rng: random.Random) -> list[Invocation]:
    out = []

    def add(command, n, samples, phi, inv, interval, form, neutral):
        argv = (command, "--phi", phi)
        if inv is not None:
            argv += ("--phi-inv", inv)
        if interval is not None:
            argv += ("--interval", interval)
        argv += (
            "--n", str(n),
            "--samples", str(samples),
            "--window", "5",
            "--seed", str(rng.randrange(10**6)),
        )
        expect = BuildExpect(form) if command == "build" else ReduceExpect(neutral)
        out.append(Invocation(argv, frozenset({0}), expect))

    for samples in (10, 20, 30, 40):
        for phi, form, neutral in _NUMERIC:
            for n in (2, 3):
                add("build", n, samples, phi, None, None, form, neutral)
            for n in (2, 3, 4):
                add("reduce", n, samples, phi, None, None, form, neutral)
        for phi, inv, interval, form, neutral in _EXPLICIT:
            for command in ("build", "reduce"):
                for n in (2, 3, 4):
                    add(command, n, samples, phi, inv, interval, form, neutral)
    return out


GENERATE_DEFECTS = (
    Invocation(
        ("build", "--phi", "x^5+x", "--n", "3", "--samples", "20"),
        frozenset({0}),
        BuildExpect("full_line"),
        defect="inversion_tolerance",
    ),
)


@dataclass(frozen=True)
class Workload:
    """``round_seconds`` is the time one pass over the list took on the
    reference machine (2 cores, Python 3.11) when the benchmark was made;
    it converts ``--seconds`` into a fixed number of rounds."""

    name: str
    make: Callable[[random.Random], list[Invocation]]
    defects: tuple[Invocation, ...]
    warmup: tuple[tuple[str, ...], ...]
    round_seconds: float

    def invocations(self, seed: int) -> list[Invocation]:
        """The seeded invocation list, with the known defects spread
        through it at fixed positions."""
        rng = random.Random(f"{self.name}:{seed}")
        body = self.make(rng)
        rng.shuffle(body)
        gap = len(body) // (len(self.defects) + 1)
        for i, inv in enumerate(self.defects):
            body.insert((i + 1) * gap + i, inv)
        return body


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "extract",
            extract_invocations,
            EXTRACT_DEFECTS,
            (
                ("extract", "--op", "sum", "--n", "2", "--c", "1", "--grid=-1:1:0.5", "--resolution", "0.0625"),
                ("roundtrip", "--op", "product", "--n", "2", "--c", "2", "--grid", "0.5,1,2,4", "--samples", "20"),
            ),
            3.9,
        ),
        Workload(
            "falsify",
            falsify_invocations,
            FALSIFY_DEFECTS,
            (
                ("axioms", "--op", "sum", "--n", "2", "--samples", "10"),
                ("extend", "--op", "expr:x1+x2", "--n", "2", "--samples", "10"),
            ),
            1.45,
        ),
        Workload(
            "generate",
            generate_invocations,
            GENERATE_DEFECTS,
            (
                ("build", "--phi", "x^3+x", "--n", "2", "--samples", "5"),
                ("reduce", "--phi", "2*x+1", "--phi-inv", "(x-1)/2", "--n", "2", "--samples", "5"),
            ),
            2.5,
        ),
    )
}

#: invocations whose traced counts reproduce the ROADMAP baselines, with
#: the spans they count: 366 memberships for the first, 1,200 inversions
#: and 51,343 phi calls for the second
REFERENCES = {
    "extract_sum2": (
        Invocation(
            (
                "extract", "--op", "sum", "--n", "2", "--c", "1",
                "--grid=-2:2:0.25", "--resolution", "0.0009765625",
            ),
            frozenset({0}),
            TableExpect(closed_form_phi("sum", 2), 1.0, [str(0.25 * j) for j in range(-8, 9)]),
        ),
        ("extraction.sx_membership",),
    ),
    "build_cubic2": (
        Invocation(
            ("build", "--phi", "x^3+x", "--n", "2", "--samples", "200"),
            frozenset({0}),
            BuildExpect("full_line"),
        ),
        ("generator.invert_monotone", "generator.phi"),
    ),
}
