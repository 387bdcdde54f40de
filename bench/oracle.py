"""Output oracle for benchmark invocations.

Each check reads the JSON report of one invocation and compares it with
closed-form mathematics written here, independently of naryops:

* extracted tables lie within their ``resolution_bound`` of the exact
  generator normalized at the base point c (x for sum, x + 1/(n-1) for
  translated_sum, ln x for product, each divided by |phi(c)|);
* failing checks carry witnesses that replay: re-evaluating the
  closed-form operation on the stored inputs reproduces the stored
  residual;
* built operations have the expected codomain form, and reductions the
  expected neutral element.

Report bytes are never compared, so a change that moves the last bits of
a residual or table value and stays within the bounds still passes.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from typing import Callable, Sequence

#: relative slack for float rounding in closed-form comparisons
EPS = 1e-9


def closed_form_phi(family: str, n: int) -> Callable[[float], float]:
    """The increasing additive generator of a builtin operation family."""
    if family in ("sum", "expr_sum"):
        return lambda x: x
    if family == "translated_sum":
        s = 1.0 / (n - 1)
        return lambda x: x + s
    if family in ("product", "expr_product"):
        return math.log
    raise ValueError(f"no closed-form generator for {family!r}")


def _nan_tail(x1: float, x2: float) -> float:
    t = 1000.0 * (x1 - 15.0)
    e = math.inf if t > 709.0 else math.exp(t)
    return x1 + x2 + (e - e)


def closed_form_op(family: str) -> Callable[..., float]:
    """Plain-Python evaluation of the operations expected to fail checks."""
    if family == "alternating":
        return lambda *xs: math.fsum(x if i % 2 == 0 else -x for i, x in enumerate(xs))
    if family == "cubic_tail":
        return lambda x1, x2, x3: x1 + x2 + x3 * x3
    if family == "nan_tail":
        return _nan_tail
    raise ValueError(f"no closed-form operation for {family!r}")


def _fold(f: Callable[..., float], n: int, xs: Sequence[float]) -> float:
    """Left-nested evaluation of a string of length 1 (mod n-1)."""
    if len(xs) == 1:
        return xs[0]
    acc = f(*xs[:n])
    for i in range(n, len(xs), n - 1):
        acc = f(acc, *xs[i : i + n - 1])
    return acc


def replay(f: Callable[..., float], n: int, w: dict) -> float:
    """Recompute a witness residual from its stored inputs."""
    kind = w["kind"]
    inputs = [tuple(t) for t in w["inputs"]]
    if kind == "associativity":
        xs = inputs[0]

        def nest(i):
            return f(*xs[:i], f(*xs[i : i + n]), *xs[i + n :])

        i = w["equation_index"]
        return abs(nest(i - 1) - nest(i))
    if kind == "symmetry":
        xs = inputs[0]
        return abs(f(*xs) - f(*(xs[j] for j in w["permutation"])))
    if kind == "cancellativity":
        a, b = inputs
        return f(*b) - f(*a)
    if kind == "nested_identity":
        x, y, z = inputs
        inner = _fold(f, n, y)
        return abs(_fold(f, n, x + (inner,) + z) - _fold(f, n, x + y + z))
    if kind == "split_identity":
        heads = tuple(_fold(f, n, b) for b in inputs)
        return abs(_fold(f, n, heads) - _fold(f, n, tuple(itertools.chain(*inputs))))
    raise ValueError(f"unknown witness kind {kind!r}")


class Expect:
    """Report check for one invocation; ``check`` returns a failure
    reason, or None when the report is right."""

    def check(self, report: dict) -> str | None:
        return None


class PlainExpect(Expect):
    """Only the exit code and the pass flag are checked."""


@dataclass(frozen=True)
class TableExpect(Expect):
    phi: Callable[[float], float]
    c: float
    grid: Sequence[str]

    def check(self, report):
        c = report.get("base_point")
        if c != self.c:
            return f"base point {c!r}, asked for {self.c!r}"
        want_xs = sorted({float(x) for x in self.grid} | {self.c})
        table = report.get("table", [])
        if [x for x, _ in table] != want_xs:
            return "table abscissae differ from the grid"
        scale = abs(self.phi(c))
        bound = report["resolution_bound"]
        for x, v in table:
            want = self.phi(x) / scale
            if not abs(v - want) <= bound + EPS * (1.0 + abs(want)):
                return f"phi({x!r}) = {v!r}, closed form {want!r}, bound {bound!r}"
        return None


@dataclass(frozen=True)
class WitnessExpect(Expect):
    op: Callable[..., float]
    n: int

    def check(self, report):
        witnesses = report.get("witnesses") or []
        if not witnesses:
            return "failed without a witness"
        for w in witnesses:
            try:
                r = replay(self.op, self.n, w)
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                return f"witness does not replay: {exc}"
            if not abs(r - w["residual"]) <= EPS * (1.0 + abs(w["residual"])):
                return f"{w['kind']} witness replays to {r!r}, stored {w['residual']!r}"
        return None


class GalleryExpect(Expect):
    def check(self, report):
        fixtures = report.get("fixtures") or []
        bad = [fx["name"] for fx in fixtures if not fx["pass"]]
        if not fixtures or bad:
            return f"gallery fixtures failed: {bad}"
        return None


@dataclass(frozen=True)
class BuildExpect(Expect):
    form: str

    def check(self, report):
        form = report.get("codomain_form", {}).get("form")
        if form != self.form:
            return f"codomain form {form!r}, expected {self.form!r}"
        return None


@dataclass(frozen=True)
class ReduceExpect(Expect):
    neutral: float | None  # None: adjoined outside the interval

    def check(self, report):
        if self.neutral is None:
            if not report.get("neutral_adjoined"):
                return "neutral element should be adjoined"
            return None
        got = report.get("neutral")
        if report.get("neutral_adjoined") or not abs(got - self.neutral) <= 1e-9:
            return f"neutral {got!r}, expected {self.neutral!r}"
        return None


def verify(codes: frozenset, expect: Expect, code, stdout: str) -> str | None:
    """Failure reason for one invocation's outcome, or None when right."""
    if code not in codes:
        return f"exit {code}, expected {sorted(codes)}"
    if code not in (0, 1):
        return None
    try:
        report = json.loads(stdout)
    except ValueError:
        return "report is not JSON"
    if report.get("pass") is not (code == 0):
        return f"pass flag {report.get('pass')!r} disagrees with exit {code}"
    return expect.check(report)
