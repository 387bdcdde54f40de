"""The reference tree walk of the expression language, the oracle that
``naryops.exprlang.make_callable`` is tested against.

:func:`eval_expr` never raises on bad inputs: a partial function outside
its domain returns a :class:`DomainError` value where the compiled
closures raise :class:`naryops.errors.DomainEscapeError` with the same
reason. :func:`to_source` renders an AST that parses back node for node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from naryops.exprlang import CONSTANTS, BinOp, Call, Const, Expr, Neg, Num, Var, _overflowed_pow


@dataclass(frozen=True)
class DomainError:
    """Out-of-domain evaluation result (ln of a non-positive, sqrt of a
    negative, division by zero, 0 or a negative raised badly)."""

    reason: str


def is_domain_error(v) -> bool:
    return isinstance(v, DomainError)


def eval_expr(e: Expr, args: Sequence[float]):
    """Evaluate with standard real semantics; returns a float or a
    :class:`DomainError` value, never raises on bad inputs."""
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Var):
        return float(args[e.index - 1])
    if isinstance(e, Const):
        return CONSTANTS[e.name]
    if isinstance(e, Neg):
        v = eval_expr(e.arg, args)
        return v if is_domain_error(v) else -v
    if isinstance(e, Call):
        v = eval_expr(e.arg, args)
        if is_domain_error(v):
            return v
        if e.fn == "ln":
            if v <= 0.0:
                return DomainError(f"ln of non-positive {v!r}")
            return math.log(v)
        if e.fn == "exp":
            try:
                return math.exp(v)
            except OverflowError:
                return math.inf
        if e.fn == "sqrt":
            if v < 0.0:
                return DomainError(f"sqrt of negative {v!r}")
            return math.sqrt(v)
        if e.fn == "abs":
            return abs(v)
        raise AssertionError(f"unknown function {e.fn}")
    if isinstance(e, BinOp):
        a = eval_expr(e.left, args)
        if is_domain_error(a):
            return a
        b = eval_expr(e.right, args)
        if is_domain_error(b):
            return b
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        if e.op == "/":
            if b == 0.0:
                return DomainError("division by zero")
            return a / b
        if e.op == "^":
            if a == 0.0 and b < 0.0:
                return DomainError("zero raised to a negative power")
            if a < 0.0 and b % 1.0 != 0.0:  # NaN for a NaN or infinite b
                return DomainError(f"negative base {a!r} with fractional exponent")
            try:
                return math.pow(a, b)
            except OverflowError:
                return _overflowed_pow(a, b)
        raise AssertionError(f"unknown operator {e.op}")
    raise TypeError(f"not an expression node: {e!r}")


def to_source(e: Expr) -> str:
    """Canonical fully parenthesized rendering; parsing it reproduces the
    AST node for node."""
    if isinstance(e, Num):
        return repr(e.value)
    if isinstance(e, Var):
        return f"x{e.index}"
    if isinstance(e, Const):
        return e.name
    if isinstance(e, Neg):
        return f"(-{to_source(e.arg)})"
    if isinstance(e, Call):
        return f"{e.fn}({to_source(e.arg)})"
    if isinstance(e, BinOp):
        return f"({to_source(e.left)} {e.op} {to_source(e.right)})"
    raise TypeError(f"not an expression node: {e!r}")
