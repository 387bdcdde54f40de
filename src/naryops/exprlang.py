"""A small expression language for user-defined operations and
generators.

Grammar (whitespace-insensitive, no implicit multiplication)::

    expr   := term (('+' | '-') term)*          left associative
    term   := unary (('*' | '/') unary)*        left associative
    unary  := '-' unary | power
    power  := atom ('^' unary)?                 right associative
    atom   := NUMBER | 'pi' | 'e' | VAR | FUNC '(' expr ')' | '(' expr ')'

Variables are ``x`` (arity 1 only) or ``x1 .. xn``. Functions: ``ln``,
``exp``, ``sqrt``, ``abs``. :func:`make_callable` compiles an AST once
into closures, the one evaluator: a partial function outside its domain
(ln of a non-positive, sqrt of a negative, division by zero, 0 or a
negative raised badly) raises :class:`DomainEscapeError`. The tests keep
a reference tree walk that the closures must match bit for bit.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable, Sequence, Union

from .errors import DomainEscapeError

__all__ = [
    "Num",
    "Var",
    "Const",
    "Neg",
    "Call",
    "BinOp",
    "Expr",
    "ParseError",
    "parse",
    "make_callable",
]

FUNCTIONS = ("ln", "exp", "sqrt", "abs")
CONSTANTS = {"pi": math.pi, "e": math.e}


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    index: int  # 1-based


@dataclass(frozen=True)
class Const:
    name: str


@dataclass(frozen=True)
class Neg:
    arg: "Expr"


@dataclass(frozen=True)
class Call:
    fn: str
    arg: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "Expr"
    right: "Expr"


Expr = Union[Num, Var, Const, Neg, Call, BinOp]


class ParseError(ValueError):
    """Syntax error with the exact character offset of the failure."""

    def __init__(self, position: int, expected: str, found: str):
        self.position = position
        self.expected = expected
        self.found = found
        super().__init__(f"at offset {position}: expected {expected}, found {found!r}")


_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(src: str) -> list[tuple[str, str, int]]:
    """Tokens as (kind, text, offset). Stops at the first bad character."""
    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN.match(src, pos)
        if m is None or m.end() == pos:
            stripped = src[pos:].lstrip()
            if not stripped:
                break
            at = len(src) - len(stripped)
            raise ParseError(at, "a token", src[at])
        kind = m.lastgroup  # the group that matched: num, ident or op
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    tokens.append(("end", "", len(src)))
    return tokens


class _Parser:
    def __init__(self, src: str, arity: int):
        self.src = src
        self.arity = arity
        self.tokens = _tokenize(src)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def fail(self, expected: str):
        kind, text, offset = self.peek()
        raise ParseError(offset, expected, text if kind != "end" else "end of input")

    def expect(self, op: str, expected: str) -> None:
        """Consume the operator token ``op``, or fail naming ``expected``."""
        if self.peek()[:2] != ("op", op):
            self.fail(expected)
        self.advance()

    def parse(self) -> Expr:
        e = self.expr()
        if self.peek()[0] != "end":
            self.fail("an operator or end of input")
        return e

    def expr(self) -> Expr:
        e = self.term()
        while self.peek()[:2] in (("op", "+"), ("op", "-")):
            op = self.advance()[1]
            e = BinOp(op, e, self.term())
        return e

    def term(self) -> Expr:
        e = self.unary()
        while self.peek()[:2] in (("op", "*"), ("op", "/")):
            op = self.advance()[1]
            e = BinOp(op, e, self.unary())
        return e

    def unary(self) -> Expr:
        if self.peek()[:2] == ("op", "-"):
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        if self.peek()[:2] == ("op", "^"):
            self.advance()
            return BinOp("^", base, self.unary())
        return base

    def atom(self) -> Expr:
        kind, text, offset = self.peek()
        if kind == "num":
            self.advance()
            return Num(float(text))
        if kind == "ident":
            self.advance()
            if text in CONSTANTS:
                return Const(text)
            if text in FUNCTIONS:
                self.expect("(", f"'(' after {text}")
                arg = self.expr()
                self.expect(")", "')'")
                return Call(text, arg)
            if text == "x":
                if self.arity != 1:
                    raise ParseError(
                        offset, f"an indexed variable x1..x{self.arity}", text
                    )
                return Var(1)
            m = re.fullmatch(r"x(\d+)", text)
            if m:
                index = int(m.group(1))
                if not 1 <= index <= self.arity:
                    raise ParseError(
                        offset, f"a variable index in 1..{self.arity}", text
                    )
                return Var(index)
            raise ParseError(offset, "a number, variable, constant, or function", text)
        if kind == "op" and text == "(":
            self.advance()
            e = self.expr()
            self.expect(")", "')'")
            return e
        self.fail("an operand")


def parse(src: str, arity: int) -> Expr:
    """Parse ``src`` into an AST, allowing variables up to ``arity``.

    Raises :class:`ParseError` with the exact offset on the first error.
    """
    if arity < 1:
        raise ValueError("arity must be >= 1")
    return _Parser(src, arity).parse()


def _ln(v: float) -> float:
    if v <= 0.0:
        raise DomainEscapeError(f"ln of non-positive {v!r}")
    return math.log(v)


def _exp(v: float) -> float:
    try:
        return math.exp(v)
    except OverflowError:
        return math.inf


def _sqrt(v: float) -> float:
    if v < 0.0:
        raise DomainEscapeError(f"sqrt of negative {v!r}")
    return math.sqrt(v)


def _div(a: float, b: float) -> float:
    if b == 0.0:
        raise DomainEscapeError("division by zero")
    return a / b


def _pow(a: float, b: float) -> float:
    if a == 0.0 and b < 0.0:
        raise DomainEscapeError("zero raised to a negative power")
    if a < 0.0 and b != int(b):
        raise DomainEscapeError(f"negative base {a!r} with fractional exponent")
    try:
        return math.pow(a, b)
    except OverflowError:
        return _overflowed_pow(a, b)


def _overflowed_pow(a: float, b: float) -> float:
    """The infinity an overflowing a^b heads toward: -inf for a negative
    base under an odd exponent (a negative base has an integral one)."""
    return -math.inf if a < 0.0 and math.fmod(b, 2.0) != 0.0 else math.inf


_CALLS = {"ln": _ln, "exp": _exp, "sqrt": _sqrt, "abs": abs}


def _compile(e: Expr) -> Callable[[Sequence[float]], float]:
    """Nested closures over the argument tuple that apply the float
    operations of the tree in evaluation order, raising
    :class:`DomainEscapeError` where a partial function leaves its
    domain."""
    if isinstance(e, (Num, Const)):
        value = e.value if isinstance(e, Num) else CONSTANTS[e.name]
        return lambda args: value
    if isinstance(e, Var):
        i = e.index - 1
        return lambda args: float(args[i])
    if isinstance(e, Neg):
        arg = _compile(e.arg)
        return lambda args: -arg(args)
    if isinstance(e, Call):
        arg, fn = _compile(e.arg), _CALLS[e.fn]
        return lambda args: fn(arg(args))
    if not isinstance(e, BinOp):
        raise TypeError(f"not an expression node: {e!r}")
    left, right = _compile(e.left), _compile(e.right)
    # operators inline rather than from a table of functions: one call fewer per node
    if e.op == "+":
        return lambda args: left(args) + right(args)
    if e.op == "-":
        return lambda args: left(args) - right(args)
    if e.op == "*":
        return lambda args: left(args) * right(args)
    if e.op == "/":
        return lambda args: _div(left(args), right(args))
    if e.op == "^":
        return lambda args: _pow(left(args), right(args))
    raise AssertionError(f"unknown operator {e.op}")


def make_callable(e: Expr, arity: int) -> Callable[..., float]:
    """Compile an AST once into a plain function that raises
    :class:`DomainEscapeError` on domain errors, for plugging into
    :class:`naryops.core.NaryOp`."""
    body = _compile(e)

    def fn(*args: float) -> float:
        if len(args) != arity:
            raise TypeError(f"expected {arity} arguments, got {len(args)}")
        return body(args)

    return fn
