"""A small expression language for user-defined operations and
generators.

Grammar (whitespace-insensitive, no implicit multiplication)::

    expr   := term (('+' | '-') term)*          left associative
    term   := unary (('*' | '/') unary)*        left associative
    unary  := '-' unary | power
    power  := atom ('^' unary)?                 right associative
    atom   := NUMBER | 'pi' | 'e' | VAR | FUNC '(' expr ')' | '(' expr ')'

Variables are ``x`` (arity 1 only) or ``x1 .. xn``. Functions: ``ln``,
``exp``, ``sqrt``, ``abs``. Parentheses, calls, unary minus and
exponents nest at most ``_MAX_NESTING`` levels; chains of ``+ - * /``
may be any length. :func:`make_callable` compiles an AST once into one
generated function, the one evaluator: a straight line of assignments,
one per node, whose source holds no text of the expression. A partial
function outside its domain (ln of a non-positive, sqrt of a negative,
division by zero, 0 or a negative raised badly) raises
:class:`DomainEscapeError`. The tests keep a reference tree walk that
the generated functions must match bit for bit.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable, Union

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


#: how deep parentheses, function calls, unary minus and exponents may
#: nest: the parser descends one to five frames per level, and this keeps
#: it far below the interpreter's recursion limit
_MAX_NESTING = 100


class _Parser:
    def __init__(self, src: str, arity: int):
        self.src = src
        self.arity = arity
        self.tokens = _tokenize(src)
        self.i = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def fail(self, expected: str):
        kind, text, offset = self.peek()
        raise ParseError(offset, expected, text if kind != "end" else "end of input")

    def descend(self) -> None:
        """Enter one more level of nesting at the next token, or fail
        there once the levels exceed :data:`_MAX_NESTING`; the caller
        leaves the level by decrementing ``depth``."""
        if self.depth == _MAX_NESTING:
            self.fail(f"at most {_MAX_NESTING} levels of nesting")
        self.depth += 1

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
            self.descend()
            self.advance()
            e = Neg(self.unary())
            self.depth -= 1
            return e
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        if self.peek()[:2] == ("op", "^"):
            self.descend()
            self.advance()
            e = BinOp("^", base, self.unary())
            self.depth -= 1
            return e
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
                self.descend()
                self.expect("(", f"'(' after {text}")
                arg = self.expr()
                self.expect(")", "')'")
                self.depth -= 1
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
            self.descend()
            self.advance()
            e = self.expr()
            self.expect(")", "')'")
            self.depth -= 1
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


#: what the generated functions call, by function name or operator
_HELPERS = {"ln": "_ln", "exp": "_exp", "sqrt": "_sqrt", "abs": "abs", "/": "_div", "^": "_pow"}

#: default of every parameter of a generated function: a parameter still
#: holding it was not passed
_NO_ARG = object()


def _arity_error(arity: int, params: tuple, extra: tuple) -> TypeError:
    given = sum(p is not _NO_ARG for p in params) + len(extra)
    return TypeError(f"expected {arity} arguments, got {given}")


def _emit(e: Expr, arity: int, namespace: dict) -> list[str]:
    """The statements of the body of the generated function: one
    assignment per operation node and one ``float`` conversion per
    variable, in the evaluation order of the tree (operands left to
    right, then the node), found with an explicit stack so that no depth
    of tree reaches the recursion limit.

    A variable is converted where the tree first reads it; a constant
    is bound in ``namespace`` under a name of its own, so no number is
    rendered into the source."""
    lines: list[str] = []
    converted: set[int] = set()
    values: list[str] = []  # names of the evaluated operands still to be used
    todo: list[tuple[Expr, bool]] = [(e, False)]
    while todo:
        node, expanded = todo.pop()
        if isinstance(node, (Num, Const)):
            name = f"c{len(namespace)}"
            namespace[name] = node.value if isinstance(node, Num) else CONSTANTS[node.name]
            values.append(name)
            continue
        if isinstance(node, Var):
            if not (isinstance(node.index, int) and 1 <= node.index <= arity):
                raise ValueError(f"variable index {node.index!r} outside 1..{arity}")
            name = f"x{node.index}"
            if node.index not in converted:
                converted.add(node.index)
                lines.append(f"{name} = float({name})")
            values.append(name)
            continue
        if isinstance(node, BinOp):
            operands = (node.left, node.right)
        elif isinstance(node, (Neg, Call)):
            operands = (node.arg,)
        else:
            raise TypeError(f"not an expression node: {node!r}")
        if not expanded:
            todo.append((node, True))
            todo.extend((o, False) for o in reversed(operands))
            continue
        args = values[len(values) - len(operands) :]
        del values[len(values) - len(operands) :]
        target = f"t{len(lines)}"
        if isinstance(node, Neg):
            lines.append(f"{target} = -{args[0]}")
        elif isinstance(node, BinOp) and node.op in ("+", "-", "*"):
            lines.append(f"{target} = {args[0]} {node.op} {args[1]}")
        else:
            helper = _HELPERS[node.fn if isinstance(node, Call) else node.op]
            lines.append(f"{target} = {helper}({', '.join(args)})")
        values.append(target)
    lines.append(f"return {values[0]}")
    return lines


def make_callable(e: Expr, arity: int) -> Callable[..., float]:
    """Compile an AST once into one generated function of ``arity``
    positional floats, for plugging into :class:`naryops.core.NaryOp`:
    the tree's float operations in the tree's order, ``+ - *`` and
    negation inline, the partial functions through helpers that raise
    :class:`DomainEscapeError` outside their domain. Constants and
    helpers are names bound in the function's namespace, so its source
    holds no text of the expression. Another number of arguments raises
    ``TypeError``."""
    namespace = {
        "__builtins__": {},
        "float": float,
        "abs": abs,
        "_ln": _ln,
        "_exp": _exp,
        "_sqrt": _sqrt,
        "_div": _div,
        "_pow": _pow,
        "_NO_ARG": _NO_ARG,
        "_arity_error": _arity_error,
    }
    body = _emit(e, arity, namespace)
    params = [f"x{i}" for i in range(1, arity + 1)]
    source = "\n    ".join(
        [
            f"def fn({', '.join(p + '=_NO_ARG' for p in params)}, *extra):",
            f"if x{arity} is _NO_ARG or extra:",
            f"    raise _arity_error({arity}, ({', '.join(params)},), extra)",
            *body,
        ]
    )
    exec(compile(source, "<expression>", "exec"), namespace)
    return namespace["fn"]
