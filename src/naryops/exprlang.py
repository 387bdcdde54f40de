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
may be any length. :func:`make_callable` turns an AST into one
generated function, the one evaluator: one frame that runs each node's
statements in the tree's order, whose source holds no text of the
expression, so that ``x^3+x`` and ``x^5+x`` share one code object,
compiled once per process. The function's parameters are ``x1 .. xn``,
so Python itself rejects a call with another number of arguments.
A partial function outside its domain (ln of a non-positive, sqrt of
a negative, division by zero, 0 or a negative raised badly, which
includes a negative base under a NaN or infinite exponent) raises
:class:`DomainEscapeError` from a test written into that frame. The
tests keep a reference tree walk that the generated functions must
match bit for bit.
"""

from __future__ import annotations

import functools
import math
import re
from typing import Callable

from .core import Record
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


class Num(Record):
    __slots__ = _fields = ("value",)


class Var(Record):
    __slots__ = _fields = ("index",)  # 1-based


class Const(Record):
    __slots__ = _fields = ("name",)


class Neg(Record):
    __slots__ = _fields = ("arg",)


class Call(Record):
    __slots__ = _fields = ("fn", "arg")


class BinOp(Record):
    __slots__ = _fields = ("op", "left", "right")


Expr = Num | Var | Const | Neg | Call | BinOp


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


def _overflowed_pow(a: float, b: float) -> float:
    """The infinity an overflowing a^b heads toward: -inf for a negative
    base under an odd exponent (a negative base has an integral one)."""
    return -math.inf if a < 0.0 and math.fmod(b, 2.0) != 0.0 else math.inf


#: the statements of each function and of ``/`` and ``^``, the one copy of
#: each domain rule: they set ``$t`` from ``$a`` (and ``$b``), raise
#: :class:`DomainEscapeError` outside the domain and turn an overflow into
#: the infinity it heads toward. ``% 1.0`` of a NaN or infinite exponent
#: is NaN, so a negative base under one escapes.
_TEMPLATES = {
    "ln": (
        'if $a <= 0.0: raise DomainEscapeError(f"ln of non-positive {$a!r}")',
        "$t = log($a)",
    ),
    "exp": ("try: $t = exp($a)", "except OverflowError: $t = inf"),
    "sqrt": (
        'if $a < 0.0: raise DomainEscapeError(f"sqrt of negative {$a!r}")',
        "$t = sqrt($a)",
    ),
    "abs": ("$t = abs($a)",),
    "/": ('if $b == 0.0: raise DomainEscapeError("division by zero")', "$t = $a / $b"),
    "^": (
        'if $a == 0.0 and $b < 0.0: raise DomainEscapeError("zero raised to a negative power")',
        "if $a < 0.0 and $b % 1.0 != 0.0:",
        '    raise DomainEscapeError(f"negative base {$a!r} with fractional exponent")',
        "try: $t = pow($a, $b)",
        "except OverflowError: $t = _overflowed_pow($a, $b)",
    ),
}

#: what the templates name, bound in every generated function's namespace
_NAMESPACE = {
    "__builtins__": {}, "float": float, "abs": abs, "log": math.log, "exp": math.exp,
    "sqrt": math.sqrt, "pow": math.pow, "inf": math.inf, "OverflowError": OverflowError,
    "DomainEscapeError": DomainEscapeError, "_overflowed_pow": _overflowed_pow,
}

#: compile, once per generated source and process; a source holds no
#: constants, so every expression of one shape shares its code object
_compile = functools.lru_cache(maxsize=256)(compile)


def _emit(e: Expr, arity: int, namespace: dict) -> list[str]:
    """The statements of the body of the generated function: one
    assignment per ``+ - *`` or negation node, the statements of its
    template (:data:`_TEMPLATES`) per other node, and one ``float``
    conversion per variable, in the evaluation order of the tree
    (operands left to right, then the node), found with an explicit
    stack so that no depth of tree reaches the recursion limit.

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
            a, b = (*args, "")[:2]
            template = _TEMPLATES[node.fn if isinstance(node, Call) else node.op]
            lines.extend(
                line.replace("$t", target).replace("$a", a).replace("$b", b) for line in template
            )
        values.append(target)
    lines.append(f"return {values[0]}")
    return lines


def make_callable(e: Expr, arity: int) -> Callable[..., float]:
    """A new generated function of ``arity`` positional floats, for
    plugging into :class:`naryops.core.NaryOp`: the tree's float operations
    in the tree's order in one frame, each partial function's domain
    test written inline before it, raising :class:`DomainEscapeError`
    outside the domain. Constants and the math functions are names
    bound in the function's own namespace, so every expression of one
    shape shares one code object, compiled once per process. The
    function is ``def fn(x1, ..., xn)``, so another number of arguments
    raises Python's own ``TypeError``."""
    namespace = dict(_NAMESPACE)
    body = _emit(e, arity, namespace)
    params = ", ".join(f"x{i}" for i in range(1, arity + 1))
    source = "\n    ".join([f"def fn({params}):", *body])
    exec(_compile(source, "<expression>", "exec"), namespace)
    return namespace["fn"]
