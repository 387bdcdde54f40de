import functools
import math
import operator
import random
import struct

import pytest
from hypothesis import example, given, settings, strategies as st

from naryops.errors import DomainEscapeError
from naryops.exprlang import (
    CONSTANTS,
    FUNCTIONS,
    BinOp,
    Call,
    Const,
    Neg,
    Num,
    ParseError,
    Var,
    make_callable,
    parse,
)
from expr_oracle import DomainError, eval_expr, is_domain_error, to_source


def test_alternating_expression_ast():
    ast = parse("x1 - x2 + x3", 3)
    assert ast == BinOp("+", BinOp("-", Var(1), Var(2)), Var(3))
    assert eval_expr(ast, (1.0, 2.0, 3.0)) == 2.0


def test_ln_expression():
    ast = parse("ln(x)", 1)
    assert ast == Call("ln", Var(1))
    assert eval_expr(ast, (1.0,)) == 0.0
    assert is_domain_error(eval_expr(ast, (-1.0,)))


def test_truncated_input_position():
    with pytest.raises(ParseError) as exc:
        parse("2 +", 1)
    assert exc.value.position == 3
    assert "operand" in exc.value.expected


def test_parser_stops_at_first_error():
    # the fault is the bad token at offset 4; the trailing garbage is unread
    with pytest.raises(ParseError) as exc:
        parse("1 + ? * )", 1)
    assert exc.value.position == 4


@pytest.mark.parametrize(
    "src,pos",
    [
        ("(1 + 2", 6),      # unclosed group
        ("ln 2", 3),        # missing parenthesis after function
        ("x3 + 1", 0),      # variable index beyond arity
        ("1 + + 2", 4),     # operand expected: '+' cannot start one... unary minus only
        ("y + 1", 0),       # unknown identifier
        ("2x", 1),          # implicit multiplication rejected
    ],
)
def test_error_positions_exact(src, pos):
    with pytest.raises(ParseError) as exc:
        parse(src, 2)
    assert exc.value.position == pos


@pytest.mark.parametrize(
    "src,pos",
    [
        ("(" * 101 + "x" + ")" * 101, 100),  # the 101st '('
        ("-" * 101 + "x", 100),  # the 101st '-'
        ("abs(" * 101 + "x" + ")" * 101, 403),  # the '(' of the 101st abs
        ("^".join(["x"] * 102), 201),  # the 101st '^', whose exponent nests
    ],
    ids=["parentheses", "negations", "calls", "exponents"],
)
def test_nesting_beyond_the_limit_is_a_parse_error(src, pos):
    # the parser descends recursively, up to five frames a level, so an
    # unbounded nesting would end in a RecursionError, not a ParseError
    with pytest.raises(ParseError, match="at most 100 levels of nesting") as exc:
        parse(src, 1)
    assert exc.value.position == pos


@pytest.mark.parametrize(
    "src",
    [
        "(" * 100 + "x" + ")" * 100,
        "-" * 100 + "x",
        "abs(" * 100 + "x" + ")" * 100,
        "^".join(["1"] * 100 + ["x"]),
    ],
    ids=["parentheses", "negations", "calls", "exponents"],
)
def test_nesting_at_the_limit_compiles(src):
    ast = parse(src, 1)
    fn = make_callable(ast, 1)
    for x in (0.75, -2.0):
        assert _outcome(lambda: fn(x)) == _outcome(lambda: eval_expr(ast, (x,)))


@pytest.mark.parametrize("terms", [300, 1000])
@pytest.mark.parametrize("op", "+-*/")
def test_long_chains_compile_flat(op, terms):
    # a left-associative chain is as deep as it is long, so a compiler
    # that recursed once per node would fail at about 1,000 terms
    fn = make_callable(parse(op.join(["x1", "x2"] * (terms // 2)), 2), 2)
    fold = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}[op]
    args = (1.25, -0.75)
    expected = functools.reduce(fold, args * (terms // 2))
    assert struct.pack("<d", fn(*args)) == struct.pack("<d", expected)


def test_plain_x_only_at_arity_one():
    assert parse("x", 1) == Var(1)
    with pytest.raises(ParseError):
        parse("x", 2)
    assert parse("x1", 1) == Var(1)


def test_precedence_structure():
    assert parse("2 ^ 3 ^ 2", 1) == BinOp("^", Num(2.0), BinOp("^", Num(3.0), Num(2.0)))
    assert eval_expr(parse("2 ^ 3 ^ 2", 1), (0.0,)) == 512.0
    assert parse("-2 ^ 2", 1) == Neg(BinOp("^", Num(2.0), Num(2.0)))
    assert eval_expr(parse("-2 ^ 2", 1), (0.0,)) == -4.0
    assert eval_expr(parse("2 ^ -1", 1), (0.0,)) == 0.5
    assert parse("1 + 2 * 3", 1) == BinOp("+", Num(1.0), BinOp("*", Num(2.0), Num(3.0)))


@given(
    st.floats(min_value=-100, max_value=100),
    st.floats(min_value=-100, max_value=100),
    st.floats(min_value=-100, max_value=100),
)
def test_additive_chain_is_left_associative(a, b, c):
    ast = parse(f"({a!r}) - ({b!r}) + ({c!r})", 1)
    assert eval_expr(ast, (0.0,)) == (a - b) + c


@given(
    st.floats(min_value=0.5, max_value=3.0),
    st.floats(min_value=0.5, max_value=3.0),
    st.floats(min_value=0.5, max_value=3.0),
)
def test_power_chain_is_right_associative(a, b, c):
    ast = parse(f"{a!r} ^ {b!r} ^ {c!r}", 1)
    assert eval_expr(ast, (0.0,)) == a ** (b**c)


def test_domain_error_values():
    assert is_domain_error(eval_expr(parse("1 / (x - x)", 1), (3.0,)))
    assert is_domain_error(eval_expr(parse("sqrt(-x)", 1), (4.0,)))
    assert is_domain_error(eval_expr(parse("0 ^ -1", 1), (0.0,)))
    assert is_domain_error(eval_expr(parse("(-2) ^ 0.5", 1), (0.0,)))
    assert eval_expr(parse("abs(-3)", 1), (0.0,)) == 3.0
    assert eval_expr(parse("exp(0) + pi - pi", 1), (0.0,)) == 1.0


def test_domain_error_propagates():
    v = eval_expr(parse("ln(-1) + 100", 1), (0.0,))
    assert isinstance(v, DomainError)


def _random_ast(rng: random.Random, depth: int, arity: int):
    if depth == 0 or rng.random() < 0.25:
        kind = rng.randrange(3)
        if kind == 0:
            return Num(round(rng.uniform(0.0, 9.75) * 4) / 4.0)
        if kind == 1:
            return Var(rng.randint(1, arity))
        return Const(rng.choice(("pi", "e")))
    kind = rng.randrange(3)
    if kind == 0:
        return Neg(_random_ast(rng, depth - 1, arity))
    if kind == 1:
        return Call(rng.choice(("ln", "exp", "sqrt", "abs")), _random_ast(rng, depth - 1, arity))
    op = rng.choice(("+", "-", "*", "/", "^"))
    return BinOp(op, _random_ast(rng, depth - 1, arity), _random_ast(rng, depth - 1, arity))


def test_print_parse_round_trip():
    rng = random.Random(20240809)
    for _ in range(1000):
        arity = rng.randint(1, 4)
        ast = _random_ast(rng, rng.randint(0, 6), arity)
        assert parse(to_source(ast), arity) == ast


# Values for constants and arguments: zeros of both signs, negatives, the
# edges of the float range and the infinities, plus arbitrary floats.
_VALUES = st.one_of(
    st.sampled_from(
        (0.0, -0.0, 1.0, -1.0, 0.5, -2.5, 3.0, 1e300, -1e300, 5e-324, math.inf, -math.inf)
    ),
    st.floats(),
)


def _exprs(arity: int):
    leaves = st.one_of(
        st.builds(Num, _VALUES.filter(lambda v: not math.isnan(v))),
        st.builds(Var, st.integers(min_value=1, max_value=arity)),
        st.builds(Const, st.sampled_from(sorted(CONSTANTS))),
    )
    return st.recursive(
        leaves,
        lambda sub: st.one_of(
            st.builds(Neg, sub),
            st.builds(Call, st.sampled_from(FUNCTIONS), sub),
            st.builds(BinOp, st.sampled_from("+-*/^"), sub, sub),
        ),
        max_leaves=10,
    )


# (AST, arguments) at arities 1-3; integer arguments must come out as floats
_ARGS = st.one_of(_VALUES, st.integers(min_value=-3, max_value=3))
_CASES = st.one_of(
    *(st.tuples(_exprs(n), st.lists(_ARGS, min_size=n, max_size=n)) for n in (1, 2, 3))
)


def _outcome(evaluate):
    """What an evaluation did, comparable bit for bit: a float's type and
    bytes (every NaN alike, zeros by sign), a domain error's reason, or
    the type and text of any other exception."""
    try:
        v = evaluate()
    except DomainEscapeError as exc:
        return ("domain", str(exc))
    except Exception as exc:  # e.g. int() of an infinite exponent
        return ("raised", type(exc).__name__, str(exc))
    if is_domain_error(v):
        return ("domain", v.reason)
    return ("value", type(v), "nan" if math.isnan(v) else struct.pack("<d", v))


@settings(max_examples=400, deadline=None)
@given(_CASES)
@example((Neg(Var(1)), [0.0]))  # -0.0
# a negative base under an infinite or NaN exponent escapes its domain
@example((BinOp("^", Neg(Num(2.0)), Var(1)), [math.inf]))
@example((BinOp("^", Var(1), Var(2)), [-1.0, math.nan]))
@example((BinOp("^", Var(1), Num(3)), [-2.0]))  # an int exponent is integral
# the edge of each partial function's domain, and the overflows of exp and ^
@example((Call("ln", Var(1)), [0.0]))
@example((Call("ln", Var(1)), [-0.0]))
@example((Call("sqrt", Var(1)), [-5e-324]))
@example((BinOp("/", Var(1), Neg(Num(0.0))), [1.0]))  # x1/-0.0
@example((parse("(-0.0)^-1", 1), [1.0]))
@example((parse("(-2)^0.5", 1), [1.0]))
@example((parse("exp(710)", 1), [1.0]))  # inf
@example((parse("(-10)^309", 1), [1.0]))  # -inf
@example((parse("10^309", 1), [1.0]))  # inf
@example((BinOp("-", Var(1), Var(1)), [math.inf]))  # nan
@example((Num(math.nan), [1.0]))  # constants are bound names, never reprs
@example((BinOp("+", Var(1), Num(math.inf)), [1.0]))
@example((BinOp("*", Num(5e-324), Var(1)), [0.5]))
@example((parse("1e999*x", 1), [2.0]))
def test_compiled_callable_matches_eval_expr(case):
    ast, args = case
    fn = make_callable(ast, len(args))
    assert _outcome(lambda: fn(*args)) == _outcome(lambda: eval_expr(ast, args))


@given(st.integers(min_value=1, max_value=3), st.integers(min_value=0, max_value=5))
def test_compiled_callable_checks_arity(arity, given_args):
    fn = make_callable(parse("+".join(f"x{i}" for i in range(1, arity + 1)), arity), arity)
    args = (1.0,) * given_args
    if given_args == arity:
        assert fn(*args) == float(arity)
    else:
        # Python's own messages for a call of fn(x1, ..., xn)
        if given_args < arity:
            message = rf"fn\(\) missing {arity - given_args} required positional argument"
        else:
            message = rf"fn\(\) takes {arity} positional arguments? but {given_args} (was|were) given$"
        with pytest.raises(TypeError, match=f"^{message}"):
            fn(*args)


@pytest.mark.parametrize(
    "sources,arity",
    [(("x^3+x", "x^5+x"), 1), (("x1+2*x2", "x1+3*x2"), 2)],
)
def test_one_shape_shares_its_code_but_not_its_constants(sources, arity):
    # the generated source holds no constants, so both expressions compile
    # to one code object; each function binds its own constants
    asts = [parse(src, arity) for src in sources]
    fns = [make_callable(ast, arity) for ast in asts]
    assert fns[0].__code__ is fns[1].__code__
    assert fns[0].__globals__ is not fns[1].__globals__
    again = make_callable(asts[0], arity)
    assert again is not fns[0] and again.__code__ is fns[0].__code__
    values = (0.0, -0.0, 0.5, -1.5, 2.0, 3.0, 1e-300, 1e100, -1e100, 1e300, math.inf, -math.inf)
    rng = random.Random(7)
    for _ in range(200):
        args = [rng.choice(values) for _ in range(arity)]
        for ast, fn in zip(asts, fns):
            assert _outcome(lambda: fn(*args)) == _outcome(lambda: eval_expr(ast, args))
    args = (2.0,) * arity
    assert fns[0](*args) != fns[1](*args)
    assert again(*args) == fns[0](*args)


def test_errors_repeat_on_a_warm_cache():
    for _ in range(2):
        with pytest.raises(ParseError, match="at offset 3"):
            parse("x1+", 2)
        fn = make_callable(parse("x1+x2", 2), 2)
        with pytest.raises(TypeError, match=r"^fn\(\) missing 1 required positional argument: 'x2'$"):
            fn(1.0)
        with pytest.raises(TypeError, match=r"^fn\(\) takes 2 positional arguments but 3 were given$"):
            fn(1.0, 2.0, 3.0)


def test_parse_and_compile_guards():
    # blanks after the last token end the input; an arity below 1, a
    # variable outside 1..n and a node of no known kind are each named
    assert parse("x1 + x2   ", 2) == BinOp("+", Var(1), Var(2))
    with pytest.raises(ValueError, match="^arity must be >= 1$"):
        parse("1", 0)
    with pytest.raises(ValueError, match=r"^variable index 3 outside 1\.\.2$"):
        make_callable(BinOp("+", Var(1), Var(3)), 2)
    with pytest.raises(TypeError, match="^not an expression node: 'x1'$"):
        make_callable(Neg("x1"), 1)
