"""Every valid configuration ends in a pass, a witnessed failure or a named
numeric failure: exit 0, 1 or 3, never an escaped exception, and never 2
unless a flag names a point outside the domain or an interval that the
generator or the window cannot use."""

import io
import math
import re
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings, strategies as st

from naryops.cli import main

#: generator flags for build and reduce: the closed forms of
#: test_generator.CLOSED_FORMS that the expression language can write,
#: inverted numerically, and two generators with an explicit inverse
GENERATORS = [
    ("--phi=x^3+x",),
    ("--phi=x+exp(x)",),
    ("--phi=x^5+x",),
    ("--phi=-2*x",),
    ("--phi=ln(x)", "--interval=(0,inf)"),
    ("--phi=exp(x)", "--phi-inv=ln(x)"),
    ("--phi=ln(x)", "--phi-inv=exp(x)", "--interval=(0,inf)"),
]

#: builtins with the arities they take: alternating needs an odd one
builtins = st.one_of(
    st.tuples(
        st.sampled_from(["sum", "translated_sum", "product", "bounded_product"]),
        st.integers(2, 5),
    ),
    st.tuples(st.just("alternating"), st.sampled_from([3, 5])),
)

windows = st.floats(-3.0, math.log10(1e308)).map(lambda e: 10.0**e)

#: interval ends: small and large finite ones of either sign, and zero
finite_ends = st.floats(-1e3, 1e3) | st.sampled_from([0.0, 1e-300, 1e300, 1.7e308]).flatmap(
    lambda v: st.sampled_from([v, -v])
)


@st.composite
def intervals(draw) -> str:
    """An --interval flag: finite, with one infinite end, or the whole
    line, each finite end closed or open."""
    lo, hi = sorted(draw(st.lists(finite_ends, min_size=2, max_size=2, unique=True)))
    lo = draw(st.sampled_from([lo, -math.inf]))
    hi = draw(st.sampled_from([hi, math.inf]))
    left = "(" if math.isinf(lo) or draw(st.booleans()) else "["
    right = ")" if math.isinf(hi) or draw(st.booleans()) else "]"
    return f"--interval={left}{lo!r},{hi!r}{right}"


@settings(max_examples=60, deadline=None)
@given(
    command=st.sampled_from(["build", "reduce"]),
    generator=st.sampled_from(GENERATORS),
    interval=st.none() | intervals(),
    n=st.integers(2, 5),
    window=windows,
    samples=st.integers(5, 20),
)
def test_generated_operations_exit_zero_one_or_three(
    command, generator, interval, n, window, samples
):
    # a generator inverted numerically also runs on a random interval, which
    # its bracketing walk samples out to the ends; an interval the generator
    # or the window cannot use is a configuration error, named as one
    if interval is not None and "--phi-inv" not in " ".join(generator):
        generator = (generator[0], interval)
    argv = [command, *generator, f"--n={n}", f"--window={window!r}", f"--samples={samples}"]
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 3) or (code == 2 and "configuration error" in err.getvalue()), (
        argv, code, err.getvalue(),
    )


@settings(max_examples=30, deadline=None)
@given(
    builtin=builtins,
    window=windows,
    samples=st.integers(5, 20),
)
def test_builtin_axioms_exit_zero_one_or_three(builtin, window, samples):
    op, n = builtin
    argv = ["axioms", f"--op={op}", f"--n={n}", f"--window={window!r}", f"--samples={samples}"]
    assert main(argv) in (0, 1, 3)


#: a grid inside the domain of each builtin, for the extraction commands
GRIDS = {"product": "0.5,1,2", "bounded_product": "0.25,0.5,0.75"}

#: windows next to the float range: there the width of the base-point
#: scan, its idempotence threshold and fsum of the scanned points overflow
EDGE_WINDOWS = [1.79e308, 1.7e308, 1e308, 8e307, 6e307, 4.5e307, 3.6e307]


@settings(max_examples=40, deadline=None)
@given(
    command=st.sampled_from(["extract", "roundtrip"]),
    builtin=builtins,
    window=st.one_of(windows, st.sampled_from(EDGE_WINDOWS)),
    samples=st.integers(5, 20),
)
def test_base_point_scans_exit_zero_one_or_three(command, builtin, window, samples):
    op, n = builtin
    argv = [
        command, f"--op={op}", f"--n={n}", f"--grid={GRIDS.get(op, '-1,0,1')}",
        f"--window={window!r}", f"--samples={samples}",
    ]
    assert main(argv) in (0, 1, 3)


#: grid ends next to the float range and among the subnormals
EDGE_ENDS = [1.79e308, 1.7e308, 1e308, 8e307, 1e307, 1e-310, 5e-324]

#: base points across the scale of the grids, inside and outside (0, inf)
BASE_POINTS = [1.0, -1.0, 0.5, 2.0, 1e307, -1e307, 1e-300]


def _extraction_op(kind: str, form: str, n: int) -> list[str]:
    """--op (and --interval) of a sum or product, builtin or as an expr:."""
    if form == "builtin":
        return [f"--op={kind}"]
    sign, interval = ("+", []) if kind == "sum" else ("*", ["--interval=(0,inf)"])
    return ["--op=expr:" + sign.join(f"x{i}" for i in range(1, n + 1)), *interval]


ends = st.floats(-1.79e308, 1.79e308) | st.sampled_from(EDGE_ENDS).flatmap(
    lambda v: st.sampled_from([v, -v])
)


@settings(max_examples=60, deadline=None)
@given(
    command=st.sampled_from(["extract", "roundtrip"]),
    kind=st.sampled_from(["sum", "product"]),
    form=st.sampled_from(["builtin", "expr"]),
    n=st.integers(2, 4),
    lo=ends,
    hi=ends,
    c=st.sampled_from(BASE_POINTS),
)
# runs that need one evaluation per unit step (the first two), the overflow
# rule of generator_sum (the third) and window draws from halved bounds
# (the fourth)
@example(command="extract", kind="sum", form="builtin", n=2, lo=-1e308, hi=1e308, c=1.0)
@example(command="extract", kind="sum", form="builtin", n=3, lo=-1.7e308, hi=1.7e308, c=1e307)
@example(command="roundtrip", kind="sum", form="builtin", n=3, lo=-8e307, hi=8e307, c=1.0)
@example(command="roundtrip", kind="sum", form="builtin", n=2, lo=-1e308, hi=1e308, c=1e307)
# a grid of the base point alone: a window of zero width, not a rebuild from
# one knot (exit 2)
@example(command="roundtrip", kind="sum", form="builtin", n=2, lo=-1e307, hi=-1e307, c=-1e307)
def test_extraction_on_float_range_grids_ends_in_a_report_or_a_named_failure(
    command, kind, form, n, lo, hi, c
):
    argv = [
        command, *_extraction_op(kind, form, n), f"--n={n}", f"--grid={lo!r},{hi!r}",
        f"--c={c!r}", "--samples=20",
    ]
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(argv)
    # exit 2 only for a grid or base point outside the domain
    outside = re.search(r"configuration error: (grid|base) point \S+ outside", err.getvalue())
    assert code in (0, 1, 3) or (code == 2 and outside), (code, err.getvalue())


#: grid points near the float range, of either sign, and zero
near_range = st.floats(1e300, 1.79e308).flatmap(lambda v: st.sampled_from([v, -v])) | st.just(0.0)


@settings(max_examples=150, deadline=None)
@given(
    op=st.sampled_from(["sum", "translated_sum"]),
    form=st.sampled_from(["builtin", "expr"]),
    n=st.integers(2, 3),
    grid=st.lists(near_range, min_size=1, max_size=3),
    c=st.sampled_from(BASE_POINTS + [2.0, 1e300]),
)
# an absolute rounding allowance (the first), a NaN threshold at tol 0 (the
# second) and an infinite one from a window width that overflows (the third)
@example(op="sum", form="builtin", n=2, grid=[-1e200, 0.0, 1e200], c=1.0)
@example(op="sum", form="builtin", n=2, grid=[1e307, 1e308], c=1e307)
@example(op="sum", form="builtin", n=2, grid=[-1e308, 1e308], c=1e307)
def test_lawful_roundtrips_never_report_a_failure(op, form, n, grid, c):
    # sum and translated_sum are additive, so their round trip passes or
    # stops on a named numeric failure, at every magnitude the floats hold
    source = op if form == "builtin" else "expr:" + "+".join(f"x{i}" for i in range(1, n + 1))
    if form == "expr" and op == "translated_sum":
        source += "+1"
    argv = [
        "roundtrip", f"--op={source}", f"--n={n}", "--grid=" + ",".join(map(repr, grid)),
        f"--c={c!r}", "--samples=20",
    ]
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 3), (argv, code, err.getvalue())


@pytest.mark.parametrize(
    "argv",
    [
        ["axioms", "--op", "expr:x1+x2", "--interval=", "--samples", "5"],
        ["axioms", "--op", "sum", "--interval=", "--samples", "5"],
        ["build", "--phi", "ln(x)", "--interval="],
        ["build", "--phi", "x", "--codomain="],
        ["reduce", "--phi", "x", "--codomain="],
    ],
)
def test_an_empty_interval_flag_is_a_malformed_interval(argv, capsys):
    assert main(argv) == 2
    assert "configuration error: malformed interval ''" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["build", "--phi", "x", "--phi-inv=", "--samples", "5"],
            "at offset 0: expected an operand, found 'end of input'",
        ),
        (
            ["reduce", "--phi=", "--op", "sum", "--n", "2", "--samples", "5"],
            "at offset 0: expected an operand, found 'end of input'",
        ),
        (["reduce", "--op=", "--phi", "x", "--samples", "5"], "unknown builtin ''"),
    ],
    ids=["build-phi-inv", "reduce-phi", "reduce-op"],
)
def test_an_empty_expression_or_op_flag_is_a_configuration_error(argv, message, capsys):
    # an empty flag is given, not absent: it is parsed, never skipped
    assert main(argv) == 2
    assert f"naryops: configuration error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["axioms", "--op", "expr:x1+x2+(0-1)^(exp(1000)-exp(1000))", "--n", "2",
             "--samples", "5"],
            "expr:x1+x2+(0-1)^(exp(1000)-exp(1000)) at (2.25, 3.375): "
            "negative base -1.0 with fractional exponent",
        ),
        (
            ["axioms", "--op", "expr:x1+x2+(0-1)^exp(1000)", "--n", "2", "--samples", "5"],
            "expr:x1+x2+(0-1)^exp(1000) at (2.25, 3.375): "
            "negative base -1.0 with fractional exponent",
        ),
        (
            ["build", "--phi", "x+(0-1)^(exp(1000)-exp(1000))", "--samples", "5"],
            "generator fails at the start point 0.0 of (-inf,+inf): "
            "negative base -1.0 with fractional exponent",
        ),
        (
            ["build", "--phi", "x+(0-1)^exp(1000)", "--samples", "5"],
            "generator fails at the start point 0.0 of (-inf,+inf): "
            "negative base -1.0 with fractional exponent",
        ),
        (
            ["build", "--phi", "ln(x)", "--samples", "5"],
            "generator fails at the start point 0.0 of (-inf,+inf): ln of non-positive 0.0",
        ),
        (
            ["build", "--phi", "x^0.5", "--samples", "5"],
            "generator fails at the sample -2.0 of (-inf,+inf): "
            "negative base -2.0 with fractional exponent",
        ),
    ],
    ids=["axioms-nan-exponent", "axioms-inf-exponent", "build-nan-exponent", "build-inf-exponent", "build-ln-start",
         "build-sqrt-sample"],
)
def test_an_escape_names_where_it_happened(argv, message, capsys):
    # a negative base under a NaN or infinite exponent is a domain escape
    # (exit 3), not a failed int() of the exponent; an escape while the
    # codomain is estimated names the sample and the interval
    assert main(argv) == 3
    assert capsys.readouterr().err == f"naryops: numeric failure: {message}\n"


def test_a_window_without_a_lattice_point_is_named(capsys):
    # the interval is wide; the window leaves no lattice point in it
    argv = ["axioms", "--op", "bounded_product", "--n", "2", "--samples", "5"]
    assert main([*argv, "--window", "1e-300"]) == 2
    assert capsys.readouterr().err == (
        "naryops: configuration error: "
        "interval (0.0,1.0) inside window [-1e-300, 1e-300] holds no lattice point\n"
    )


def test_a_window_of_one_lattice_point_is_named(capsys):
    # every sampled tuple of a one-point lattice is constant, so every
    # check passed on it; three points already fail alternating's symmetry
    argv = ["axioms", "--op", "alternating", "--n", "3", "--samples", "50"]
    assert main([*argv, "--window", "1e-13"]) == 2
    assert capsys.readouterr().err == (
        "naryops: configuration error: "
        "interval (-inf,+inf) inside window [-1e-13, 1e-13] holds one lattice point, 0.0\n"
    )
    assert main([*argv, "--window", "1e-12"]) == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (["axioms", "--samples", "5"], "an operation source is required (--op)"),
        (["extend", "--samples", "5"], "an operation source is required (--op)"),
        (["extract"], "an operation source is required (--op)"),
        (["roundtrip", "--samples", "5"], "an operation source is required (--op)"),
        (["build", "--samples", "5"], "build requires a generator expression (--phi)"),
    ],
    ids=["axioms", "extend", "extract", "roundtrip", "build"],
)
def test_a_missing_source_flag_is_a_configuration_error(argv, message, capsys):
    # an absent flag is not an empty one: no source is parsed at all
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"naryops: configuration error: {message}\n"
    assert captured.out == ""
