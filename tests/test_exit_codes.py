"""Every valid configuration ends in a pass, a witnessed failure or a named
numeric failure: exit 0, 1 or 3, never an escaped exception, and never 2
unless a flag names a point outside the domain."""

import io
import math
import re
from contextlib import redirect_stderr, redirect_stdout

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


@settings(max_examples=40, deadline=None)
@given(
    command=st.sampled_from(["build", "reduce"]),
    generator=st.sampled_from(GENERATORS),
    n=st.integers(2, 5),
    window=windows,
    samples=st.integers(5, 20),
)
def test_generated_operations_exit_zero_one_or_three(command, generator, n, window, samples):
    argv = [command, *generator, f"--n={n}", f"--window={window!r}", f"--samples={samples}"]
    assert main(argv) in (0, 1, 3)


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
