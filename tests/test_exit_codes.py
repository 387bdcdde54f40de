"""Every valid configuration ends in a pass, a witnessed failure or a named
numeric failure: exit 0, 1 or 3, never 2 and never an escaped exception."""

import math

from hypothesis import given, settings, strategies as st

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
