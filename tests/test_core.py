import math
import random

import pytest
from hypothesis import given, strategies as st

from naryops.core import (
    ArityClass,
    Interval,
    builtin_lookup,
    interval_contains,
    lattice,
)
from naryops.errors import RegistryError
from naryops.generator import GeneratorSpec


def test_interval_orders_against_infinite_bounds():
    line = Interval.real_line()
    assert line.lo == -math.inf and line.hi == math.inf
    assert all(line.contains(x) for x in (-1e300, -0.0, 0.0, 1e300))
    assert not line.contains(-math.inf) and not line.contains(math.inf)
    upper = Interval.make(0.0, math.inf, lo_open=False)
    assert upper.contains(0.0) and upper.contains(1e300) and not upper.contains(math.inf)
    assert not upper.contains(-1e-300)
    lower = Interval.make(-math.inf, 0.0, hi_open=False)
    assert lower.contains(-1e300) and lower.contains(-0.0) and not lower.contains(5e-324)
    with pytest.raises(ValueError):
        Interval.make(math.inf, math.inf)


def test_interval_endpoint_validation():
    # an infinite endpoint must be open
    for lo, hi, lo_open, hi_open in (
        (-math.inf, 0.0, False, True),
        (0.0, math.inf, True, False),
    ):
        with pytest.raises(ValueError):
            Interval(lo, hi, lo_open, hi_open)
    # lo < hi, with a NaN endpoint failing the comparison
    for lo, hi in ((1.0, 1.0), (math.nan, 1.0), (0.0, math.nan), (math.nan, math.nan)):
        with pytest.raises(ValueError):
            Interval(lo, hi)
        with pytest.raises(ValueError):
            Interval.make(lo, hi)
    # -0.0 is stored, and rendered, as 0.0
    iv = Interval.make(-0.0, math.inf)
    assert math.copysign(1.0, iv.lo) == 1.0
    assert iv.render() == "(0.0,+inf)"
    iv = Interval(-1.0, -0.0, True, False)
    assert math.copysign(1.0, iv.hi) == 1.0
    assert iv.render() == "(-1.0,0.0]"
    assert Interval.parse("[-0.0,1)").render() == "[0.0,1.0)"
    assert Interval.real_line().render() == "(-inf,+inf)"
    # NaN lies in no interval
    for iv in (Interval.real_line(), Interval.make(0.0, 1.0, False, False)):
        assert not iv.contains(math.nan)
        assert not interval_contains(iv, math.nan)


def test_interval_requires_lo_below_hi():
    with pytest.raises(ValueError):
        Interval.make(1.0, 1.0)
    with pytest.raises(ValueError):
        Interval.make(2.0, 1.0)


def test_infinite_endpoints_forced_open():
    iv = Interval.make(0.0, math.inf, lo_open=False, hi_open=False)
    assert not iv.lo_open and iv.hi_open
    with pytest.raises(ValueError):
        Interval(-math.inf, math.inf, False, True)


def test_interval_contains_open_and_closed_ends():
    assert interval_contains(Interval.parse("(0,inf)"), 1.0)
    assert not interval_contains(Interval.parse("(0,inf)"), 0.0)
    assert interval_contains(Interval.parse("(-inf,0]"), 0.0)
    assert not interval_contains(Interval.parse("[0,1)"), 1.0)
    assert interval_contains(Interval.parse("[0,1)"), 0.0)


def test_interval_parse_rejects_garbage():
    for bad in ("", "0,1", "(0;1)", "(1,0)", "(a,b)", "(0,1", "{0,1}"):
        with pytest.raises(ValueError):
            Interval.parse(bad)


def test_arity_member_examples():
    assert ArityClass(3).member(5)
    assert not ArityClass(3).member(4)
    assert ArityClass(2).member(7)
    assert not ArityClass(2).member(0)


@given(st.integers(min_value=2, max_value=12))
def test_single_point_always_in_class(n):
    assert ArityClass(n).member(1)


@given(
    st.integers(min_value=2, max_value=9),
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=0, max_value=40),
)
def test_class_closed_under_substitution(n, i, j):
    m = 1 + i * (n - 1)
    m2 = 1 + j * (n - 1)
    cls = ArityClass(n)
    assert cls.member(m) and cls.member(m2)
    assert cls.member(m + m2 - 1)


def test_builtin_examples():
    f = builtin_lookup("sum", 2)
    assert f.eval(1.0, 2.0) == 3.0
    alt = builtin_lookup("alternating", 3)
    assert alt.eval(1.0, 2.0, 3.0) == 2.0
    ts = builtin_lookup("translated_sum", 3)
    assert ts.eval(0.0, 0.0, 0.0) == 1.0


def test_alternating_requires_odd_arity():
    with pytest.raises(RegistryError):
        builtin_lookup("alternating", 4)
    with pytest.raises(RegistryError):
        builtin_lookup("alternating", 2)


def test_unknown_builtin():
    with pytest.raises(RegistryError):
        builtin_lookup("nope", 2)


def test_generator_entries():
    spec = builtin_lookup("identity_generator")
    assert isinstance(spec, GeneratorSpec)
    assert spec.phi(0.25) == 0.25
    logspec = builtin_lookup("log_generator")
    assert logspec.phi(1.0) == 0.0
    assert logspec.phi_inverse(0.0) == 1.0


@pytest.mark.parametrize(
    "name,n",
    [("sum", 2), ("sum", 3), ("translated_sum", 3), ("product", 2), ("product", 3),
     ("bounded_product", 2), ("alternating", 3), ("alternating", 5)],
)
def test_registry_ops_closed_on_domain(name, n):
    f = builtin_lookup(name, n)
    rng = random.Random(1234)
    j_min, j_max, h = lattice(f.domain, 10.0)
    for _ in range(1000):
        xs = tuple(rng.randint(j_min, j_max) * h for _ in range(n))
        y = f.checked(*xs)
        assert f.domain.contains(y)


def test_lattice_respects_open_ends():
    j_min, j_max, h = lattice(Interval.parse("(0,inf)"), 10.0)
    assert j_min * h > 0.0
    assert j_max * h <= 10.0


def test_lattice_refines_thin_intervals():
    j_min, j_max, h = lattice(Interval.parse("(0.3,0.35)"), 10.0)
    assert j_max - j_min + 1 >= 16
    assert 0.3 < j_min * h and j_max * h < 0.35


def test_lattice_degenerate_interval():
    with pytest.raises(ValueError):
        lattice(Interval.parse("(100,200)"), 10.0)


def test_nary_op_rejects_small_arity():
    from naryops.core import NaryOp

    with pytest.raises(ValueError):
        NaryOp(1, Interval.real_line(), lambda x: x, "id")
