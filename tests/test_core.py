import copy
import math
import pickle
import random

import pytest
from hypothesis import given, strategies as st

from naryops.axioms import AxiomReport, Witness, check_symmetry
from naryops.cli import RunConfig
from naryops.core import (
    Interval,
    NaryOp,
    Record,
    builtin_lookup,
    interval_contains,
    lattice,
)
from naryops.errors import DomainEscapeError
from naryops.exprlang import Num, Var, make_callable, parse
from naryops.extension import ExtendedOp, RationalIndex
from naryops.extraction import extract_generator
from naryops.generator import GeneratorSpec
from naryops.reducibility import adjoin_neutral


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


def _three_test_contains(iv, x):
    """interval_contains as a NaN test and one test per end."""
    if x != x:
        return False
    if (x <= iv.lo) if iv.lo_open else (x < iv.lo):
        return False
    return (x < iv.hi) if iv.hi_open else (x <= iv.hi)


@pytest.mark.parametrize(
    "text", ["(0,1)", "[0,1]", "(0,1]", "[0,1)", "(-inf,inf)", "(-inf,0]", "[0,inf)", "(-1,-0.0)",
             "[-0.0,0.5)", "(-inf,-2]", "[5e-324,1.7e308]"],
)
def test_interval_contains_is_the_three_test_form(text):
    iv = Interval.parse(text)
    ends = [iv.lo, iv.hi]
    near = [math.nextafter(v, d) for v in ends for d in (-math.inf, math.inf)]
    points = [0.0, -0.0, 0.5, -0.5, math.inf, -math.inf, math.nan, 5e-324, -5e-324, *ends, *near]
    for x in points:
        assert interval_contains(iv, x) is _three_test_contains(iv, x), (text, x)


def test_interval_parse_rejects_garbage():
    for bad in ("", "0,1", "(0;1)", "(1,0)", "(a,b)", "(0,1", "{0,1}"):
        with pytest.raises(ValueError):
            Interval.parse(bad)


def _in_class(n: int, m: int) -> bool:
    """Whether the extension of an arity-n operation evaluates a string of
    length m, that is, m lies in the arity class of n."""
    try:
        ExtendedOp(builtin_lookup("sum", n)).eval((0.5,) * m)
    except ValueError as exc:
        assert f"string length {m} not evaluable at arity {n}" in str(exc)
        return False
    return True


def test_arity_member_examples():
    assert _in_class(3, 5)
    assert not _in_class(3, 4)
    assert _in_class(2, 7)
    assert not _in_class(2, 0)


@given(st.integers(min_value=2, max_value=12))
def test_single_point_always_in_class(n):
    assert _in_class(n, 1)


@given(
    st.integers(min_value=2, max_value=9),
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=0, max_value=40),
)
def test_class_closed_under_substitution(n, i, j):
    m = 1 + i * (n - 1)
    m2 = 1 + j * (n - 1)
    assert _in_class(n, m) and _in_class(n, m2)
    assert _in_class(n, m + m2 - 1)


def test_builtin_examples():
    f = builtin_lookup("sum", 2)
    assert f.eval(1.0, 2.0) == 3.0
    alt = builtin_lookup("alternating", 3)
    assert alt.eval(1.0, 2.0, 3.0) == 2.0
    ts = builtin_lookup("translated_sum", 3)
    assert ts.eval(0.0, 0.0, 0.0) == 1.0


def test_alternating_requires_odd_arity():
    with pytest.raises(ValueError, match=r"^alternating requires an odd arity n >= 3, got 4$"):
        builtin_lookup("alternating", 4)
    with pytest.raises(ValueError, match=r"^alternating requires an odd arity n >= 3, got 2$"):
        builtin_lookup("alternating", 2)


def test_unknown_builtin():
    known = "sum, translated_sum, product, bounded_product, alternating"
    with pytest.raises(ValueError, match=rf"^unknown builtin 'nope'; known: {known}$"):
        builtin_lookup("nope", 2)


def test_generator_entries():
    # the registry holds operations only; the generators ride on them
    for name in ("identity_generator", "log_generator"):
        with pytest.raises(ValueError, match=f"^unknown builtin '{name}'; known: "):
            builtin_lookup(name)
    spec = builtin_lookup("sum", 2).generator
    assert isinstance(spec, GeneratorSpec) and spec.label == "identity_generator"
    assert spec.phi(0.25) == 0.25
    logspec = builtin_lookup("product", 2).generator
    assert logspec.label == "log_generator"
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


@pytest.mark.parametrize(
    "domain,window,step",
    [
        ("(-inf,inf)", 2.0**58, 0.125),
        ("(0,inf)", 5e17, 0.125),
        ("(-inf,inf)", 2.0**59, 0.25),
        ("(-inf,inf)", 6e17, 0.5),
        ("(-inf,inf)", 1e300, None),
        ("(-inf,inf)", 1.7e308, None),
        ("(1e308,inf)", 1.7e308, None),
    ],
)
def test_lattice_spans_every_finite_window(domain, window, step):
    iv = Interval.parse(domain)
    j_min, j_max, h = lattice(iv, window)
    lo, hi = iv.clamp_window(window)
    assert j_max - j_min <= 2**62
    assert lo <= j_min * h and j_max * h <= hi
    if step is not None:
        assert h == step
    # the index range stays machine-sized, as check_cancellativity samples it
    assert len(random.Random(0).sample(range(j_min, j_max + 1), 9)) == 9


@pytest.mark.parametrize("window", [math.inf, math.nan])
def test_lattice_rejects_unbounded_windows(window):
    with pytest.raises(ValueError):
        lattice(Interval.real_line(), window)


def test_nary_op_rejects_small_arity():
    with pytest.raises(ValueError):
        NaryOp(1, Interval.real_line(), lambda x: x, "id")


_CHECKED_DOMAINS = ("[0,1]", "(0,1)", "[0,1)", "(0,inf)", "(-inf,inf)")


@pytest.mark.parametrize(
    "domain, value, outcome",
    [
        # closed endpoints come back as they are, -0.0 against a closed 0 too
        ("[0,1]", 0.0, "returned"),
        ("[0,1]", -0.0, "returned"),
        ("[0,1]", 1.0, "returned"),
        ("[0,1)", 0.0, "returned"),
        ("(0,1)", 0.5, "returned"),
        ("(0,inf)", 5e-324, "returned"),
        ("(0,inf)", 1.7976931348623157e308, "returned"),
        ("(-inf,inf)", -1.7976931348623157e308, "returned"),
        ("(-inf,inf)", -0.0, "returned"),
        # open endpoints, -0.0 against an open 0, and just past a closed end
        ("(0,1)", 0.0, "escaped domain"),
        ("(0,1)", -0.0, "escaped domain"),
        ("(0,1)", 1.0, "escaped domain"),
        ("[0,1)", 1.0, "escaped domain"),
        ("(0,inf)", 0.0, "escaped domain"),
        ("(0,inf)", -0.0, "escaped domain"),
        ("[0,1]", 1.0000000000000002, "escaped domain"),
        ("[0,1]", -5e-324, "escaped domain"),
    ]
    + [(d, v, "produced non-finite") for d in _CHECKED_DOMAINS for v in (math.nan, math.inf, -math.inf)],
)
def test_checked_at_every_kind_of_endpoint(domain, value, outcome):
    op = NaryOp(2, Interval.parse(domain), lambda x, y: value, "probe")
    if outcome == "returned":
        assert repr(op.checked(0.25, 0.5)) == repr(value)  # the sign of a zero too
        return
    with pytest.raises(DomainEscapeError) as info:
        op.checked(0.25, 0.5)
    what = f"escaped domain {op.domain.render()}:" if outcome == "escaped domain" else outcome
    assert str(info.value) == f"probe {what} {value!r} at (0.25, 0.5)"
    assert repr(info.value.value) == repr(value)


@pytest.mark.parametrize("domain", _CHECKED_DOMAINS)
def test_checked_names_an_overflow(domain):
    def overflow(x, y):
        raise OverflowError("math range error")

    op = NaryOp(2, Interval.parse(domain), overflow, "probe")
    with pytest.raises(DomainEscapeError) as info:
        op.checked(0.25, 0.5)
    assert str(info.value) == "probe overflowed at (0.25, 0.5)"
    assert info.value.value is None
    # the cause tells an overflow from other escapes without a value
    assert isinstance(info.value.__cause__, OverflowError)


def test_checked_names_an_escape_raised_inside_eval():
    # an expression's partial function raises inside eval; checked raises
    # it again with the operation and the inputs, keeping its value
    op = NaryOp(2, Interval.real_line(), make_callable(parse("x1/x2", 2), 2), "expr:x1/x2")
    with pytest.raises(DomainEscapeError) as info:
        op.checked(1.0, 0.0)
    assert str(info.value) == "expr:x1/x2 at (1.0, 0.0): division by zero"
    assert info.value.value is None
    assert isinstance(info.value.__cause__, DomainEscapeError)

    def escaping(x, y):
        raise DomainEscapeError("inner escape", 7.5)

    with pytest.raises(DomainEscapeError, match=r"^probe at \(0.25, 0.5\): inner escape$") as info:
        NaryOp(2, Interval.real_line(), escaping, "probe").checked(0.25, 0.5)
    assert info.value.value == 7.5


def test_checked_keeps_the_overflow_cause_of_an_inner_escape():
    # an operation built on another one's checked evaluation: the inner
    # overflow stays the cause, which is how the extraction's diagonal
    # search tells an overflow from other escapes without a value
    inner = builtin_lookup("sum", 2)
    outer = NaryOp(2, Interval.real_line(), lambda x, y: inner.checked(x, y), "outer")
    big = 1.7e308
    with pytest.raises(DomainEscapeError) as info:
        outer.checked(big, big)
    assert str(info.value) == f"outer at ({big!r}, {big!r}): sum/2 overflowed at ({big!r}, {big!r})"
    assert info.value.value is None
    assert isinstance(info.value.__cause__, OverflowError)


def test_records_compare_by_class_and_compared_fields():
    assert Num(1.0) != Var(1)
    assert Num(1.0) == Num(1) and hash(Num(1.0)) == hash(Num(1))
    a, b = Interval(0.0, 1.0, False, True), Interval(0.0, 1.0, False, True)
    assert a == b and hash(a) == hash(b)
    assert Interval.parse("[-0.0,1)") == Interval(0.0, 1.0, False, True)
    assert Interval(0.0, 1.0) != Interval(0.0, 1.0, False, True)
    line = Interval.real_line()
    f = NaryOp(2, line, lambda *xs: math.fsum(xs), "op")
    g = NaryOp(2, line, max, "op", builtin_lookup("sum", 2).generator)
    assert f == g and hash(f) == hash(g)  # eval and generator are not compared
    assert f != NaryOp(2, line, max, "other") and f != NaryOp(3, line, max, "op")
    assert f != NaryOp(2, Interval.make(0.0, math.inf), max, "op")
    spec = builtin_lookup("product", 2).generator
    twin = GeneratorSpec(math.exp, spec.domain, spec.codomain, None, "closed_form", spec.label)
    assert twin == spec and hash(twin) == hash(spec)  # neither phi nor its inverse is
    assert GeneratorSpec(math.log, spec.domain, spec.codomain, label="other") != spec


def test_record_reprs_name_the_shown_fields():
    assert repr(Interval(0.0, 1.0)) == "Interval(lo=0.0, hi=1.0, lo_open=True, hi_open=True)"
    op = builtin_lookup("sum", 2)
    text = repr(op)
    assert text.startswith(
        "NaryOp(arity=2, domain=Interval(lo=-inf, hi=inf, lo_open=True, hi_open=True), eval=<"
    )
    assert text.endswith(", label='sum/2')") and "generator" not in text
    spec = GeneratorSpec(abs, Interval(0.0, 1.0), Interval(0.0, 1.0), label="a")
    assert repr(spec) == (
        "GeneratorSpec(phi=<built-in function abs>, domain=Interval(lo=0.0, hi=1.0, "
        "lo_open=True, hi_open=True), codomain=Interval(lo=0.0, hi=1.0, lo_open=True, "
        "hi_open=True), phi_inverse=None, kind='closed_form', label='a')"
    )
    gen = extract_generator(op, (0.0, 1.0), base_point=1.0, resolution=0.25)
    assert repr(gen).startswith("ExtractedGenerator(samples=((0.0, 0.0), (1.0, 1.0)), c=1.0, ")
    assert repr(gen).endswith(", interp_slack=0.0)")  # estimates are left out


def _records():
    op = builtin_lookup("sum", 2)
    report = check_symmetry(builtin_lookup("alternating", 3), samples=50, seed=6)
    assert report.witness is not None
    gen = extract_generator(op, (0.0, 1.0), base_point=1.0, resolution=0.25)
    tree = parse("-ln(x1)+2*x2", 2)
    return [
        (Interval(0.0, 1.0), "lo"),
        (op, "label"),
        (op.generator, "domain"),
        (report, "passed"),
        (report.witness, "residual"),
        (RationalIndex(1, 0, 1), "p"),
        (gen, "c"),
        (gen, "x_values"),
        (gen.estimates[0], "value"),
        (adjoin_neutral(op.generator, 2), "arity"),
        (tree, "op"),
        (tree.left, "arg"),
        (tree.left.arg, "fn"),
        (tree.right.left, "value"),
        (tree.right.right, "index"),
        (parse("pi", 1), "name"),
        (RunConfig("axioms", op="sum"), "samples"),
    ]


def test_a_report_passes_exactly_when_it_holds_no_witness():
    witness = Witness("symmetry", ((1.0, 2.0),), 0.5, permutation=(1, 0))
    failed = AxiomReport("symmetry", 0.5, witness, 10, 3, 1e-9)
    assert failed.passed is False and failed.to_dict()["pass"] is False
    held = AxiomReport("symmetry", 0.0, None, 10, 3, 1e-9)
    assert held.passed is True and held.to_dict()["pass"] is True
    assert repr(held).startswith("AxiomReport(axiom='symmetry', passed=True, max_residual=0.0, ")
    with pytest.raises(TypeError):
        AxiomReport("symmetry", 0.0, None, 10, 3, 1e-9, passed=True)


def test_plain_records_take_exactly_one_value_per_slot():
    plain = [r for r, _ in _records() if type(r).__init__ is Record.__init__]
    assert {type(r).__name__ for r in plain} == {
        "Num", "Var", "Const", "Neg", "Call", "BinOp", "PhiEstimate", "AdjoinedStructure",
    }
    for record in plain:
        cls = type(record)
        values = [getattr(record, slot) for slot in cls.__slots__]
        assert cls(*values) == record
        for wrong in (values[:-1], [*values, 0]):
            with pytest.raises(TypeError, match=cls.__name__):
                cls(*wrong)


def test_records_are_frozen_and_copy():
    for record, name in _records():
        for slot in type(record).__slots__:  # Record.__init__ sets every slot
            getattr(record, slot)
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert record == record and hash(record) == hash(record)
        assert copy.copy(record) == record and copy.deepcopy(record) == record
    witness = Witness("symmetry", ((1.0, 2.0),), 0.5, permutation=(1, 0))
    report = AxiomReport("symmetry", 0.5, witness, 10, 3, 1e-9, "x-y")
    gen = extract_generator(builtin_lookup("sum", 2), (0.0, 1.0), base_point=1.0, resolution=0.25)
    for record in (Interval(0.0, 1.0, False), report, parse("x1^2-e", 1), gen):
        assert pickle.loads(pickle.dumps(record)) == record
    assert gen.x_values == (0.0, 1.0) and gen.phi_values == (0.0, 1.0)
    for twin in (copy.copy(gen), copy.deepcopy(gen), pickle.loads(pickle.dumps(gen))):
        assert (twin.x_values, twin.phi_values) == (gen.x_values, gen.phi_values)
        assert twin.interpolate(0.25) == gen.interpolate(0.25) == 0.25
    assert "x_values" not in repr(gen) and "phi_values" not in repr(gen)
    assert "interpolate" not in repr(gen)
