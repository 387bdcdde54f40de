import io
import math
import random
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from naryops import generator
from naryops.axioms import check_associativity, check_symmetry, lattice_sampler
from naryops.cli import main
from naryops.core import Interval, builtin_lookup
from naryops.errors import CodomainError, DomainEscapeError, InversionError
from naryops.generator import (
    GeneratorSpec,
    build_aczelian,
    invert_monotone,
    tabulated_generator,
    validate_codomain,
)


def test_codomain_full_line():
    form = validate_codomain(Interval.real_line(), 3)
    assert form.form == "full_line" and form.bound is None


def test_codomain_negative_half_line():
    form = validate_codomain(Interval.parse("(-inf,0)"), 2)
    assert form.form == "neg_open_b" and form.bound == 0.0
    form = validate_codomain(Interval.parse("(-inf,-1]"), 2)
    assert form.form == "neg_closed_b" and form.bound == -1.0


def test_codomain_positive_half_line():
    # a bound above zero still sums upward into the interval
    form = validate_codomain(Interval.parse("(1,inf)"), 2)
    assert form.form == "pos_open_a" and form.bound == 1.0
    form = validate_codomain(Interval.parse("[0,inf)"), 3)
    assert form.form == "pos_closed_a" and form.bound == 0.0


def test_codomain_rejections():
    # (-1, inf) loses (-0.5) + (-0.5) = -1
    with pytest.raises(CodomainError):
        validate_codomain(Interval.parse("(-1,inf)"), 2)
    with pytest.raises(CodomainError):
        validate_codomain(Interval.parse("(-inf,1)"), 2)
    with pytest.raises(CodomainError):
        validate_codomain(Interval.parse("(1,2)"), 2)


def test_build_identity_generator_is_sum():
    spec = builtin_lookup("identity_generator")
    f = build_aczelian(spec, 3)
    assert f.eval(1.0, 2.0, 3.0) == 6.0


def test_build_log_generator_is_product():
    spec = builtin_lookup("log_generator")
    f = build_aczelian(spec, 2)
    assert abs(f.eval(2.0, 3.0) - 6.0) <= 1e-12


def test_build_translated_generator():
    n = 3
    spec = GeneratorSpec(
        phi=lambda x: x + 0.5,
        phi_inverse=lambda y: y - 0.5,
        label="x+1/2",
    )
    f = build_aczelian(spec, n)
    assert f.eval(0.0, 0.0, 0.0) == 1.0
    assert f.eval(1.0, 2.0, 3.0) == 7.0


def test_build_requires_admissible_codomain():
    spec = GeneratorSpec(
        phi=lambda x: x,
        phi_inverse=lambda y: y,
        codomain=Interval.parse("(-1,inf)"),
    )
    with pytest.raises(CodomainError):
        build_aczelian(spec, 2)


def test_invert_monotone_examples():
    assert invert_monotone(lambda x: x, 0.5, Interval.parse("[0,1]")) == 0.5
    root = invert_monotone(math.log, 0.0, Interval.parse("[0.5,2]"), tol=1e-12)
    assert abs(root - 1.0) <= 1e-11
    root = invert_monotone(lambda x: x**3, 8.0, Interval.parse("[0,3]"), tol=1e-10)
    assert abs(root - 8.0 ** (1.0 / 3.0)) <= 1e-9


def test_invert_monotone_decreasing():
    root = invert_monotone(lambda x: -2.0 * x, 1.0, Interval.parse("[-3,3]"), tol=1e-12)
    assert abs(root + 0.5) <= 1e-11


def test_invert_monotone_outside_range():
    with pytest.raises(InversionError):
        invert_monotone(lambda x: x, 5.0, Interval.parse("[0,1]"))


def test_invert_monotone_detects_hump():
    with pytest.raises(InversionError):
        invert_monotone(lambda x: 1.0 - x * x, -0.5, Interval.parse("[-1,2]"))


def test_invert_monotone_infinite_bracket():
    root = invert_monotone(lambda x: x**3, 8.0, Interval.real_line(), tol=1e-10)
    assert abs(root - 2.0) <= 1e-9
    root = invert_monotone(math.log, -20.0, Interval.parse("(0,inf)"), tol=1e-24)
    assert abs(root - math.exp(-20.0)) <= 1e-12


def test_invert_monotone_far_target_across_overflow():
    # exp overflows inside the bracket [512, 1024]; an overflow reads as
    # +inf in every phi call, and the tolerance is measured in x, not in y
    root = invert_monotone(lambda x: x + math.exp(x), 1e300, Interval.real_line())
    assert abs(root - math.log(1e300)) <= 4.0 * math.ulp(512.0)


def test_overflow_reads_as_the_infinity_phi_heads_toward():
    # -exp falls toward -inf and overflows past x = 709.78: an overflow
    # there is -inf, not +inf
    root = invert_monotone(lambda x: -math.exp(x), -1e300, Interval.real_line())
    assert abs(root - math.log(1e300)) <= 4.0 * math.ulp(512.0)
    J = generator.estimate_codomain(lambda x: -math.exp(x), Interval.real_line())
    assert J.render() == "(-inf,0.0)"


def test_invert_monotone_open_end_reach_is_bounded():
    # the gallop into an open end halves the floats left before it, so it
    # reaches the float next to the end within 64 samples; the start point,
    # one step each way and the gallop bound the calls on a miss
    calls = []

    def counting(x):
        calls.append(x)
        return math.log(x)

    root = invert_monotone(counting, -40.0, Interval.parse("(0,inf)"), tol=1e-30)
    assert root == math.exp(-40.0)
    assert len(calls) <= 30
    calls.clear()
    # the root exp(-800) lies below the smallest positive float
    with pytest.raises(InversionError):
        invert_monotone(counting, -800.0, Interval.parse("(0,inf)"))
    assert calls[-1] == math.ulp(0.0)
    assert len(calls) <= 3 + 64
    assert invert_monotone(lambda t: t * t, 0.9999999999993695, Interval.make(0.0, 1.0)) == (
        0.9999999999996847
    )


#: closed-form generators without an inverse expression: phi, domain,
#: preimages to draw, and the magnitude below which accuracy is measured
#: in ulps of that magnitude instead of the root's (a real-line bracket
#: whose end is the start point 0 reaches out to the first step, 2)
CLOSED_FORMS = {
    "x^3+x": (lambda x: x**3 + x, Interval.real_line(), st.floats(-50.0, 50.0), 2.0),
    "x+exp(x)": (lambda x: x + math.exp(x), Interval.real_line(), st.floats(-30.0, 30.0), 2.0),
    "x^5+x": (lambda x: x**5 + x, Interval.real_line(), st.floats(-20.0, 20.0), 2.0),
    "-2x": (lambda x: -2.0 * x, Interval.real_line(), st.floats(-1e3, 1e3), 2.0),
    "ln": (math.log, Interval.parse("(0,inf)"), st.floats(1e-11, 1e12), 0.0),
    "atan(50x)": (lambda x: math.atan(50.0 * x), Interval.real_line(), st.floats(-2.0, 2.0), 2.0),
}


def _between(y, u, v):
    return u <= y <= v or v <= y <= u


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(sorted(CLOSED_FORMS)), data=st.data())
def test_inverse_is_ulp_accurate_within_the_itp_step_bound(name, data):
    phi, domain, preimages, floor = CLOSED_FORMS[name]
    y = phi(data.draw(preimages))
    calls = []

    def counting(x):
        calls.append((x, phi(x)))
        return calls[-1][1]

    root = invert_monotone(counting, y, domain)
    if phi(root) == y:
        return
    # bracketing samples each widen the sampled range; refinement samples
    # fall strictly inside the bracket of the two samples next to them
    start = next(
        i for i, (x, _) in enumerate(calls)
        if i and min(u for u, _ in calls[:i]) < x < max(u for u, _ in calls[:i])
    )
    first = calls[start][0]
    a = max(u for u, _ in calls[:start] if u < first)
    b = min(u for u, _ in calls[:start] if u > first)
    tol = 4.0 * math.ulp(min(abs(a), abs(b)) if a > 0.0 or b < 0.0 else max(abs(a), abs(b)))
    assert len(calls) - start <= math.ceil(math.log2((b - a) / tol)) + 1
    # the root sits in an evaluated bracket at most four ulps wide whose
    # values straddle y
    assert any(
        u <= root <= v and v - u <= 4.0 * math.ulp(max(abs(root), floor)) and _between(y, fu, fv)
        for u, fu in calls
        for v, fv in calls
    )


def test_quintic_build_passes():
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["build", "--phi", "x^5+x", "--n", "3", "--samples", "20"])
    assert code == 0, out.getvalue()


def test_cubic_build_phi_calls_are_pinned(monkeypatch):
    # counted from outside the package, by wrapping the phi handed to
    # generator.invert_monotone; bisection took 51,343 calls here
    counts = Counter()
    invert = generator.invert_monotone

    def counting_invert(phi, y, bracket, tol=None):
        counts["inversions"] += 1

        def counted(x):
            counts["phi"] += 1
            return phi(x)

        return invert(counted, y, bracket, tol)

    monkeypatch.setattr(generator, "invert_monotone", counting_invert)
    with redirect_stdout(io.StringIO()):
        code = main(["build", "--phi", "x^3+x", "--n", "2", "--samples", "200"])
    assert code == 0
    assert counts["inversions"] == 1200
    assert counts["phi"] == 16525


def test_generator_inverse_fallback_round_trip():
    spec = GeneratorSpec(phi=lambda x: x**3, label="cube")
    for x in (-1.5, -0.25, 0.0, 0.75, 2.0):
        assert abs(spec.inverse(spec.phi(x)) - x) <= 1e-9 * (1.0 + abs(x))


def test_numeric_inverse_round_trip_axioms():
    # no explicit inverse: the operation runs through invert_monotone each call
    spec = GeneratorSpec(phi=lambda x: x**3, label="cube")
    f = build_aczelian(spec, 2)
    rep = check_associativity(f, samples=200, seed=3, tol=1e-8, window=4.0)
    assert rep.passed, rep
    rep = check_symmetry(f, samples=200, seed=4, tol=1e-8, window=4.0)
    assert rep.passed, rep


def test_built_sections_strictly_increase():
    # slices through a generated op rise with the increasing generator
    spec = builtin_lookup("log_generator")
    f = build_aczelian(spec, 3)
    rng = random.Random(8)
    draw = lattice_sampler(f.domain, 8.0, rng)
    for _ in range(50):
        base = [draw(), draw(), draw()]
        coord = rng.randrange(3)
        values = []
        for x in (0.5, 1.0, 2.0, 4.0):
            tup = list(base)
            tup[coord] = x
            values.append(f.eval(*tup))
        assert all(a < b for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("r", [2.0, 10.0, -1.0])
def test_scale_equivalence(r):
    # r * ln on (0, inf) keeps the whole line as its codomain
    spec = builtin_lookup("log_generator")
    scaled = GeneratorSpec(
        phi=lambda x: r * math.log(x), domain=spec.domain, codomain=spec.codomain,
        phi_inverse=lambda y: math.exp(y / r),
    )
    f = build_aczelian(spec, 2)
    f_scaled = build_aczelian(scaled, 2)
    rng = random.Random(13)
    for _ in range(100):
        x, y = rng.uniform(0.25, 4.0), rng.uniform(0.25, 4.0)
        lhs, rhs = f.eval(x, y), f_scaled.eval(x, y)
        assert abs(lhs - rhs) <= 1e-9 * (1.0 + abs(lhs))


def test_generator_monotone_on_grid():
    spec = builtin_lookup("log_generator")
    grid = [0.25, 0.5, 1.0, 2.0, 4.0]
    values = [spec.phi(x) for x in grid]
    assert all(a < b for a, b in zip(values, values[1:]))
    for x in grid:
        assert abs(spec.phi_inverse(spec.phi(x)) - x) <= 1e-12 * (1.0 + x)


def test_tabulated_generator_round_trip():
    xs = [0.5, 1.0, 2.0, 4.0]
    ys = [-1.0, 0.0, 1.0, 2.0]
    spec = tabulated_generator(xs, ys)
    assert spec.kind == "tabulated"
    assert spec.phi(1.5) == 0.5
    assert spec.phi_inverse(0.5) == 1.5
    for x in (0.5, 0.8, 1.0, 3.0, 4.0):
        assert abs(spec.phi_inverse(spec.phi(x)) - x) <= 1e-12


def test_tabulated_generator_validation():
    with pytest.raises(ValueError):
        tabulated_generator([0.0, 1.0], [0.0])
    with pytest.raises(ValueError):
        tabulated_generator([0.0, 0.0], [0.0, 1.0])
    with pytest.raises(ValueError):
        tabulated_generator([0.0, 1.0], [1.0, 1.0])
    spec = tabulated_generator([0.0, 1.0], [0.0, 1.0])
    with pytest.raises(ValueError):
        spec.phi(2.0)
    with pytest.raises(ValueError):
        spec.phi_inverse(-0.5)


def test_build_from_tabulated_skips_form_check():
    # a tabulated window is never one of the admissible halfline forms,
    # yet the rebuilt operation must evaluate inside it
    spec = tabulated_generator([-2.0, -1.0, 0.0, 1.0, 2.0], [-2.0, -1.0, 0.0, 1.0, 2.0])
    f = build_aczelian(spec, 2)
    assert abs(f.eval(0.5, 0.75) - 1.25) <= 1e-12
    with pytest.raises(DomainEscapeError):
        f.eval(1.5, 1.5)
