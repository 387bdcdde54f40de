import io
import json
import math
import random
import re
import sys
import threading
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from contextlib import redirect_stderr, redirect_stdout

import inversion_oracle
import pytest
from hypothesis import given, settings, strategies as st

from naryops import generator
from naryops.axioms import check_associativity, check_symmetry, lattice_sampler
from naryops.cli import main
from naryops.core import Interval, builtin_lookup
from naryops.errors import DomainEscapeError, InversionError
from naryops.exprlang import make_callable, parse as parse_expr
from naryops.generator import (
    GeneratorSpec,
    build_aczelian,
    invert_monotone,
    tabulated_generator,
    validate_codomain,
)


def test_codomain_full_line():
    assert validate_codomain(Interval.real_line(), 3) == ("full_line", None)


def test_codomain_negative_half_line():
    assert validate_codomain(Interval.parse("(-inf,0)"), 2) == ("neg_open_b", 0.0)
    assert validate_codomain(Interval.parse("(-inf,-1]"), 2) == ("neg_closed_b", -1.0)


def test_codomain_positive_half_line():
    # a bound above zero still sums upward into the interval
    assert validate_codomain(Interval.parse("(1,inf)"), 2) == ("pos_open_a", 1.0)
    assert validate_codomain(Interval.parse("[0,inf)"), 3) == ("pos_closed_a", 0.0)


def test_codomain_rejections():
    # (-1, inf) loses (-0.5) + (-0.5) = -1
    lower = r"^codomain \(-1\.0,\+inf\) not closed under 2-term sums \(lower bound -1\.0 must be >= 0\)$"
    with pytest.raises(ValueError, match=lower):
        validate_codomain(Interval.parse("(-1,inf)"), 2)
    upper = r"^codomain \(-inf,1\.0\) not closed under 2-term sums \(upper bound 1\.0 must be <= 0\)$"
    with pytest.raises(ValueError, match=upper):
        validate_codomain(Interval.parse("(-inf,1)"), 2)
    bounded = r"^codomain \(1\.0,2\.0\) is bounded on both ends; sums of 2 elements escape$"
    with pytest.raises(ValueError, match=bounded):
        validate_codomain(Interval.parse("(1,2)"), 2)


def test_codomain_arity_and_spec_kind_are_checked():
    with pytest.raises(ValueError, match="^n must be >= 2$"):
        validate_codomain(Interval.real_line(), 1)
    with pytest.raises(ValueError, match="^unknown generator kind 'other'$"):
        GeneratorSpec(lambda x: x, kind="other")


def test_build_identity_generator_is_sum():
    spec = builtin_lookup("sum", 2).generator
    f = build_aczelian(spec, 3)
    assert f.eval(1.0, 2.0, 3.0) == 6.0


def test_build_log_generator_is_product():
    spec = builtin_lookup("product", 2).generator
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
    lower = r"^codomain \(-1\.0,\+inf\) not closed under 2-term sums \(lower bound -1\.0 must be >= 0\)$"
    with pytest.raises(ValueError, match=lower):
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


def test_invert_monotone_reaches_the_float_range():
    # toward an infinite end the steps from the start square past 2^64 and
    # end at the largest float, so a root 1e70 past a start at 1e70 is found
    assert invert_monotone(lambda x: x, 2e70, Interval.make(1e70, math.inf)) == 2e70
    assert invert_monotone(lambda x: x, -2e70, Interval.make(-math.inf, -1e70)) == -2e70
    assert invert_monotone(lambda x: x, 1.7e308, Interval.make(0.0, math.inf)) == 1.7e308
    # a bracket from -1.8e308 to 1e307 is too wide for a finite width; it is
    # bisected in float space first
    root = invert_monotone(lambda x: x, -5.0, Interval.make(-math.inf, 1e307))
    assert abs(root + 5.0) <= 4.0 * math.ulp(5.0)
    # that is the down-unit root of x1+x2+x3 from 1e307
    argv = ["extract", "--op=expr:x1+x2+x3", "--n=3", "--grid=0.0,0.0", "--c=1e+307"]
    with redirect_stdout(io.StringIO()):
        assert main(argv) == 0


def test_itp_projection_radius_past_the_float_range():
    # tol * 2^(steps left) of a bracket wider than 2^1023 overflows; the
    # projection radius reads as infinite there instead of raising
    bracket = Interval.make(-1.7e308, 1.7e308, False, False)
    assert invert_monotone(lambda x: x, 1.0, bracket, 0.0) == 1.0


def test_itp_names_a_refinement_value_outside_its_bracket():
    # phi keeps the bracket's end values at its ends and leaves them inside,
    # above or below both, rising or falling; the reference names the same
    for inside, sign in ((10.0, 1.0), (-10.0, 1.0), (10.0, -1.0), (-10.0, -1.0)):
        phi = lambda x: inside if 0.25 < x < 0.75 else sign * x  # noqa: E731
        fb = sign * 1.0
        message = (
            f"sign pattern violates monotonicity near x=0.5: phi(x)={inside!r} outside [0.0, {fb!r}]"
        )
        for itp in (generator._itp, inversion_oracle._itp):
            with pytest.raises(InversionError, match=f"^{re.escape(message)}$"):
                itp(phi, sign * 0.5, 0.0, 0.0, 1.0, fb, 1e-9)


def test_float_space_bisection_returns_a_midpoint_on_the_target():
    # [1, 1e300] starts at 5e299, so its bracket [1, 5e299] spans about a
    # thousand binades and is bisected in float space before ITP runs; a
    # target on the first float-key midpoint is returned from there, after
    # phi at the start point, the low end and the midpoint
    bracket = Interval.make(1.0, 1e300, False, False)
    start = generator._start_point(bracket)
    y = generator._key_float((generator._float_key(1.0) + generator._float_key(start)) // 2)
    calls = []

    def identity(x):
        calls.append(x)
        return x

    assert invert_monotone(identity, y, bracket) == y
    assert calls == [start, 1.0, y]


def test_itp_returns_the_midpoint_of_a_bracket_within_tol():
    # a bracket no wider than tol is already final: its midpoint, with no
    # phi call inside it, however far the midpoint lies from the root
    calls = []

    def identity(x):
        calls.append(x)
        return x

    assert invert_monotone(identity, 0.1, Interval.make(0.0, 1.0, False, False), tol=1.0) == 0.25
    assert calls == [0.5, 0.0]
    assert generator._itp(identity, 0.1, 0.0, 0.0, 0.5, 0.5, 0.5) == 0.25
    assert calls == [0.5, 0.0]


def test_spec_memo_starts_over_at_its_size(monkeypatch):
    # a memo of three roots clears on the fourth new one; every answer, from
    # the memo or after a reset, is the one-shot inverse
    monkeypatch.setattr(generator, "_MEMO_SIZE", 3)
    phi = lambda x: x**3 + x  # noqa: E731
    spec = GeneratorSpec(phi=phi)
    sizes = []
    for y in (0.0, 1.0, 2.0, 1.0, 3.0, 4.0, 0.0, -0.0, 5.0, 2.0, 6.0, 7.0, 8.0, 9.0, 1.0):
        assert repr(spec.inverse(y)) == repr(invert_monotone(phi, y, Interval.real_line())), y
        sizes.append(len(spec._roots))
    assert sizes == [1, 2, 3, 3, 1, 2, 3, 1, 2, 3, 1, 2, 3, 1, 2]


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


def _refinement_start(xs):
    """Index of the first phi call of an inversion that lies strictly
    inside the range of the calls before it: bracketing samples each
    widen the sampled range, and refinement samples fall inside the
    bracket of the two samples next to them."""
    return next((i for i in range(1, len(xs)) if min(xs[:i]) < xs[i] < max(xs[:i])), len(xs))


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
    start = _refinement_start([x for x, _ in calls])
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


def _outcome(invert, *args):
    """repr of the root, which tells every float apart, or the error."""
    try:
        return repr(invert(*args))
    except Exception as e:
        return type(e), str(e)


@settings(max_examples=120, deadline=None)
@given(name=st.sampled_from(sorted(CLOSED_FORMS)), data=st.data())
def test_spec_ladder_matches_the_one_shot_inverse(name, data):
    # one spec on the real line as its codomain inverts a drawn sequence of
    # targets twice over; each answer is that of invert_monotone on a fresh
    # interval. The spec took every bracketing sample when it was built, at
    # the points the codomain estimate walks, so each target then costs
    # only its refinement, and a target it has solved none
    phi, domain, preimages, _ = CLOSED_FORMS[name]
    fresh = preimages.map(phi) | st.sampled_from([0.0, -0.0, 1e300, -1e300])
    targets = [data.draw(fresh)]
    for pick in data.draw(st.lists(fresh | st.integers(0, 9), max_size=9)):
        targets.append(targets[pick % len(targets)] if isinstance(pick, int) else pick)
    calls = []

    def counting(x):
        calls.append(x)
        return phi(x)

    generator.estimate_codomain(counting, domain)
    walk = calls[:]
    calls.clear()
    spec = GeneratorSpec(phi=counting, domain=domain, codomain=Interval.real_line())
    assert calls == walk
    solved = set()
    for _ in range(2):
        for y in targets:
            calls.clear()
            expected = _outcome(invert_monotone, counting, y, domain)
            one_shot = calls[:]
            calls.clear()
            assert _outcome(spec.inverse, y) == expected, y
            # a solved y costs no call, 0.0 and -0.0 apart; an error is not
            # kept, and only its refinement is taken again
            repeat = repr(y) in solved
            assert calls == ([] if repeat else one_shot[_refinement_start(one_shot):])
            if isinstance(expected, str):
                solved.add(repr(y))


#: the closed forms and two decreasing ones, for the differential tests
#: against the reference inversion: 1-ln with an open end, and exp(-x),
#: whose samples on the real line tie at 0.0 where it underflows
ORACLE_FORMS = {name: form[:3] for name, form in CLOSED_FORMS.items()}
ORACLE_FORMS["1-ln"] = (
    lambda x: 1.0 - math.log(x), Interval.parse("(0,inf)"), st.floats(1e-11, 1e12)
)
ORACLE_FORMS["exp(-x)"] = (lambda x: math.exp(-x), Interval.real_line(), st.floats(-30.0, 30.0))


def _oracle_case(data):
    """A phi, an interval (the real line, (0,inf), or a finite one between
    two preimages with either kind of end) and a strategy of targets:
    images of preimages, signed zeros, +-1e300, NaN and phi at finite
    ends."""
    phi, _, preimages = ORACLE_FORMS[data.draw(st.sampled_from(sorted(ORACLE_FORMS)))]
    lo, hi = sorted(data.draw(st.lists(preimages, min_size=2, max_size=2, unique=True)))
    finite = st.builds(Interval.make, st.just(lo), st.just(hi), st.booleans(), st.booleans())
    unbounded = st.sampled_from([Interval.real_line(), Interval.parse("(0,inf)")])
    interval = data.draw(unbounded | finite)
    ends = []
    for end in filter(math.isfinite, (interval.lo, interval.hi)):
        try:
            ends.append(phi(end))
        except (ValueError, OverflowError):
            pass
    targets = preimages.map(phi) | st.sampled_from([0.0, -0.0, 1e300, -1e300, math.nan, *ends])
    return phi, interval, targets


@settings(max_examples=400, deadline=None)
@given(data=st.data(), tol=st.sampled_from([None, 0.0]))
def test_inversion_matches_the_reference(data, tol):
    # the same root or error, from phi at the same points in the same order
    phi, interval, targets = _oracle_case(data)
    y = data.draw(targets)
    runs = []
    for invert in (inversion_oracle.invert_monotone, invert_monotone):
        calls = []

        def counting(x):
            calls.append(x)
            return phi(x)

        runs.append((_outcome(invert, counting, y, interval, tol), calls))
    assert runs[1] == runs[0], y


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_spec_inverse_matches_the_reference(data):
    # a spec on the real line as its codomain takes the reference's walk
    # when it is built, and then answers a sequence of targets as the
    # reference does on that walked ladder, calling phi at the same points,
    # whether it bisects its sorted samples or gallops over tied ones: a
    # target on a sample's value costs no call, and one outside the samples
    # or a NaN raises the same error. Through its memo, a finite target it
    # has solved before, 0.0 and -0.0 apart, costs no call
    phi, interval, targets = _oracle_case(data)
    calls = []

    def counting(x):
        calls.append(x)
        return phi(x)

    try:
        ladder, failure = inversion_oracle.walked(counting, interval), None
    except Exception as exc:  # such as ln on the real line
        failure = type(exc), str(exc)
    walk = calls[:]
    calls.clear()
    try:
        spec = GeneratorSpec(phi=counting, domain=interval, codomain=Interval.real_line())
    except Exception as exc:
        assert (type(exc), str(exc)) == failure
    else:
        assert failure is None
    assert calls == walk
    if failure is not None:
        return
    samples = [ladder.f0, *(fx for side in ladder._sides for _, fx in side)]
    targets |= st.sampled_from(samples)
    ys = data.draw(st.lists(targets, min_size=1, max_size=12))
    ys += data.draw(st.lists(st.sampled_from(ys), max_size=12))
    solved = set()
    for y in ys:
        calls.clear()
        expected = _outcome(inversion_oracle.invert_monotone, counting, y, ladder)
        # a NaN lies on no side, so the reference walks both to their ends,
        # and its ladder goes on past an infinite sample, where the spec's
        # walk stopped; the spec has taken every sample it brackets with
        expected_calls = calls[:] if y == y else []
        calls.clear()
        assert _outcome(invert_monotone, counting, y, spec) == expected, y
        assert calls == expected_calls, y
        if not math.isfinite(y):  # escapes the real line before any inversion
            continue
        calls.clear()
        assert _outcome(spec.inverse, y) == expected, y
        assert calls == ([] if repr(y) in solved else expected_calls), y
        if isinstance(expected, str):
            solved.add(repr(y))


@pytest.mark.parametrize(
    "phi, interval, sign",
    [
        (lambda x: x**3 + x, "(-inf,inf)", 1.0),
        (lambda x: x + math.exp(x), "(-inf,inf)", 1.0),
        (lambda x: 1.0 - math.log(x), "(0,inf)", -1.0),
        (lambda x: math.exp(-x), "[-5,5]", -1.0),
        # tied samples: exp(-x) underflows to 0.0 and atan rounds to pi/2
        (lambda x: math.exp(-x), "(-inf,inf)", None),
        (math.atan, "(-inf,inf)", None),
    ],
)
def test_spec_bisects_only_strictly_monotone_samples(phi, interval, sign):
    # the spec keeps its samples sorted by x, their values times sign as
    # increasing keys, and brackets by bisecting those; with tied samples it
    # keeps none and gallops. Either way a target on a sample's value
    # returns that sample with no call, and every root is the bare interval's
    calls = []

    def counting(x):
        calls.append(x)
        return phi(x)

    domain = Interval.parse(interval)
    spec = GeneratorSpec(counting, domain, Interval.real_line())
    x0, f0, lows, highs = spec._walk
    samples = (*lows, (x0, f0), *highs)
    table_sign, keys, xs, brackets = spec._table
    if sign is None:
        assert (keys, xs, brackets) == ((), (), ())
    else:
        assert table_sign == sign and list(xs) == sorted(x for x, _ in (*lows, (x0, f0), *highs))
        assert len(keys) == len(xs) == len(brackets) + 1
    for x, fx in (*lows[:3], (x0, f0), *highs[:3], *lows[-2:], *highs[-2:]):
        calls.clear()
        root = invert_monotone(counting, fx, spec)
        assert calls == [] and (root == x if sign else (root, fx) in samples)
    for x in (-3.0, -0.25, 0.0, 0.7, 4.5):
        if domain.lo < x < domain.hi:
            assert repr(spec.inverse(phi(x))) == repr(invert_monotone(phi, phi(x), domain))


def test_a_spec_bracket_past_an_overflow_is_still_bisected_in_float_space(monkeypatch):
    # x+exp(x) overflows past 709.78, so the walk's high side ends at 1024
    # with +inf, and its low side steps from -2^64 to -2^128, -2^256 and
    # -2^512; a target between those is bisected in float space before ITP,
    # one past the last finite sample is refined against the infinite end,
    # and both match the reference on the walked ladder, call for call
    calls = []

    def phi(x):
        calls.append(x)
        return x + math.exp(x)

    spec = GeneratorSpec(phi)
    assert spec._walk[3][-2:] == ((512.0, 512.0 + math.exp(512.0)), (1024.0, math.inf))
    assert spec._table[1]  # strictly increasing: the sorted path
    ladder = inversion_oracle.walked(phi, Interval.real_line())
    bisected, float_bisection = [], generator._float_bisection

    def counted(*args):
        bisected.append(args)
        return float_bisection(*args)

    monkeypatch.setattr(generator, "_float_bisection", counted)
    for y, bisects in ((-1e50, True), (-1e300, True), (1e300, False), (700.0, False)):
        calls.clear()
        expected = repr(inversion_oracle.invert_monotone(phi, y, ladder)), calls[:]
        calls.clear()
        bisected.clear()
        assert (repr(invert_monotone(phi, y, spec)), calls) == expected, y
        assert bool(bisected) == bisects, y


def test_spec_whose_phi_raises_on_its_walk_is_not_built():
    # the spec takes all its bracketing samples when it is built, so a phi
    # error on the walk, here at the first sample above the start point,
    # raises from the constructor and leaves no spec behind; a spec built
    # again walks from the start, at the points the codomain estimate
    # walks, and its inverses take only their refinement
    failures, calls = [2.0], []

    def phi(x):
        calls.append(x)
        if x in failures:
            failures.remove(x)
            raise ValueError("transient")
        return x**3 + x

    with pytest.raises(ValueError, match="^transient$"):
        GeneratorSpec(phi=phi)
    assert calls[0] == 0.0 and calls[-1] == 2.0 and all(x < 0.0 for x in calls[1:-1])
    calls.clear()
    generator.estimate_codomain(phi, Interval.real_line())
    walk = calls[:]
    calls.clear()
    spec = GeneratorSpec(phi=phi)
    assert calls == walk
    calls.clear()
    root = spec.inverse(5.0)
    refinement = calls[:]
    calls.clear()
    assert root == invert_monotone(phi, 5.0, Interval.real_line())
    assert refinement == calls[_refinement_start(calls):]


def test_spec_without_a_codomain_reads_it_off_its_walk():
    # the default codomain is the estimate, not the real line, and a spec
    # with an inverse but no codomain walks for it too; one given both
    # calls no phi when it is built
    assert GeneratorSpec(phi=math.exp).codomain.render() == "(0.0,+inf)"
    assert GeneratorSpec(phi=math.exp, phi_inverse=math.log).codomain.render() == "(0.0,+inf)"
    half_line = Interval.parse("(0,inf)")
    assert GeneratorSpec(math.sqrt, half_line).codomain == generator.estimate_codomain(
        math.sqrt, half_line
    )
    # a target below the estimate escapes it instead of missing a bracket
    with pytest.raises(DomainEscapeError, match=r"^generator sum -1\.0 escapes codomain"):
        GeneratorSpec(phi=math.exp).inverse(-1.0)
    calls = []
    GeneratorSpec(calls.append, Interval.real_line(), Interval.real_line(), lambda y: y)
    assert calls == []


@pytest.mark.parametrize(
    "phi,interval,count",
    [
        # 68 steps each way, and atan is never infinite
        (math.atan, "(-inf,inf)", 1 + 68 + 68),
        # each side stops at the overflow at -2^512 and 2^512
        (lambda x: x**3 + x, "(-inf,inf)", 1 + 67 + 67),
        # float-space gallops from 0.5 toward 0 and 1, at most 64 each
        (math.log, "(0,1)", 1 + 61 + 52),
        (lambda x: x, "[0,1]", 3),
    ],
)
def test_spec_without_an_inverse_takes_its_walk_when_built(phi, interval, count):
    # one sample at the start point, plus up to 68 per infinite end and 64
    # per open finite end, all taken by the constructor; an inverse then
    # calls phi only inside a bracket between its samples
    calls = []

    def counting(x):
        calls.append(x)
        return phi(x)

    spec = GeneratorSpec(counting, Interval.parse(interval), Interval.real_line())
    assert len(calls) == count
    calls.clear()
    assert abs(spec.inverse(phi(0.7)) - 0.7) <= 1e-15
    assert calls and all(0.0 < x < 2.0 for x in calls)


def test_spec_walk_stops_at_the_first_infinite_value():
    # no finite target of a monotone phi lies past an infinite sample, so
    # a spec's walk ends there; a phi that comes back from -inf, which no
    # monotone phi does, is still searched past it on a bare interval
    def phi(x):
        return -math.inf if 100.0 <= x < 1000.0 else x

    spec = GeneratorSpec(phi, codomain=Interval.real_line())
    assert spec._walk[3][-1] == (128.0, -math.inf)
    assert invert_monotone(phi, 5000.0, Interval.real_line()) == 5000.0
    with pytest.raises(InversionError, match=r"^target 5000\.0 outside the sampled range"):
        spec.inverse(5000.0)


def test_spec_with_a_codomain_fails_on_its_walk_when_built():
    # without an inverse the walk runs whether or not a codomain is given,
    # so a NaN or an escape anywhere on it fails the constructor with the
    # estimate's message, even where no check would reach the sample; on
    # the command line that is --codomain without --phi-inv
    nan_src = "x+(exp(x)-exp(x))"
    nan = r"^generator value is nan at x=1024\.0$"
    with pytest.raises(DomainEscapeError, match=nan):
        GeneratorSpec(make_callable(parse_expr(nan_src, 1), 1), codomain=Interval.real_line())
    closed_end = (
        "generator fails at the closed end 0.0 of [0.0,1.0]: ln of non-positive 0.0"
    )
    with pytest.raises(DomainEscapeError, match=f"^{re.escape(closed_end)}$"):
        GeneratorSpec(
            make_callable(parse_expr("ln(x)", 1), 1), Interval.parse("[0,1]"),
            Interval.parse("(-inf,0]"),
        )
    for argv, message in (
        (["--phi", nan_src, "--codomain", "(-inf,inf)"], "generator value is nan at x=1024.0"),
        (["--phi", "ln(x)", "--interval", "[0,1]", "--codomain", "(-inf,0]"], closed_end),
    ):
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main(["build", *argv, "--n", "2", "--samples", "20"])
        assert (code, err.getvalue()) == (3, f"naryops: numeric failure: {message}\n")
    # given an inverse and a codomain, a spec takes no walk
    GeneratorSpec(make_callable(parse_expr(nan_src, 1), 1), codomain=Interval.real_line(),
                  phi_inverse=lambda y: y)


def test_spec_ladder_stress_across_threads():
    # more threads than cores, switching every microsecond, race to invert
    # on fresh specs from -128 to 512, sharing each spec's bracketing
    # samples and its memo of roots, the one thing a spec changes after it
    # is built; afterwards each spec answers probes in that range with
    # exactly the one-shot refinement calls, which a corrupted sample
    # would change
    calls = []

    def phi(x):
        calls.append(x)
        return x + math.exp(x) if x < 700.0 else math.inf

    specs = [GeneratorSpec(phi=phi) for _ in range(8)]
    barrier = threading.Barrier(4, timeout=10.0)

    def invert_all(k):
        for spec in specs:
            barrier.wait()
            for j in range(6):
                spec.inverse(phi(37.0 * k + 61.0 * j - 100.0))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            for future in [pool.submit(invert_all, k) for k in range(4)]:
                future.result(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    for y in (phi(-90.0), phi(-3.0), phi(1.5), phi(150.0), phi(300.0)):
        calls.clear()
        root = invert_monotone(phi, y, Interval.real_line())
        one_shot = calls[_refinement_start(calls):]
        for spec in specs:
            calls.clear()
            assert spec.inverse(y) == root
            assert calls == one_shot


def test_quintic_build_passes():
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["build", "--phi", "x^5+x", "--n", "3", "--samples", "20"])
    assert code == 0, out.getvalue()


def test_cubic_build_phi_calls_are_pinned(monkeypatch):
    # counted from outside the package, by wrapping the phi handed to
    # generator.invert_monotone; the spec took its bracketing samples when
    # it was built, and answers every sum it has solved before from its
    # memo (samples taken lazily inside invert_monotone counted 7,856
    # calls, a memo of the last inverse alone 999 inversions and 8,587
    # calls, a fresh bracket per inverse 1,200 and 16,525, bisection 51,343)
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
    assert counts["inversions"] == 913
    assert counts["phi"] == 7847


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
    spec = builtin_lookup("product", 2).generator
    f = build_aczelian(spec, 3)
    rng = random.Random(8)
    draw = lattice_sampler(f.domain, 8.0, rng)
    for _ in range(50):
        base = list(draw(3))
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
    spec = builtin_lookup("product", 2).generator
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
    spec = builtin_lookup("product", 2).generator
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


def _interpolate(xs, ys, t):
    """The polyline's value as the package computed it before its
    interpolation read each knot once."""
    if not xs[0] <= t <= xs[-1]:
        raise ValueError(f"{t!r} outside tabulated range [{xs[0]}, {xs[-1]}]")
    i = max(j for j in range(len(xs)) if xs[j] <= t)
    if i == len(xs) - 1:
        return ys[-1]
    w = (t - xs[i]) / (xs[i + 1] - xs[i])
    return ys[i] + w * (ys[i + 1] - ys[i])


@settings(max_examples=200, deadline=None)
@given(
    knots=st.lists(
        st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)), min_size=1, max_size=8,
        unique_by=lambda k: k[0],
    ),
    data=st.data(),
)
def test_piecewise_linear_matches_the_knot_by_knot_form(knots, data):
    # the same float at every t, knots, signed zeros and points outside
    # included, and the same error past either end or at NaN
    knots.sort()
    xs, ys = [x for x, _ in knots], [y for _, y in knots]
    t = data.draw(
        st.floats(-2e6, 2e6) | st.sampled_from([*xs, 0.0, -0.0, math.nan, -math.inf, math.inf])
    )
    assert _outcome(generator.piecewise_linear, xs, ys, t) == _outcome(_interpolate, xs, ys, t)


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


#: expression, domain and the codomain estimate_codomain gives it
CODOMAIN_TABLE = [
    ("sqrt(x)", "(0,inf)", "(0.0,+inf)"),
    ("x^0.1", "(0,inf)", "(0.0,+inf)"),
    ("exp(x)", "(-inf,0)", "(0.0,1.0)"),
    ("1-ln(x)", "(0,1)", "(1.0,+inf)"),
    ("ln(x)", "(0,inf)", "(-inf,+inf)"),
    ("-1/x", "(0,inf)", "(-inf,0.0)"),
    ("ln(x)", "(0,1)", "(-inf,0.0)"),
    # a closed finite end is a closed bound at phi(end)
    ("x", "[0,inf)", "[0.0,+inf)"),
    ("ln(x)", "(0,1]", "(-inf,0.0]"),
    ("x", "[0,1]", "[0.0,1.0]"),
    ("-x", "[0,inf)", "(-inf,0.0]"),
    ("exp(x)", "(-inf,0]", "(0.0,1.0]"),
    ("1-ln(x)", "[0.5,1)", "(1.0,1.6931471805599454]"),
    ("x-1", "[1,1.0000000000000002]", "[0.0,2.220446049250313e-16]"),
]


@pytest.mark.parametrize("src,interval,expected", CODOMAIN_TABLE)
def test_estimate_codomain_table(src, interval, expected):
    # every finite open end is chased to the float next to it, so a limit
    # approached slowly (sqrt at 0) settles instead of looking unbounded
    domain = Interval.parse(interval)
    phi = make_callable(parse_expr(src, 1), 1)
    xs = []

    def counting(x):
        xs.append(x)
        return phi(x)

    assert generator.estimate_codomain(counting, domain).render() == expected
    x0 = xs[0]
    for end, open_end in ((domain.lo, domain.lo_open), (domain.hi, domain.hi_open)):
        if open_end and math.isfinite(end):
            # phi calls past the start point on the side of this end
            assert sum(1 for x in xs[1:] if (x < x0) == (end < x0)) <= 64


#: the generators of the benchmark's generate workload, with their domains
BENCH_GENERATORS = [
    ("x^3+x", None), ("x+exp(x)", None), ("exp(x)", None), ("ln(x)", "(0,inf)"), ("2*x+1", None)
]


def _codomain_run(estimate, src, interval):
    """What an estimate did: the points phi was called at, in order, and
    the codomain it rendered or the error it raised."""
    phi = make_callable(parse_expr(src, 1), 1)
    xs = []

    def recording(x):
        xs.append(x)
        return phi(x)

    domain = Interval.parse(interval) if interval else Interval.real_line()
    try:
        outcome = estimate(recording, domain).render()
    except Exception as exc:
        outcome = (type(exc), str(exc))
    return [x.hex() for x in xs], outcome


@pytest.mark.parametrize(
    "src,interval",
    [(src, interval) for src, interval, _ in CODOMAIN_TABLE]
    + BENCH_GENERATORS
    + [("x+(exp(x)-exp(x))", None), ("x^3+x", "[1e300,1.7e308]"), ("-x^3-x", "[1e300,1.7e308]")]
    + [("x^2", None), ("exp(-x^2)", None), ("x^2-1", "[-1,1]")],
)
def test_codomain_chase_matches_the_ladder_walk(src, interval):
    # the plain loop calls phi where a ladder walked by generators does:
    # the start point, then the low side, then the high side
    xs, outcome = _codomain_run(generator.estimate_codomain, src, interval)
    assert (xs, outcome) == _codomain_run(inversion_oracle.estimate_codomain, src, interval)
    assert len(xs) >= 2


@pytest.mark.parametrize(
    "argv,form",
    [
        (["--phi", "x", "--interval", "[0,inf)", "--n", "3"], {"form": "pos_closed_a", "bound": 0.0}),
        (["--phi", "ln(x)", "--interval", "(0,1]"], {"form": "neg_closed_b", "bound": 0.0}),
    ],
)
def test_closed_finite_end_is_a_closed_codomain_bound(argv, form):
    # the closed end's image bounds the codomain; it used to read as an
    # end still moving, so both builds reported full_line
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(["build", *argv, "--samples", "20", "--format", "json"])
    assert code == 0
    assert json.loads(out.getvalue())["codomain_form"] == form


def test_closed_interval_codomain_is_bounded_on_both_ends():
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(["build", "--phi", "x", "--interval", "[0,1]", "--samples", "20"])
    assert code == 2
    assert "codomain [0.0,1.0] is bounded on both ends" in err.getvalue()


@pytest.mark.parametrize(
    "src,limit",
    [("x^2", "inf"), ("abs(x)", "inf"), ("x^2+1", "inf"), ("exp(-x^2)", "0.0"), ("-x^2", "-inf")],
)
def test_same_limit_at_both_ends_is_not_monotone(src, limit):
    # phi is finite at the start point and heads to one limit both ways,
    # so it turns somewhere: a numeric failure naming the limit, where the
    # estimate used to build the interval (limit, limit) and exit 2 with
    # "interval needs lo < hi"
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(["build", f"--phi={src}", "--n", "2", "--samples", "20"])
    assert code == 3
    assert err.getvalue() == (
        f"naryops: numeric failure: generator is not monotone on (-inf,+inf): "
        f"it tends to {limit} at both ends\n"
    )


def test_estimate_codomain_nan_names_the_point():
    # exp(x) - exp(x) is inf - inf = nan once exp overflows
    phi = make_callable(parse_expr("x+(exp(x)-exp(x))", 1), 1)
    with pytest.raises(DomainEscapeError, match=r"generator value is nan at x=1024\.0"):
        generator.estimate_codomain(phi, Interval.real_line())


def test_escape_at_a_closed_end_names_the_end():
    # ln raises at the closed end 0, which the codomain estimate samples;
    # the message names that end and the interval, not just the ln
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(["build", "--phi", "ln(x)", "--interval", "[0,1]"])
    assert code == 3
    assert err.getvalue() == (
        "naryops: numeric failure: generator fails at the closed end 0.0 of [0.0,1.0]: "
        "ln of non-positive 0.0\n"
    )


@pytest.mark.parametrize(
    "command,expected",
    [("build", '"form": "pos_open_a"'), ("reduce", '"neutral_adjoined": true')],
)
def test_sqrt_generator_has_a_half_line_codomain(command, expected):
    # at 0 the image of sqrt ends at 0, so the codomain is (0,+inf) and
    # reduce adjoins the neutral element instead of inverting 0
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(
            [command, "--phi", "sqrt(x)", "--interval", "(0,inf)", "--n", "2",
             "--samples", "20", "--format", "json"]
        )
    assert code == 0
    assert expected in out.getvalue()
    if command == "build":
        assert '"bound": 0.0' in out.getvalue()


def test_nan_generator_value_exits_three():
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(["build", "--phi", "x+(exp(x)-exp(x))", "--n", "2", "--samples", "20"])
    assert code == 3
    assert "numeric failure: generator value is nan at x=1024.0" in err.getvalue()


@pytest.mark.parametrize("src, infinity", [("x^3+x", "inf"), ("-x^3-x", "-inf")])
def test_generator_overflowing_everywhere_exits_three(src, infinity):
    # phi overflows on all of [1e300, 1.7e308], so its image has no finite
    # end to estimate: a numeric failure, where estimate_codomain used to
    # build the interval (inf, inf) and exit 2 with "interval needs lo < hi"
    with pytest.raises(DomainEscapeError, match=f"generator value is {infinity} at every sample"):
        generator.estimate_codomain(make_callable(parse_expr(src, 1), 1), Interval.parse("[1e300,1.7e308]"))
    err = io.StringIO()
    argv = ["build", f"--phi={src}", "--interval", "[1e300,1.7e308]", "--n", "2", "--samples", "5"]
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        assert main(argv) == 3
    assert err.getvalue() == (
        f"naryops: numeric failure: generator value is {infinity} at every sample of [1e+300,1.7e+308]\n"
    )
