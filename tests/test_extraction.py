import dataclasses
import functools
import io
import math
import random
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from naryops import core, extraction
from naryops.cli import load_generator, main
from naryops.core import builtin_lookup
from naryops.errors import (
    AllIdempotentError,
    ArityClassError,
    BracketNotFoundError,
    PrecisionExhaustedError,
)
from naryops.extension import ExtendedOp, MembershipOutcome, RationalIndex
from naryops.extraction import (
    BranchDirection,
    ExtractedGenerator,
    ExtractionConfig,
    extract_generator,
    select_base_point,
    sx_membership,
    verify_additivity,
)
from naryops.generator import build_aczelian
from scale_oracle import compare_scales
from string_oracle import class_ceil, phi_at as string_phi_at, rational_grid

SUM2 = builtin_lookup("sum", 2)
SUM3 = builtin_lookup("sum", 3)
PRODUCT2 = builtin_lookup("product", 2)
PRODUCT3 = builtin_lookup("product", 3)


def grid(lo, hi, step):
    out = []
    v = lo
    while v <= hi + step / 2:
        out.append(v)
        v += step
    return tuple(out)


# --- rational indexing ------------------------------------------------------


def test_rational_index_invariants():
    idx = RationalIndex(5, 2, 3)
    assert idx.value == 1.0
    assert idx.admissible(3)
    assert not RationalIndex(4, 2, 3).admissible(3)  # p even
    assert not RationalIndex(5, 1, 3).admissible(3)  # q odd
    assert not RationalIndex(5, 2, 2).admissible(3)  # k even
    with pytest.raises(ValueError):
        RationalIndex(0, 0, 1)
    with pytest.raises(ArityClassError):
        RationalIndex(4, 2, 3).require_admissible(3)


def test_rational_index_rewrites_preserve_value():
    # every part scaled by an admissible factor, or j = 0 (mod n-1) added
    # to both p and q
    idx = RationalIndex(5, 2, 3)
    assert RationalIndex(15, 6, 9).value == idx.value
    assert RationalIndex(15, 6, 9).admissible(3)
    assert RationalIndex(9, 6, 3).value == idx.value
    assert RationalIndex(9, 6, 3).admissible(3)


def test_class_ceil():
    assert class_ceil(3, 8) == 9
    assert class_ceil(3, 9) == 9
    assert class_ceil(3, 1) == 1
    assert class_ceil(3, -5) == 1
    assert class_ceil(2, 17) == 17


def test_rational_grid_known_values():
    idx = rational_grid(3, 1.0, 0.1)
    assert (idx.p, idx.q, idx.k) == (21, 0, 21)
    assert idx.value == 1.0
    idx = rational_grid(2, -0.3, 0.01)
    assert (idx.p, idx.q, idx.k) == (1, 31, 100)
    assert idx.value == -0.3


def test_rational_grid_coarse():
    idx = rational_grid(3, 0.0, 1.0)
    assert idx.admissible(3)
    assert abs(idx.value - 0.0) <= 1.0
    assert (3 - 1) / idx.k <= 1.0


def test_rational_grid_accuracy_property():
    rng = random.Random(42)
    for _ in range(500):
        n = rng.randint(2, 5)
        target = rng.uniform(-20.0, 20.0)
        resolution = 10.0 ** rng.uniform(-3, 0)
        idx = rational_grid(n, target, resolution)
        assert idx.admissible(n)
        assert (n - 1) / idx.k <= resolution
        assert abs(idx.value - target) <= resolution


# --- membership -------------------------------------------------------------


def test_membership_examples():
    g = ExtendedOp(SUM2)
    below = BranchDirection.C_BELOW
    # closed forms: g(c^p) = p and g(x^k c^q) = k*x + q at c = 1
    assert (
        sx_membership(g, 1.0, 0.5, RationalIndex(3, 2, 1), below)
        is MembershipOutcome.IN
    )
    assert (
        sx_membership(g, 1.0, 2.0, RationalIndex(2, 1, 1), below)
        is MembershipOutcome.OUT
    )
    assert (
        sx_membership(g, 1.0, 1.0, RationalIndex(2, 1, 1), below)
        is MembershipOutcome.UNDETERMINED
    )


def test_membership_requires_admissible_index():
    g = ExtendedOp(builtin_lookup("sum", 3))
    with pytest.raises(ArityClassError):
        sx_membership(g, 1.0, 0.5, RationalIndex(2, 0, 1), BranchDirection.C_BELOW)


def test_membership_overflow_reports_index():
    g = ExtendedOp(PRODUCT2)
    with pytest.raises(PrecisionExhaustedError) as exc:
        sx_membership(
            g, 2.0, 1e6, RationalIndex(1, 0, 512), BranchDirection.C_BELOW
        )
    assert exc.value.k == 512


def test_membership_mirrored_branch():
    g = ExtendedOp(SUM2)
    above = BranchDirection.C_ABOVE
    # c = -1: g(c^p) = -p, g(x^k c^q) = k*x - q; membership means strictly below
    assert (
        sx_membership(g, -1.0, 2.0, RationalIndex(1, 0, 1), above)
        is MembershipOutcome.IN
    )
    assert (
        sx_membership(g, -1.0, -2.0, RationalIndex(1, 0, 1), above)
        is MembershipOutcome.OUT
    )


# --- base point and units ----------------------------------------------------


def test_select_base_point_explicit():
    c, d = select_base_point(SUM2, ExtractionConfig(base_point=1.0))
    assert (c, d) == (1.0, BranchDirection.C_BELOW)
    c, d = select_base_point(PRODUCT3, ExtractionConfig(base_point=2.0))
    assert (c, d) == (2.0, BranchDirection.C_BELOW)
    c, d = select_base_point(SUM2, ExtractionConfig(base_point=-1.0))
    assert (c, d) == (-1.0, BranchDirection.C_ABOVE)


def test_select_base_point_scan_maximizes_displacement():
    c, d = select_base_point(SUM2, ExtractionConfig())
    assert abs(c) == 10.0


def test_select_base_point_rejects_idempotent_field():
    with pytest.raises(AllIdempotentError):
        select_base_point(builtin_lookup("alternating", 3), ExtractionConfig())
    with pytest.raises(AllIdempotentError):
        select_base_point(SUM2, ExtractionConfig(base_point=0.0))


def test_select_base_point_outside_domain():
    with pytest.raises(ValueError):
        select_base_point(PRODUCT2, ExtractionConfig(base_point=-3.0))


def test_stalled_units_exit_three():
    # U_{j+1} = f(U_j, U_j) climbs from c = 1 toward the idempotent 4 of
    # x + y - xy/4 and stalls there in floats
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(["extract", "--op", "expr:x1+x2-x1*x2/4", "--c", "1", "--grid", "1,5"])
    assert code == 3
    assert err.getvalue() == "naryops: numeric failure: U_9 = 4.0 is not past 4.0\n"


# --- per-point estimation ----------------------------------------------------


def estimate(f, c, x, resolution=1.0 / 64.0):
    """The PhiEstimate that extraction makes at x, normalized at c."""
    gen = extract_generator(f, ExtractionConfig(base_point=c, grid=(x,), resolution=resolution))
    return next(e for e in gen.estimates if e.x == x)


def test_phi_at_sum_is_exact_on_grid_rationals():
    est = estimate(SUM2, 1.0, 1.5)
    assert est.value == 1.5 and est.pinned
    est = estimate(SUM2, 1.0, -2.0)
    assert est.value == -2.0


def test_phi_at_product_log_oracle():
    est = estimate(PRODUCT3, 2.0, 8.0, 2.0 / 129.0)
    assert abs(est.value - 3.0) <= 2.0 / 129.0
    est = estimate(PRODUCT3, 2.0, 3.0, 2.0 / 129.0)
    assert abs(est.value - math.log2(3.0)) <= 2.0 / 129.0 + 1e-12


def test_phi_at_base_point_is_one():
    for f in (SUM2, SUM3, PRODUCT2, PRODUCT3):
        c = 2.0 if "product" in f.label else 1.0
        est = estimate(f, c, c)
        assert est.value == 1.0 and est.pinned


# --- full extraction ---------------------------------------------------------


def test_extract_sum_identity_table():
    cfg = ExtractionConfig(base_point=1.0, grid=grid(-2.0, 2.0, 0.5), resolution=1 / 64)
    gen = extract_generator(SUM2, cfg)
    assert gen.direction is BranchDirection.C_BELOW
    assert gen.normalization == 1.0
    for x, v in gen.samples:
        assert abs(v - x) <= 1.0 / 64.0
    assert gen.interpolate(1.0) == 1.0


def test_extract_mirrored_branch_negates():
    cfg = ExtractionConfig(base_point=-1.0, grid=grid(-2.0, 2.0, 0.5), resolution=1 / 64)
    gen = extract_generator(SUM2, cfg)
    assert gen.direction is BranchDirection.C_ABOVE
    assert gen.normalization == -1.0
    assert gen.interpolate(-1.0) == -1.0
    values = gen.phi_values
    assert all(a < b for a, b in zip(values, values[1:]))
    for x, v in gen.samples:
        assert abs(v - x) <= 1.0 / 64.0


def test_extract_product_log_table():
    cfg = ExtractionConfig(
        base_point=2.0, grid=(0.5, 1.0, 2.0, 4.0, 8.0), resolution=0.02
    )
    gen = extract_generator(PRODUCT2, cfg)
    for x, v in gen.samples:
        assert abs(v - math.log2(x)) <= 0.02


def test_extract_bounded_product_mirrored_log():
    # products below one shrink, so the base point sits above its own
    # square and the mirrored branch runs; the recovered generator is
    # still the increasing base-2 logarithm
    bp = builtin_lookup("bounded_product", 2)
    cfg = ExtractionConfig(
        base_point=0.5, grid=(0.125, 0.25, 0.5, 0.75), resolution=1 / 64
    )
    gen = extract_generator(bp, cfg)
    assert gen.direction is BranchDirection.C_ABOVE
    assert gen.normalization == -1.0
    for x, v in gen.samples:
        assert abs(v - math.log2(x)) <= 1.0 / 64.0 + 1e-9


def test_extract_black_box_cube_generator():
    # the operation is built from a generator with no closed-form inverse,
    # so every evaluation runs through bisection; the comparison band has
    # to absorb that noise without losing the equality cases
    from naryops.generator import GeneratorSpec, build_aczelian

    spec = GeneratorSpec(phi=lambda t: t**3, label="cube")
    f = build_aczelian(spec, 2)
    cfg = ExtractionConfig(
        base_point=1.0, grid=(0.0, 0.5, 1.0, 1.25), resolution=1 / 64
    )
    gen = extract_generator(f, cfg)
    for x, v in gen.samples:
        assert abs(v - x**3) <= 1.0 / 64.0 + 1e-6


def test_extract_translated_sum_shifted_generator():
    # the generator normalized to 1 at the base point c = 1 is (x+1)/2
    f = builtin_lookup("translated_sum", 2)
    cfg = ExtractionConfig(base_point=1.0, grid=grid(-2.0, 2.0, 0.5), resolution=1 / 64)
    gen = extract_generator(f, cfg)
    for x, v in gen.samples:
        assert abs(v - (x + 1.0) / 2.0) <= 1.0 / 64.0
    rep = verify_additivity(gen, f, samples=100, seed=9)
    assert rep.passed, rep


def test_extract_includes_base_point_sample():
    cfg = ExtractionConfig(base_point=1.0, grid=(-1.0, 0.5), resolution=1 / 16)
    gen = extract_generator(SUM2, cfg)
    assert 1.0 in gen.x_values
    assert gen.interpolate(1.0) == gen.normalization == 1.0


def test_extract_rejects_offgrid_domain_points():
    cfg = ExtractionConfig(base_point=2.0, grid=(-1.0, 2.0), resolution=0.02)
    with pytest.raises(ValueError):
        extract_generator(PRODUCT2, cfg)


def test_bounded_product_reaches_units_next_to_one():
    # the units below c = 0.5 approach the open end 1 within one float
    with redirect_stdout(io.StringIO()):
        code = main(
            ["extract", "--op", "bounded_product", "--n", "2", "--c", "0.5",
             "--grid", "0.1,0.3,0.7,0.9", "--resolution", "1e-300"]
        )
    assert code == 0


def test_neighbouring_floats_extract_below_float_precision():
    # the walks of neighbouring points round apart by a few ulps, which the
    # monotonicity check must not read as a regression
    f = build_aczelian(load_generator("x^3+x", None, None), 3)
    x = 0.6171807908182833
    grid = tuple(x + k * math.ulp(x) for k in range(4))
    gen = extract_generator(f, ExtractionConfig(base_point=1.0, grid=grid, resolution=1e-300))
    assert [v for v, _ in gen.samples] == sorted(grid + (1.0,))


def test_extraction_far_points_stay_in_the_float_range():
    # the units 2^(2^j) overflow past 2^1024, beyond the target 1e200: an
    # overflow past the target counts as passing it
    for x in (1e6, 1e200):
        cfg = ExtractionConfig(base_point=2.0, grid=(x,), resolution=1 / 64)
        gen = extract_generator(PRODUCT2, cfg)
        (v, est), = [(v, e) for (t, v), e in zip(gen.samples, gen.estimates) if t == x]
        floor = FLOOR_ULPS * (est.evaluations + 1) * math.ulp(math.log2(x))
        assert abs(v - math.log2(x)) <= est.half_width + floor


# --- membership structure probes ---------------------------------------------


def test_upper_set_property_small():
    rng = random.Random(7)
    g = ExtendedOp(SUM2)
    for _ in range(500):
        x = rng.uniform(-3.0, 3.0)
        k = rng.randint(1, 20)
        q = rng.randint(0, 20)
        p = rng.randint(1, 40)
        lower = RationalIndex(p, q, k)
        higher = RationalIndex(p + rng.randint(1, 10), q, k)
        o1 = sx_membership(g, 1.0, x, lower, BranchDirection.C_BELOW)
        o2 = sx_membership(g, 1.0, x, higher, BranchDirection.C_BELOW)
        if o1 is MembershipOutcome.IN:
            assert o2 is not MembershipOutcome.OUT


def test_representation_independence_small():
    rng = random.Random(8)
    g = ExtendedOp(PRODUCT3)
    for _ in range(300):
        x = rng.uniform(0.25, 4.0)
        k = 1 + 2 * rng.randint(0, 6)
        q = 2 * rng.randint(0, 6)
        p = 1 + 2 * rng.randint(0, 10)
        idx = RationalIndex(p, q, k)
        kappa = 1 + 2 * rng.randint(1, 3)
        alt = RationalIndex(p * kappa, q * kappa, k * kappa)
        o1 = sx_membership(g, 2.0, x, idx, BranchDirection.C_BELOW)
        o2 = sx_membership(g, 2.0, x, alt, BranchDirection.C_BELOW)
        und = MembershipOutcome.UNDETERMINED
        if o1 is not und and o2 is not und:
            assert o1 is o2


# --- additivity and scale comparisons ----------------------------------------


def test_verify_additivity_sum():
    cfg = ExtractionConfig(base_point=1.0, grid=grid(-2.0, 2.0, 0.5), resolution=1 / 64)
    gen = extract_generator(SUM2, cfg)
    rep = verify_additivity(gen, SUM2, samples=100, seed=5)
    assert rep.passed, rep


def test_verify_additivity_product():
    cfg = ExtractionConfig(
        base_point=2.0, grid=(0.5, 1.0, 2.0, 4.0, 8.0), resolution=0.02
    )
    gen = extract_generator(PRODUCT3, cfg)
    rep = verify_additivity(gen, PRODUCT3, samples=100, seed=6)
    assert rep.passed, rep


def test_verify_additivity_rejects_corruption():
    cfg = ExtractionConfig(base_point=1.0, grid=grid(-2.0, 2.0, 0.5), resolution=1 / 64)
    gen = extract_generator(SUM2, cfg)
    bound = 3 * (gen.resolution_bound + gen.interp_slack) + 1e-3
    corrupted = list(gen.samples)
    idx = len(corrupted) // 2
    corrupted[idx] = (corrupted[idx][0], corrupted[idx][1] + 10.0 * bound)
    bad = ExtractedGenerator(
        samples=tuple(corrupted),
        c=gen.c,
        direction=gen.direction,
        resolution_bound=gen.resolution_bound,
        normalization=gen.normalization,
        realized_resolution=gen.realized_resolution,
        interp_slack=gen.interp_slack,
    )
    rep = verify_additivity(bad, SUM2, samples=100, seed=7)
    assert not rep.passed
    assert rep.witness is not None


def test_compare_scales_sum():
    g = grid(-2.0, 2.0, 0.5)
    gen1 = extract_generator(SUM2, ExtractionConfig(base_point=1.0, grid=g, resolution=1 / 64))
    gen2 = extract_generator(SUM2, ExtractionConfig(base_point=2.0, grid=g, resolution=1 / 64))
    rep = compare_scales(gen1, gen2, g, spread_tol=0.05)
    assert rep.passed
    assert abs(rep.mean_ratio - 2.0) <= 0.01


def test_compare_scales_product_base_change():
    g = (0.5, 1.0, 2.0, 4.0, 8.0)
    gen1 = extract_generator(PRODUCT2, ExtractionConfig(base_point=2.0, grid=g, resolution=0.02))
    gen2 = extract_generator(PRODUCT2, ExtractionConfig(base_point=4.0, grid=g, resolution=0.02))
    rep = compare_scales(gen1, gen2, g, spread_tol=0.05)
    assert rep.passed
    assert abs(rep.mean_ratio - 2.0) <= 0.05


def test_compare_scales_same_run_is_unity():
    g = grid(-2.0, 2.0, 0.5)
    gen = extract_generator(SUM2, ExtractionConfig(base_point=1.0, grid=g, resolution=1 / 64))
    rep = compare_scales(gen, gen, g)
    assert rep.passed and rep.mean_ratio == 1.0 and rep.spread == 0.0


def test_compare_scales_needs_points_away_from_zero():
    g = (-0.01, 0.0, 0.01)
    gen1 = extract_generator(SUM2, ExtractionConfig(base_point=1.0, grid=g, resolution=1 / 8))
    gen2 = extract_generator(SUM2, ExtractionConfig(base_point=1.0, grid=g, resolution=1 / 8))
    with pytest.raises(ValueError):
        compare_scales(gen1, gen2, (-0.01, 0.0, 0.01))


def test_roundtrip_rebuild_matches_original():
    from naryops.generator import build_aczelian

    cfg = ExtractionConfig(base_point=1.0, grid=grid(-2.0, 2.0, 0.4), resolution=1 / 64)
    gen = extract_generator(SUM2, cfg)
    rebuilt = build_aczelian(gen.as_generator_spec(), 2)
    rng = random.Random(11)
    slope = gen.max_inverse_slope()
    bound = 10.0 * max(gen.resolution_bound, gen.realized_resolution / 2) * slope + 1e-9
    checked = 0
    while checked < 100:
        x, y = rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)
        s = gen.interpolate(x) + gen.interpolate(y)
        if not gen.phi_values[0] <= s <= gen.phi_values[-1]:
            continue
        checked += 1
        assert abs(rebuilt.eval(x, y) - SUM2.eval(x, y)) <= bound


class _ConstantStrings:
    """Stands in for ExtendedOp: every pure-c string evaluates to ``pure``
    and every mixed string to ``mixed``, so each comparison has the same
    outcome."""

    base = SUM2

    def __init__(self, pure, mixed):
        self.pure, self.mixed = pure, mixed

    def power(self, c, p):
        return self.pure

    def string_power(self, x, k, c, q):
        return self.mixed


def _count_memberships(monkeypatch):
    # counted from outside the package, through the module global that
    # the string search calls
    counts = Counter()
    membership = extraction.sx_membership

    def counting(*args):
        counts["memberships"] += 1
        return membership(*args)

    monkeypatch.setattr(extraction, "sx_membership", counting)
    return counts


@pytest.mark.parametrize(
    "pure, mixed, missing", [(2.0, 1.0, "Out"), (1.0, 2.0, "In")], ids=["always_in", "always_out"]
)
def test_phi_at_doubling_cap(monkeypatch, pure, mixed, missing):
    # the string oracle: the first comparison, then 61 doublings that never
    # see the other outcome
    counts = _count_memberships(monkeypatch)
    g = _ConstantStrings(pure, mixed)
    with pytest.raises(BracketNotFoundError) as exc:
        string_phi_at(g, 1.0, 0.5, BranchDirection.C_BELOW, ExtractionConfig())
    assert str(exc.value) == f"no {missing} outcome after 61 doublings at x=0.5"
    assert counts["memberships"] == 62


def _count_evaluations(monkeypatch, argv):
    """Op evaluations of one CLI run, counted from outside the package:
    per grid point, those of its unit walk and those that built units on
    the way (checked evaluations inside phi_at, less the walk's)."""
    calls = Counter()
    checked, phi_at = core.NaryOp.checked, extraction.phi_at

    def counting_checked(self, *xs):
        calls["checked"] += 1
        return checked(self, *xs)

    def counting_phi_at(units, x):
        before = calls["checked"]
        est = phi_at(units, x)
        walks.append(est.evaluations)
        calls["units"] += calls["checked"] - before - est.evaluations
        return est

    walks = []
    monkeypatch.setattr(core.NaryOp, "checked", counting_checked)
    monkeypatch.setattr(extraction, "phi_at", counting_phi_at)
    with redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    return walks, calls["units"]


REFERENCE = ["extract", "--op", "sum", "--n", "2", "--c", "1", "--grid=-2:2:0.25"]


def test_reference_extraction_work_is_pinned(monkeypatch):
    # the string search made 366 comparisons of power strings here, and
    # 2,077 op evaluations per point; every point of this grid is pinned
    walks, units = _count_evaluations(monkeypatch, REFERENCE + ["--resolution", "0.0009765625"])
    assert walks == [2, 5, 4, 5, 3, 5, 4, 5, 1, 3, 2, 3, 0, 3, 2, 3, 1]
    assert units == 19


@pytest.mark.parametrize("n, walked, most, units", [("2", 51, 5, 19), ("3", 855, 70, 297)])
def test_extraction_at_1e_300_is_bounded(monkeypatch, n, walked, most, units):
    # below float precision a walk stops where a step no longer moves y,
    # so 1e-300 costs what 1e-16 costs
    argv = ["extract", "--op", "sum", "--n", n, "--c", "1", "--grid=-2:2:0.25", "--resolution", "1e-300"]
    t0 = time.perf_counter()
    with redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    assert time.perf_counter() - t0 < 0.1
    walks, built = _count_evaluations(monkeypatch, argv)
    assert (sum(walks), max(walks), built) == (walked, most, units)


# --- the oracle property -------------------------------------------------------

#: closed-form fixtures: the operation at arity n, the increasing
#: generator, and strategies for the base point and the grid points
FIXTURES = {
    "sum": (
        lambda n: builtin_lookup("sum", n), lambda n: (lambda x: x),
        st.floats(0.5, 2.0) | st.floats(-2.0, -0.5), st.floats(-4.0, 4.0),
    ),
    "product": (
        lambda n: builtin_lookup("product", n), lambda n: math.log,
        st.floats(0.2, 0.6) | st.floats(1.6, 5.0), st.floats(0.05, 20.0),
    ),
    "translated_sum": (
        lambda n: builtin_lookup("translated_sum", n), lambda n: (lambda x: x + 1.0 / (n - 1)),
        st.floats(0.5, 2.0) | st.floats(-3.0, -1.5), st.floats(-4.0, 4.0),
    ),
    "bounded_product": (
        lambda n: builtin_lookup("bounded_product", n), lambda n: math.log,
        st.just(0.5), st.floats(0.001, 0.999),
    ),
    "x^3+x": (
        lambda n: build_aczelian(load_generator("x^3+x", None, None), n),
        lambda n: (lambda x: x**3 + x),
        st.floats(0.5, 1.5) | st.floats(-1.5, -0.5), st.floats(-2.0, 2.0),
    ),
}

#: the precision floor, in ulps of max(1, |psi(x)|) per op evaluation of
#: the walk (a walk spans from c, where psi is 1, to x): each step rounds
#: once, within the few ulps of its numeric inverse for x^3+x, and uses a
#: unit that carries the rounding of its own root. On 1,800 random cases
#: the largest excess was 2.4 ulps per evaluation, 127 ulps in all.
FLOOR_ULPS = 4


@settings(max_examples=100, deadline=None)
@given(
    name=st.sampled_from(sorted(FIXTURES)),
    n=st.integers(2, 5),
    resolution=st.sampled_from([1 / 16, 1 / 64, 1 / 1024]) | st.floats(-300.0, -1.2).map(lambda e: 10.0**e),
    data=st.data(),
)
def test_extracted_values_lie_within_their_half_width(name, n, resolution, data):
    make, generator_of, base_points, points = FIXTURES[name]
    f, phi = make(n), generator_of(n)
    c = data.draw(base_points)
    grid = tuple(data.draw(st.lists(points, min_size=1, max_size=3)))
    gen = extract_generator(f, ExtractionConfig(base_point=c, grid=grid, resolution=resolution))
    scale = abs(phi(c))
    assert gen.resolution_bound == max(e.half_width for e in gen.estimates)
    for (x, v), est in zip(gen.samples, gen.estimates):
        psi = phi(x) / scale
        floor = FLOOR_ULPS * (est.evaluations + 1) * math.ulp(max(1.0, abs(psi)))
        assert abs(v - psi) <= est.half_width + floor, (x, v, psi, est)
    # the string search agrees within the summed half-widths where it runs:
    # its strings grow as 1/resolution, and on the products they leave the
    # float range or lose precision among subnormal values
    if resolution < 1 / 1024 or "product" in name:
        return
    # each comparison folds its strings afresh, over prefixes the earlier
    # ones folded; a memo of the base operation makes a repeated prefix a
    # lookup, where x^3+x would otherwise pay a numeric inverse per step
    g = ExtendedOp(dataclasses.replace(f, eval=functools.cache(f.eval)))
    for (x, v), est in zip(gen.samples, gen.estimates):
        ref = string_phi_at(g, gen.c, x, gen.direction, ExtractionConfig(resolution=resolution))
        floor = FLOOR_ULPS * (est.evaluations + 1) * math.ulp(max(1.0, abs(v)))
        assert abs(v - gen.normalization * ref.value) <= est.half_width + ref.half_width + floor


def test_tied_extracted_values_exit_three():
    # 0.3 and 0.3001 share the walk value 0.3046875 at resolution 1/64;
    # extract accepts the tie, but the table has no inverse to rebuild with
    args = ["--op", "sum", "--n", "2", "--c", "1", "--grid=-1,0.3,0.3001", "--resolution", "0.015625"]
    with redirect_stdout(io.StringIO()):
        assert main(["extract", *args]) == 0
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(["roundtrip", *args])
    assert code == 3
    assert (
        "numeric failure: extracted values 0.3046875 at 0.3 and 0.3046875 at 0.3001 do not increase"
        in err.getvalue()
    )
