import io
import math
import random
from collections import Counter
from contextlib import redirect_stdout

import pytest

from naryops import extension, extraction
from naryops.cli import main
from naryops.core import Interval, NaryOp, builtin_lookup
from naryops.errors import (
    AllIdempotentError,
    ArityClassError,
    BracketNotFoundError,
    DomainEscapeError,
    MonotonicityViolationError,
    PrecisionExhaustedError,
)
from naryops.extension import ExtendedOp
from naryops.extraction import (
    BranchDirection,
    ExtractedGenerator,
    ExtractionConfig,
    MembershipOutcome,
    RationalIndex,
    compare_scales,
    detect_open_end,
    extract_generator,
    phi_at,
    rational_grid,
    select_base_point,
    sx_membership,
    verify_additivity,
)

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
    idx = RationalIndex(5, 2, 3)
    assert idx.scaled(3, 3).value == idx.value
    assert idx.scaled(3, 3) == RationalIndex(15, 6, 9)
    assert idx.shifted(4, 3).value == (9 - 6) / 3
    assert idx.shifted(4, 3) == RationalIndex(9, 6, 3)


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


# --- base point and open ends -----------------------------------------------


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


def test_detect_open_end_sum():
    # x_m = m + 1 for the pairwise sum from c = 1
    rep = detect_open_end(SUM2, 1.0, BranchDirection.C_BELOW, steps=20)
    assert rep.last_value == 21.0
    assert rep.strictly_monotone


def test_detect_open_end_descending():
    bp = builtin_lookup("bounded_product", 2)
    rep = detect_open_end(bp, 0.5, BranchDirection.C_ABOVE, steps=20)
    assert rep.last_value == 0.5**21
    assert rep.strictly_monotone


def test_detect_open_end_closed_endpoint_violation():
    f = NaryOp(2, Interval.parse("[0,1]"), lambda x, y: x + y, "sum on [0,1]")
    with pytest.raises(DomainEscapeError):
        detect_open_end(f, 0.3, BranchDirection.C_BELOW, steps=5)


def test_detect_open_end_monotonicity_violation():
    f = NaryOp(2, Interval.real_line(), lambda x, y: x * 0.5, "shrink")
    with pytest.raises(MonotonicityViolationError):
        detect_open_end(f, 1.0, BranchDirection.C_BELOW, steps=5)


# --- per-point estimation ----------------------------------------------------


def test_phi_at_sum_is_exact_on_grid_rationals():
    g = ExtendedOp(SUM2)
    cfg = ExtractionConfig(resolution=1.0 / 64.0)
    est = phi_at(g, 1.0, 1.5, BranchDirection.C_BELOW, cfg)
    assert est.value == 1.5 and est.pinned
    est = phi_at(g, 1.0, -2.0, BranchDirection.C_BELOW, cfg)
    assert est.value == -2.0


def test_phi_at_product_log_oracle():
    g = ExtendedOp(PRODUCT3)
    cfg = ExtractionConfig(resolution=2.0 / 129.0)
    est = phi_at(g, 2.0, 8.0, BranchDirection.C_BELOW, cfg)
    assert abs(est.value - 3.0) <= 2.0 / 129.0
    est = phi_at(g, 2.0, 3.0, BranchDirection.C_BELOW, cfg)
    assert abs(est.value - math.log2(3.0)) <= 2.0 / 129.0 + 1e-12


def test_phi_at_base_point_is_one():
    for f in (SUM2, SUM3, PRODUCT2, PRODUCT3):
        g = ExtendedOp(f)
        c = 2.0 if "product" in f.label else 1.0
        est = phi_at(g, c, c, BranchDirection.C_BELOW, ExtractionConfig())
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


def test_extraction_overflow_is_precision_exhausted():
    cfg = ExtractionConfig(base_point=2.0, grid=(1e6,), resolution=1 / 64)
    with pytest.raises(PrecisionExhaustedError):
        extract_generator(PRODUCT2, cfg)


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
        alt = idx.scaled(kappa, 3)
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
        band=gen.band,
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
    # phi_at calls
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
    # the first comparison, then 61 doublings that never see the other outcome
    counts = _count_memberships(monkeypatch)
    g = _ConstantStrings(pure, mixed)
    with pytest.raises(BracketNotFoundError) as exc:
        phi_at(g, 1.0, 0.5, BranchDirection.C_BELOW, ExtractionConfig())
    assert str(exc.value) == f"no {missing} outcome after 61 doublings at x=0.5"
    assert counts["memberships"] == 62


def test_reference_extraction_work_is_pinned(monkeypatch):
    counts = _count_memberships(monkeypatch)
    power = extension.ExtendedOp.power

    def counting_power(self, c, p):
        counts["power"] += 1
        return power(self, c, p)

    monkeypatch.setattr(extension.ExtendedOp, "power", counting_power)
    argv = ["extract", "--op", "sum", "--n", "2", "--c", "1", "--grid=-2:2:0.25",
            "--resolution", "0.0009765625"]
    with redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    assert counts["memberships"] == 366
    # one per pure-c string, plus one per mixed string without a tail or
    # with a new cache entry; building the entry on every call took 732
    assert counts["power"] == 554
