"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (run pytest with -s or read the
captured output) and then asserts, so the suite is both a report and a
gate. Tolerances are pinned here, not configurable.
"""

import json
import math
import random
import time

import pytest

from naryops.axioms import (
    check_associativity,
    check_cancellativity,
    check_symmetry,
    falsify,
    find_idempotents,
    lattice_sampler,
)
from naryops.cli import RunConfig, main, run
from naryops.core import Interval, NaryOp, builtin_lookup
from naryops.errors import AllIdempotentError
from naryops.extension import (
    ExtendedOp,
    MembershipOutcome,
    RationalIndex,
    nested_trials,
    random_nested_decomposition,
    random_split_blocks,
    split_trials,
)
from naryops.extraction import (
    BranchDirection,
    ExtractionConfig,
    extract_generator,
    select_base_point,
    sx_membership,
    verify_additivity,
)
from naryops.generator import GeneratorSpec
from naryops.reducibility import adjoin_neutral
from scale_oracle import compare_scales

BAND = 1e-9


def report(criterion: int, passed: bool, detail: str = ""):
    tag = "PASS" if passed else "FAIL"
    print(f"[acceptance] criterion {criterion:2d}: {tag} {detail}")


def grid(lo, hi, step):
    out = []
    v = lo
    while v <= hi + step / 2:
        out.append(v)
        v += step
    return tuple(out)


def test_criterion_1_additive_extraction_oracle():
    t0 = time.perf_counter()
    bound = 1.0 / 64.0 + 2.0 * BAND
    worst = 0.0
    for n in (2, 3):
        f = builtin_lookup("sum", n)
        cfg = ExtractionConfig(
            base_point=1.0,
            grid=grid(-2.0, 2.0, 0.5),
            resolution=1.0 / 64.0,
        )
        gen = extract_generator(f, cfg)
        for x, v in gen.samples:
            worst = max(worst, abs(v - x))
    elapsed = time.perf_counter() - t0
    # membership oracle: c = 1 makes membership equivalent to (p-q)/k > x
    g = ExtendedOp(builtin_lookup("sum", 2))
    rng = random.Random(101)
    oracle_ok = True
    for _ in range(300):
        x = rng.uniform(-2.0, 2.0)
        idx = RationalIndex(rng.randint(1, 40), rng.randint(0, 40), rng.randint(1, 30))
        got = sx_membership(g, 1.0, x, idx, BranchDirection.C_BELOW, BAND)
        if got is MembershipOutcome.UNDETERMINED:
            continue
        expected = MembershipOutcome.IN if idx.value > x else MembershipOutcome.OUT
        oracle_ok &= got is expected
    passed = worst <= bound and elapsed < 5.0 and oracle_ok
    report(1, passed, f"max|phi-x|={worst:.2e} bound={bound:.2e} time={elapsed:.2f}s")
    assert worst <= bound
    assert elapsed < 5.0
    assert oracle_ok


def test_criterion_2_multiplicative_extraction_oracle():
    t0 = time.perf_counter()
    resolution = 0.02
    worst = 0.0
    for n in (2, 3):
        f = builtin_lookup("product", n)
        cfg = ExtractionConfig(
            base_point=2.0,
            grid=(0.5, 1.0, 2.0, 4.0, 8.0),
            resolution=resolution,
        )
        gen = extract_generator(f, cfg)
        for x, v in gen.samples:
            worst = max(worst, abs(v - math.log2(x)))
    elapsed = time.perf_counter() - t0
    # membership oracle at c = 2: (p-q)/k > log2(x)
    g = ExtendedOp(builtin_lookup("product", 3))
    rng = random.Random(202)
    oracle_ok = True
    for _ in range(300):
        x = rng.uniform(0.3, 6.0)
        idx = RationalIndex(
            1 + 2 * rng.randint(0, 20), 2 * rng.randint(0, 15), 1 + 2 * rng.randint(0, 10)
        )
        got = sx_membership(g, 2.0, x, idx, BranchDirection.C_BELOW, BAND)
        if got is MembershipOutcome.UNDETERMINED:
            continue
        expected = (
            MembershipOutcome.IN if idx.value > math.log2(x) else MembershipOutcome.OUT
        )
        oracle_ok &= got is expected
    slack = 1e-6
    passed = worst <= resolution + slack and elapsed < 10.0 and oracle_ok
    report(2, passed, f"max|phi-log2|={worst:.2e} bound={resolution + slack:.2e} time={elapsed:.2f}s")
    assert worst <= resolution + slack
    assert elapsed < 10.0
    assert oracle_ok


def test_criterion_3_mirrored_branch():
    f = builtin_lookup("sum", 2)
    cfg = ExtractionConfig(
        base_point=-1.0, grid=grid(-2.0, 2.0, 0.5), resolution=1.0 / 64.0
    )
    gen = extract_generator(f, cfg)
    bound = 1.0 / 64.0 + 2.0 * BAND
    values = gen.phi_values
    increasing = all(a < b for a, b in zip(values, values[1:]))
    worst = max(abs(v - x) for x, v in gen.samples)
    passed = (
        gen.direction is BranchDirection.C_ABOVE
        and gen.normalization == -1.0
        and increasing
        and worst <= bound
    )
    report(3, passed, f"max|phi-x|={worst:.2e} increasing={increasing}")
    assert passed


def test_criterion_4_additivity_after_extraction():
    results = []
    for name, n, c, pts in (
        ("sum", 2, 1.0, grid(-2.0, 2.0, 0.5)),
        ("sum", 3, 1.0, grid(-2.0, 2.0, 0.5)),
        ("product", 2, 2.0, (0.5, 1.0, 2.0, 4.0, 8.0)),
        ("product", 3, 2.0, (0.5, 1.0, 2.0, 4.0, 8.0)),
    ):
        f = builtin_lookup(name, n)
        gen = extract_generator(
            f,
            ExtractionConfig(
                base_point=c, grid=pts, resolution=0.02 if name == "product" else 1 / 64
            ),
        )
        rep = verify_additivity(gen, f, samples=100, seed=37)
        explicit = (n + 1) * (gen.resolution_bound + gen.interp_slack) + 1e-9
        results.append((rep.passed, rep.max_residual <= explicit, rep.max_residual))
    passed = all(a and b for a, b, _ in results)
    report(4, passed, "residuals " + " ".join(f"{r:.2e}" for _, _, r in results))
    assert passed


def test_criterion_5_scale_ratio_between_base_points():
    f = builtin_lookup("sum", 2)
    pts = grid(-2.0, 2.0, 0.5)
    gen1 = extract_generator(
        f, ExtractionConfig(base_point=1.0, grid=pts, resolution=1 / 64)
    )
    gen2 = extract_generator(
        f, ExtractionConfig(base_point=2.0, grid=pts, resolution=1 / 64)
    )
    rep = compare_scales(gen1, gen2, pts, spread_tol=0.05)
    passed = rep.passed and rep.spread <= 0.05 and abs(rep.mean_ratio - 2.0) <= 0.05
    report(5, passed, f"ratio={rep.mean_ratio:.4f} spread={rep.spread:.2e}")
    assert passed


def test_criterion_6_main_round_trip(tmp_path):
    # additive round trip through the CLI path
    code_sum, rep_sum = run(
        RunConfig(
            command="roundtrip", op="sum", n=2, c=1.0, grid="-2:2:0.4",
            resolution=1 / 64, samples=100, seed=13, fmt="json",
            out=str(tmp_path / "rt_sum.json"),
        )
    )
    # multiplicative round trips on a geometric grid, which keeps the
    # piecewise-linear interpolation error inside the stated bound
    log_grid = ",".join(repr(2.0 ** (j / 8.0)) for j in range(-8, 25))
    results = [(code_sum, rep_sum)]
    for n in (2, 3):
        results.append(
            run(
                RunConfig(
                    command="roundtrip", op="product", n=n, c=2.0, grid=log_grid,
                    resolution=1 / 64, samples=100, seed=13, fmt="json",
                    out=str(tmp_path / f"rt_product_{n}.json"),
                )
            )
        )
    passed = all(code == 0 for code, _ in results)
    detail = " ".join(
        f"{rep['residuals']['roundtrip']:.2e}<={rep['threshold']:.2e}"
        for _, rep in results
    )
    report(6, passed, detail)
    assert passed


def test_criterion_7_symmetry_necessity(capsys):
    alt = builtin_lookup("alternating", 3)
    rep_a = check_associativity(alt, samples=500, seed=7)
    rep_c = check_cancellativity(alt, lines=100, seed=7)
    rep_s = check_symmetry(alt, samples=500, seed=7)
    replayable = rep_s.witness is not None and abs(
        rep_s.witness.replay(alt) - rep_s.witness.residual
    ) <= 1e-12 * (1.0 + rep_s.witness.residual)
    with pytest.raises(AllIdempotentError):
        select_base_point(alt, ExtractionConfig())
    code_axioms = main(
        ["axioms", "--op", "alternating", "--n", "3", "--samples", "500", "--seed", "7",
         "--format", "json"]
    )
    code_extract = main(
        ["extract", "--op", "alternating", "--n", "3", "--grid=-1:1:0.5"]
    )
    capsys.readouterr()
    passed = (
        rep_a.passed and rep_a.max_residual == 0.0
        and rep_c.passed and rep_c.max_residual == 0.0
        and (not rep_s.passed) and replayable
        and code_axioms == 1 and code_extract == 3
    )
    report(
        7,
        passed,
        f"assoc=0 canc=0 sym_resid={rep_s.max_residual} exits=({code_axioms},{code_extract})",
    )
    assert passed


def test_criterion_8_alternating_fold_coherence():
    alt = builtin_lookup("alternating", 3)
    g = ExtendedOp(alt)
    rng = random.Random(88)
    exact = True
    for _ in range(200):
        m = rng.choice([3, 5, 7, 9, 11])
        xs = [float(rng.randint(-100, 100)) for _ in range(m)]
        closed_form = math.fsum(v if i % 2 == 0 else -v for i, v in enumerate(xs))
        exact &= g.eval(xs) == closed_form
    report(8, exact, "fold == closed form on 200 integer strings, odd m <= 11")
    assert exact


def test_criterion_9_substitution_identities():
    ok = True
    worst = 0.0
    for name, n in (("sum", 2), ("sum", 3), ("product", 2), ("product", 3)):
        f = builtin_lookup(name, n)
        g = ExtendedOp(f)
        rng = random.Random(555)
        draw = lattice_sampler(f.domain, 10.0, rng)
        for _ in range(500):
            lx, ly, lz = random_nested_decomposition(rng, n)
            split = (
                tuple(draw() for _ in range(lx)),
                tuple(draw() for _ in range(ly)),
                tuple(draw() for _ in range(lz)),
            )
            rep = falsify("nested_identity", nested_trials(g, [split]), 1e-9)
            ok &= rep.passed
            blocks = [
                tuple(draw() for _ in range(m)) for m in random_split_blocks(rng, n)
            ]
            rep2 = falsify("split_identity", split_trials(g, [blocks]), 1e-9)
            ok &= rep2.passed
            scale = 1.0 + abs(rep2.max_residual)
            worst = max(worst, rep.max_residual, rep2.max_residual)
    # the non-associative fixture is rejected with the hand-checked witness
    square_tail = NaryOp(3, Interval.real_line(), lambda x, y, z: x + y + z * z, "x+y+z^2")
    assoc = check_associativity(square_tail, samples=300, seed=9)
    gbad = ExtendedOp(square_tail)
    middle = ((0.0,), (0.0, 2.0, 0.0), (0.0,))
    nested = falsify("nested_identity", nested_trials(gbad, [middle]), 1e-9)
    rejected = (not assoc.passed) and (not nested.passed) and nested.max_residual == 2.0
    passed = ok and rejected
    report(9, passed, f"max identity residual {worst:.2e}; fixture rejected={rejected}")
    assert passed


def test_criterion_10_idempotents_and_neutrality():
    sum_roots = find_idempotents(builtin_lookup("sum", 2), [-2.0, -1.0, 0.0, 1.0, 2.0])
    prod_roots = find_idempotents(builtin_lookup("product", 2), [0.25, 0.5, 0.75, 1.5, 2.0])
    trans_roots = find_idempotents(builtin_lookup("translated_sum", 3), [-2.0, -1.0, 0.0, 1.0])
    roots_ok = (
        isinstance(sum_roots, list) and len(sum_roots) == 1 and abs(sum_roots[0]) <= 1e-9
        and isinstance(prod_roots, list) and len(prod_roots) == 1
        and abs(prod_roots[0] - 1.0) <= 1e-9
        and isinstance(trans_roots, list) and len(trans_roots) == 1
        and abs(trans_roots[0] - (-0.5)) <= 1e-9
    )
    rng = random.Random(12)
    neutral_ok = True
    specs = (
        (builtin_lookup("identity_generator"), 2, (-4.0, 4.0)),
        (builtin_lookup("log_generator"), 3, (0.25, 4.0)),
        (
            GeneratorSpec(phi=lambda x: x + 0.5, phi_inverse=lambda y: y - 0.5),
            3,
            (-4.0, 4.0),
        ),
    )
    for spec, n, (lo, hi) in specs:
        structure = adjoin_neutral(spec, n)
        probes = [rng.uniform(lo, hi) for _ in range(20)]
        residual = structure.max_neutrality_residual(probes)
        neutral_ok &= residual <= 1e-9 * (1.0 + max(abs(v) for v in probes))
    passed = roots_ok and neutral_ok
    report(10, passed, f"roots ok={roots_ok} neutrality ok={neutral_ok}")
    assert passed


def test_criterion_11_membership_structure_probes():
    rng = random.Random(2024)
    und = MembershipOutcome.UNDETERMINED
    violations = 0
    probes = 0
    cases = (
        (builtin_lookup("sum", 2), 1.0, (-3.0, 3.0)),
        (builtin_lookup("product", 3), 2.0, (0.25, 4.0)),
    )
    for f, c, (lo, hi) in cases:
        g = ExtendedOp(f)
        n = f.arity
        step = n - 1
        for _ in range(2500):
            # upper set: a member stays a member when the rational grows
            probes += 1
            x = rng.uniform(lo, hi)
            k = 1 + step * rng.randint(0, 9)
            q = step * rng.randint(0, 9)
            p = 1 + step * rng.randint(0, 29)
            r_low = RationalIndex(p, q, k)
            r_high = RationalIndex(p + step * rng.randint(1, 10), q, k)
            o1 = sx_membership(g, c, x, r_low, BranchDirection.C_BELOW, BAND)
            o2 = sx_membership(g, c, x, r_high, BranchDirection.C_BELOW, BAND)
            if o1 is MembershipOutcome.IN and o2 is MembershipOutcome.OUT:
                violations += 1
            # representation independence: rewriting the same rational by
            # admissible scaling and shifting never flips a decided outcome
            probes += 1
            x = rng.uniform(lo, hi)
            idx = RationalIndex(
                1 + step * rng.randint(0, 14), step * rng.randint(0, 9),
                1 + step * rng.randint(0, 6),
            )
            kappa = 1 + step * rng.randint(1, 2)
            if rng.random() < 0.5:
                alt_idx = RationalIndex(idx.p * kappa, idx.q * kappa, idx.k * kappa)
            else:
                j = step * rng.randint(1, 10)
                alt_idx = RationalIndex(idx.p + j, idx.q + j, idx.k)
            o1 = sx_membership(g, c, x, idx, BranchDirection.C_BELOW, BAND)
            o2 = sx_membership(g, c, x, alt_idx, BranchDirection.C_BELOW, BAND)
            if o1 is not und and o2 is not und and o1 is not o2:
                violations += 1
    passed = violations == 0 and probes == 10000
    report(11, passed, f"{probes} probes, {violations} hard violations")
    assert passed


def test_criterion_12_cli_determinism(tmp_path):
    reports = []
    for i in range(2):
        out = tmp_path / f"det{i}.json"
        code = main(
            ["axioms", "--op", "alternating", "--n", "3", "--samples", "300",
             "--seed", "17", "--format", "json", "--out", str(out)]
        )
        assert code == 1
        reports.append(json.loads(out.read_text()))
    for rep in reports:
        rep.pop("timing_ms")
    identical = json.dumps(reports[0], sort_keys=True) == json.dumps(
        reports[1], sort_keys=True
    )
    report(12, identical, "identical JSON reports modulo timing")
    assert identical
