import random

import pytest

from naryops import axioms
from naryops.axioms import (
    ALL_SAMPLED_IDEMPOTENT,
    AllSampledIdempotent,
    Witness,
    check_associativity,
    check_cancellativity,
    check_symmetry,
    find_idempotents,
    lattice_sampler,
)
from naryops.core import Interval, NaryOp, builtin_lookup, lattice

SQUARE_TAIL = NaryOp(3, Interval.real_line(), lambda x, y, z: x + y + z * z, "x+y+z^2")
PRODUCT_LINE = NaryOp(2, Interval.real_line(), lambda x, y: x * y, "x*y")


def test_sum_associative_with_zero_residual():
    rep = check_associativity(builtin_lookup("sum", 3), samples=200, seed=1)
    assert rep.passed
    assert rep.max_residual == 0.0


def test_alternating_associative_and_cancellative():
    alt = builtin_lookup("alternating", 3)
    rep = check_associativity(alt, samples=200, seed=2)
    assert rep.passed and rep.max_residual == 0.0
    rep = check_cancellativity(alt, lines=40, seed=2)
    assert rep.passed


def test_square_tail_fails_associativity_with_replayable_witness():
    rep = check_associativity(SQUARE_TAIL, samples=300, seed=3)
    assert not rep.passed
    w = rep.witness
    assert w is not None and w.equation_index in (1, 2)
    assert abs(w.replay(SQUARE_TAIL) - w.residual) <= 1e-12 * (1.0 + w.residual)


def test_square_tail_oracle_tuple():
    # hand evaluation at (0,0,2,0,0): inner at offset 0 gives f(4,0,0) = 4,
    # inner at offset 1 gives f(0,2,0) = 2
    xs = (0.0, 0.0, 2.0, 0.0, 0.0)
    inner0 = SQUARE_TAIL.eval(*xs[0:3])
    lhs = SQUARE_TAIL.eval(inner0, *xs[3:])
    inner1 = SQUARE_TAIL.eval(*xs[1:4])
    rhs = SQUARE_TAIL.eval(xs[0], inner1, xs[4])
    assert lhs == 4.0 and rhs == 2.0
    w = Witness(kind="associativity", inputs=(xs,), residual=2.0, equation_index=1)
    assert w.replay(SQUARE_TAIL) == 2.0


def test_symmetry_pass_and_fail():
    rep = check_symmetry(builtin_lookup("product", 3), samples=200, seed=4)
    assert rep.passed and rep.max_residual == 0.0
    alt = builtin_lookup("alternating", 3)
    rep = check_symmetry(alt, samples=200, seed=4)
    assert not rep.passed
    w = rep.witness
    assert abs(w.replay(alt) - w.residual) <= 1e-12 * (1.0 + w.residual)


def test_alternating_swap_oracle():
    # f(1,2,3) = 2 and f(2,1,3) = 4 under the first-two swap
    alt = builtin_lookup("alternating", 3)
    assert alt.eval(1.0, 2.0, 3.0) == 2.0
    assert alt.eval(2.0, 1.0, 3.0) == 4.0
    w = Witness(
        kind="symmetry", inputs=((1.0, 2.0, 3.0),), residual=2.0, permutation=(1, 0, 2)
    )
    assert w.replay(alt) == 2.0


def test_cancellativity_pass_and_annihilator():
    rep = check_cancellativity(builtin_lookup("sum", 2), lines=30, seed=5)
    assert rep.passed and rep.max_residual == 0.0
    # multiplication on the whole line has the constant zero section,
    # caught by the deterministic anchor line
    rep = check_cancellativity(PRODUCT_LINE, lines=30, seed=5)
    assert not rep.passed
    a, b = rep.witness.inputs
    assert PRODUCT_LINE.eval(*a) == PRODUCT_LINE.eval(*b)


def test_reports_deterministic():
    f = builtin_lookup("product", 3)
    r1 = check_associativity(f, samples=100, seed=11)
    r2 = check_associativity(f, samples=100, seed=11)
    assert r1 == r2
    r3 = check_symmetry(f, samples=100, seed=11)
    r4 = check_symmetry(f, samples=100, seed=11)
    assert r3 == r4


def test_idempotents_sum():
    roots = find_idempotents(builtin_lookup("sum", 2), [-2.0, -1.0, 0.0, 1.0, 2.0])
    assert roots == [0.0]


def test_idempotents_product():
    roots = find_idempotents(builtin_lookup("product", 2), [0.25, 0.5, 0.75, 1.25, 2.0])
    assert len(roots) == 1
    assert abs(roots[0] - 1.0) <= 1e-9


def test_idempotents_alternating_marker():
    marker = find_idempotents(
        builtin_lookup("alternating", 3), [-2.0, -1.0, 0.0, 1.0, 2.0]
    )
    assert isinstance(marker, AllSampledIdempotent)
    assert marker is ALL_SAMPLED_IDEMPOTENT


def test_idempotents_translated_sum():
    roots = find_idempotents(builtin_lookup("translated_sum", 3), [-2.0, -1.0, 0.0, 1.0])
    assert len(roots) == 1
    assert abs(roots[0] - (-0.5)) <= 1e-9


def test_idempotents_grid_validation():
    f = builtin_lookup("product", 2)
    with pytest.raises(ValueError):
        find_idempotents(f, [2.0, 1.0])
    with pytest.raises(ValueError):
        find_idempotents(f, [-1.0, 1.0])


def test_witness_serialization_round_trip():
    rep = check_symmetry(builtin_lookup("alternating", 3), samples=50, seed=6)
    d = rep.witness.to_dict()
    back = Witness.from_dict(d)
    assert back == rep.witness


def test_generated_ops_pass_axioms():
    from naryops.generator import build_aczelian

    spec = builtin_lookup("product", 2).generator
    f = build_aczelian(spec, 2)
    rep = check_associativity(f, samples=500, seed=7)
    assert rep.passed
    rep = check_symmetry(f, samples=500, seed=8)
    assert rep.passed


def test_idempotent_matches_generator_zero():
    # when zero is in the codomain the unique idempotent is the preimage
    from naryops.generator import build_aczelian

    spec = builtin_lookup("product", 2).generator
    f = build_aczelian(spec, 3)
    roots = find_idempotents(f, [0.25, 0.5, 2.0, 4.0])
    assert len(roots) == 1
    assert abs(roots[0] - 1.0) <= 1e-9


def _assert_draws_follow_randint(iv, window, j_min, j_max, h):
    for seed in range(40):
        draw = lattice_sampler(iv, window, random.Random(seed))
        rng = random.Random(seed)
        assert [draw() for _ in range(50)] == [rng.randint(j_min, j_max) * h for _ in range(50)]


@pytest.mark.parametrize(
    "span", [1, 2, 3, 2**10 - 1, 2**10, 2**10 + 1, 2**53 + 1, 2**62, 2**62 + 1]
)
def test_lattice_draws_follow_randint(monkeypatch, span):
    # the sampler draws randint's offsets from getrandbits itself; every
    # witness of a seeded check rests on the two streams being one
    j_min, h = -(span // 3), 0.125
    monkeypatch.setattr(axioms, "lattice", lambda iv, window: (j_min, j_min + span - 1, h))
    _assert_draws_follow_randint(Interval.real_line(), 10.0, j_min, j_min + span - 1, h)


@pytest.mark.parametrize(
    "domain,window",
    [
        ("(-inf,inf)", 10.0),
        ("(0,inf)", 10.0),
        ("(0.3,0.35)", 10.0),
        ("(-inf,inf)", 2.0**58),  # 2**62 + 1 indices, the most lattice allows
        ("(-inf,inf)", 1.7e308),
    ],
)
def test_lattice_sampler_on_real_windows_follows_randint(domain, window):
    iv = Interval.parse(domain)
    _assert_draws_follow_randint(iv, window, *lattice(iv, window))
