import random
from typing import Sequence

import pytest

from naryops.axioms import (
    falsify,
    lattice_sampler,
    random_nested_decomposition,
    random_split_blocks,
)
from naryops.core import Interval, NaryOp, builtin_lookup
from naryops.errors import DomainEscapeError
from naryops.extension import ExtendedOp, nested_trials, split_trials

SQUARE_TAIL = NaryOp(3, Interval.real_line(), lambda x, y, z: x + y + z * z, "x+y+z^2")


def eval_random_nesting(
    g: ExtendedOp, xs: Sequence[float], rng: random.Random
) -> float:
    """Evaluate a string by repeatedly collapsing a random n-window.

    Every collapse order is a legal nesting, so for an associative base
    the result matches the left-nested fold.
    """
    n = g.base.arity
    work = [float(v) for v in xs]
    if not work or (len(work) - 1) % (n - 1):  # length outside the arity class
        raise ValueError(f"string length {len(work)} not in the arity class")
    while len(work) > 1:
        i = rng.randint(0, len(work) - n)
        work[i : i + n] = [g.base.checked(*work[i : i + n])]
    return work[0]


def test_extend_eval_examples():
    g = ExtendedOp(builtin_lookup("alternating", 3))
    assert g.eval((1.0, 2.0, 3.0, 4.0, 5.0)) == 3.0
    g = ExtendedOp(builtin_lookup("sum", 2))
    assert g.eval((1.0, 2.0, 3.0)) == 6.0
    g = ExtendedOp(builtin_lookup("product", 3))
    assert g.eval((2.0,) * 5) == 32.0


def test_unary_rule_is_identity():
    g = ExtendedOp(builtin_lookup("sum", 3))
    assert g.eval((7.25,)) == 7.25


def test_restriction_to_base_arity():
    f = builtin_lookup("alternating", 3)
    g = ExtendedOp(f)
    assert g.eval((4.0, 5.0, 6.0)) == f.eval(4.0, 5.0, 6.0)


def test_arity_class_violations():
    g = ExtendedOp(builtin_lookup("alternating", 3))
    with pytest.raises(ValueError, match="string length 2 not evaluable at arity 3"):
        g.eval((1.0, 2.0))
    with pytest.raises(ValueError, match="string length 4 not evaluable at arity 3"):
        g.eval((1.0, 2.0, 3.0, 4.0))
    with pytest.raises(ValueError, match="string length 2 not evaluable at arity 3"):
        next(nested_trials(g, [((1.0,), (2.0, 3.0), ())]))
    with pytest.raises(ValueError, match="need exactly 3 blocks, got 2"):
        next(split_trials(g, [[(1.0,), (2.0,)]]))


def test_domain_escape_detected():
    f = NaryOp(2, Interval.parse("[0,1]"), lambda x, y: x + y, "sum on [0,1]")
    g = ExtendedOp(f)
    with pytest.raises(DomainEscapeError):
        g.eval((0.75, 0.75, 0.5))


def test_nested_identity_examples():
    g = ExtendedOp(builtin_lookup("sum", 2))
    rep = falsify("nested_identity", nested_trials(g, [((1.0,), (2.0, 3.0), ())]), 1e-9)
    assert rep.passed and rep.max_residual == 0.0

    g = ExtendedOp(builtin_lookup("alternating", 3))
    split = ((1.0, 2.0, 3.0), (4.0, 5.0, 6.0, 7.0, 8.0), (9.0,))
    rep = falsify("nested_identity", nested_trials(g, [split]), 1e-9)
    assert rep.passed and rep.max_residual == 0.0


def test_nested_identity_rejects_square_tail():
    # middle decomposition of the (0,0,2,0,0) tuple: the substituted side
    # evaluates to 2 while the flat left fold gives 4
    g = ExtendedOp(SQUARE_TAIL)
    rep = falsify("nested_identity", nested_trials(g, [((0.0,), (0.0, 2.0, 0.0), (0.0,))]), 1e-9)
    assert not rep.passed
    assert rep.max_residual == 2.0
    assert abs(rep.witness.replay(g) - 2.0) == 0.0
    # with the inner block leading, substitution coincides with the fold
    rep = falsify("nested_identity", nested_trials(g, [((), (0.0, 0.0, 2.0), (0.0, 0.0))]), 1e-9)
    assert rep.max_residual == 0.0


def test_split_identity_examples():
    g = ExtendedOp(builtin_lookup("sum", 2))
    rep = falsify("split_identity", split_trials(g, [[(1.0, 2.0, 3.0), (4.0,)]]), 1e-9)
    assert rep.passed and rep.max_residual == 0.0

    g = ExtendedOp(builtin_lookup("product", 3))
    rep = falsify("split_identity", split_trials(g, [[(2.0,), (3.0,), (2.0, 2.0, 2.0)]]), 1e-9)
    assert rep.passed and rep.max_residual == 0.0
    assert g.eval((2.0, 3.0, 2.0, 2.0, 2.0)) == 48.0

    g = ExtendedOp(builtin_lookup("alternating", 3))
    rep = falsify("split_identity", split_trials(g, [[(1.0, 2.0, 3.0), (4.0,), (5.0,)]]), 1e-9)
    assert rep.passed
    assert g.eval((1.0, 2.0, 3.0, 4.0, 5.0)) == 3.0


@pytest.mark.parametrize("name,n", [("sum", 2), ("sum", 3), ("product", 3), ("alternating", 3)])
def test_identities_on_random_decompositions(name, n):
    f = builtin_lookup(name, n)
    g = ExtendedOp(f)
    rng = random.Random(77)
    draw = lattice_sampler(f.domain, 10.0, rng)
    for _ in range(500):
        lx, ly, lz = random_nested_decomposition(rng, n)
        split = (draw(lx), draw(ly), draw(lz))
        rep = falsify("nested_identity", nested_trials(g, [split]), 1e-9)
        assert rep.passed, rep
        blocks = [draw(m) for m in random_split_blocks(rng, n)]
        rep = falsify("split_identity", split_trials(g, [blocks]), 1e-9)
        assert rep.passed, rep


@pytest.mark.parametrize("decomposition", [random_nested_decomposition, random_split_blocks])
def test_decompositions_need_an_arity_class(decomposition):
    with pytest.raises(ValueError, match="^arity class needs n >= 2$"):
        decomposition(random.Random(0), 1)


@pytest.mark.parametrize("name,n", [("sum", 2), ("product", 3), ("alternating", 3)])
def test_random_bracketings_agree(name, n):
    f = builtin_lookup(name, n)
    g = ExtendedOp(f)
    rng = random.Random(99)
    draw = lattice_sampler(f.domain, 6.0, rng)
    for _ in range(200):
        m = 1 + (n - 1) * rng.randint(1, 5)
        xs = draw(m)
        left = g.eval(xs)
        other = eval_random_nesting(g, xs, rng)
        scale = 1.0 + abs(left) + abs(other)
        assert abs(left - other) <= 1e-9 * scale


def test_power_cache_matches_fresh_evaluation():
    f = builtin_lookup("product", 3)
    g = ExtendedOp(f)
    # the power strings are the fold on repeated points, in any order of calls
    for p in (7, 3, 11, 5, 9):
        cached = g.power(1.5, p)
        fresh = ExtendedOp(f).eval((1.5,) * p)
        assert cached == fresh


def test_mixed_string_cache_matches_fresh_evaluation():
    f = builtin_lookup("sum", 3)
    g = ExtendedOp(f)
    for q in (0, 2, 4, 8, 6):
        cached = g.string_power(0.5, 5, 2.0, q)
        fresh = ExtendedOp(f).eval((0.5,) * 5 + (2.0,) * q)
        assert cached == fresh


def test_unary_block_substitution_is_identity():
    g = ExtendedOp(builtin_lookup("sum", 2))
    rng = random.Random(5)
    draw = lattice_sampler(g.base.domain, 10.0, rng)
    for _ in range(100):
        x = draw(rng.randint(0, 3))
        y = draw(1)
        z = draw(rng.randint(0, 3))
        rep = falsify("nested_identity", nested_trials(g, [(x, y, z)]), 1e-9)
        assert rep.max_residual == 0.0
