import math
import random

import pytest

from naryops.axioms import check_associativity
from naryops.cli import load_generator
from naryops.core import Interval, NaryOp, builtin_lookup
from naryops.errors import DomainEscapeError
from naryops.generator import GeneratorSpec, build_aczelian, tabulated_generator
from naryops.reducibility import (
    ADJOINED_NEUTRAL,
    AdjoinedNeutral,
    adjoin_neutral,
    derive_binary,
    verify_neutrality,
    verify_reduction,
)

LOG_SPEC = builtin_lookup("product", 2).generator
ID_SPEC = builtin_lookup("sum", 2).generator
BOUNDED_SPEC = GeneratorSpec(
    phi=math.log,
    domain=Interval.make(0.0, 1.0),
    codomain=Interval.make(-math.inf, 0.0),
    phi_inverse=math.exp,
    label="ln on (0,1)",
)


def translated_spec(n):
    s = 1.0 / (n - 1)
    return GeneratorSpec(
        phi=lambda x: x + s, phi_inverse=lambda y: y - s, label=f"x+{s}"
    )


def test_derive_binary_examples():
    diamond = derive_binary(LOG_SPEC)
    assert abs(diamond.eval(2.0, 3.0) - 6.0) <= 1e-12
    plus = derive_binary(ID_SPEC)
    assert plus.eval(2.0, 3.0) == 5.0
    bounded = derive_binary(BOUNDED_SPEC)
    assert abs(bounded.eval(0.5, 0.5) - 0.25) <= 1e-12


def test_verify_reduction_sum_and_product():
    rep = verify_reduction(builtin_lookup("sum", 3), derive_binary(ID_SPEC), 500, 1)
    assert rep.passed and rep.max_residual == 0.0
    rep = verify_reduction(
        builtin_lookup("product", 3), derive_binary(LOG_SPEC), 500, 2, tol=1e-8
    )
    assert rep.passed


def test_alternating_rejects_binary_candidates():
    # no associative binary operation underlies the asymmetric fixture:
    # each subtraction-flavored candidate fails the fold equality or, for
    # y - x whose fold happens to coincide, fails binary associativity
    alt = builtin_lookup("alternating", 3)
    candidates = [
        NaryOp(2, Interval.real_line(), lambda x, y: x - y, "x-y"),
        NaryOp(2, Interval.real_line(), lambda x, y: y - x, "y-x"),
        NaryOp(2, Interval.real_line(), lambda x, y: x + y, "x+y"),
    ]
    for diamond in candidates:
        fold_rep = verify_reduction(alt, diamond, samples=200, seed=3)
        assoc_rep = check_associativity(diamond, samples=200, seed=3)
        assert not (fold_rep.passed and assoc_rep.passed), diamond.label
        witness = fold_rep.witness or assoc_rep.witness
        assert witness is not None
        helper = diamond if fold_rep.witness else None
        op = alt if fold_rep.witness else diamond
        replayed = witness.replay(op, helper)
        assert abs(replayed - witness.residual) <= 1e-12 * (1 + witness.residual)


def test_derived_binary_is_associative():
    rep = check_associativity(derive_binary(LOG_SPEC), samples=300, seed=4, tol=1e-8)
    assert rep.passed
    rep = check_associativity(derive_binary(ID_SPEC), samples=300, seed=4)
    assert rep.passed and rep.max_residual == 0.0


def test_adjoin_neutral_interior():
    s = adjoin_neutral(ID_SPEC, 2)
    assert s.neutral == 0.0 and not s.neutral_is_adjoined
    assert s.eval((0.0, 3.0)) == 3.0

    s = adjoin_neutral(LOG_SPEC, 3)
    assert abs(s.neutral - 1.0) <= 1e-12
    assert abs(s.eval((1.0, 1.0, 5.0)) - 5.0) <= 1e-9


def test_adjoin_neutral_translated():
    s = adjoin_neutral(translated_spec(3), 3)
    assert abs(s.neutral - (-0.5)) <= 1e-12
    assert abs(s.eval((-0.5, -0.5, 7.0)) - 7.0) <= 1e-12


def test_adjoin_neutral_outside_interval():
    s = adjoin_neutral(BOUNDED_SPEC, 2)
    assert s.neutral_is_adjoined
    assert s.neutral is ADJOINED_NEUTRAL
    assert s.phi_prime(ADJOINED_NEUTRAL) == 0.0
    assert abs(s.eval((ADJOINED_NEUTRAL, 0.4)) - 0.4) <= 1e-12
    # the neutral tuple closes on itself
    assert isinstance(s.eval((ADJOINED_NEUTRAL, ADJOINED_NEUTRAL)), AdjoinedNeutral)


def test_neutrality_every_position():
    rng = random.Random(5)
    for spec, n in ((ID_SPEC, 2), (LOG_SPEC, 3), (translated_spec(4), 4)):
        s = adjoin_neutral(spec, n)
        if spec is LOG_SPEC:
            probes = [rng.uniform(0.25, 4.0) for _ in range(20)]
        else:
            probes = [rng.uniform(-4.0, 4.0) for _ in range(20)]
        residual = s.max_neutrality_residual(probes)
        assert residual <= 1e-9 * (1.0 + max(abs(v) for v in probes))
        # max_neutrality_residual evaluates x at the first position only:
        # fsum rounds the sum once, so every position gives the same float
        for x in probes:
            tuples = [[s.neutral] * pos + [x] + [s.neutral] * (n - 1 - pos) for pos in range(n)]
            assert len({s.eval(t) for t in tuples}) == 1


def test_neutrality_probes_span_the_float_range():
    # probes drawn from halved bounds stay finite on [-1e308, 1e308]
    assert verify_neutrality(adjoin_neutral(ID_SPEC, 2), 0, 1e308).passed


def test_adjoined_eval_rejects_escaping_sums():
    # a tabulated window is not closed under sums, so far-out pairs have
    # nowhere to land
    from naryops.generator import tabulated_generator

    spec = tabulated_generator([-2.0, 0.0, 2.0], [-2.0, 0.0, 2.0])
    s = adjoin_neutral(spec, 2)
    assert s.neutral == 0.0
    with pytest.raises(DomainEscapeError):
        s.eval((1.5, 1.5))


def test_extracted_generator_reduces_its_operation():
    # close the loop: reconstruct the generator numerically, derive the
    # binary operation from the table, and fold it back to the original
    from naryops.extraction import extract_generator

    f = builtin_lookup("sum", 3)
    gen = extract_generator(
        f, tuple(-3.0 + 0.5 * i for i in range(13)), base_point=1.0, resolution=1.0 / 64.0
    )
    diamond = derive_binary(gen.as_generator_spec())
    rng = random.Random(6)
    for _ in range(100):
        xs = [rng.uniform(-0.9, 0.9) for _ in range(3)]
        lhs = f.eval(*xs)
        acc = xs[0]
        for v in xs[1:]:
            acc = diamond.eval(acc, v)
        assert abs(lhs - acc) <= 4.0 * (gen.resolution_bound + gen.interp_slack) + 1e-9


EXP_SPEC = GeneratorSpec(
    phi=math.exp,
    codomain=Interval.make(0.0, math.inf, True, True),
    phi_inverse=math.log,
    label="exp",
)
TABLE_SPEC = tabulated_generator([-2.0, -1.0, 0.0, 1.0, 2.0], [-2.0, -1.0, 0.5, 1.0, 2.0])


@pytest.mark.parametrize(
    "spec, inside, outside",
    [
        # the table's pairwise sums leave the window [-2, 2]
        (TABLE_SPEC, [-1.0, -0.75, 0.0, 0.25, 0.5, 1.0], [(1.5, 1.5), (-2.0, -0.5)]),
        # exp values are finite below 709.78, their pairwise sums overflow
        (EXP_SPEC, [-3.0, -0.5, 0.0, 1.25, 4.0], [(709.5, 709.5), (709.7, 709.2)]),
    ],
    ids=["tabulated", "closed_form"],
)
def test_generator_evaluators_agree(spec, inside, outside):
    generated = build_aczelian(spec, 2)
    derived = derive_binary(spec)
    adjoined = adjoin_neutral(spec, 2)
    for x in inside:
        for y in inside:
            v = generated.eval(x, y)
            assert derived.eval(x, y) == v and adjoined.eval((x, y)) == v
    for x, y in outside:
        for evaluate in (generated.eval, derived.eval, lambda *xs: adjoined.eval(xs)):
            with pytest.raises(DomainEscapeError, match="escapes codomain"):
                evaluate(x, y)


def test_undefined_generator_sum_is_a_domain_escape():
    # exp(x)-exp(-x) is +inf at 800 and -inf at -800; fsum has no value
    # for their sum
    spec = load_generator("exp(x)-exp(-x)", None, None, "(-inf,inf)")
    with pytest.raises(DomainEscapeError, match=r"at \(800\.0, -800\.0\) have no sum"):
        build_aczelian(spec, 2).checked(800.0, -800.0)
    with pytest.raises(DomainEscapeError, match=r"at \[800\.0, -800\.0\] have no sum"):
        adjoin_neutral(spec, 2).eval([800.0, -800.0])


def test_reduction_and_adjoined_structure_guards():
    with pytest.raises(ValueError, match="^the reduction candidate must be binary$"):
        verify_reduction(builtin_lookup("sum", 3), builtin_lookup("sum", 3))
    with pytest.raises(ValueError, match="^n must be >= 2$"):
        adjoin_neutral(EXP_SPEC, 1)
    adjoined = adjoin_neutral(EXP_SPEC, 2)
    with pytest.raises(ValueError, match="^expected 2 points$"):
        adjoined.eval([1.0])
    # exp(-800) underflows to 0.0, the adjoined point's generator value, so
    # the neutrality evaluation there returns the adjoined point itself
    collapsed = r"^neutrality evaluation collapsed to the adjoined point at x=-800\.0$"
    with pytest.raises(DomainEscapeError, match=collapsed):
        adjoined.max_neutrality_residual([0.5, -800.0])
