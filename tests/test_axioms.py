import itertools
import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from naryops import axioms
from naryops.axioms import (
    AxiomReport,
    Witness,
    check_associativity,
    check_cancellativity,
    check_symmetry,
    falsify,
    find_idempotents,
    lattice_sampler,
    random_nested_decomposition,
    random_split_blocks,
)
from naryops.cli import load_opspec
from naryops.core import Interval, NaryOp, builtin_lookup, lattice
from naryops.errors import DomainEscapeError

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


def _reference_check_symmetry(f, samples, seed, tol=1e-9, window=10.0):
    """check_symmetry as a plain per-sample loop: the transposition (1 2)
    and the n-cycle (1 2 ... n), written out again for every sample."""
    n = f.arity
    draw = lattice_sampler(f.domain, window, random.Random(seed))

    def trials():
        for _ in range(samples):
            xs = draw(n)
            base = f.checked(*xs)
            swap = (1, 0) + tuple(range(2, n))
            cycle = tuple(range(1, n)) + (0,)
            for perm in [swap] if swap == cycle else [swap, cycle]:
                other = f.checked(*(xs[j] for j in perm))
                yield base, other, {"inputs": (xs,), "permutation": perm}

    return falsify(
        "symmetry", trials(), tol, axiom="symmetry", samples=samples, seed=seed, label=f.label
    )


def _all_permutations_check_symmetry(f, samples, seed, tol=1e-9, window=10.0):
    """The earlier symmetry check, kept as a detection oracle: every
    non-identity permutation for n <= 4, and for n >= 5 eight seeded
    shuffles per sample, drawn from the sampler's own generator."""
    n = f.arity
    rng = random.Random(seed)
    draw = lattice_sampler(f.domain, window, rng)

    def permutations():
        identity = list(range(n))
        if math.factorial(n) <= 24:
            return [p for p in itertools.permutations(identity) if list(p) != identity]
        perms = []
        for _ in range(8):
            p = list(identity)
            rng.shuffle(p)
            if p != identity:
                perms.append(tuple(p))
        return perms

    def trials():
        for _ in range(samples):
            xs = draw(n)
            base = f.checked(*xs)
            for perm in permutations():
                other = f.checked(*(xs[j] for j in perm))
                yield base, other, {"inputs": (xs,), "permutation": perm}

    return falsify(
        "symmetry", trials(), tol, axiom="symmetry", samples=samples, seed=seed, label=f.label
    )


@pytest.mark.parametrize(
    "source, n",
    [("sum", n) for n in range(2, 7)]
    + [("alternating", 3), ("alternating", 5)]
    + [("expr:2*x1+x2", n) for n in range(2, 7)],
)
def test_symmetry_matches_the_per_sample_loop(source, n):
    f = load_opspec(source, n)
    for seed in range(4):
        # equal reports hold equal witnesses, inputs and permutation included
        report = check_symmetry(f, samples=30, seed=seed)
        assert report == _reference_check_symmetry(f, samples=30, seed=seed)
    if source != "sum":
        assert not report.passed and report.witness.permutation is not None


#: asymmetric operations, each with the arity it is checked at
_MUST_FAIL_SYMMETRY = (
    [("alternating", 3), ("alternating", 5), ("expr:x1+x2+x3^2", 3)]
    + [("expr:2*x1+" + "+".join(f"x{i}" for i in range(2, n + 1)), n) for n in range(3, 7)]
    + [("expr:x1+x2+x3+x4^2", 4), ("expr:x1*x2+x3*x4", 4)]
)


@pytest.mark.parametrize("source, n", _MUST_FAIL_SYMMETRY)
def test_generators_detect_what_all_permutations_detect(source, n):
    # on must-fail fixtures the earlier check, under every permutation (or
    # eight shuffles) per sample, fails every run, and so do the generators
    f = load_opspec(source, n)
    for seed in (1, 2, 3):
        for samples in (40, 120):
            assert not _all_permutations_check_symmetry(f, samples, seed).passed
            assert not check_symmetry(f, samples=samples, seed=seed).passed


@pytest.mark.parametrize("n", range(2, 8))
def test_symmetry_evaluates_each_sample_under_at_most_two_generators(n):
    op = builtin_lookup("sum", n)
    calls = 0

    def counted(*xs):
        nonlocal calls
        calls += 1
        return op.eval(*xs)

    counting = NaryOp(op.arity, op.domain, counted, op.label, op.generator)
    report = check_symmetry(counting, samples=50, seed=3)
    assert report.passed
    assert calls == 50 * (1 + (1 if n == 2 else 2))


def test_replay_names_an_unknown_kind_and_a_witness_no_trial_matches():
    w = Witness(kind="commutativity", inputs=((1.0, 2.0),), residual=1.0)
    with pytest.raises(ValueError, match="^unknown witness kind 'commutativity'$"):
        w.replay(PRODUCT_LINE)
    # arity 3 has equation indices 1 and 2, and the two generators of S_3
    xs = (0.0, 0.0, 2.0, 0.0, 0.0)
    w = Witness(kind="associativity", inputs=(xs,), residual=2.0, equation_index=3)
    with pytest.raises(ValueError, match=r"^no associativity trial at \(\(0\.0, 0\.0, 2\.0, "):
        w.replay(SQUARE_TAIL)
    w = Witness(kind="symmetry", inputs=((1.0, 2.0, 3.0),), residual=2.0, permutation=(2, 1, 0))
    with pytest.raises(ValueError, match="^no symmetry trial at .* matches the witness$"):
        w.replay(builtin_lookup("alternating", 3))


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


def _reference_check_cancellativity(f, lines=100, seed=0, window=10.0):
    """check_cancellativity as a plain per-section loop: a tuple per
    section point, the signs of every section, a witness test after it."""
    n = f.arity
    rng = random.Random(seed)
    j_min, j_max, h = lattice(f.domain, window)
    size = j_max - j_min + 1
    draw = lattice_sampler(f.domain, window, rng)
    getrandbits = rng.getrandbits
    anchor_j = min(max(0, j_min), j_max)
    checked = f.checked
    max_residual = 0.0
    witness = None
    sections = 0
    for coord in range(n):
        for line in range(lines):
            frozen = (anchor_j * h,) * (n - 1) if line == 0 else draw(n - 1)
            if size > axioms._POINTS_PER_LINE:
                js = [j_min + t for t in axioms._section_offsets(getrandbits, size)]
            else:
                js = range(j_min, j_max + 1)
            tuples = [frozen[:coord] + (j * h,) + frozen[coord:] for j in js]
            values = [checked(*t) for t in tuples]
            sections += 1
            thr = axioms._STRICT_TOL * (1.0 + max(abs(v) for v in values))
            # each step up (1), down (-1) or flat within thr (0)
            signs = [(b - a > thr) - (b - a < -thr) for a, b in zip(values, values[1:])]
            bad = None
            if 0 in signs:
                bad = signs.index(0)
            elif len(set(signs)) > 1:
                bad = next(t for t, s in enumerate(signs) if s != signs[0])
            if bad is not None and witness is None:
                d = values[bad + 1] - values[bad]
                max_residual = max(max_residual, abs(d))
                witness = Witness(
                    kind="cancellativity",
                    inputs=(tuples[bad], tuples[bad + 1]),
                    residual=d,
                    coordinate=coord,
                )
    return AxiomReport(
        axiom="cancellativity",
        max_residual=max_residual,
        witness=witness,
        samples_used=sections,
        seed=seed,
        tolerance=axioms._STRICT_TOL,
        label=f.label,
    )


def _outcome(check, *args):
    """The report and its repr, or the type and message of the error."""
    try:
        report = check(*args)
    except (ValueError, DomainEscapeError) as exc:
        return type(exc), str(exc)
    return report, repr(report)


#: sources of cancellativity fixtures at arity n (alternating at the odd
#: arity n | 1): builtins, expr: ops, sections with flat steps (floor) and
#: sections that turn (abs, square, kink)
_CANCELLATIVITY_SOURCES = {
    "sum": lambda n: builtin_lookup("sum", n),
    "translated_sum": lambda n: builtin_lookup("translated_sum", n),
    "product": lambda n: builtin_lookup("product", n),
    "bounded_product": lambda n: builtin_lookup("bounded_product", n),
    "alternating": lambda n: builtin_lookup("alternating", n | 1),
    "expr_weighted": lambda n: load_opspec("expr:2*x1+" + "+".join(f"x{i}" for i in range(2, n + 1)), n),
    "expr_product": lambda n: load_opspec("expr:" + "*".join(f"x{i}" for i in range(1, n + 1)), n),
    "expr_abs": lambda n: load_opspec("expr:abs(x1)+" + "+".join(f"x{i}" for i in range(2, n + 1)), n),
    "floor": lambda n: NaryOp(
        n, Interval.real_line(), lambda *xs: math.floor(4.0 * xs[0]) + math.fsum(xs[1:]), "floor"
    ),
    "square": lambda n: NaryOp(n, Interval.real_line(), lambda *xs: math.fsum(x * x for x in xs), "sq"),
    # turns between 3h and 4h, h = 2^-40: at a window of 4e-12 only the
    # last step of the whole-lattice section goes up
    "kink": lambda n: NaryOp(
        n, Interval.real_line(), lambda *xs: 1e15 * math.fsum(abs(x - 3.1e-12) for x in xs), "kink"
    ),
}


@settings(max_examples=150, deadline=None)
@given(
    source=st.sampled_from(sorted(_CANCELLATIVITY_SOURCES)),
    n=st.integers(2, 5),
    seed=st.integers(0, 2**32),
    lines=st.integers(1, 12),
    window=st.floats(-12.0, 6.0).map(lambda e: 10.0**e),
)
# windows of 3, 5, 9 and one lattice point: each section is the whole
# lattice, and a one-point lattice raises
@example(source="sum", n=2, seed=0, lines=3, window=1e-12)
@example(source="square", n=3, seed=1, lines=3, window=2e-12)
@example(source="floor", n=4, seed=2, lines=2, window=4e-12)
@example(source="kink", n=2, seed=5, lines=2, window=4e-12)
@example(source="alternating", n=3, seed=3, lines=2, window=1e-13)
@example(source="expr_product", n=2, seed=4, lines=5, window=10.0)
def test_cancellativity_matches_the_per_section_loop(source, n, seed, lines, window):
    f = _CANCELLATIVITY_SOURCES[source](n)
    assert _outcome(check_cancellativity, f, lines, seed, window) == _outcome(
        _reference_check_cancellativity, f, lines, seed, window
    )


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


def test_idempotents_alternating_whole_grid():
    grid = [-2.0, -1.0, 0.0, 1.0, 2.0]
    assert find_idempotents(builtin_lookup("alternating", 3), grid) == grid


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
    # all() over no residuals is true, which read as every point idempotent
    with pytest.raises(ValueError, match="^grid must not be empty$"):
        find_idempotents(f, [])


def test_witness_serialization_round_trip():
    rep = check_symmetry(builtin_lookup("alternating", 3), samples=50, seed=6)
    d = rep.witness.to_dict()
    back = Witness.from_dict(d)
    assert back == rep.witness


@pytest.mark.parametrize(
    "lhs, rhs, passed",
    [
        # next to zero only the absolute tol is left: 1.1*tol fails
        (0.0, 1.1e-9, False),
        (-1.1e-9, 0.0, False),
        # both sides near 1: tol + tol*|lhs| + tol*|rhs| is about 3*tol
        (1.0, 1.0 + 2.5e-9, True),
        (-1.0 - 2.5e-9, -1.0, True),
        (1.0, 1.0 + 3.5e-9, False),
    ],
)
def test_falsify_threshold_sums_each_term_once(lhs, rhs, passed):
    trial = (lhs, rhs, {"inputs": ((lhs,), (rhs,))})
    report = falsify("associativity", [trial], 1e-9)
    assert report.passed is passed and report.max_residual == abs(lhs - rhs)
    assert (report.witness is None) is passed


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
    # tuples of every length up to 9, and an empty one, from one stream
    for seed in range(40):
        draw = lattice_sampler(iv, window, random.Random(seed))
        rng = random.Random(seed)
        for m in (*range(1, 10), 0, *range(9, 0, -1)):
            assert draw(m) == tuple(rng.randint(j_min, j_max) * h for _ in range(m))


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


@pytest.mark.parametrize("size", [9, 10, 15, 80, 85, 86, 161, 2**62])
def test_section_pick_follows_sample(size):
    # check_cancellativity picks its 9 section points through _below where
    # it called random.sample: from a pool up to 85 points, from a set past
    # it; the picks and the stream after them must be sample's
    start = -(size // 3)
    for seed in range(200):
        ours, theirs = random.Random(seed), random.Random(seed)
        picks = [start + t for t in axioms._section_offsets(ours.getrandbits, size)]
        assert picks == sorted(theirs.sample(range(start, start + size), 9))
        assert ours.getstate() == theirs.getstate()


def _randint_nested_decomposition(rng, n):
    """random_nested_decomposition as it was written with randint."""
    step = n - 1
    total = 1 + step * rng.randint(1, 5)
    inner = 1 + step * rng.randint(0, (total - 1) // step)
    rest = total - inner
    left = rng.randint(0, rest)
    return left, inner, rest - left


def _randint_split_blocks(rng, n):
    """random_split_blocks as it was written with randint."""
    return tuple(1 + (n - 1) * rng.randint(0, 2) for _ in range(n))


@pytest.mark.parametrize("n", range(2, 8))
def test_decompositions_follow_randint(n):
    # the extension identities' lengths draw through _below, interleaved
    # as extend draws them, from the stream randint draws them from
    for seed in range(200):
        ours, theirs = random.Random(seed), random.Random(seed)
        for _ in range(5):
            assert random_nested_decomposition(ours, n) == _randint_nested_decomposition(theirs, n)
            assert random_split_blocks(ours, n) == _randint_split_blocks(theirs, n)
        assert ours.getstate() == theirs.getstate()
