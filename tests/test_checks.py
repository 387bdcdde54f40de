"""Regression and structure tests for the shared falsification loop, the
shared error budget and the CLI check schema."""

import ast
import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from naryops.axioms import (
    AxiomReport,
    Witness,
    check_associativity,
    check_cancellativity,
    check_symmetry,
    find_idempotents,
)
from naryops.cli import load_generator, load_opspec, main, parse_grid
from naryops.core import Interval, NaryOp
from naryops.errors import DomainEscapeError
from naryops.extraction import ExtractionConfig, extract_generator
from naryops.generator import build_aczelian
from naryops.reducibility import derive_binary

SRC = Path(__file__).resolve().parent.parent / "src" / "naryops"

NAN_EVERYWHERE = NaryOp(2, Interval.real_line(), lambda x, y: math.nan, "nan")
NAN_ABOVE_3 = NaryOp(2, Interval.real_line(), lambda x, y: x + y if x <= 3 else math.nan, "nan>3")
# samples stay inside the window [-10, 10], so only outer evaluations of
# associativity reach the NaN region
NAN_ABOVE_12 = NaryOp(2, Interval.real_line(), lambda x, y: x + y if x <= 12 else math.nan, "nan>12")
UNIT_SUM = NaryOp(2, Interval.make(0.0, 1.0), lambda x, y: x + y, "x+y on (0,1)")


def run_json(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([*argv, "--format", "json"])
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize(
    "check, op",
    [
        (check_symmetry, NAN_EVERYWHERE),
        (check_symmetry, NAN_ABOVE_3),
        (check_associativity, NAN_ABOVE_12),
    ],
    ids=["symmetry-nan", "symmetry-nan>3", "associativity-nan>12"],
)
def test_nan_results_raise(check, op):
    with pytest.raises(DomainEscapeError):
        check(op, samples=200, seed=1)


def test_nan_tail_axioms_exit_three():
    code, _, err = run_json(
        "axioms", "--op", "expr:x1+x2+(exp(1000*(x1-15))-exp(1000*(x1-15)))",
        "--n", "2", "--samples", "200",
    )
    assert code == 3
    assert "non-finite nan at (" in err


def test_find_idempotents_raises_on_nan():
    with pytest.raises(DomainEscapeError, match=r"non-finite nan at \(-1\.0, -1\.0\)"):
        find_idempotents(NAN_EVERYWHERE, [-1.0, 0.0, 1.0])


def test_explicit_base_point_nan_fails_at_selection():
    code, _, err = run_json(
        "extract", "--op", "expr:x1+x2+(exp(1000*(x1-15))-exp(1000*(x1-15)))",
        "--n", "2", "--c", "16", "--grid", "0,1",
    )
    assert code == 3
    assert "non-finite nan at (16.0, 16.0)" in err
    assert "reduce the resolution" not in err


@pytest.mark.parametrize("check", [check_symmetry, check_cancellativity])
def test_closure_escape_raises(check):
    with pytest.raises(DomainEscapeError):
        check(UNIT_SUM, seed=1)


def test_escape_message_names_the_inputs():
    with pytest.raises(DomainEscapeError, match=r"at \(0\.75, 0\.5\)$"):
        UNIT_SUM.checked(0.75, 0.5)
    with pytest.raises(DomainEscapeError, match=r"non-finite nan at \(16\.0, 1\.0\)$"):
        NAN_EVERYWHERE.checked(16.0, 1.0)


def test_roundtrip_product_passes_under_the_shared_budget():
    code, out, _ = run_json("roundtrip", "--op", "product", "--n", "3", "--c", "2", "--grid", "0.5,1,2")
    report = json.loads(out)
    assert code == 0, report["checks"]["roundtrip"]
    # (n+1) * (resolution_bound + interp_slack) * inverse slope + 1e-9
    assert abs(report["threshold"] - 1.35) < 0.01


def test_additivity_sampling_cap_is_numeric():
    code, _, err = run_json("extract", "--op", "sum", "--n", "2", "--c", "1", "--grid", "1,2")
    assert code == 3
    assert err.startswith("naryops: numeric failure:")


def test_parse_grid_steps_by_index():
    assert parse_grid("0:1:0.1")[-1] == 1.0
    assert parse_grid("0:1:0.1") == tuple(i * 0.1 for i in range(11))


@pytest.mark.parametrize("text", ["0:inf:1", "-inf:0:1", "0:1:nan", "nan:1:0.5", "0:1:inf"])
def test_parse_grid_rejects_non_finite(text):
    with pytest.raises(ValueError):
        parse_grid(text)
    code, _, err = run_json("extract", "--op", "sum", "--n", "2", "--c", "1", f"--grid={text}")
    assert code == 2 and "configuration error" in err


CHECK_KEYS = set(
    AxiomReport("identity", True, 0.0, None, 1, 0, 1e-9).to_dict()
)


@pytest.mark.parametrize(
    "argv",
    [
        ("axioms", "--op", "alternating", "--n", "3", "--samples", "50"),
        ("extend", "--op", "expr:x1+x2+x3^2", "--n", "3", "--samples", "30"),
        ("build", "--phi", "x^3+x", "--samples", "20"),
        ("extract", "--op", "sum", "--n", "2", "--c", "1", "--grid=-1:1:0.5"),
        ("roundtrip", "--op", "sum", "--n", "2", "--c", "1", "--grid=-2:2:0.5", "--samples", "30"),
        ("roundtrip", "--op", "product", "--n", "2", "--c", "2", "--grid", "0.5,1,2,4", "--samples", "30"),
        ("reduce", "--op", "bounded_product", "--n", "2", "--samples", "30", "--window", "0.9"),
        ("reduce", "--phi", "exp(x)", "--phi-inv", "ln(x)", "--n", "3", "--samples", "30"),
    ],
    ids=lambda argv: argv[0],
)
def test_every_check_dict_is_an_axiom_report(argv):
    code, out, _ = run_json(*argv)
    assert code in (0, 1)
    report = json.loads(out)
    assert report["checks"]
    for name, check in report["checks"].items():
        assert set(check) == CHECK_KEYS, name
    for w in report["witnesses"]:
        assert set(w) == {"kind", "inputs", "residual", "equation_index", "permutation", "coordinate"}


def test_extend_witnesses_are_the_worst_trials():
    code, out, _ = run_json("extend", "--op", "expr:x1+x2+x3^2", "--n", "3", "--samples", "40", "--seed", "4")
    report = json.loads(out)
    assert code == 1
    for name in ("nested_identity", "split_identity"):
        check = report["checks"][name]
        assert check["witness"]["residual"] == check["max_residual"]


#: not associative, so the generator extracted on the grid below fails
#: additivity and the round trip
SKEWED = "expr:x1+x2+x1*x2*x2/10"


def _skewed_extraction():
    f = load_opspec(SKEWED, 2)
    return f, extract_generator(f, ExtractionConfig(base_point=1.0, grid=parse_grid("-1:1:0.25")))


def _skewed_rebuilt():
    f, gen = _skewed_extraction()
    return f, build_aczelian(gen.as_generator_spec(), 2)


#: for each witness kind no other test replays: a run that fails that check,
#: and the operation and helper its witness replays with, rebuilt from the
#: same flags
REPLAYS = {
    "reduction": (
        ("reduce", "--op", "product", "--n", "3", "--phi", "x", "--samples", "30"),
        lambda: (load_opspec("product", 3), derive_binary(load_generator("x", None, None))),
    ),
    "additivity": (
        ("extract", "--op", SKEWED, "--n", "2", "--c", "1", "--grid=-1:1:0.25"),
        _skewed_extraction,
    ),
    "roundtrip": (
        ("roundtrip", "--op", SKEWED, "--n", "2", "--c", "1", "--grid=-1:1:0.25", "--samples", "50"),
        _skewed_rebuilt,
    ),
    "cancellativity": (
        ("axioms", "--op", "expr:x1*x1+x2", "--n", "2", "--samples", "30"),
        lambda: (load_opspec("expr:x1*x1+x2", 2),),
    ),
}


@pytest.mark.parametrize("kind", list(REPLAYS))
def test_witness_replays_from_the_report(kind):
    argv, replay_args = REPLAYS[kind]
    code, out, _ = run_json(*argv)
    assert code == 1
    check = json.loads(out)["checks"][kind]
    assert check["pass"] is False
    witness = Witness.from_dict(check["witness"])
    assert witness.kind == kind
    assert witness.replay(*replay_args()) == witness.residual


def _sibling_private_imports(path: Path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("naryops")):
            for alias in node.names:
                if alias.name.startswith("_"):
                    yield f"{path.name}:{node.lineno} imports {alias.name}"


def test_no_module_imports_a_private_name_from_a_sibling():
    found = [line for path in sorted(SRC.glob("*.py")) for line in _sibling_private_imports(path)]
    assert found == []
