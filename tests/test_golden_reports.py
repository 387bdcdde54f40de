"""Golden CLI reports: exit code, stdout and stderr of fixed-seed
invocations must stay byte-identical, apart from the ``timing_ms`` value.

The expected outputs live in ``golden_reports.json`` next to this file.
A change that moves report bytes on purpose regenerates them with::

    PYTHONPATH=src python tests/test_golden_reports.py

and says in its change notes which bytes moved and why.
"""

import io
import json
import re
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from naryops.cli import main

GOLDEN = Path(__file__).with_name("golden_reports.json")

INVOCATIONS = {
    "extract_sum2": (
        "extract", "--op", "sum", "--n", "2", "--c", "1",
        "--grid=-2:2:0.25", "--resolution", "0.0009765625",
    ),
    "extract_expr_sum3": (
        "extract", "--op", "expr:x1+x2+x3", "--n", "3", "--c", "1",
        "--grid=-2:2:0.5", "--resolution", "0.00390625",
    ),
    "axioms_alternating3": ("axioms", "--op", "alternating", "--n", "3"),
    # symmetry under the transposition and the n-cycle: a failing witness
    # at n = 5 and a pass at n = 4
    "axioms_alternating5": ("axioms", "--op", "alternating", "--n", "5", "--samples", "40"),
    "axioms_product4": ("axioms", "--op", "product", "--n", "4", "--samples", "40"),
    "extend_expr_product3": (
        "extend", "--op", "expr:x1*x2*x3", "--interval", "(0,inf)", "--n", "3", "--samples", "40",
    ),
    "gallery_seed3": ("gallery", "--seed", "3"),
    "build_cubic": ("build", "--phi", "x^3+x"),
    "reduce_exp_with_inverse": (
        "reduce", "--phi", "exp(x)", "--phi-inv", "ln(x)", "--codomain", "(0,inf)", "--n", "3",
    ),
    "extract_grid_outside_domain": ("extract", "--op", "product", "--n", "2", "--grid", "0.5,-1,2"),
    # numeric inversion without --phi-inv: a gallop toward infinite ends,
    # and toward the open end of (0,inf) with an adjoined neutral
    "reduce_x_exp_x3": ("reduce", "--phi", "x+exp(x)", "--n", "3", "--samples", "100"),
    "build_sqrt_open": (
        "build", "--phi", "sqrt(x)", "--interval", "(0,inf)", "--n", "3", "--samples", "20",
    ),
    "reduce_sqrt_open": (
        "reduce", "--phi", "sqrt(x)", "--interval", "(0,inf)", "--n", "3", "--samples", "20",
    ),
    # a decreasing generator, whose ITP steps take the other branch
    "build_decreasing_log": (
        "build", "--phi", "1-ln(x)", "--interval", "(0,inf)", "--n", "2", "--samples", "20",
    ),
    "reduce_decreasing_log": (
        "reduce", "--phi", "1-ln(x)", "--interval", "(0,inf)", "--n", "3", "--samples", "20",
    ),
    # a steep generator, whose brackets start wide
    "build_quintic3": ("build", "--phi", "x^5+x", "--n", "3", "--samples", "20"),
    # down-unit roots of a curved diagonal, inverted to the last float
    "extract_product3": (
        "extract", "--op", "product", "--n", "3", "--c", "2",
        "--grid", "0.5,1,2,4", "--resolution", "0.00390625",
    ),
    # round trips through the rebuilt operation, and an additivity witness
    "roundtrip_product3": ("roundtrip", "--op", "product", "--n", "3", "--c", "2", "--grid", "0.5,1,2"),
    "roundtrip_translated_sum4": (
        "roundtrip", "--op", "translated_sum", "--n", "4", "--c", "1", "--grid=-2:2:0.5",
        "--resolution", "0.0009765625", "--samples", "200",
    ),
    "extract_witness_expr3": (
        "extract", "--op", "expr:x1+x2+x3+0.2*x1", "--n", "3", "--c", "1",
        "--grid=-2:2:0.5", "--resolution", "0.00390625",
    ),
    # the sampled checks' draws: both extension witnesses, a cancellativity
    # witness on the real line (161 lattice points, a set-tracked section
    # pick) and a pass on (0,1) (15 points, a pool-tracked pick)
    "extend_cubic_tail3": ("extend", "--op", "expr:x1+x2+x3^2", "--n", "3", "--samples", "40"),
    "axioms_expr_product2_line": ("axioms", "--op", "expr:x1*x2", "--n", "2", "--samples", "40"),
    "axioms_bounded_product3": ("axioms", "--op", "bounded_product", "--n", "3", "--samples", "40"),
}

_TIMING = re.compile(r'("timing_ms": )[^,\n}]+')


def capture(argv) -> dict:
    """Run one JSON-format invocation in-process; ``timing_ms`` masked."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([*argv, "--format", "json"])
    stdout, masked = _TIMING.subn(r'\1"<masked>"', out.getvalue())
    assert masked == (1 if stdout else 0)
    return {"exit": code, "stdout": stdout, "stderr": err.getvalue()}


@pytest.mark.parametrize("name", sorted(INVOCATIONS))
def test_report_bytes_match_golden(name):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))[name]
    assert capture(INVOCATIONS[name]) == expected


if __name__ == "__main__":
    golden = {name: capture(argv) for name, argv in sorted(INVOCATIONS.items())}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    sys.exit(0)
