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
    "build_cubic": ("build", "--phi", "x^3+x"),
    "reduce_exp_with_inverse": (
        "reduce", "--phi", "exp(x)", "--phi-inv", "ln(x)", "--codomain", "(0,inf)", "--n", "3",
    ),
    "extract_grid_outside_domain": ("extract", "--op", "product", "--n", "2", "--grid", "0.5,-1,2"),
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
