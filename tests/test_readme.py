"""The README's examples run as documented: each CLI example exits with
the code its comment promises, the library sketch prints what it says
it prints, the API count it states is the package's, its exit-code
table names each flag rule that exits 2, and ``--samples`` means per
command what it and ``--help`` say."""

import contextlib
import io
import json
import pathlib
import re
import shlex

import pytest

import naryops
from naryops.cli import main

README = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()


def _block(after: str, lang: str) -> str:
    """The first fenced block in ``lang`` after the line ``after``."""
    start = README.index(after)
    return re.search(rf"```{lang}\n(.*?)```", README[start:], re.S).group(1)


def _commands(block: str) -> list[list[str]]:
    """The commands of a shell block, with backslash continuations joined
    and comments dropped."""
    text = block.replace("\\\n", " ")
    return [
        shlex.split(line)
        for line in text.splitlines()
        if line.strip() and not line.lstrip().startswith("#")
    ]


def test_cli_examples_exit_as_documented():
    commands = _commands(_block("Examples:", "sh"))
    codes = []
    for argv in commands:
        assert argv[0] == "naryops"
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            codes.append(main(argv[1:]))
    assert codes == [1, 0, 1, 0, 0, 0]


def test_library_sketch_prints_log2_and_the_product():
    out = io.StringIO()
    scope: dict = {}
    with contextlib.redirect_stdout(out):
        exec(_block("## Library sketch", "python"), scope)
    samples = ((0.5, -1.0), (1.0, 0.0), (2.0, 1.0), (4.0, 2.0), (8.0, 3.0))
    assert scope["gen"].samples == samples
    assert out.getvalue().splitlines() == [repr(samples), "6.0"]


def test_stated_api_count_is_the_package_api():
    stated = re.search(r"(\d+) names that\s+`tests/test_api\.py` pins", README)
    assert stated is not None
    assert int(stated.group(1)) == len(naryops.__all__)


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--samples", "0"),
        ("--window", "nan"),
        ("--tol", "-1"),
        ("--resolution", "0"),
        ("--grid", "0:10000:1"),
        ("--grid", ""),
        ("--interval", "[0,1]"),
        ("--n", "101"),
    ],
)
def test_exit_code_two_names_each_flag_rule(flag, value):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(["extract", "--op", "sum", "--n", "2", f"{flag}={value}"])
    assert code == 2
    row = re.search(r"^\| 2 +\|(.*)\|$", README, re.M)
    assert row is not None and f"`{flag}`" in row.group(1)


@pytest.mark.parametrize(
    "argv, used",
    [
        (["axioms", "--op", "sum", "--n", "2", "--samples", "60"],
         {"associativity": 60, "symmetry": 60, "cancellativity": 2 * 12}),
        (["axioms", "--op", "sum", "--n", "3", "--samples", "7"],
         {"associativity": 7, "symmetry": 7, "cancellativity": 3 * 10}),
        (["extend", "--op", "sum", "--n", "2", "--samples", "60"],
         {"nested_identity": 60, "split_identity": 60}),
        (["build", "--phi", "x", "--samples", "60"], {"associativity": 60, "symmetry": 60}),
        (["reduce", "--op", "sum", "--samples", "60"],
         {"reduction": 60, "binary_associativity": 50, "neutrality": 20}),
        (["reduce", "--op", "sum", "--samples", "300"],
         {"reduction": 300, "binary_associativity": 60, "neutrality": 20}),
        (["roundtrip", "--op", "sum", "--c", "1", "--samples", "1500"], {"roundtrip": 1000}),
        (["extract", "--op", "sum", "--c", "1", "--samples", "7"], {"additivity": 100}),
    ],
    ids=["axioms-2", "axioms-3", "extend", "build", "reduce-60", "reduce-300", "roundtrip", "extract"],
)
def test_samples_means_what_the_readme_and_help_say(argv, used):
    # the counts each check reports, against the README's list and --help
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main([*argv, "--format", "json"]) == 0
    checks = json.loads(out.getvalue())["checks"]
    assert {name: r["samples_used"] for name, r in checks.items()} == used
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(["--help"]) == 0
    help_text = " ".join(out.getvalue().split())
    for rule in ("max(10, N // 5)", "max(50, N // 5)", "min(N, 1000)"):
        assert rule in README and rule.replace(" // ", "//") in help_text
    assert "always 100" in README and "extract always 100" in help_text
