"""The README's examples run as documented: each CLI example exits with
the code its comment promises, the library sketch prints what it says
it prints, the API count it states is the package's, and its exit-code
table names each flag rule that exits 2."""

import contextlib
import io
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
