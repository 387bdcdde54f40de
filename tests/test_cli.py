import argparse
import inspect
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from naryops import cli, errors
from naryops.axioms import Witness
from naryops.cli import (
    RunConfig,
    build_parser,
    load_generator,
    load_opspec,
    main,
    parse_grid,
    run,
)
from naryops.core import builtin_lookup
from naryops.errors import NaryError
from naryops.exprlang import ParseError, make_callable, parse as parse_expr
from naryops.reducibility import adjoin_neutral


def test_load_opspec_builtin():
    f = load_opspec("product", 3, "(0,inf)")
    assert f.arity == 3 and f.eval(2.0, 2.0, 2.0) == 8.0


def test_load_opspec_expression():
    f = load_opspec("expr:x1 - x2 + x3", 3, "(-inf,inf)")
    assert f.eval(1.0, 2.0, 3.0) == 2.0
    alt = builtin_lookup("alternating", 3)
    for tup in ((1.0, 2.0, 3.0), (-4.0, 0.5, 2.25)):
        assert f.eval(*tup) == alt.eval(*tup)


def test_load_opspec_rejects_generator_names(capsys):
    # generator names are no builtins: --op log_generator is a configuration error
    with pytest.raises(ValueError, match="unknown builtin 'identity_generator'"):
        load_opspec("identity_generator", 2)
    assert main(["axioms", "--op", "log_generator"]) == 2
    assert "unknown builtin 'log_generator'" in capsys.readouterr().err


def test_load_opspec_parse_error():
    from naryops.exprlang import ParseError

    with pytest.raises(ParseError):
        load_opspec("expr:x1 +", 2)


def test_load_generator_with_inverse():
    spec = load_generator("ln(x)", "exp(x)", "(0,inf)", None)
    assert abs(spec.phi(math.e) - 1.0) <= 1e-12
    assert abs(spec.phi_inverse(1.0) - math.e) <= 1e-12
    assert spec.codomain.render() == "(-inf,+inf)"


def test_parse_grid_forms():
    assert parse_grid("-2:2:1") == (-2.0, -1.0, 0.0, 1.0, 2.0)
    assert parse_grid("0.5,1,2") == (0.5, 1.0, 2.0)
    # endpoint included when within half a step
    assert parse_grid("0:1:0.5") == (0.0, 0.5, 1.0)
    with pytest.raises(ValueError):
        parse_grid("1:0:0.5")
    with pytest.raises(ValueError):
        parse_grid("0:1:0.5:9")


def test_exit_code_zero_gallery(capsys):
    assert main(["gallery", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "pass: True" in out


def test_exit_code_one_asymmetric(capsys):
    code = main(["axioms", "--op", "alternating", "--n", "3", "--samples", "200"])
    assert code == 1


def test_exit_code_two_usage(capsys):
    assert main(["axioms", "--op", "nosuch", "--n", "2"]) == 2
    assert main(["axioms", "--op", "expr:x1 +", "--n", "2"]) == 2
    assert main(["axioms", "--op", "alternating", "--n", "4"]) == 2
    assert main(["nosuchcommand"]) == 2
    assert main(["extract", "--op", "sum", "--n", "2", "--grid", "zebra"]) == 2


def test_exit_code_three_numeric(capsys):
    code = main(
        ["extract", "--op", "alternating", "--n", "3", "--grid=-1:1:0.5"]
    )
    assert code == 3
    code = main(
        ["extract", "--op", "product", "--n", "2", "--c", "2", "--grid", "1000000"]
    )
    assert code == 3


def test_axioms_json_report_shape(tmp_path):
    out = tmp_path / "report.json"
    cfg = RunConfig(
        command="axioms", op="alternating", n=3, samples=200, seed=7,
        fmt="json", out=str(out),
    )
    code, report = run(cfg)
    assert code == 1
    data = json.loads(out.read_text())
    for key in ("command", "config_echo", "pass", "residuals", "witnesses", "timing_ms", "seed"):
        assert key in data
    assert data["pass"] is False
    assert data["residuals"]["associativity"] == 0.0
    assert data["residuals"]["cancellativity"] == 0.0
    assert data["residuals"]["symmetry"] > 0.0


def test_witness_round_trip_through_json(tmp_path):
    out = tmp_path / "report.json"
    cfg = RunConfig(
        command="axioms", op="alternating", n=3, samples=100, seed=9,
        fmt="json", out=str(out),
    )
    run(cfg)
    data = json.loads(out.read_text())
    w = Witness.from_dict(data["checks"]["symmetry"]["witness"])
    alt = builtin_lookup("alternating", 3)
    assert abs(w.replay(alt) - w.residual) <= 1e-12 * (1.0 + w.residual)


def test_reports_deterministic_modulo_timing(tmp_path):
    paths = []
    for i in range(2):
        out = tmp_path / f"r{i}.json"
        cfg = RunConfig(
            command="axioms", op="product", n=3, samples=150, seed=11,
            fmt="json", out=str(out),
        )
        run(cfg)
        paths.append(out)
    d1 = json.loads(paths[0].read_text())
    d2 = json.loads(paths[1].read_text())
    t1 = d1.pop("timing_ms")
    t2 = d2.pop("timing_ms")
    assert d1 == d2
    assert isinstance(t1, float) and isinstance(t2, float)
    # byte-identical apart from the timing line
    s1 = json.dumps(d1, sort_keys=True)
    s2 = json.dumps(d2, sort_keys=True)
    assert s1 == s2


def test_extract_csv_table(tmp_path):
    out = tmp_path / "table.csv"
    cfg = RunConfig(
        command="extract", op="sum", n=2, c=1.0, grid="-2:2:0.5",
        resolution=1.0 / 64.0, fmt="csv", out=str(out),
    )
    code, report = run(cfg)
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "x,phi"
    assert lines[1] == "-2.0,-2.0"
    xs = [float(line.split(",")[0]) for line in lines[1:]]
    assert xs == sorted(xs)


def test_csv_requires_table():
    cfg = RunConfig(command="axioms", op="sum", n=2, samples=10, fmt="csv", out="-")
    with pytest.raises(ValueError):
        run(cfg)


def test_run_names_an_unknown_format_and_command():
    # the parser admits neither, so only a RunConfig built by hand meets them
    with pytest.raises(ValueError, match="^unknown format 'yaml'$"):
        run(RunConfig("axioms", op="sum", samples=10, fmt="yaml"))
    with pytest.raises(ValueError, match="^unknown command 'frobnicate'$"):
        run(RunConfig("frobnicate"))


def test_builtin_below_arity_two_exits_two(capsys):
    assert main(["axioms", "--op", "sum", "--n", "1"]) == 2
    assert capsys.readouterr().err == (
        "naryops: configuration error: builtin 'sum' needs arity n >= 2, got 1\n"
    )


def test_unwritable_path_exits_two(tmp_path):
    bad = tmp_path / "missing_dir" / "x.json"
    code = main(
        ["gallery", "--seed", "1", "--format", "json", "--out", str(bad)]
    )
    assert code == 2


def test_build_command_runs_checks(tmp_path):
    out = tmp_path / "build.json"
    cfg = RunConfig(
        command="build", phi="ln(x)", phi_inv="exp(x)", interval="(0,inf)",
        n=2, samples=100, seed=2, fmt="json", out=str(out),
    )
    code, report = run(cfg)
    assert code == 0
    data = json.loads(out.read_text())
    assert data["pass"] is True
    assert data["codomain_form"]["form"] == "full_line"


def test_build_rejects_inadmissible_codomain():
    code = main(
        ["build", "--phi", "x", "--codomain", "(-1,inf)", "--n", "2", "--samples", "10"]
    )
    assert code == 2


def test_roundtrip_command(tmp_path):
    out = tmp_path / "rt.json"
    cfg = RunConfig(
        command="roundtrip", op="sum", n=2, c=1.0, grid="-2:2:0.4",
        resolution=1.0 / 64.0, samples=100, seed=5, fmt="json", out=str(out),
    )
    code, report = run(cfg)
    assert code == 0
    data = json.loads(out.read_text())
    assert data["pass"] is True
    assert data["residuals"]["roundtrip"] <= data["threshold"]


def test_reduce_command_builtin(tmp_path):
    out = tmp_path / "red.json"
    cfg = RunConfig(
        command="reduce", op="translated_sum", n=3, samples=150, seed=6,
        fmt="json", out=str(out),
    )
    code, report = run(cfg)
    assert code == 0
    data = json.loads(out.read_text())
    assert abs(data["neutral"] - (-0.5)) <= 1e-9
    assert data["neutral_adjoined"] is False


def test_reduce_command_adjoined(tmp_path):
    out = tmp_path / "red2.json"
    cfg = RunConfig(
        command="reduce", op="bounded_product", n=2, samples=100, seed=6,
        window=0.9, fmt="json", out=str(out),
    )
    code, report = run(cfg)
    assert code == 0
    data = json.loads(out.read_text())
    assert data["neutral_adjoined"] is True


def test_reduce_requires_generator_source():
    assert main(["reduce", "--op", "alternating", "--n", "3"]) == 2


def test_extend_command():
    code = main(
        ["extend", "--op", "product", "--n", "3", "--samples", "50", "--seed", "4"]
    )
    assert code == 0
    code = main(
        ["extend", "--op", "expr:x1 + x2 + x3 * x3", "--n", "3",
         "--samples", "50", "--seed", "4"]
    )
    assert code == 1


def _extend_peak(samples: int) -> int:
    """The tracemalloc peak, in bytes, of one in-process extend run."""
    tracemalloc.start()
    try:
        assert main(["extend", "--op", "sum", "--n", "20", "--samples", str(samples)]) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_extend_memory_is_flat_in_the_sample_count(capsys):
    # each sample is checked as it is drawn and then dropped; holding
    # every sample made the peak grow tenfold from 50 to 500 samples
    _extend_peak(50)  # the parser and the first report's imports
    assert _extend_peak(500) <= 1.25 * _extend_peak(50)


#: x1 + x2 until x1 passes 15, where sqrt escapes its domain; at 30
#: samples, seed 12 escapes in the nested identity only, seed 16 in the
#: split identity only, and seed 8 in both, the split one at an earlier
#: sample (4) than the nested one (9)
SQRT_TAIL = "expr:x1+x2+sqrt(15-x1)-sqrt(15-x1)"


@pytest.mark.parametrize(
    "seed, at",
    [(12, "(15.625, 1.25): sqrt of negative -0.625"),
     (16, "(15.875, -8.625): sqrt of negative -0.875"),
     (8, "(15.25, 3.0): sqrt of negative -0.25")],
    ids=["nested_only", "split_only", "both_nested_wins"],
)
def test_extend_reports_the_nested_escape_before_the_split_one(seed, at, capsys):
    # the messages of a run that checked every sample's nested identity
    # before any split identity
    argv = ["extend", "--op", SQRT_TAIL, "--n", "2", "--samples", "30", "--seed", str(seed)]
    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"naryops: numeric failure: {SQRT_TAIL} at {at}\n")


@pytest.mark.parametrize("command", ["build", "reduce"])
def test_generator_sum_past_float_range_exits_three(command, capsys):
    # exp values near 709.5 are finite, their pairwise sums are not
    code = main(
        [command, "--phi", "exp(x)", "--phi-inv", "ln(x)", "--codomain", "(0,inf)",
         "--n", "2", "--interval", "(709.1,709.7)", "--window", "710", "--samples", "50"]
    )
    assert code == 3
    err = capsys.readouterr().err
    # the generated operation's checked evaluation names itself and the inputs
    assert err == (
        "naryops: numeric failure: generated[exp(x)]/2 at (709.5, 709.53125): "
        "generator sum inf escapes codomain (0.0,+inf)\n"
    )


@pytest.mark.parametrize("resolution", ["nan", "inf", "0", "-1"])
def test_resolution_must_be_positive_and_finite(resolution, capsys):
    code = main(
        ["extract", "--op", "sum", "--n", "2", "--c", "1", "--grid", "0,2", f"--resolution={resolution}"]
    )
    assert code == 2
    assert "configuration error: resolution must be positive and finite" in capsys.readouterr().err


def test_odd_power_overflow_keeps_its_sign(capsys):
    # x^3 at -1e200 is -inf; read as +inf it made the estimated codomain
    # empty, a configuration error
    assert make_callable(parse_expr("x^3", 1), 1)(-1e200) == -math.inf
    code = main(
        ["build", "--phi", "x^3", "--phi-inv", "x", "--interval", "(-1e200,1e200)",
         "--window", "1e200", "--samples", "20"]
    )
    assert code in (0, 1, 3)
    assert "configuration error" not in capsys.readouterr().err


def test_deep_expressions_end_in_a_report_or_a_parse_error(capsys):
    # neither may end in a RecursionError traceback (exit 1): a sum of
    # 1,000 terms (x1 + x2, then zeros) compiles, 200 parentheses are
    # rejected by the parser
    lawful = "+".join(["x1", "x2"] + ["0*x1", "0*x2"] * 499)
    assert main(["axioms", f"--op=expr:{lawful}", "--n", "2", "--samples", "20"]) == 0
    capsys.readouterr()
    assert main(["build", "--phi=" + "(" * 200 + "x" + ")" * 200, "--samples", "5"]) == 2
    assert "at offset 100: expected at most 100 levels of nesting" in capsys.readouterr().err


def test_main_builds_its_parser_once(monkeypatch, capsys):
    built = []
    real_init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    build_parser.cache_clear()
    assert main(["axioms", "--op", "sum", "--samples", "5"]) == 0
    assert built, "the first call builds the parser"
    built.clear()
    for argv in (
        ["axioms", "--op", "sum", "--samples", "5"],
        ["extend", "--op", "sum", "--n", "3", "--samples", "5"],
        ["axioms", "--op", "nosuch"],
        ["nosuchcommand"],
        ["build", "--help"],
    ):
        main(argv)
    assert built == []


def test_flags_do_not_leak_between_calls(capsys):
    argv = ["axioms", "--op", "sum", "--format", "json"]
    assert main([*argv, "--c", "2", "--samples", "7"]) == 0
    first = json.loads(capsys.readouterr().out)["config_echo"]
    assert first["c"] == 2.0 and first["samples"] == 7
    assert main(argv) == 0
    second = json.loads(capsys.readouterr().out)["config_echo"]
    assert second["c"] is None and second["samples"] == 500


@pytest.mark.parametrize(
    "argv,code",
    [
        (["--help"], 0),
        (["build", "--help"], 0),
        (["extract", "-h"], 0),
        ([], 2),
        (["nosuchcommand"], 2),
        (["axioms", "--n", "two"], 2),
        (["axioms", "--format", "xml"], 2),
        (["axioms", "--help"], 0),
        (["extend", "--help"], 0),
        (["roundtrip", "--help"], 0),
        (["reduce", "--help"], 0),
        (["gallery", "--help"], 0),
    ],
)
def test_help_and_usage_do_not_depend_on_earlier_calls(argv, code, capsys):
    build_parser.cache_clear()
    assert main(argv) == code
    first = capsys.readouterr()
    assert (first.out if code == 0 else first.err).startswith("usage: naryops")
    main(["axioms", "--op", "sum", "--samples", "5", "--c", "1"])
    main(["axioms", "--bogus"])
    capsys.readouterr()
    assert main(argv) == code
    assert capsys.readouterr() == first


@pytest.mark.parametrize(
    "argv,message",
    [
        (["extend", "--op", "sum", "--n", "2", "--samples", "0"], "samples must be >= 1"),
        (["extend", "--op", "sum", "--n", "2", "--samples=-3"], "samples must be >= 1"),
        (["roundtrip", "--op", "sum", "--n", "2", "--c", "1", "--samples", "0"],
         "samples must be >= 1"),
        (["reduce", "--op", "sum", "--n", "2", "--samples", "0"], "samples must be >= 1"),
        (["axioms", "--op", "sum", "--window", "nan"], "window must be positive and finite"),
        (["extend", "--op", "sum", "--window", "nan"], "window must be positive and finite"),
        (["build", "--phi", "x^3+x", "--window", "nan"], "window must be positive and finite"),
        (["reduce", "--op", "sum", "--window", "inf"], "window must be positive and finite"),
        (["extract", "--op", "sum", "--window", "nan"], "window must be positive and finite"),
        (["axioms", "--op", "sum", "--window=-1"], "window must be positive and finite"),
        (["axioms", "--op", "sum", "--window", "0"], "window must be positive and finite"),
        (["axioms", "--op", "alternating", "--n", "3", "--tol", "inf"],
         "tol must be finite and >= 0"),
        (["axioms", "--op", "sum", "--tol=-1"], "tol must be finite and >= 0"),
        (["axioms", "--op", "sum", "--tol", "nan"], "tol must be finite and >= 0"),
        (["extend", "--op", "sum", "--n", "101", "--samples", "1"], "n must be <= 100"),
    ],
)
def test_numeric_flags_are_checked_before_any_work(argv, message, capsys):
    assert main(argv) == 2
    assert f"naryops: configuration error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "op,window,code",
    [
        ("sum", "6e17", 0),
        ("sum", "1e20", 0),
        ("sum", "1e300", 0),
        ("sum", "3e307", 0),
        ("sum", "1e308", 3),
        ("product", "1e308", 3),
    ],
)
def test_wide_finite_windows_are_sampled(op, window, code, capsys):
    assert main(["axioms", "--op", op, "--n", "2", "--samples", "20", "--window", window]) == code
    err = capsys.readouterr().err
    assert ("numeric failure" in err) == (code == 3)


def test_help_lists_every_command_with_its_help_line(capsys):
    commands = ("axioms", "extend", "build", "extract", "roundtrip", "reduce", "gallery")
    assert tuple(cli._COMMANDS) == commands
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    for name, (_, help_line) in cli._COMMANDS.items():
        assert f"\n  {name:<10} {help_line}\n" in out


@pytest.mark.parametrize(
    "command,flags",
    [
        ("axioms", ["--op", "sum", "--n", "3", "--samples", "20"]),
        ("extend", ["--op", "alternating", "--n", "3", "--samples", "20", "--format", "json"]),
        ("extract", ["--op", "sum", "--n", "2", "--c", "1", "--grid=-1:1:0.5"]),
        ("build", ["--phi", "x^3+x", "--samples", "5", "--format", "json"]),
    ],
)
def test_flags_before_the_command_give_the_same_report(command, flags, capsys):
    def report(argv):
        code = main(argv)
        out = capsys.readouterr().out
        return code, re.sub(r'"timing_ms": [^,\n]*', "", out)

    usual = report([command, *flags])
    assert report([*flags, command]) == usual
    assert report([*flags[:2], command, *flags[2:]]) == usual


def test_arity_at_the_bound_runs(capsys):
    assert main(["axioms", "--op", "sum", "--n", "100", "--samples", "1"]) == 0


def test_parser_holds_only_the_flags_given():
    # RunConfig is the one table of flag defaults
    args = build_parser().parse_args(["axioms"])
    assert vars(args) == {"command": "axioms"}
    assert RunConfig(**vars(args)) == RunConfig("axioms")
    args = build_parser().parse_args(["extract", "--c", "1", "--format", "json"])
    assert RunConfig(**vars(args)) == RunConfig("extract", c=1.0, fmt="json")


def test_wrong_inverse_fails_neutrality_with_a_witness(tmp_path):
    # x is not the inverse of 2x+1: the adjoined neutral phi^-1(0) = 0 is
    # not neutral, which the neutrality check reports with a witness
    out = tmp_path / "wrong.json"
    argv = ["reduce", "--phi", "2*x+1", "--phi-inv", "x", "--n", "2", "--samples", "20"]
    assert main([*argv, "--format", "json", "--out", str(out)]) == 1
    data = json.loads(out.read_text())
    assert data["checks"]["neutrality"]["pass"] is False
    assert data["checks"]["binary_associativity"]["pass"] is False
    witness = Witness.from_dict(data["checks"]["neutrality"]["witness"])
    structure = adjoin_neutral(load_generator("2*x+1", "x", None), 2)
    assert witness.replay(structure) == witness.residual > 0.0


@pytest.mark.parametrize(
    "argv,code,message",
    [
        # fsum overflows inside the scan: the point is skipped; the search
        # for a down unit reads the diagonal's overflow as +-inf and finds
        # the units of a finite base point
        (["--op", "sum", "--n", "3", "--window", "8e307", "--format", "json"], 0,
         '"base_point": -5.9375e+307'),
        # every scan point is finite, and alternating/3 is idempotent
        (["--op", "alternating", "--n", "3", "--window", "1e308", "--grid=-1,0,1"], 3,
         "numeric failure: all 257 scanned points of alternating/3 look idempotent"),
        # the idempotence threshold stays finite next to the largest floats
        (["--op", "sum", "--n", "2", "--window", "8e307", "--format", "json"], 0,
         '"base_point": -8e+307'),
        # every scan point overflows: the scan is empty, not idempotent
        (["--op", "product", "--n", "2", "--window", "1e308"], 3,
         "numeric failure: no scanned point of product/2 in [1e+305, 1e+308] "
         "evaluates inside the domain"),
    ],
    ids=["sum3_fsum_overflow", "alternating3_idempotent", "sum2_threshold", "product2_empty"],
)
def test_base_point_scan_of_the_widest_windows(argv, code, message, capsys):
    assert main(["extract", *argv]) == code
    captured = capsys.readouterr()
    assert message in (captured.out if code == 0 else captured.err)


#: every exception class of naryops.errors, listed by inspection so that a
#: new one meets the exit-code rule below without being named here
ERROR_CLASSES = [cls for _, cls in inspect.getmembers(errors, inspect.isclass)]


@pytest.mark.parametrize(
    "error",
    [ParseError(0, "an operand", "end of input"), ValueError("boom")]
    + [cls("boom") for cls in ERROR_CLASSES],
    ids=lambda error: type(error).__name__,
)
def test_each_error_class_exits_with_its_code(monkeypatch, capsys, error):
    def handler(cfg):
        raise error

    monkeypatch.setitem(cli._COMMANDS, "axioms", (handler, ""))
    code = main(["axioms", "--op", "sum"])
    err = capsys.readouterr().err
    if isinstance(error, ValueError):
        assert code == 2 and err.startswith("naryops: configuration error: ")
    else:
        assert isinstance(error, NaryError)
        assert code == 3 and err.startswith("naryops: numeric failure: ")


def test_every_error_class_is_a_numeric_failure():
    # configuration problems are ValueErrors, so naryops.errors keeps none
    assert ERROR_CLASSES and all(issubclass(cls, NaryError) for cls in ERROR_CLASSES)
    assert not any(issubclass(cls, ValueError) for cls in ERROR_CLASSES)


def test_run_config_is_a_frozen_record_of_the_flags():
    cfg = RunConfig("axioms", op="sum")
    assert list(cfg.echo()) == [
        "op", "phi", "phi_inv", "codomain", "n", "interval", "grid",
        "samples", "seed", "resolution", "tol", "c", "window",
    ]
    with pytest.raises(AttributeError):
        cfg.samples = 7
    twin = RunConfig("axioms", op="sum", samples=500)
    assert cfg == twin and hash(cfg) == hash(twin)
    assert cfg != RunConfig("extend", op="sum")
    assert repr(RunConfig("gallery")).startswith("RunConfig(command='gallery', op=None, ")


def test_cold_import_of_the_cli_loads_no_heavy_module():
    # -S: no site hooks, so only the package's own imports count
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        "import sys, naryops.cli; "
        "print(' '.join(m for m in ('dataclasses', 'inspect', 'json') if m in sys.modules))"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == ""


def test_a_reimport_frees_the_previous_package():
    # a typing.Union at import time enters typing's module-wide cache,
    # which would keep every earlier generation of the package alive
    src = Path(__file__).resolve().parent.parent / "src"
    code = """
import gc, sys, weakref
import naryops.cli
from naryops import core, exprlang, extension, generator, reducibility
classes = (core.Record, exprlang.Num, generator.GeneratorSpec,
           extension.BranchDirection, reducibility.AdjoinedNeutral)
refs = [weakref.ref(c) for c in classes]
del core, exprlang, extension, generator, reducibility, classes
for name in [m for m in sys.modules if m.split(".")[0] == "naryops"]:
    del sys.modules[name]
import naryops.cli
from naryops.exprlang import Expr, Num
gc.collect()
print(*[r() is None for r in refs], isinstance(Num(1.0), Expr))
"""
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == ["True"] * 6
