"""The benchmark's layer tracer (``bench/tracing.py``) patches entry points
of the package by name from outside it. A change under ``src/`` that drops
or renames one of those names would break ``bench/run.py --trace 1``;
this test fails first."""

import io
from contextlib import redirect_stdout
from pathlib import Path

from naryops import cli

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _traced(monkeypatch, argv):
    """Run one invocation under the benchmark's tracer: its exit code, the
    tracer and the patches it made."""
    monkeypatch.syspath_prepend(str(BENCH))
    from tracing import Tracer

    tracer = Tracer()
    try:
        tracer.install()  # getattr raises AttributeError on a missing name
        patched = list(tracer._undo)
        tracer.active = True
        with redirect_stdout(io.StringIO()):
            code = cli.main([*argv, "--format", "json"])
    finally:
        tracer.active = False
        tracer.uninstall()
    return code, tracer, patched


def _traced_reference(monkeypatch, name):
    """Run one reference invocation of the benchmark under the tracer."""
    monkeypatch.syspath_prepend(str(BENCH))
    from workloads import REFERENCES

    invocation, _ = REFERENCES[name]
    return _traced(monkeypatch, invocation.argv)


def test_tracer_patches_existing_names_and_counts_the_reference(monkeypatch):
    code, tracer, patched = _traced_reference(monkeypatch, "extract_sum2")
    assert patched and all(callable(original) for _, _, original in patched)
    assert code == 0
    assert tracer.calls["extraction.phi_at"] == 17
    # extraction walks diagonal units and evaluates no power string, which
    # is why ExtendedOp folds them afresh instead of caching them
    for name in ("extension.power", "extension.string_power", "extraction.sx_membership"):
        assert tracer.calls[name] == 0, name
    assert tracer.calls["cli.main"] == 1
    assert all(getattr(owner, attr) is original for owner, attr, original in patched)


def test_tracer_counts_the_inversion_reference(monkeypatch):
    # ITP's step sequence and the spec's bracketing ladder fix the phi
    # calls, the spec's memo of roots the inversions, and every call of a
    # compiled expression counts only while cli.make_callable is the name
    # it is looked up by; the second run compiles on a warm cache, and
    # make_callable still returns a new function for the tracer to wrap
    for _ in range(2):
        code, tracer, _ = _traced_reference(monkeypatch, "build_cubic2")
        assert code == 0
        assert tracer.calls["generator.invert_monotone"] == 913
        assert tracer.calls["generator.phi"] == 7_856
        assert tracer.calls["exprlang.call"] == 10_391


def test_tracer_counts_the_falsify_layers(monkeypatch):
    # every checked evaluation of the sampled checks runs one domain test
    # through core.interval_contains, the name the tracer patches; a
    # checked evaluation that bypasses it would blind the per-layer counts
    argv = ("axioms", "--op", "sum", "--n", "3", "--samples", "40", "--seed", "1")
    code, tracer, _ = _traced(monkeypatch, argv)
    assert code == 0
    # associativity 40 * 3 nestings * 2, symmetry 40 * (1 + 2 generators),
    # cancellativity 3 coordinates * 10 sections * 9 points
    assert tracer.calls["core.checked"] == 630
    assert tracer.calls["core.contains"] == 630
    assert tracer.calls["axioms.check"] == 3


def test_tracer_counts_the_extension_folds(monkeypatch):
    # each sample folds 3 strings for the nested identity (the inner block,
    # the string with it substituted, the flat string) and 5 for the split
    # one (3 heads, then both sides); a fold that skipped or repeated a
    # step would move the checked counts, one per step of every fold
    argv = ("extend", "--op", "sum", "--n", "3", "--samples", "40", "--seed", "1")
    code, tracer, _ = _traced(monkeypatch, argv)
    assert code == 0
    assert tracer.calls["extension.eval"] == 320
    assert tracer.calls["core.checked"] == 532
    assert tracer.calls["core.contains"] == 532
