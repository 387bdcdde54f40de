"""The benchmark's layer tracer (``bench/tracing.py``) patches entry points
of the package by name from outside it. A change under ``src/`` that drops
or renames one of those names would break ``bench/run.py --trace 1``;
this test fails first."""

import io
from contextlib import redirect_stdout
from pathlib import Path

from naryops import cli

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _traced_reference(monkeypatch, name):
    """Run one reference invocation of the benchmark under the tracer:
    its exit code, the tracer and the patches it made."""
    monkeypatch.syspath_prepend(str(BENCH))
    from tracing import Tracer
    from workloads import REFERENCES

    invocation, _ = REFERENCES[name]
    tracer = Tracer()
    try:
        tracer.install()  # getattr raises AttributeError on a missing name
        patched = list(tracer._undo)
        tracer.active = True
        with redirect_stdout(io.StringIO()):
            code = cli.main([*invocation.argv, "--format", "json"])
    finally:
        tracer.active = False
        tracer.uninstall()
    return code, tracer, patched


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
    # ITP's step sequence fixes the phi calls, and every call of a compiled
    # expression counts only while cli.make_callable is the name it is
    # looked up by
    code, tracer, _ = _traced_reference(monkeypatch, "build_cubic2")
    assert code == 0
    assert tracer.calls["generator.invert_monotone"] == 1_200
    assert tracer.calls["generator.phi"] == 16_525
    assert tracer.calls["exprlang.call"] == 19_060
