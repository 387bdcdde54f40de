"""The benchmark's layer tracer (``bench/tracing.py``) patches entry points
of the package by name from outside it. A change under ``src/`` that drops
or renames one of those names would break ``bench/run.py --trace 1``;
this test fails first."""

import io
from contextlib import redirect_stdout
from pathlib import Path

from naryops import cli

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_patches_existing_names_and_counts_the_reference(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    from tracing import Tracer
    from workloads import REFERENCES

    invocation, _ = REFERENCES["extract_sum2"]
    tracer = Tracer()
    try:
        tracer.install()  # getattr raises AttributeError on a missing name
        patched = list(tracer._undo)
        assert patched and all(callable(original) for _, _, original in patched)
        tracer.active = True
        with redirect_stdout(io.StringIO()):
            code = cli.main([*invocation.argv, "--format", "json"])
    finally:
        tracer.active = False
        tracer.uninstall()
    assert code == 0
    assert tracer.calls["extraction.phi_at"] == 17
    assert tracer.calls["cli.main"] == 1
    assert all(getattr(owner, attr) is original for owner, attr, original in patched)
