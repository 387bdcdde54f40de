"""Digest every report the benchmark's invocations produce, to show that a
change keeps the report bytes.

    python tools/report_digest.py [--repo PATH] SEED...

Imports ``naryops`` from ``PATH/src`` and the invocation lists from
``PATH/bench`` (``PATH`` defaults to the checkout that holds this tool),
then runs each distinct invocation of the given seeds, the warm-ups and
the references through ``naryops.cli.main`` in json and in text format.
Each run prints one line: a digest of the exit code, the standard output
without ``timing_ms`` and the standard error; then the exit code, the
format and the argv. Run it on two checkouts and ``diff`` the outputs.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import re
import shlex
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

#: the one line of a json report that differs from run to run
_TIMING = re.compile(r'^  "timing_ms": [^\n]*\n', re.M)


def invocations(seeds: list[int]) -> list[tuple[str, ...]]:
    """The distinct argvs of the seeded workloads, the warm-ups and the
    references, in the order first met."""
    from workloads import REFERENCES, WORKLOADS

    argvs = [argv for w in WORKLOADS.values() for argv in w.warmup]
    argvs += [inv.argv for inv, _ in REFERENCES.values()]
    for seed in seeds:
        for w in WORKLOADS.values():
            argvs += [inv.argv for inv in w.invocations(seed)]
    return list(dict.fromkeys(argvs))


def digest_line(cli_main, argv: tuple[str, ...], fmt: str) -> str:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli_main([*argv, "--format", fmt])
        except Exception as exc:  # a crash is an outcome; its lines name no path
            code = "crash"
            err.write("".join(traceback.format_exception_only(type(exc), exc)))
    seen = "\0".join((str(code), _TIMING.sub("", out.getvalue()), err.getvalue()))
    digest = hashlib.sha256(seen.encode()).hexdigest()[:16]
    return f"{digest} {code} {fmt} {shlex.join(argv)}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repo", type=Path, default=Path(__file__).resolve().parent.parent)
    parser.add_argument("seeds", nargs="+", type=int, metavar="SEED")
    args = parser.parse_args(argv)
    repo = args.repo.resolve()
    if not (repo / "src" / "naryops" / "cli.py").is_file():
        print(f"report_digest: no naryops sources under {repo / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(repo / "src"), str(repo / "bench")]
    from naryops.cli import main as cli_main

    for inv in invocations(args.seeds):
        for fmt in ("json", "text"):
            print(digest_line(cli_main, inv, fmt))
    return 0


if __name__ == "__main__":
    sys.exit(main())
