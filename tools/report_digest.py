"""Digest every report the benchmark's invocations produce, to show that a
change keeps the report bytes; or count the work and the memory of each.

    python tools/report_digest.py [--repo PATH] [--ops | --mem] SEED...

Imports ``naryops`` from ``PATH/src`` and the invocation lists from
``PATH/bench`` (``PATH`` defaults to the checkout that holds this tool),
then runs each distinct invocation of the given seeds, the warm-ups and
the references through ``naryops.cli.main`` in json and in text format.
Each run prints one line: a digest of the exit code, the standard output
without ``timing_ms`` and the standard error; then the exit code, the
format and the argv. Run it on two checkouts and ``diff`` the outputs.

``--ops`` and ``--mem`` first run the warm-ups once, untraced, so that
the caches that live for the process are full, and then run each distinct
invocation once, in json format. ``--ops`` prints the Python bytecode
instructions executed under ``cli.main`` (``sys.settrace`` with
``f_trace_opcodes``) and the calls of C functions (``sys.setprofile``
``c_call`` events), then the argv; ``--mem`` prints the tracemalloc peak
in bytes, then the argv. A last line per workload sums the counts of its
seeded list, repeats included, or takes the largest peak.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import re
import shlex
import sys
import traceback
import tracemalloc
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


def run_quietly(cli_main, argv: tuple[str, ...], fmt: str) -> tuple[object, str, str]:
    """The exit code (``"crash"`` for an exception), the standard output
    and the standard error of one invocation."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli_main([*argv, "--format", fmt])
        except Exception as exc:  # a crash is an outcome; its lines name no path
            code = "crash"
            err.write("".join(traceback.format_exception_only(type(exc), exc)))
    return code, out.getvalue(), err.getvalue()


def digest_line(cli_main, argv: tuple[str, ...], fmt: str) -> str:
    code, out, err = run_quietly(cli_main, argv, fmt)
    seen = "\0".join((str(code), _TIMING.sub("", out), err))
    digest = hashlib.sha256(seen.encode()).hexdigest()[:16]
    return f"{digest} {code} {fmt} {shlex.join(argv)}"


def count_ops(cli_main, argv: tuple[str, ...]) -> tuple[int, int]:
    """Bytecode instructions and C calls of one json run."""
    ops = c_calls = 0

    def opcodes(frame, event, arg):
        nonlocal ops
        if event == "opcode":
            ops += 1
        return opcodes

    def trace(frame, event, arg):  # a new frame: count its opcodes
        frame.f_trace_opcodes = True
        return opcodes

    def profile(frame, event, arg):
        nonlocal c_calls
        if event == "c_call":
            c_calls += 1

    def traced_main(args):
        sys.settrace(trace)
        sys.setprofile(profile)
        try:
            return cli_main(args)
        finally:
            sys.setprofile(None)
            sys.settrace(None)

    run_quietly(traced_main, argv, "json")
    return ops, c_calls


def peak_bytes(cli_main, argv: tuple[str, ...]) -> tuple[int]:
    """The tracemalloc peak of one json run, in bytes."""
    tracemalloc.start()
    try:
        run_quietly(cli_main, argv, "json")
        return (tracemalloc.get_traced_memory()[1],)
    finally:
        tracemalloc.stop()


def measure(cli_main, seeds: list[int], probe, total) -> None:
    """Print the probe's figures for each distinct invocation, then per
    workload the ``total`` of its seeded list's figures."""
    from workloads import WORKLOADS

    for w in WORKLOADS.values():
        for argv in w.warmup:
            run_quietly(cli_main, argv, "json")
    seen = {}
    for argv in invocations(seeds):
        seen[argv] = probe(cli_main, argv)
        print(*seen[argv], shlex.join(argv))
    for name, w in WORKLOADS.items():
        figures = [seen[inv.argv] for seed in seeds for inv in w.invocations(seed)]
        print(f"workload {name}:", *(total(column) for column in zip(*figures)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repo", type=Path, default=Path(__file__).resolve().parent.parent)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--ops", action="store_true", help="count instructions and C calls")
    mode.add_argument("--mem", action="store_true", help="measure the tracemalloc peak")
    parser.add_argument("seeds", nargs="+", type=int, metavar="SEED")
    args = parser.parse_args(argv)
    repo = args.repo.resolve()
    if not (repo / "src" / "naryops" / "cli.py").is_file():
        print(f"report_digest: no naryops sources under {repo / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(repo / "src"), str(repo / "bench")]
    from naryops.cli import main as cli_main

    if args.ops:
        measure(cli_main, args.seeds, count_ops, sum)
    elif args.mem:
        measure(cli_main, args.seeds, peak_bytes, max)
    else:
        for inv in invocations(args.seeds):
            for fmt in ("json", "text"):
                print(digest_line(cli_main, inv, fmt))
    return 0


if __name__ == "__main__":
    sys.exit(main())
