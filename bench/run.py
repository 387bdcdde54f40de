"""End-to-end and per-layer benchmark of the naryops command line.

    python3 bench/run.py --workload {extract,falsify,generate} \
        --seed N --seconds S --trace {0,1}

Runs from the root of a source checkout and imports ``naryops`` from its
``src/`` directory. One client on one thread drives ``naryops.cli.main``
in-process in a closed loop: each invocation starts after the previous
one returned. Running in-process keeps the interpreter start and the
package import (both paid once per process) out of the per-command
latency; the import is measured in ``setup_s`` instead.

A run does fixed work, not a time budget: the seeded invocation list of
the workload (``workloads.py``), run for ``round(S / round_seconds)``
rounds, at least one, so that both sides of a comparison run the same
invocations. Each round starts with a set-up: a fresh import of
naryops, generation of the invocation list and a warm-up of a few
invocations. Timing excludes the output oracle (``oracle.py``), which
checks every invocation after it returns.

Times are speed-scaled. The machine this was tuned on is shared, and the
same Python code runs on it at speeds up to 2.5x apart, in phases that
last from a second to minutes. A fixed pure-Python loop (the speed
probe) is timed before and after every invocation and set-up, and each
time is multiplied by the ratio of ``PROBE_REFERENCE_S`` to the mean of
the two probe times, raised to the exponent with which such times
follow the probe there (``INVOCATION_EXPONENT``, ``SETUP_EXPONENT``).
A scaled time reads as the time at the speed where the probe takes
1 ms, which is about this machine's fast phase. The unscaled figures are
printed on the lines before the result.

``--trace 0`` prints the end-to-end metrics, measured without tracing:

* ``setup_s``: median set-up time over the rounds;
* ``cmd_ms.p50``, ``cmd_ms.p90``: each invocation's median latency over
  the rounds, timed around ``cli.main``, then the nearest-rank
  percentile over the invocations, whose count is printed. A failed
  invocation counts as +inf;
* ``cmds_per_s``: correct invocations per round over the summed
  per-invocation median latencies;
* ``error_rate``: failed invocations over attempted ones;
* ``peak_rss_mb``: peak resident memory of the process.

``--trace 1`` makes one untraced pass and three traced passes over the
list (twice with the seed, once with the next seed) and prints the
per-layer metrics of the first traced pass (``tracing.py``), the tracing
overhead, and the counts of two reference invocations. The run is
incorrect unless every count repeats exactly between the two same-seed
passes and the counts differ for the other seed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import math
import resource
import statistics
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import NamedTuple

from oracle import verify
from tracing import Tracer, deterministic_counts, layer_metrics
from workloads import REFERENCES, WORKLOADS

SRC = Path(__file__).resolve().parent.parent / "src"

#: iterations of the speed probe, and the probe time that scaled times refer to
PROBE_ITERATIONS = 2_500
PROBE_REFERENCE_S = 1e-3

#: how times follow the probe across the speed phases of the reference
#: machine: log-log slopes of invocation and set-up times against the
#: probe time, fitted over thousands of interleaved samples per workload
#: (0.85-0.87 for invocations of every workload, 0.63-0.73 for set-ups,
#: which include file reads)
INVOCATION_EXPONENT = 0.86
SETUP_EXPONENT = 0.67


class _Affine:
    __slots__ = ("a", "b")

    def __init__(self, a: float, b: float):
        self.a, self.b = a, b

    def __call__(self, v: float) -> float:
        return self.a * v + self.b


def speed_probe() -> float:
    """Seconds a fixed pure-Python loop takes now. The loop mixes the
    staples of the library's inner loops: tuples, ``math.fsum``, calls of
    a small object, float arithmetic and dict traffic."""
    f = _Affine(0.5, 1e-3)
    d: dict[int, float] = {}
    acc = 0.0
    t0 = time.perf_counter()
    for i in range(PROBE_ITERATIONS):
        acc = f(math.fsum((acc, i * 0.5, 1.0))) * 1e-3
        d[i & 63] = acc
        acc += d.get(i & 31, 0.0)
    return time.perf_counter() - t0


class Outcome(NamedTuple):
    scaled: float  # seconds at the reference speed
    raw: float  # seconds as timed
    reason: str | None  # why the oracle rejected the invocation


def call(argv, tracer: Tracer | None = None):
    """Run one invocation through ``naryops.cli.main``: exit code,
    seconds, captured stdout and stderr."""
    cli = sys.modules["naryops.cli"]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        if tracer is not None:
            tracer.active = True
        t0 = time.perf_counter()
        try:
            code = cli.main([*argv, "--format", "json"])
        except Exception:  # a crash is an outcome; the oracle rejects it
            code = None
            err.write(traceback.format_exc())
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.active = False
    return code, dt, out.getvalue(), err.getvalue()


def scaled(dt: float, probe_before: float, probe_after: float, exponent: float) -> float:
    return dt * (2.0 * PROBE_REFERENCE_S / (probe_before + probe_after)) ** exponent


def run_pass(invocations, tracer: Tracer | None = None) -> list[Outcome]:
    """One closed-loop pass over the invocations."""
    gc.collect()
    results = []
    before = speed_probe()
    for inv in invocations:
        code, dt, out, err = call(inv.argv, tracer)
        after = speed_probe()
        reason = verify(inv.codes, inv.expect, code, out)
        if reason and err.strip():
            reason += " | " + err.strip().splitlines()[-1]
        results.append(Outcome(scaled(dt, before, after, INVOCATION_EXPONENT), dt, reason))
        before = after
    return results


def set_up(workload, seed: int):
    """Import naryops afresh, build the invocation list and warm up:
    (scaled seconds, raw seconds, invocations)."""
    before = speed_probe()
    t0 = time.perf_counter()
    for name in [m for m in sys.modules if m == "naryops" or m.startswith("naryops.")]:
        del sys.modules[name]
    importlib.import_module("naryops.cli")
    invocations = workload.invocations(seed)
    for argv in workload.warmup:
        call(argv)
    dt = time.perf_counter() - t0
    return scaled(dt, before, speed_probe(), SETUP_EXPONENT), dt, invocations


def failures(runs) -> tuple[int, list[str]]:
    """Failed count over (invocations, outcomes) pairs, and a line per
    failure outside the known defects."""
    failed, unexpected = 0, []
    for invocations, outcomes in runs:
        for inv, outcome in zip(invocations, outcomes):
            if outcome.reason is None:
                continue
            failed += 1
            if inv.defect is None:
                unexpected.append(f"{' '.join(inv.argv)}: {outcome.reason}")
    return failed, unexpected


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def report_defects(invocations, outcomes) -> None:
    for inv, outcome in zip(invocations, outcomes):
        if inv.defect is not None:
            print(f"known defect {inv.defect}: {'fails: ' + outcome.reason if outcome.reason else 'passes'}")


def latency_summary(passes, field: str, correct_per_round: float) -> tuple[float, float, float]:
    """p50 and p90 latency (ms) and correct invocations per second from
    per-invocation medians over the passes, failures counting as +inf."""
    n = len(passes[0])
    busy = [statistics.median(getattr(p[i], field) for p in passes) for i in range(n)]
    latency = sorted(
        math.inf if any(p[i].reason for p in passes) else busy[i] for i in range(n)
    )
    return (
        1000.0 * percentile(latency, 0.5),
        1000.0 * percentile(latency, 0.9),
        correct_per_round / math.fsum(busy),
    )


def timed_run(workload, seed: int, seconds: int) -> dict:
    rounds = max(1, round(seconds / workload.round_seconds))
    setups, raw_setups, passes = [], [], []
    for _ in range(rounds):
        s, raw, invocations = set_up(workload, seed)
        setups.append(s)
        raw_setups.append(raw)
        passes.append(run_pass(invocations))

    n = len(invocations)
    attempted = n * rounds
    failed, unexpected = failures([(invocations, p) for p in passes])
    per_round = (attempted - failed) / rounds
    p50, p90, rate = latency_summary(passes, "scaled", per_round)
    raw_p50, raw_p90, raw_rate = latency_summary(passes, "raw", per_round)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "cmd_ms.p50": (p50, "ms"),
        "cmd_ms.p90": (p90, "ms"),
        "cmds_per_s": (rate, "1/s"),
        "error_rate": (failed / attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    print(f"{workload.name}: {n} invocations x {rounds} rounds; latency samples {n}")
    print(
        f"unscaled: setup_s {statistics.median(raw_setups):.4f} cmd_ms.p50 {raw_p50:.3f} "
        f"cmd_ms.p90 {raw_p90:.3f} cmds_per_s {raw_rate:.2f}"
    )
    report_defects(invocations, passes[0])
    return result(not unexpected, attempted, failed, metrics, unexpected)


def traced_run(workload, seed: int) -> dict:
    _, _, invocations = set_up(workload, seed)
    others = workload.invocations(seed + 1)
    runs = [(invocations, run_pass(invocations))]
    tracer = Tracer()
    tracer.install()
    try:
        counts = []
        for invs in (invocations, invocations, others):
            tracer.reset()
            runs.append((invs, run_pass(invs, tracer)))
            counts.append(deterministic_counts(tracer))
            if len(counts) == 1:
                metrics = layer_metrics(tracer)
        for name, (inv, layers) in REFERENCES.items():
            tracer.reset()
            runs.append(([inv], run_pass([inv], tracer)))
            for layer in layers:
                metrics[f"ref.{name}.{layer.split('.')[1]}.calls"] = (tracer.calls[layer], "count")
    finally:
        tracer.uninstall()

    untraced_s = math.fsum(o.scaled for o in runs[0][1])
    traced_s = math.fsum(o.scaled for o in runs[1][1])
    metrics["tracing.overhead_frac"] = (traced_s / untraced_s - 1.0, "ratio")
    attempted = sum(len(invs) for invs, _ in runs)
    failed, unexpected = failures(runs)
    repeats = counts[0] == counts[1]
    changed = sum(counts[0][k] != counts[2][k] for k in counts[0])
    print(f"{workload.name}: {len(invocations)} invocations per traced pass")
    print(f"counts repeat with the same seed: {repeats}; counts changed by the next seed: {changed}")
    report_defects(*runs[1])
    return result(not unexpected and repeats and changed > 0, attempted, failed, metrics, unexpected)


def result(correct: bool, attempted: int, failed: int, metrics: dict, unexpected: list[str]) -> dict:
    for line in unexpected[:20]:
        print(f"unexpected failure: {line}", file=sys.stderr)
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "naryops" / "cli.py").is_file():
        print(f"bench: no naryops sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    if args.trace:
        out = traced_run(workload, args.seed)
    else:
        out = timed_run(workload, args.seed, args.seconds)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
