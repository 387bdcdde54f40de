"""Command-line front door.

Subcommands: axioms, extend, build, extract, roundtrip, reduce, gallery.
Reports are written as JSON, CSV (tabulated generators), or text. Exit
codes: 0 all checks passed, 1 a check failed and carries a witness,
2 usage or configuration error, 3 numeric failure (overflow, missing
bracket, idempotent scan, monotonicity breakdown, a non-finite value or
domain escape inside a check).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import random
import sys
import time
from dataclasses import dataclass, fields
from typing import Sequence

from . import axioms as axioms_mod
from .core import Interval, NaryOp, builtin_lookup
from .errors import CodomainError, NaryError, RegistryError
from .exprlang import ParseError, make_callable, parse as parse_expr
from .extension import (
    ExtendedOp,
    nested_trials,
    random_nested_decomposition,
    random_split_blocks,
    split_trials,
)
from .extraction import ExtractionConfig, extract_generator, verify_additivity, verify_roundtrip
from .generator import GeneratorSpec, build_aczelian, estimate_codomain, validate_codomain
from .reducibility import adjoin_neutral, derive_binary, verify_neutrality, verify_reduction

__all__ = ["RunConfig", "run", "write_report", "load_opspec", "load_generator", "main"]


@dataclass
class RunConfig:
    """Echoes the CLI flags for one invocation; its field defaults are
    the defaults of the flags."""

    command: str
    op: str | None = None
    phi: str | None = None
    phi_inv: str | None = None
    codomain: str | None = None
    n: int = 2
    interval: str | None = None
    grid: str | None = None
    samples: int = 500
    seed: int = 0
    resolution: float = 1.0 / 64.0
    tol: float = 1e-9
    c: float | None = None
    window: float = 10.0
    fmt: str = "text"
    out: str = "-"

    def echo(self) -> dict:
        """The flags that shape the result: all but the command and the
        output format and path."""
        skip = ("command", "fmt", "out")
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name not in skip}


def _domain(interval: str | None) -> Interval:
    """The ``--interval`` flag: the real line when not given."""
    return Interval.parse(interval) if interval else Interval.real_line()


def _compile(text: str, n: int):
    """An expression in n variables as a function of n floats."""
    return make_callable(parse_expr(text, n), n)


def load_opspec(source: str, n: int, interval: str | None = None) -> NaryOp:
    """Build an operation from a builtin name or an ``expr:`` expression."""
    if source is None:
        raise ValueError("an operation source is required (--op)")
    if source.startswith("expr:"):
        return NaryOp(n, _domain(interval), _compile(source[len("expr:") :], n), source)
    obj = builtin_lookup(source, n)
    if isinstance(obj, GeneratorSpec):
        raise ValueError(
            f"{source!r} is a generator; pass it with --phi or use the build command"
        )
    return obj


def load_generator(
    phi_src: str,
    phi_inv_src: str | None,
    interval: str | None,
    codomain: str | None = None,
) -> GeneratorSpec:
    """Build a generator from expressions; the codomain is parsed when
    given and estimated from the expression otherwise."""
    iv = _domain(interval)
    phi = _compile(phi_src, 1)
    inv = _compile(phi_inv_src, 1) if phi_inv_src else None
    J = Interval.parse(codomain) if codomain else estimate_codomain(phi, iv)
    return GeneratorSpec(phi=phi, domain=iv, codomain=J, phi_inverse=inv, label=phi_src)


def parse_grid(text: str) -> tuple[float, ...]:
    """``lo:hi:step`` (the points lo + i*step, inclusive of hi within half
    a step) or a comma-separated list."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"grid {text!r} must be lo:hi:step")
        lo, hi, step = (float(p) for p in parts)
        if not (math.isfinite(lo) and math.isfinite(hi) and math.isfinite(step)):
            raise ValueError(f"grid {text!r} needs finite lo, hi and step")
        if step <= 0 or hi < lo:
            raise ValueError(f"grid {text!r} needs lo <= hi and step > 0")
        count = math.floor((hi - lo) / step + 0.5)
        return tuple(lo + i * step for i in range(count + 1))
    return tuple(float(p) for p in text.split(","))


# --- command handlers -------------------------------------------------------


def _report(cfg: RunConfig, passed: bool, **fields) -> tuple[int, dict]:
    """The exit code and the report of a command: the fields that every
    report carries, then the command's own."""
    report = {"command": cfg.command, "config_echo": cfg.echo(), "pass": passed, "seed": cfg.seed}
    report.update(fields)
    return (0 if passed else 1), report


def _suite_report(cfg: RunConfig, checks: dict, extra: dict | None = None) -> tuple[int, dict]:
    return _report(
        cfg,
        all(r["pass"] for r in checks.values()),
        residuals={name: r["max_residual"] for name, r in checks.items()},
        witnesses=[r["witness"] for r in checks.values() if r.get("witness")],
        checks=checks,
        **(extra or {}),
    )


def _generated_tol(cfg: RunConfig) -> float:
    """The tolerance of the checks that run through a generator and its
    inverse, which round: ``--tol``, but at least 1e-8."""
    return max(cfg.tol, 1e-8)


def _associativity_and_symmetry(f: NaryOp, cfg: RunConfig, tol: float) -> dict:
    return {
        "associativity": axioms_mod.check_associativity(
            f, cfg.samples, cfg.seed, tol, cfg.window
        ).to_dict(),
        "symmetry": axioms_mod.check_symmetry(
            f, cfg.samples, cfg.seed + 1, tol, cfg.window
        ).to_dict(),
    }


def _cmd_axioms(cfg: RunConfig) -> tuple[int, dict]:
    f = load_opspec(cfg.op, cfg.n, cfg.interval)
    checks = _associativity_and_symmetry(f, cfg, cfg.tol)
    checks["cancellativity"] = axioms_mod.check_cancellativity(
        f, max(10, cfg.samples // 5), cfg.seed + 2, cfg.window
    ).to_dict()
    return _suite_report(cfg, checks)


def _cmd_extend(cfg: RunConfig) -> tuple[int, dict]:
    f = load_opspec(cfg.op, cfg.n, cfg.interval)
    g = ExtendedOp(f)
    rng = random.Random(cfg.seed)
    draw = axioms_mod.lattice_sampler(f.domain, cfg.window, rng)
    splits, block_lists = [], []
    for _ in range(cfg.samples):
        lengths = random_nested_decomposition(rng, cfg.n)
        splits.append(tuple(tuple(draw() for _ in range(m)) for m in lengths))
        lengths = random_split_blocks(rng, cfg.n)
        block_lists.append([tuple(draw() for _ in range(m)) for m in lengths])
    common = {"samples": cfg.samples, "seed": cfg.seed, "label": f.label}
    checks = {
        "nested_identity": axioms_mod.falsify(
            "nested_identity", nested_trials(g, splits), cfg.tol, **common
        ).to_dict(),
        "split_identity": axioms_mod.falsify(
            "split_identity", split_trials(g, block_lists), cfg.tol, **common
        ).to_dict(),
    }
    return _suite_report(cfg, checks)


def _cmd_build(cfg: RunConfig) -> tuple[int, dict]:
    if not cfg.phi:
        raise ValueError("build requires a generator expression (--phi)")
    spec = load_generator(cfg.phi, cfg.phi_inv, cfg.interval, cfg.codomain)
    form = validate_codomain(spec.codomain, cfg.n)
    f = build_aczelian(spec, cfg.n)
    checks = _associativity_and_symmetry(f, cfg, _generated_tol(cfg))
    extra = {"codomain_form": {"form": form.form, "bound": form.bound}, "op_label": f.label}
    return _suite_report(cfg, checks, extra)


def _extraction_config(cfg: RunConfig) -> ExtractionConfig:
    grid = parse_grid(cfg.grid) if cfg.grid else parse_grid("-2:2:0.5")
    return ExtractionConfig(
        base_point=cfg.c,
        grid=grid,
        resolution=cfg.resolution,
        scan_window=cfg.window,
    )


def _extract(cfg: RunConfig):
    """The operation, its extracted generator, and the report fields both
    extraction commands share."""
    f = load_opspec(cfg.op, cfg.n, cfg.interval)
    gen = extract_generator(f, _extraction_config(cfg))
    extra = {
        "table": [[x, v] for x, v in gen.samples],
        "base_point": gen.c,
        "resolution_bound": gen.resolution_bound,
    }
    return f, gen, extra


def _cmd_extract(cfg: RunConfig) -> tuple[int, dict]:
    f, gen, extra = _extract(cfg)
    additivity = verify_additivity(gen, f, samples=100, seed=cfg.seed).to_dict()
    extra.update(
        direction=gen.direction.value,
        normalization=gen.normalization,
        realized_resolution=gen.realized_resolution,
        interp_slack=gen.interp_slack,
    )
    return _suite_report(cfg, {"additivity": additivity}, extra)


def _cmd_roundtrip(cfg: RunConfig) -> tuple[int, dict]:
    f, gen, extra = _extract(cfg)
    rebuilt = build_aczelian(gen.as_generator_spec(), cfg.n)
    roundtrip = verify_roundtrip(gen, f, rebuilt, min(cfg.samples, 1000), cfg.seed)
    extra.update(threshold=roundtrip.tolerance, inverse_slope_bound=gen.max_inverse_slope())
    return _suite_report(cfg, {"roundtrip": roundtrip.to_dict()}, extra)


def _cmd_reduce(cfg: RunConfig) -> tuple[int, dict]:
    f = load_opspec(cfg.op, cfg.n, cfg.interval) if cfg.op else None
    if cfg.phi:
        spec = load_generator(cfg.phi, cfg.phi_inv, cfg.interval, cfg.codomain)
    elif f is not None and f.generator is not None:
        spec = f.generator
    else:
        raise ValueError("reduce needs --phi, or --op with a builtin that has a generator")
    if f is None:
        f = build_aczelian(spec, cfg.n)
    diamond = derive_binary(spec)
    tol = _generated_tol(cfg)
    reduction = verify_reduction(f, diamond, cfg.samples, cfg.seed, tol, cfg.window).to_dict()
    binary_assoc = axioms_mod.check_associativity(
        diamond, max(50, cfg.samples // 5), cfg.seed + 1, tol, cfg.window
    ).to_dict()
    structure = adjoin_neutral(spec, cfg.n)
    checks = {
        "reduction": reduction,
        "binary_associativity": binary_assoc,
        "neutrality": verify_neutrality(structure, cfg.seed + 2, cfg.window).to_dict(),
    }
    extra = {
        "neutral": repr(structure.neutral)
        if structure.neutral_is_adjoined
        else structure.neutral,
        "neutral_adjoined": structure.neutral_is_adjoined,
    }
    return _suite_report(cfg, checks, extra)


def _cmd_gallery(cfg: RunConfig) -> tuple[int, dict]:
    from .extraction import BranchDirection

    fixtures = []

    def record(name: str, ok: bool, detail: str = ""):
        fixtures.append({"name": name, "pass": bool(ok), "detail": detail})

    # alternating extension agrees with its closed form on integer strings
    alt = builtin_lookup("alternating", 3)
    g = ExtendedOp(alt)
    rng = random.Random(cfg.seed)

    def fold_trials():
        for _ in range(200):
            m = rng.choice([3, 5, 7, 9, 11])
            xs = tuple(float(rng.randint(-50, 50)) for _ in range(m))
            direct = math.fsum(v if i % 2 == 0 else -v for i, v in enumerate(xs))
            yield g.eval(xs), direct, {"inputs": (xs,)}

    record("alternating_fold_closed_form", axioms_mod.falsify("fold", fold_trials(), 0.0).passed)

    # exact ops pass the axiom suite with zero residual
    for name, n in (("sum", 2), ("sum", 3), ("product", 3), ("translated_sum", 3)):
        f = builtin_lookup(name, n)
        rep_a = axioms_mod.check_associativity(f, 200, cfg.seed, window=cfg.window)
        rep_s = axioms_mod.check_symmetry(f, 200, cfg.seed + 1, window=cfg.window)
        rep_c = axioms_mod.check_cancellativity(f, 40, cfg.seed + 2, cfg.window)
        record(
            f"axioms_{name}_{n}",
            rep_a.passed and rep_s.passed and rep_c.passed,
            f"residuals {rep_a.max_residual} {rep_s.max_residual}",
        )

    # the asymmetric fixture must fail symmetry with a replayable witness
    rep = axioms_mod.check_symmetry(alt, 200, cfg.seed)
    replayed = (
        rep.witness is not None
        and abs(rep.witness.replay(alt) - rep.witness.residual) <= 1e-12
    )
    record("alternating_symmetry_rejected", (not rep.passed) and replayed)

    # substitution identities for extensions
    rng = random.Random(cfg.seed + 3)
    ok = True
    for name, n in (("sum", 2), ("product", 3)):
        f = builtin_lookup(name, n)
        draw = axioms_mod.lattice_sampler(f.domain, 4.0, rng)
        splits = (
            tuple(tuple(draw() for _ in range(m)) for m in random_nested_decomposition(rng, n))
            for _ in range(100)
        )
        trials = nested_trials(ExtendedOp(f), splits)
        ok &= axioms_mod.falsify("nested_identity", trials, 1e-9).passed
    record("substitution_identities", ok)

    # the non-associative fixture is rejected
    bad = NaryOp(3, Interval.real_line(), lambda x, y, z: x + y + z * z, "x+y+z^2")
    rep = axioms_mod.check_associativity(bad, 200, cfg.seed)
    record("non_associative_rejected", not rep.passed)

    # idempotent points sit at the neutral elements
    ok = True
    sums = axioms_mod.find_idempotents(builtin_lookup("sum", 2), [v * 0.5 for v in range(-4, 5)])
    ok &= isinstance(sums, list) and len(sums) == 1 and abs(sums[0]) <= 1e-9
    prods = axioms_mod.find_idempotents(
        builtin_lookup("product", 2), [0.25, 0.5, 1.0, 2.0]
    )
    ok &= isinstance(prods, list) and len(prods) == 1 and abs(prods[0] - 1.0) <= 1e-9
    alts = axioms_mod.find_idempotents(alt, [v * 0.5 for v in range(-4, 5)])
    ok &= isinstance(alts, axioms_mod.AllSampledIdempotent)
    record("idempotents_match_neutrals", bool(ok))

    # a small extraction against the additive closed form
    f = builtin_lookup("sum", 2)
    gen = extract_generator(
        f,
        ExtractionConfig(base_point=1.0, grid=(-1.0, 0.0, 1.5), resolution=1.0 / 16.0),
    )
    ok = gen.direction is BranchDirection.C_BELOW and all(
        abs(v - x) <= 1.0 / 16.0 + 1e-9 for x, v in gen.samples
    )
    record("extraction_additive_oracle", ok)

    # generated multiplication from the log generator
    spec = builtin_lookup("log_generator")
    f = build_aczelian(spec, 2)
    record("generated_product", abs(f.eval(2.0, 3.0) - 6.0) <= 1e-9)

    passed = all(fx["pass"] for fx in fixtures)
    return _report(cfg, passed, residuals={}, witnesses=[], fixtures=fixtures)


_HANDLERS = {
    "axioms": _cmd_axioms,
    "extend": _cmd_extend,
    "build": _cmd_build,
    "extract": _cmd_extract,
    "roundtrip": _cmd_roundtrip,
    "reduce": _cmd_reduce,
    "gallery": _cmd_gallery,
}


def write_report(report: dict, fmt: str, path: str) -> None:
    """Serialize a report. JSON is sorted and stable apart from timing_ms;
    CSV needs a tabulated generator result and renders x,phi rows."""
    table = ["x,phi", *(f"{x!r},{v!r}" for x, v in report["table"])] if "table" in report else []
    if fmt == "json":
        payload = json.dumps(report, sort_keys=True, indent=2) + "\n"
    elif fmt == "csv":
        if not table:
            raise ValueError("csv output requires a command with a tabulated result")
        payload = "\n".join(table) + "\n"
    elif fmt == "text":
        lines = [f"command: {report['command']}", f"pass: {report['pass']}"]
        for name, value in sorted(report.get("residuals", {}).items()):
            lines.append(f"residual[{name}]: {value}")
        for fx in report.get("fixtures", []):
            lines.append(f"fixture {fx['name']}: {'pass' if fx['pass'] else 'FAIL'}")
        for w in report.get("witnesses", []):
            lines.append(f"witness: {w}")
        payload = "\n".join(lines + table) + "\n"
    else:
        raise ValueError(f"unknown format {fmt!r}")
    if path in (None, "-"):
        sys.stdout.write(payload)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(payload)


def run(cfg: RunConfig) -> tuple[int, dict]:
    """Check the numeric flags, dispatch the config, write the report,
    return the exit code and the report. A flag out of range raises
    ValueError before any work."""
    if cfg.command not in _HANDLERS:
        raise ValueError(f"unknown command {cfg.command!r}")
    if cfg.samples < 1:
        raise ValueError("samples must be >= 1")
    # NaN fails both comparisons, so these rules also reject it
    if not 0.0 < cfg.window < math.inf:
        raise ValueError("window must be positive and finite")
    if not 0.0 <= cfg.tol < math.inf:
        raise ValueError("tol must be finite and >= 0")
    t0 = time.perf_counter()
    code, report = _HANDLERS[cfg.command](cfg)
    report["timing_ms"] = (time.perf_counter() - t0) * 1000.0
    write_report(report, cfg.fmt, cfg.out)
    return code, report


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the command line, built on the first call and
    shared by every later one, as ``parse_args`` returns a fresh namespace.
    The flags every subcommand takes are declared once, on a parent parser
    without its own help or defaults: a namespace holds only the flags
    given, and :class:`RunConfig` supplies the rest."""
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    common.add_argument("--op", help="builtin name or expr:<expression>")
    common.add_argument("--phi", help="generator expression in x")
    common.add_argument("--phi-inv", dest="phi_inv", help="explicit inverse expression")
    common.add_argument("--codomain", help="generator codomain interval, e.g. '(-inf,0)'")
    common.add_argument("--n", type=int, help=f"arity (default {RunConfig.n})")
    common.add_argument(
        "--interval", help="domain interval, e.g. '(0,inf)' (default the real line)"
    )
    common.add_argument("--grid", help="lo:hi:step or comma-separated points")
    common.add_argument("--samples", type=int)
    common.add_argument("--seed", type=int)
    common.add_argument("--resolution", type=float)
    common.add_argument("--tol", type=float)
    common.add_argument("--c", type=float, help="explicit base point")
    common.add_argument("--window", type=float)
    common.add_argument("--format", dest="fmt", choices=("json", "csv", "text"))
    common.add_argument("--out", help="output path, '-' for stdout")
    parser = argparse.ArgumentParser(
        prog="naryops",
        description="Build, falsify, extend, extract, and reduce n-ary interval operations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "axioms": "run associativity, symmetry, and cancellativity checks",
        "extend": "check the substitution identities of the extension",
        "build": "build an operation from a generator and verify it",
        "extract": "reconstruct the generator of a black-box operation",
        "roundtrip": "extract, rebuild, and compare against the original",
        "reduce": "derive the underlying binary operation and the neutral element",
        "gallery": "run the built-in fixture suite",
    }
    for name, help_text in specs.items():
        sub.add_parser(name, help=help_text, parents=[common])
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    """Every parser destination is a RunConfig field of the same name;
    a flag not given takes the field's default."""
    return RunConfig(**vars(args))


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    cfg = config_from_args(args)
    try:
        code, _ = run(cfg)
        return code
    except (ParseError, RegistryError, CodomainError, ValueError) as exc:
        print(f"naryops: configuration error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"naryops: cannot write report: {exc}", file=sys.stderr)
        return 2
    except NaryError as exc:  # every other package error is a numeric failure
        print(f"naryops: numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
