"""Command-line front door.

Subcommands: axioms, extend, build, extract, roundtrip, reduce, gallery.
Reports are written as JSON, CSV (tabulated generators), or text. Exit
codes: 0 all checks passed, 1 a check failed and carries a witness,
2 usage or configuration error, 3 numeric failure (overflow, missing
bracket, idempotent scan, monotonicity breakdown).
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
import time
from dataclasses import dataclass
from typing import Sequence

from . import axioms as axioms_mod
from .core import Interval, NaryOp, builtin_lookup
from .errors import (
    AllIdempotentError,
    ArityClassError,
    BracketNotFoundError,
    CodomainError,
    DomainEscapeError,
    InversionError,
    MonotonicityViolationError,
    PrecisionExhaustedError,
    RegistryError,
)
from .exprlang import ParseError, make_callable, parse as parse_expr
from .extension import (
    ExtendedOp,
    check_nested_identity,
    check_split_identity,
    random_nested_decomposition,
    random_split_blocks,
)
from .extraction import ExtractionConfig, extract_generator, verify_additivity
from .generator import GeneratorSpec, build_aczelian, validate_codomain
from .reducibility import adjoin_neutral, derive_binary, verify_reduction

__all__ = ["RunConfig", "run", "write_report", "load_opspec", "load_generator", "main"]

_NUMERIC_ERRORS = (
    PrecisionExhaustedError,
    BracketNotFoundError,
    AllIdempotentError,
    MonotonicityViolationError,
    DomainEscapeError,
    InversionError,
    ArityClassError,
)


@dataclass
class RunConfig:
    """Echoes the CLI flags for one invocation."""

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
        return {
            "op": self.op,
            "phi": self.phi,
            "phi_inv": self.phi_inv,
            "codomain": self.codomain,
            "n": self.n,
            "interval": self.interval,
            "grid": self.grid,
            "samples": self.samples,
            "seed": self.seed,
            "resolution": self.resolution,
            "tol": self.tol,
            "c": self.c,
            "window": self.window,
        }


def load_opspec(source: str, n: int, interval: str | None = None) -> NaryOp:
    """Build an operation from a builtin name or an ``expr:`` expression."""
    if source is None:
        raise ValueError("an operation source is required (--op)")
    if source.startswith("expr:"):
        iv = Interval.parse(interval) if interval else Interval.real_line()
        ast = parse_expr(source[len("expr:") :], n)
        return NaryOp(n, iv, make_callable(ast, n), source)
    obj = builtin_lookup(source, n)
    if isinstance(obj, GeneratorSpec):
        raise ValueError(
            f"{source!r} is a generator; pass it with --phi or use the build command"
        )
    return obj


def _estimate_codomain(phi, domain: Interval) -> Interval:
    """Heuristic image interval of a monotone map: chase each endpoint
    with a ladder of approach points; a limit still moving at the ladder
    end counts as infinite, a settled one as an open finite bound
    (snapped to zero when tiny)."""
    from .generator import _approach, _safe_phi

    lo = domain.lo
    hi = domain.hi
    if math.isfinite(lo) and math.isfinite(hi):
        x0 = 0.5 * (lo + hi)
    elif math.isfinite(lo):
        x0 = lo + 1.0
    elif math.isfinite(hi):
        x0 = hi - 1.0
    else:
        x0 = 0.0

    def chase(endpoint, open_end, toward_low):
        prev = None
        last = _safe_phi(phi, x0)
        for pt in _approach(endpoint, open_end, x0, toward_low):
            prev, last = last, _safe_phi(phi, pt)
            if not math.isfinite(last):
                return math.copysign(math.inf, last)
        if prev is not None and abs(last - prev) > 1e-6 * (1.0 + abs(last)):
            return math.copysign(math.inf, last - prev) if last != prev else last
        if abs(last) <= 1e-9:
            return 0.0
        return last

    v_lo = chase(lo, domain.lo_open, True)
    v_hi = chase(hi, domain.hi_open, False)
    a, b = min(v_lo, v_hi), max(v_lo, v_hi)
    return Interval.make(a, b, True, True)


def load_generator(
    phi_src: str,
    phi_inv_src: str | None,
    interval: str | None,
    codomain: str | None = None,
) -> GeneratorSpec:
    """Build a generator from expressions; the codomain is parsed when
    given and estimated from the expression otherwise."""
    iv = Interval.parse(interval) if interval else Interval.real_line()
    phi_ast = parse_expr(phi_src, 1)
    phi = make_callable(phi_ast, 1)
    inv = None
    if phi_inv_src:
        inv_ast = parse_expr(phi_inv_src, 1)
        inv = make_callable(inv_ast, 1)
    J = Interval.parse(codomain) if codomain else _estimate_codomain(phi, iv)
    return GeneratorSpec(
        phi=phi, domain=iv, codomain=J, phi_inverse=inv, label=phi_src
    )


_BUILTIN_GENERATORS = {
    "sum": lambda n: builtin_lookup("identity_generator"),
    "product": lambda n: builtin_lookup("log_generator"),
    "translated_sum": lambda n: GeneratorSpec(
        phi=lambda x, _s=1.0 / (n - 1): x + _s,
        domain=Interval.real_line(),
        codomain=Interval.real_line(),
        phi_inverse=lambda y, _s=1.0 / (n - 1): y - _s,
        label=f"x + 1/{n - 1}",
    ),
    "bounded_product": lambda n: GeneratorSpec(
        phi=math.log,
        domain=Interval.make(0.0, 1.0),
        codomain=Interval.make(-math.inf, 0.0),
        phi_inverse=math.exp,
        label="ln on (0,1)",
    ),
}


def parse_grid(text: str) -> tuple[float, ...]:
    """``lo:hi:step`` (inclusive of endpoints within half a step) or a
    comma-separated list."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"grid {text!r} must be lo:hi:step")
        lo, hi, step = (float(p) for p in parts)
        if step <= 0 or hi < lo:
            raise ValueError(f"grid {text!r} needs lo <= hi and step > 0")
        out = []
        v = lo
        while v <= hi + step / 2.0:
            out.append(v)
            v += step
        return tuple(out)
    return tuple(float(p) for p in text.split(","))


# --- command handlers -------------------------------------------------------


def _suite_report(cfg: RunConfig, checks: dict, extra: dict | None = None) -> tuple[int, dict]:
    passed = all(r["pass"] for r in checks.values())
    report = {
        "command": cfg.command,
        "config_echo": cfg.echo(),
        "pass": passed,
        "residuals": {name: r["max_residual"] for name, r in checks.items()},
        "witnesses": [r["witness"] for r in checks.values() if r.get("witness")],
        "checks": checks,
        "seed": cfg.seed,
    }
    if extra:
        report.update(extra)
    return (0 if passed else 1), report


def _cmd_axioms(cfg: RunConfig) -> tuple[int, dict]:
    f = load_opspec(cfg.op, cfg.n, cfg.interval)
    checks = {
        "associativity": axioms_mod.check_associativity(
            f, cfg.samples, cfg.seed, cfg.tol, cfg.window
        ).to_dict(),
        "symmetry": axioms_mod.check_symmetry(
            f, cfg.samples, cfg.seed + 1, cfg.tol, cfg.window
        ).to_dict(),
        "cancellativity": axioms_mod.check_cancellativity(
            f, max(10, cfg.samples // 5), 9, cfg.seed + 2, cfg.window
        ).to_dict(),
    }
    return _suite_report(cfg, checks)


def _cmd_extend(cfg: RunConfig) -> tuple[int, dict]:
    f = load_opspec(cfg.op, cfg.n, cfg.interval)
    g = ExtendedOp(f)
    rng = random.Random(cfg.seed)
    draw = axioms_mod.lattice_sampler(f.domain, cfg.window, rng)
    worst_nested = worst_split = None
    max_nested = max_split = 0.0
    for _ in range(cfg.samples):
        lx, ly, lz = random_nested_decomposition(rng, cfg.n)
        x = tuple(draw() for _ in range(lx))
        y = tuple(draw() for _ in range(ly))
        z = tuple(draw() for _ in range(lz))
        rep = check_nested_identity(g, x, y, z, cfg.tol)
        max_nested = max(max_nested, rep.max_residual)
        if not rep.passed and worst_nested is None:
            worst_nested = rep
        lengths = random_split_blocks(rng, cfg.n)
        blocks = [tuple(draw() for _ in range(m)) for m in lengths]
        rep = check_split_identity(g, blocks, cfg.tol)
        max_split = max(max_split, rep.max_residual)
        if not rep.passed and worst_split is None:
            worst_split = rep
    checks = {
        "nested_identity": {
            "pass": worst_nested is None,
            "max_residual": max_nested,
            "witness": worst_nested.witness.to_dict() if worst_nested else None,
            "samples_used": cfg.samples,
        },
        "split_identity": {
            "pass": worst_split is None,
            "max_residual": max_split,
            "witness": worst_split.witness.to_dict() if worst_split else None,
            "samples_used": cfg.samples,
        },
    }
    return _suite_report(cfg, checks)


def _cmd_build(cfg: RunConfig) -> tuple[int, dict]:
    if not cfg.phi:
        raise ValueError("build requires a generator expression (--phi)")
    spec = load_generator(cfg.phi, cfg.phi_inv, cfg.interval, cfg.codomain)
    form = validate_codomain(spec.codomain, cfg.n)
    f = build_aczelian(spec, cfg.n)
    checks = {
        "associativity": axioms_mod.check_associativity(
            f, cfg.samples, cfg.seed, max(cfg.tol, 1e-8), cfg.window
        ).to_dict(),
        "symmetry": axioms_mod.check_symmetry(
            f, cfg.samples, cfg.seed + 1, max(cfg.tol, 1e-8), cfg.window
        ).to_dict(),
    }
    extra = {"codomain_form": {"form": form.form, "bound": form.bound}, "op_label": f.label}
    return _suite_report(cfg, checks, extra)


def _extraction_config(cfg: RunConfig) -> ExtractionConfig:
    grid = parse_grid(cfg.grid) if cfg.grid else parse_grid("-2:2:0.5")
    return ExtractionConfig(
        base_point=cfg.c,
        grid=grid,
        resolution=cfg.resolution,
        scan_window=cfg.window,
        seed=cfg.seed,
    )


def _cmd_extract(cfg: RunConfig) -> tuple[int, dict]:
    f = load_opspec(cfg.op, cfg.n, cfg.interval)
    gen = extract_generator(f, _extraction_config(cfg))
    additivity = verify_additivity(gen, f, samples=100, seed=cfg.seed).to_dict()
    checks = {"additivity": additivity}
    extra = {
        "table": [[x, v] for x, v in gen.samples],
        "base_point": gen.c,
        "direction": gen.direction.value,
        "normalization": gen.normalization,
        "resolution_bound": gen.resolution_bound,
        "realized_resolution": gen.realized_resolution,
        "interp_slack": gen.interp_slack,
    }
    return _suite_report(cfg, checks, extra)


def _cmd_roundtrip(cfg: RunConfig) -> tuple[int, dict]:
    f = load_opspec(cfg.op, cfg.n, cfg.interval)
    gen = extract_generator(f, _extraction_config(cfg))
    rebuilt = build_aczelian(gen.as_generator_spec(), cfg.n)
    xs = gen.x_values
    lo, hi = xs[0], xs[-1]
    ys = gen.phi_values
    rng = random.Random(cfg.seed)
    n = cfg.n
    max_residual = 0.0
    worst_tuple = None
    accepted = 0
    attempts = 0
    samples = min(cfg.samples, 1000)
    while accepted < samples:
        attempts += 1
        if attempts > 500 * samples:
            raise BracketNotFoundError(
                "could not sample tuples whose generator sums stay tabulated"
            )
        tup = tuple(rng.uniform(lo, hi) for _ in range(n))
        s = math.fsum(gen.interpolate(v) for v in tup)
        if not ys[0] <= s <= ys[-1]:
            continue
        accepted += 1
        residual = abs(rebuilt.eval(*tup) - f.eval(*tup))
        if residual > max_residual:
            max_residual = residual
            worst_tuple = tup
    slope = gen.max_inverse_slope()
    bound_res = max(gen.resolution_bound, gen.realized_resolution / 2.0)
    threshold = 10.0 * bound_res * max(slope, 1e-300) + 1e-9
    passed = max_residual <= threshold
    checks = {
        "roundtrip": {
            "pass": passed,
            "max_residual": max_residual,
            "witness": {"kind": "roundtrip", "inputs": [list(worst_tuple)], "residual": max_residual}
            if not passed
            else None,
            "samples_used": samples,
        }
    }
    extra = {
        "table": [[x, v] for x, v in gen.samples],
        "threshold": threshold,
        "inverse_slope_bound": slope,
        "resolution_bound": gen.resolution_bound,
        "base_point": gen.c,
    }
    return _suite_report(cfg, checks, extra)


def _cmd_reduce(cfg: RunConfig) -> tuple[int, dict]:
    if cfg.phi:
        spec = load_generator(cfg.phi, cfg.phi_inv, cfg.interval, cfg.codomain)
    elif cfg.op in _BUILTIN_GENERATORS:
        spec = _BUILTIN_GENERATORS[cfg.op](cfg.n)
    else:
        raise ValueError(
            "reduce needs --phi, or --op with a generator-backed builtin "
            f"({', '.join(sorted(_BUILTIN_GENERATORS))})"
        )
    f = (
        load_opspec(cfg.op, cfg.n, cfg.interval)
        if cfg.op
        else build_aczelian(spec, cfg.n)
    )
    diamond = derive_binary(spec)
    reduction = verify_reduction(
        f, diamond, cfg.samples, cfg.seed, max(cfg.tol, 1e-8), cfg.window
    ).to_dict()
    binary_assoc = axioms_mod.check_associativity(
        diamond, max(50, cfg.samples // 5), cfg.seed + 1, max(cfg.tol, 1e-8), cfg.window
    ).to_dict()
    structure = adjoin_neutral(spec, cfg.n)
    lo, hi = spec.domain.clamp_window(cfg.window)
    rng = random.Random(cfg.seed + 2)
    probes = [lo + (hi - lo) * rng.random() for _ in range(20)]
    neutral_residual = structure.max_neutrality_residual(probes)
    neutrality = {
        "pass": neutral_residual <= 1e-8 * (1.0 + max(abs(v) for v in probes)),
        "max_residual": neutral_residual,
        "witness": None,
        "samples_used": len(probes),
    }
    checks = {
        "reduction": reduction,
        "binary_associativity": binary_assoc,
        "neutrality": neutrality,
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
    ok = True
    for _ in range(200):
        m = rng.choice([3, 5, 7, 9, 11])
        xs = [float(rng.randint(-50, 50)) for _ in range(m)]
        direct = math.fsum(v if i % 2 == 0 else -v for i, v in enumerate(xs))
        if g.eval(xs) != direct:
            ok = False
            break
    record("alternating_fold_closed_form", ok)

    # exact ops pass the axiom suite with zero residual
    for name, n in (("sum", 2), ("sum", 3), ("product", 3), ("translated_sum", 3)):
        f = builtin_lookup(name, n)
        rep_a = axioms_mod.check_associativity(f, 200, cfg.seed, window=cfg.window)
        rep_s = axioms_mod.check_symmetry(f, 200, cfg.seed + 1, window=cfg.window)
        rep_c = axioms_mod.check_cancellativity(f, 40, 9, cfg.seed + 2, cfg.window)
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
        ge = ExtendedOp(f)
        draw = axioms_mod.lattice_sampler(f.domain, 4.0, rng)
        for _ in range(100):
            lx, ly, lz = random_nested_decomposition(rng, n)
            rep_n = check_nested_identity(
                ge,
                tuple(draw() for _ in range(lx)),
                tuple(draw() for _ in range(ly)),
                tuple(draw() for _ in range(lz)),
            )
            if not rep_n.passed:
                ok = False
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
    report = {
        "command": "gallery",
        "config_echo": cfg.echo(),
        "pass": passed,
        "residuals": {},
        "witnesses": [],
        "fixtures": fixtures,
        "seed": cfg.seed,
    }
    return (0 if passed else 1), report


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
    if fmt == "json":
        payload = json.dumps(report, sort_keys=True, indent=2) + "\n"
    elif fmt == "csv":
        if "table" not in report:
            raise ValueError("csv output requires a command with a tabulated result")
        lines = ["x,phi"] + [f"{x!r},{v!r}" for x, v in report["table"]]
        payload = "\n".join(lines) + "\n"
    elif fmt == "text":
        lines = [f"command: {report['command']}", f"pass: {report['pass']}"]
        for name, value in sorted(report.get("residuals", {}).items()):
            lines.append(f"residual[{name}]: {value}")
        for fx in report.get("fixtures", []):
            lines.append(f"fixture {fx['name']}: {'pass' if fx['pass'] else 'FAIL'}")
        for w in report.get("witnesses", []):
            lines.append(f"witness: {w}")
        if "table" in report:
            lines.append("x,phi")
            lines.extend(f"{x!r},{v!r}" for x, v in report["table"])
        payload = "\n".join(lines) + "\n"
    else:
        raise ValueError(f"unknown format {fmt!r}")
    if path in (None, "-"):
        sys.stdout.write(payload)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(payload)


def run(cfg: RunConfig) -> tuple[int, dict]:
    """Dispatch a validated config, write the report, return the exit code
    and the report."""
    if cfg.command not in _HANDLERS:
        raise ValueError(f"unknown command {cfg.command!r}")
    t0 = time.perf_counter()
    code, report = _HANDLERS[cfg.command](cfg)
    report["timing_ms"] = (time.perf_counter() - t0) * 1000.0
    write_report(report, cfg.fmt, cfg.out)
    return code, report


def build_parser() -> argparse.ArgumentParser:
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
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--op", help="builtin name or expr:<expression>")
        p.add_argument("--phi", help="generator expression in x")
        p.add_argument("--phi-inv", dest="phi_inv", help="explicit inverse expression")
        p.add_argument("--codomain", help="generator codomain interval, e.g. '(-inf,0)'")
        p.add_argument("--n", type=int, default=2, help="arity (default 2)")
        p.add_argument("--interval", help="domain interval, e.g. '(0,inf)' (default the real line)")
        p.add_argument("--grid", help="lo:hi:step or comma-separated points")
        p.add_argument("--samples", type=int, default=500)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--resolution", type=float, default=1.0 / 64.0)
        p.add_argument("--tol", type=float, default=1e-9)
        p.add_argument("--c", type=float, default=None, help="explicit base point")
        p.add_argument("--window", type=float, default=10.0)
        p.add_argument("--format", dest="fmt", choices=("json", "csv", "text"), default="text")
        p.add_argument("--out", default="-", help="output path, '-' for stdout")
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    return RunConfig(
        command=args.command,
        op=args.op,
        phi=args.phi,
        phi_inv=args.phi_inv,
        codomain=args.codomain,
        n=args.n,
        interval=args.interval,
        grid=args.grid,
        samples=args.samples,
        seed=args.seed,
        resolution=args.resolution,
        tol=args.tol,
        c=args.c,
        window=args.window,
        fmt=args.fmt,
        out=args.out,
    )


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
    except _NUMERIC_ERRORS as exc:
        print(f"naryops: numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
