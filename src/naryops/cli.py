"""Command-line front door.

Commands: axioms, extend, build, extract, roundtrip, reduce, gallery.
Reports are written as JSON, CSV (tabulated generators), or text. Exit
codes: 0 all checks passed, 1 a check failed and carries a witness,
2 usage or configuration error, 3 numeric failure (overflow, missing
bracket, idempotent scan, monotonicity breakdown, a non-finite value or
domain escape inside a check). The code follows the exception's base
type alone: a ``ValueError`` (``ParseError`` included) or an unwritable
report exits 2, and a :class:`~naryops.errors.NaryError` exits 3.
"""

from __future__ import annotations

import functools
import math
import random
import re
import sys
import time
from typing import Sequence

from . import axioms as axioms_mod
from .core import Interval, NaryOp, Record, builtin_lookup
from .errors import NaryError
from .exprlang import make_callable, parse as parse_expr
from .extension import ExtendedOp, nested_trials, split_trials
from .extraction import BranchDirection, extract_generator
from .extraction import verify_additivity, verify_roundtrip
from .generator import GeneratorSpec, build_aczelian, validate_codomain
from .reducibility import adjoin_neutral, derive_binary, verify_neutrality, verify_reduction

__all__ = ["RunConfig", "run", "write_report", "load_opspec", "load_generator", "main"]


class RunConfig(Record):
    """Echoes the CLI flags for one invocation; its defaults are the
    defaults of the flags."""

    __slots__ = _fields = (
        "command", "op", "phi", "phi_inv", "codomain", "n", "interval", "grid", "samples",
        "seed", "resolution", "tol", "c", "window", "fmt", "out",
    )

    def __init__(
        self, command: str, op: str | None = None, phi: str | None = None,
        phi_inv: str | None = None, codomain: str | None = None, n: int = 2,
        interval: str | None = None, grid: str | None = None, samples: int = 500,
        seed: int = 0, resolution: float = 1.0 / 64.0, tol: float = 1e-9,
        c: float | None = None, window: float = 10.0, fmt: str = "text", out: str = "-",
    ):
        super().__init__(
            command, op, phi, phi_inv, codomain, n, interval, grid, samples, seed, resolution,
            tol, c, window, fmt, out,
        )

    def echo(self) -> dict:
        """The flags that shape the result: all but the command and the
        output format and path."""
        skip = ("command", "fmt", "out")
        return {name: getattr(self, name) for name in self._fields if name not in skip}


def _domain(interval: str | None) -> Interval:
    """The ``--interval`` flag: the real line when not given."""
    return Interval.real_line() if interval is None else Interval.parse(interval)


def _compile(text: str, n: int):
    """An expression in n variables as a function of n floats."""
    return make_callable(parse_expr(text, n), n)


def load_opspec(source: str, n: int, interval: str | None = None) -> NaryOp:
    """Build an operation from an ``expr:`` expression, or from a builtin
    name, which runs on its own domain and rejects any other interval."""
    if source is None:
        raise ValueError("an operation source is required (--op)")
    if source.startswith("expr:"):
        return NaryOp(n, _domain(interval), _compile(source[len("expr:") :], n), source)
    f = builtin_lookup(source, n)
    if interval is not None and Interval.parse(interval) != f.domain:
        raise ValueError(f"builtin {source!r} runs on {f.domain.render()}, not {interval!r}")
    return f


def load_generator(
    phi_src: str,
    phi_inv_src: str | None,
    interval: str | None,
    codomain: str | None = None,
) -> GeneratorSpec:
    """Build a generator from expressions; the codomain is parsed when
    given and estimated by the spec otherwise."""
    phi = _compile(phi_src, 1)
    inv = None if phi_inv_src is None else _compile(phi_inv_src, 1)
    J = None if codomain is None else Interval.parse(codomain)
    return GeneratorSpec(phi, _domain(interval), J, inv, label=phi_src)


#: most points a ``lo:hi:step`` grid may have, far above any grid in use
_MAX_GRID_POINTS = 10_000


def parse_grid(text: str) -> tuple[float, ...]:
    """``lo:hi:step`` (the points lo + i*step, inclusive of hi within half
    a step, at most _MAX_GRID_POINTS of them) or a comma-separated list."""
    span = ":" in text
    parts = text.split(":" if span else ",")
    if span and len(parts) != 3:
        raise ValueError(f"grid {text!r} must be lo:hi:step")
    try:
        points = tuple(float(p) for p in parts)
    except ValueError as exc:
        raise ValueError(f"grid {text!r}: {exc}") from None
    if span:
        lo, hi, step = points
        if not (math.isfinite(lo) and math.isfinite(hi) and math.isfinite(step)):
            raise ValueError(f"grid {text!r} needs finite lo, hi and step")
        if step <= 0 or hi < lo:
            raise ValueError(f"grid {text!r} needs lo <= hi and step > 0")
        last = (hi - lo) / step + 0.5
        if not last < _MAX_GRID_POINTS:
            raise ValueError(f"grid {text!r} has more than {_MAX_GRID_POINTS} points")
        return tuple(lo + i * step for i in range(math.floor(last) + 1))
    return points


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
    """Both substitution identities, one sample at a time: each sample's
    draws, in the order of the seeded stream, go to both checks at once
    and are dropped. A split-identity error waits until the nested check
    has seen every sample, so that the nested check's error comes first."""
    f = load_opspec(cfg.op, cfg.n, cfg.interval)
    g = ExtendedOp(f)
    rng = random.Random(cfg.seed)
    draw = axioms_mod.lattice_sampler(f.domain, cfg.window, rng)
    common = {"samples": cfg.samples, "seed": cfg.seed, "label": f.label}
    nested = axioms_mod.falsifier("nested_identity", cfg.tol, **common)
    split = axioms_mod.falsifier("split_identity", cfg.tol, **common)
    split_error = None
    for _ in range(cfg.samples):
        xyz = tuple([draw(m) for m in axioms_mod.random_nested_decomposition(rng, cfg.n)])
        blocks = [draw(m) for m in axioms_mod.random_split_blocks(rng, cfg.n)]
        nested(nested_trials(g, (xyz,)))
        if split_error is None:
            try:
                split(split_trials(g, (blocks,)))
            except Exception as exc:  # held: the nested check's error comes first
                split_error = exc
    if split_error is not None:
        raise split_error
    checks = {"nested_identity": nested(None).to_dict(), "split_identity": split(None).to_dict()}
    return _suite_report(cfg, checks)


def _cmd_build(cfg: RunConfig) -> tuple[int, dict]:
    if not cfg.phi:
        raise ValueError("build requires a generator expression (--phi)")
    spec = load_generator(cfg.phi, cfg.phi_inv, cfg.interval, cfg.codomain)
    form, bound = validate_codomain(spec.codomain, cfg.n)
    f = build_aczelian(spec, cfg.n)
    checks = _associativity_and_symmetry(f, cfg, _generated_tol(cfg))
    extra = {"codomain_form": {"form": form, "bound": bound}, "op_label": f.label}
    return _suite_report(cfg, checks, extra)


def _extract(cfg: RunConfig):
    """The operation, its extracted generator, and the report fields both
    extraction commands share."""
    f = load_opspec(cfg.op, cfg.n, cfg.interval)
    grid = parse_grid("-2:2:0.5" if cfg.grid is None else cfg.grid)
    gen = extract_generator(f, grid, cfg.c, cfg.resolution, cfg.window)
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
    roundtrip = verify_roundtrip(gen, f, min(cfg.samples, 1000), cfg.seed)
    extra.update(threshold=roundtrip.tolerance, inverse_slope_bound=gen.max_inverse_slope())
    return _suite_report(cfg, {"roundtrip": roundtrip.to_dict()}, extra)


def _cmd_reduce(cfg: RunConfig) -> tuple[int, dict]:
    f = None if cfg.op is None else load_opspec(cfg.op, cfg.n, cfg.interval)
    if cfg.phi is not None:
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
    adjoined = structure.neutral_is_adjoined
    neutral = repr(structure.neutral) if adjoined else structure.neutral
    extra = {"neutral": neutral, "neutral_adjoined": adjoined}
    return _suite_report(cfg, checks, extra)


def _cmd_gallery(cfg: RunConfig) -> tuple[int, dict]:
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
        xs = tuple(float(rng.randint(-50, 50)) for _ in range(m))
        ok &= g.eval(xs) == math.fsum(v if i % 2 == 0 else -v for i, v in enumerate(xs))
    record("alternating_fold_closed_form", ok)

    # exact ops pass the axiom suite with zero residual, run as the axioms command
    for name, n in (("sum", 2), ("sum", 3), ("product", 3), ("translated_sum", 3)):
        lawful = RunConfig("axioms", name, n=n, samples=200, seed=cfg.seed, window=cfg.window)
        code, rep = _cmd_axioms(lawful)
        res = rep["residuals"]
        detail = f"residuals {res['associativity']} {res['symmetry']}"
        record(f"axioms_{name}_{n}", code == 0, detail)

    # the asymmetric fixture must fail symmetry with a witness that its
    # trial replays bit for bit
    rep = axioms_mod.check_symmetry(alt, 200, cfg.seed)
    replayed = rep.witness is not None and rep.witness.replay(alt) == rep.witness.residual
    record("alternating_symmetry_rejected", (not rep.passed) and replayed)

    # substitution identities for extensions
    rng = random.Random(cfg.seed + 3)
    ok = True
    for name, n in (("sum", 2), ("product", 3)):
        f = builtin_lookup(name, n)
        draw = axioms_mod.lattice_sampler(f.domain, 4.0, rng)
        splits = (
            tuple([draw(m) for m in axioms_mod.random_nested_decomposition(rng, n)])
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
    sum2, product2 = builtin_lookup("sum", 2), builtin_lookup("product", 2)
    grid = [v * 0.5 for v in range(-4, 5)]
    sums = axioms_mod.find_idempotents(sum2, grid)
    prods = axioms_mod.find_idempotents(product2, [0.25, 0.5, 1.0, 2.0])
    ok = len(sums) == 1 and abs(sums[0]) <= 1e-9
    ok &= len(prods) == 1 and abs(prods[0] - 1.0) <= 1e-9
    ok &= axioms_mod.find_idempotents(alt, grid) == grid
    record("idempotents_match_neutrals", ok)

    # a small extraction against the additive closed form
    gen = extract_generator(sum2, (-1.0, 0.0, 1.5), base_point=1.0, resolution=1.0 / 16.0)
    ok = gen.direction is BranchDirection.C_BELOW and all(
        abs(v - x) <= 1.0 / 16.0 + 1e-9 for x, v in gen.samples
    )
    record("extraction_additive_oracle", ok)

    # generated multiplication from the log generator
    f = build_aczelian(product2.generator, 2)
    record("generated_product", abs(f.eval(2.0, 3.0) - 6.0) <= 1e-9)

    passed = all(fx["pass"] for fx in fixtures)
    return _report(cfg, passed, residuals={}, witnesses=[], fixtures=fixtures)


#: each command: its handler and its help line
_COMMANDS = {
    "axioms": (_cmd_axioms, "run associativity, symmetry, and cancellativity checks"),
    "extend": (_cmd_extend, "check the substitution identities of the extension"),
    "build": (_cmd_build, "build an operation from a generator and verify it"),
    "extract": (_cmd_extract, "reconstruct the generator of a black-box operation"),
    "roundtrip": (_cmd_roundtrip, "extract, rebuild, and compare against the original"),
    "reduce": (_cmd_reduce, "derive the underlying binary operation and the neutral element"),
    "gallery": (_cmd_gallery, "run the built-in fixture suite"),
}
#: the commands whose report carries the x,phi table that csv output prints
_TABULATED = ("extract", "roundtrip")


def write_report(report: dict, fmt: str, path: str) -> None:
    """Serialize a report. JSON is sorted and stable apart from timing_ms;
    CSV needs a tabulated generator result and renders x,phi rows."""
    # only csv and text print the x,phi rows
    table = []
    if fmt != "json" and "table" in report:
        table = ["x,phi", *(f"{x!r},{v!r}" for x, v in report["table"])]
    if fmt == "json":
        import json  # only here: a text or CSV report runs without it

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


#: largest ``--n``: an extension check holds about n^2 floats per sample
_MAX_ARITY = 100


def run(cfg: RunConfig) -> tuple[int, dict]:
    """Check the flags, dispatch the config, write the report, return the
    exit code and the report. A flag out of range raises ValueError
    before any work."""
    if cfg.command not in _COMMANDS:
        raise ValueError(f"unknown command {cfg.command!r}")
    if cfg.samples < 1:
        raise ValueError("samples must be >= 1")
    if cfg.n > _MAX_ARITY:
        raise ValueError(f"n must be <= {_MAX_ARITY}")
    # NaN fails both comparisons, so these rules also reject it
    if not 0.0 < cfg.window < math.inf:
        raise ValueError("window must be positive and finite")
    if not 0.0 <= cfg.tol < math.inf:
        raise ValueError("tol must be finite and >= 0")
    if cfg.fmt not in _FLAGS["--format"][2]:
        raise ValueError(f"unknown format {cfg.fmt!r}")
    if cfg.fmt == "csv" and cfg.command not in _TABULATED:
        raise ValueError("csv output requires a command with a tabulated result")
    t0 = time.perf_counter()
    code, report = _COMMANDS[cfg.command][0](cfg)
    report["timing_ms"] = (time.perf_counter() - t0) * 1000.0
    write_report(report, cfg.fmt, cfg.out)
    return code, report


#: each flag: its destination, type, choices and help line, read by both parses
_FLAGS = {
    "--op": ("op", str, None, "builtin name or expr:<expression>"),
    "--phi": ("phi", str, None, "generator expression in x"),
    "--phi-inv": ("phi_inv", str, None, "explicit inverse expression"),
    "--codomain": ("codomain", str, None, "generator codomain interval, e.g. '(-inf,0)'"),
    "--n": ("n", int, None, f"arity (default 2, at most {_MAX_ARITY})"),
    "--interval": ("interval", str, None, "domain interval, e.g. '(0,inf)' "
        "(default the real line)"),
    "--grid": ("grid", str, None, "lo:hi:step or comma-separated points"),
    "--samples": ("samples", int, None, "N (default 500): axioms N, and max(10, N//5) sections "
        "per coordinate for cancellativity; extend, build N; reduce N, and max(50, N//5) for "
        "binary associativity; roundtrip min(N, 1000); extract always 100; gallery fixed"),
    "--seed": ("seed", int, None, None),
    "--resolution": ("resolution", float, None, None),
    "--tol": ("tol", float, None, None),
    "--c": ("c", float, None, "explicit base point"),
    "--window": ("window", float, None, None),
    "--format": ("fmt", str, ("json", "csv", "text"), None),
    "--out": ("out", str, None, "output path, '-' for stdout"),
}
#: argparse's test of a "-" value
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


@functools.cache
def build_parser():
    """The argparse parser, for the argvs that :func:`_plain` declines:
    built on the first call and shared by every later one, as
    ``parse_args`` returns a fresh namespace. The command and the flags
    may come in any order. No flag has a default of its own: a namespace
    holds only the flags given, and :class:`RunConfig` supplies the rest."""
    import argparse  # only here: a plain argv runs without it

    parser = argparse.ArgumentParser(
        prog="naryops",
        description="Build, falsify, extend, extract, and reduce n-ary interval operations.",
        epilog="commands:\n" + "\n".join(f"  {c:<10} {h}" for c, (_, h) in _COMMANDS.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter,
        argument_default=argparse.SUPPRESS,
    )
    parser.add_argument("command", choices=_COMMANDS, metavar="command", help="see below")
    for flag, (dest, convert, choices, text) in _FLAGS.items():
        parser.add_argument(flag, dest=dest, type=convert, choices=choices, help=text)
    return parser


def _plain(argv: Sequence[str]) -> dict | None:
    """The names ``parse_args`` gives a plain argv: one command and exact
    flags, each with one value, after ``=`` or separate. None for any other
    argv, which argparse parses, with its help, usage and errors."""
    names, tokens = {}, iter(argv)
    for token in tokens:
        if token in _COMMANDS and "command" not in names:
            names["command"] = token
            continue
        flag, eq, value = token.partition("=")
        if not eq:  # a missing value reads as "-", which argparse would not take
            value = next(tokens, "-")
            if value[:1] == "-" and not _NEGATIVE_NUMBER.match(value):
                return None
        elif value == "--":  # which some argparse releases drop after "=" as well
            return None
        try:
            dest, convert, choices, _ = _FLAGS[flag]
            names[dest] = value = convert(value)
        except (KeyError, ValueError):  # an abbreviation, "--" or a value its type rejects
            return None
        if choices is not None and value not in choices:
            return None
    return names if "command" in names else None


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        names = _plain(argv) or vars(build_parser().parse_args(argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    cfg = RunConfig(**names)  # each parser destination is a field of the same name
    try:
        code, _ = run(cfg)
        return code
    except ValueError as exc:
        print(f"naryops: configuration error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"naryops: cannot write report: {exc}", file=sys.stderr)
        return 2
    except NaryError as exc:
        print(f"naryops: numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
