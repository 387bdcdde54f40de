"""Outside-in layer tracing.

The tracer wraps the public entry points of each naryops layer from
outside the package: it replaces the module or class attribute through
which callers look the entry point up, and restores it on ``uninstall``.
``cli`` and ``reducibility`` import functions by name, so those wrappers
go on the importing module. Nothing under ``src/`` changes.

Each wrapped call is a span. Spans nest on one stack (the benchmark runs
one invocation at a time on one thread); a span's self time is its
duration minus the durations of its direct child spans. Spans are
aggregated per name as they close, so memory stays flat however many
calls a run makes: ``calls[name]``, ``self_ns[name]`` and
``edges[(parent, child)]``.
"""

from __future__ import annotations

from collections import Counter
from time import perf_counter_ns


class Tracer:
    def __init__(self):
        self.active = False
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.edges: Counter = Counter()
        self._stack: list[list] = []
        self._undo: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.calls.clear()
        self.self_ns.clear()
        self.edges.clear()

    def span(self, name: str, fn):
        calls, self_ns, edges, stack = self.calls, self.self_ns, self.edges, self._stack

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            calls[name] += 1
            if stack:
                edges[stack[-1][0], name] += 1
            frame = [name, 0]
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter_ns() - t0
                stack.pop()
                self_ns[name] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt

        return traced

    def counted(self, name: str, fn):
        """Count calls without a span (for callables passed as arguments)."""
        calls = self.calls

        def counting(*args):
            if self.active:
                calls[name] += 1
            return fn(*args)

        return counting

    def patch(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def install(self) -> None:
        """Wrap every layer's entry points in the imported naryops package."""
        from naryops import axioms, cli, core, extension, extraction, generator, reducibility

        span, patch = self.span, self.patch

        def returns_op(name, make):
            """Wrap ``eval`` of the NaryOp a factory returns (NaryOp is frozen)."""

            def factory(*args, **kwargs):
                op = make(*args, **kwargs)
                object.__setattr__(op, "eval", span(name, op.eval))
                return op

            return factory

        def returns_callable(make):
            return lambda *args, **kwargs: span("exprlang.call", make(*args, **kwargs))

        invert = generator.invert_monotone

        def invert_counting_phi(phi, y, bracket, tol=None):
            return invert(self.counted("generator.phi", phi), y, bracket, tol)

        patch(core, "interval_contains", span("core.contains", core.interval_contains))
        patch(reducibility, "interval_contains", span("core.contains", reducibility.interval_contains))
        patch(core.NaryOp, "checked", span("core.checked", core.NaryOp.checked))
        patch(cli, "make_callable", returns_callable(cli.make_callable))
        for name in ("power", "string_power", "eval"):
            patch(extension.ExtendedOp, name, span(f"extension.{name}", getattr(extension.ExtendedOp, name)))
        patch(extraction, "phi_at", span("extraction.phi_at", extraction.phi_at))
        patch(extraction, "sx_membership", span("extraction.sx_membership", extraction.sx_membership))
        patch(cli, "extract_generator", span("extraction.extract_generator", cli.extract_generator))
        patch(cli, "verify_additivity", span("extraction.verify_additivity", cli.verify_additivity))
        patch(generator, "invert_monotone", span("generator.invert_monotone", invert_counting_phi))
        for name in ("check_associativity", "check_symmetry", "check_cancellativity", "find_idempotents"):
            patch(axioms, name, span("axioms.check", getattr(axioms, name)))
        patch(cli, "derive_binary", returns_op("reducibility.binary_eval", cli.derive_binary))
        patch(cli, "verify_reduction", span("reducibility.verify_reduction", cli.verify_reduction))
        patch(cli, "adjoin_neutral", span("reducibility.adjoin_neutral", cli.adjoin_neutral))
        patch(
            reducibility.AdjoinedStructure,
            "max_neutrality_residual",
            span("reducibility.neutrality", reducibility.AdjoinedStructure.max_neutrality_residual),
        )
        patch(cli, "load_opspec", span("cli.load", returns_op("op.eval", cli.load_opspec)))
        patch(cli, "build_aczelian", returns_op("op.eval", cli.build_aczelian))
        patch(cli, "load_generator", span("cli.load", cli.load_generator))
        patch(cli, "parse_grid", span("cli.load", cli.parse_grid))
        patch(cli, "write_report", span("cli.write_report", cli.write_report))
        patch(cli, "main", span("cli.main", cli.main))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(t: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer counts, self times (ms) and ratios from one traced pass."""
    calls = t.calls

    def self_ms(name: str) -> float:
        return t.self_ns[name] / 1e6

    def layer_ms(prefix: str) -> float:
        return sum(v for k, v in t.self_ns.items() if k.startswith(prefix)) / 1e6

    strings = calls["extension.power"] + calls["extension.string_power"]
    checked_in_strings = (
        t.edges["extension.power", "core.checked"] + t.edges["extension.string_power", "core.checked"]
    )
    return {
        "core.contains.calls": (calls["core.contains"], "count"),
        "core.contains.self_ms": (self_ms("core.contains"), "ms"),
        "core.checked.calls": (calls["core.checked"], "count"),
        "core.checked.self_ms": (self_ms("core.checked"), "ms"),
        "op.evals": (calls["op.eval"], "count"),
        "op.self_ms": (self_ms("op.eval"), "ms"),
        "exprlang.call.calls": (calls["exprlang.call"], "count"),
        "exprlang.call.self_ms": (self_ms("exprlang.call"), "ms"),
        "extension.power.calls": (calls["extension.power"], "count"),
        "extension.string_power.calls": (calls["extension.string_power"], "count"),
        "extension.eval.calls": (calls["extension.eval"], "count"),
        "extension.self_ms": (layer_ms("extension."), "ms"),
        "extension.checked_per_string": (_ratio(checked_in_strings, strings), "ratio"),
        "extraction.phi_at.calls": (calls["extraction.phi_at"], "count"),
        "extraction.sx_membership.calls": (calls["extraction.sx_membership"], "count"),
        "extraction.memberships_per_point": (
            _ratio(calls["extraction.sx_membership"], calls["extraction.phi_at"]),
            "ratio",
        ),
        "extraction.self_ms": (layer_ms("extraction."), "ms"),
        "generator.invert_monotone.calls": (calls["generator.invert_monotone"], "count"),
        "generator.phi.calls": (calls["generator.phi"], "count"),
        "generator.phi_calls_per_inverse": (
            _ratio(calls["generator.phi"], calls["generator.invert_monotone"]),
            "ratio",
        ),
        "generator.invert_monotone.self_ms": (self_ms("generator.invert_monotone"), "ms"),
        "axioms.checks.calls": (calls["axioms.check"], "count"),
        "axioms.self_ms": (layer_ms("axioms."), "ms"),
        "reducibility.derive_binary.evals": (calls["reducibility.binary_eval"], "count"),
        "reducibility.self_ms": (layer_ms("reducibility."), "ms"),
        "cli.load.self_ms": (self_ms("cli.load"), "ms"),
        "cli.write_report.self_ms": (self_ms("cli.write_report"), "ms"),
        "cli.main.self_ms": (self_ms("cli.main"), "ms"),
    }


def deterministic_counts(t: Tracer) -> dict[str, float]:
    """Every count and count ratio of a pass: these must repeat exactly
    for the same inputs."""
    return {k: v for k, (v, unit) in layer_metrics(t).items() if unit != "ms"}
