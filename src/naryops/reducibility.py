"""Reduction of generated n-ary operations to binary ones and adjunction
of an n-ary neutral element.

Every generated operation is the n-fold iteration of the binary operation
with the same generator. The neutral element is the preimage of zero; when
zero is outside the codomain the neutral point does not exist inside the
interval and is adjoined as a tagged extra point whose generator value
is zero.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Sequence, Union

from .axioms import AxiomReport, falsify, lattice_sampler
from .core import Interval, NaryOp, interval_contains
from .errors import DomainEscapeError
from .generator import GeneratorSpec, build_aczelian, generator_sum

__all__ = [
    "AdjoinedNeutral",
    "ADJOINED_NEUTRAL",
    "AdjoinedStructure",
    "derive_binary",
    "verify_reduction",
    "adjoin_neutral",
]


class AdjoinedNeutral:
    """Tagged point adjoined outside the interval; its generator value is
    zero. Represented as an object, not a float sentinel, because it may
    have no numeric home in an open interval."""

    def __repr__(self) -> str:
        return "e*"


ADJOINED_NEUTRAL = AdjoinedNeutral()

Point = Union[float, AdjoinedNeutral]


def derive_binary(spec: GeneratorSpec) -> NaryOp:
    """The binary operation with the same generator: the generated
    operation at arity 2, labelled ``derived[...]``. A pairwise sum
    outside the codomain raises :class:`DomainEscapeError`."""
    return replace(build_aczelian(spec, 2), label=f"derived[{spec.label or 'phi'}]")


def verify_reduction(
    f: NaryOp,
    diamond: NaryOp,
    samples: int = 500,
    seed: int = 0,
    tol: float = 1e-9,
    window: float = 10.0,
) -> AxiomReport:
    """Compare f on sampled tuples against the left fold of the binary
    candidate. Folding left matches the extension convention; other fold
    orders are covered by associativity of the candidate."""
    if diamond.arity != 2:
        raise ValueError("the reduction candidate must be binary")
    n = f.arity
    draw = lattice_sampler(f.domain, window, random.Random(seed))

    def trials():
        for _ in range(samples):
            xs = tuple(draw() for _ in range(n))
            lhs = f.checked(*xs)
            acc = xs[0]
            for v in xs[1:]:
                acc = diamond.checked(acc, v)
            yield lhs, acc, {"inputs": (xs,)}

    return falsify(
        "reduction", trials(), tol,
        samples=samples, seed=seed, label=f"reduction[{f.label} vs {diamond.label}]",
    )


@dataclass(frozen=True)
class AdjoinedStructure:
    """The interval together with an n-ary neutral element.

    When zero lies in the codomain the neutral element is an interior
    point; otherwise it is the tagged :data:`ADJOINED_NEUTRAL` and tuples
    containing it are evaluated through extended generator sums.
    """

    base_interval: Interval
    neutral: Point
    generator: GeneratorSpec
    arity: int

    @property
    def neutral_is_adjoined(self) -> bool:
        return isinstance(self.neutral, AdjoinedNeutral)

    def phi_prime(self, v: Point) -> float:
        if isinstance(v, AdjoinedNeutral):
            return 0.0
        return self.generator.phi(v)

    def eval(self, xs: Sequence[Point]) -> Point:
        """Evaluate an n-tuple that may contain the adjoined point."""
        if len(xs) != self.arity:
            raise ValueError(f"expected {self.arity} points")
        s = generator_sum(self.phi_prime, xs)
        if s == 0.0 and self.neutral_is_adjoined:
            return self.neutral
        return self.generator.inverse(s)

    def max_neutrality_residual(self, xs: Sequence[float]) -> float:
        """Worst |f'(e^{n-1} with x at one position) - x| over the sample,
        trying the non-neutral point at every position."""
        worst = 0.0
        for x in xs:
            for pos in range(self.arity):
                tup: list[Point] = [self.neutral] * self.arity
                tup[pos] = x
                y = self.eval(tup)
                if isinstance(y, AdjoinedNeutral):
                    raise DomainEscapeError(
                        f"neutrality evaluation collapsed to the adjoined point at x={x!r}"
                    )
                worst = max(worst, abs(y - x))
        return worst


def adjoin_neutral(spec: GeneratorSpec, n: int) -> AdjoinedStructure:
    """Attach the n-ary neutral element to a generated operation.

    Verifies neutrality at every position on three probe points, at a
    quarter, a half and three quarters of the domain clamped to [-4, 4],
    before returning; a gross failure raises :class:`DomainEscapeError`.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if interval_contains(spec.codomain, 0.0):
        neutral: Point = spec.inverse(0.0)
    else:
        neutral = ADJOINED_NEUTRAL
    structure = AdjoinedStructure(
        base_interval=spec.domain, neutral=neutral, generator=spec, arity=n
    )
    lo, hi = spec.domain.clamp_window(4.0)
    probe_points = [lo + (hi - lo) * t for t in (0.25, 0.5, 0.75)]
    residual = structure.max_neutrality_residual(probe_points)
    scale = 1.0 + max(abs(v) for v in probe_points)
    if residual > 1e-6 * scale:
        raise DomainEscapeError(
            f"adjoined neutral fails neutrality: residual {residual!r} on probes"
        )
    return structure
