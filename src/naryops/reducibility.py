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
from typing import Sequence

from .axioms import AxiomReport, falsify, lattice_sampler, neutrality_trials, reduction_trials
from .core import NaryOp, Record, interval_contains, window_point
from .errors import DomainEscapeError
from .generator import GeneratorSpec, build_aczelian, generator_sum

__all__ = [
    "AdjoinedNeutral",
    "ADJOINED_NEUTRAL",
    "AdjoinedStructure",
    "derive_binary",
    "verify_reduction",
    "adjoin_neutral",
    "verify_neutrality",
]


class AdjoinedNeutral:
    """Tagged point adjoined outside the interval; its generator value is
    zero. Represented as an object, not a float sentinel, because it may
    have no numeric home in an open interval."""

    def __repr__(self) -> str:
        return "e*"


ADJOINED_NEUTRAL = AdjoinedNeutral()

Point = float | AdjoinedNeutral


def derive_binary(spec: GeneratorSpec) -> NaryOp:
    """The binary operation with the same generator: the generated
    operation at arity 2, labelled ``derived[...]``. A pairwise sum
    outside the codomain raises :class:`DomainEscapeError`."""
    f = build_aczelian(spec, 2)
    return NaryOp(2, f.domain, f.eval, f"derived[{spec.label or 'phi'}]")


def verify_reduction(
    f: NaryOp,
    diamond: NaryOp,
    samples: int = 500,
    seed: int = 0,
    tol: float = 1e-9,
    window: float = 10.0,
) -> AxiomReport:
    """Compare f on sampled tuples against the left fold of the binary
    candidate, the trials of :func:`naryops.axioms.reduction_trials`; other
    fold orders are covered by associativity of the candidate."""
    if diamond.arity != 2:
        raise ValueError("the reduction candidate must be binary")
    draw = lattice_sampler(f.domain, window, random.Random(seed))
    inputs = ((draw(f.arity),) for _ in range(samples))
    return falsify(
        "reduction", reduction_trials(f, diamond, inputs), tol,
        samples=samples, seed=seed, label=f"reduction[{f.label} vs {diamond.label}]",
    )


class AdjoinedStructure(Record):
    """The interval together with an n-ary neutral element.

    When zero lies in the codomain the neutral element is an interior
    point; otherwise it is the tagged :data:`ADJOINED_NEUTRAL` and tuples
    containing it are evaluated through extended generator sums.
    """

    __slots__ = _fields = ("neutral", "generator", "arity")

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
        """Worst |f'(x, e, ..., e) - x| over the sample. One position
        stands for all n: :func:`naryops.generator.generator_sum` adds the
        generator values by fsum, which rounds their exact sum once, so
        the sum, and the point it inverts to, is the same float wherever
        x sits in the tuple."""
        worst = 0.0
        for x in xs:
            y = self.eval([x] + [self.neutral] * (self.arity - 1))
            if isinstance(y, AdjoinedNeutral):
                raise DomainEscapeError(
                    f"neutrality evaluation collapsed to the adjoined point at x={x!r}"
                )
            worst = max(worst, abs(y - x))
        return worst


def adjoin_neutral(spec: GeneratorSpec, n: int) -> AdjoinedStructure:
    """Attach the n-ary neutral element to a generated operation: the
    preimage of zero when zero lies in the codomain, the tagged
    :data:`ADJOINED_NEUTRAL` otherwise. It is not checked here; a wrong
    generator or inverse shows as a failed :func:`verify_neutrality`."""
    if n < 2:
        raise ValueError("n must be >= 2")
    if interval_contains(spec.codomain, 0.0):
        neutral: Point = spec.inverse(0.0)
    else:
        neutral = ADJOINED_NEUTRAL
    return AdjoinedStructure(neutral, spec, n)


#: points at which verify_neutrality probes the neutral element
_NEUTRALITY_PROBES = 20


def verify_neutrality(
    structure: AdjoinedStructure, seed: int = 0, window: float = 10.0
) -> AxiomReport:
    """Check the neutral element on _NEUTRALITY_PROBES points drawn with
    :func:`naryops.core.window_point` from the domain inside
    [-window, window]: a probe fails when its residual exceeds
    1e-8 * (1 + the largest |probe|)."""
    spec = structure.generator
    lo, hi = spec.domain.clamp_window(window)
    rng = random.Random(seed)
    probes = [window_point(lo, hi, rng.random()) for _ in range(_NEUTRALITY_PROBES)]
    return falsify(
        "neutrality", neutrality_trials(structure, [((x,),) for x in probes]), 0.0,
        slack=1e-8 * (1.0 + max(abs(v) for v in probes)),
        samples=len(probes), seed=seed, label=f"neutrality[{spec.label}]",
    )
