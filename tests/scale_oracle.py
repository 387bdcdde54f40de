"""Uniqueness of the generator up to scale, as a check on two extracted
tables: generators of one operation extracted at different base points
must have a constant pointwise ratio, within the error budget
``knot_error`` of each table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from naryops.extraction import ExtractedGenerator


@dataclass(frozen=True)
class ScaleReport:
    """Pointwise ratio of two extracted generators of the same operation:
    by uniqueness up to scale the ratio must be constant."""

    points_used: int
    mean_ratio: float
    spread: float
    slack: float
    passed: bool
    ratios: tuple[float, ...] = ()


def compare_scales(
    gen1: ExtractedGenerator,
    gen2: ExtractedGenerator,
    common_grid: Sequence[float],
    spread_tol: float | None = None,
) -> ScaleReport:
    """Ratios gen1/gen2 on grid points safely away from the shared zero.

    The spread (max - min over mean magnitude) must stay within the
    resolution-derived slack, or within ``spread_tol`` when given.
    """
    floor2 = 5.0 * max(gen2.realized_resolution, gen2.resolution_bound)
    ratios = []
    errors = []
    for t in common_grid:
        v1 = gen1.interpolate(t)
        v2 = gen2.interpolate(t)
        if abs(v2) <= floor2:
            continue
        r = v1 / v2
        ratios.append(r)
        e1, e2 = gen1.knot_error, gen2.knot_error
        errors.append((e1 + abs(r) * e2) / max(abs(v2) - e2, 1e-300))
    if not ratios:
        raise ValueError("every grid point sits too close to the generators' zero")
    mean = math.fsum(ratios) / len(ratios)
    spread = (max(ratios) - min(ratios)) / max(abs(mean), 1e-300)
    slack = 2.0 * max(errors) / max(abs(mean), 1e-300) + 1e-9
    allowed = slack if spread_tol is None else max(slack, spread_tol)
    return ScaleReport(
        points_used=len(ratios),
        mean_ratio=mean,
        spread=spread,
        slack=slack,
        passed=spread <= allowed,
        ratios=tuple(ratios),
    )
