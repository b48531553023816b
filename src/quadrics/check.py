"""Randomized equivalence checker: separated vs classical, case by case.

Each case draws a quadric (10 coefficients uniform in [-2, 2]) and a
Euclidean ray (origin and direction components uniform in [-10, 10]), then
compares the two discriminants at relative tolerance 1e-9 and the full
intersection results.  Classification may legitimately differ only inside
the tangency band, where miss/tangent/two-root labels are a coin toss by
construction; the report counts those forgiven mismatches as band ties.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from .classical import (
    TANGENT_EPS,
    LinearHit,
    Tangent,
    Two,
    _a_scale,
    coefficients,
    solve,
)
from .geometry import HomogeneousDirection, HomogeneousPoint
from .quadric import QuadricMatrix
from .rng import Xorshift64Star
from .separated import discriminant_separated, intersect_separated, make_ray_cache

__all__ = ["DISCRIMINANT_RTOL", "CheckFailure", "CheckReport", "oracle_check", "format_report"]

DISCRIMINANT_RTOL = 1e-9
_MAX_REPORTED = 10


@dataclass(frozen=True)
class CheckFailure:
    case_index: int
    reason: str
    d_classical: float
    d_separated: float


@dataclass
class CheckReport:
    cases: int
    comparisons: int = 0
    band_ties: int = 0  # classification mismatches forgiven inside the tangency band
    failures: list[CheckFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def _draw_quadric(rng: Xorshift64Star) -> QuadricMatrix:
    while True:
        coeffs = [rng.uniform(-2.0, 2.0) for _ in range(10)]
        if any(c != 0.0 for c in coeffs):
            return QuadricMatrix(*coeffs)


def _draw_ray(rng: Xorshift64Star) -> tuple[HomogeneousPoint, HomogeneousDirection]:
    point = HomogeneousPoint(
        rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0), 1.0
    )
    while True:
        sx = rng.uniform(-10.0, 10.0)
        sy = rng.uniform(-10.0, 10.0)
        sz = rng.uniform(-10.0, 10.0)
        if sx != 0.0 or sy != 0.0 or sz != 0.0:
            return point, HomogeneousDirection(sx, sy, sz, 0.0)


def _within_band(d: float, b: float, a: float, c: float) -> bool:
    # Forgiving band: discriminants this close to zero may classify either way.
    return abs(d) <= 4.0 * TANGENT_EPS * max(1.0, b * b, abs(a * c))


def oracle_check(seed: int, cases: int) -> CheckReport:
    """Run `cases` random comparisons; failures carry enough detail to replay."""
    if cases < 1:
        raise ValueError("need at least one case")
    rng = Xorshift64Star(seed)
    report = CheckReport(cases=cases)
    for index in range(cases):
        q = _draw_quadric(rng)
        point, direction = _draw_ray(rng)
        cache = make_ray_cache(point, direction)

        cf = coefficients(q, point, direction)
        a, b, c = cf.a, cf.b, cf.c
        d_classical = b * b - a * c
        d_separated = discriminant_separated(q, cache)
        report.comparisons += 1

        tol = DISCRIMINANT_RTOL * max(1.0, abs(d_classical), b * b, abs(a * c))
        if not abs(d_separated - d_classical) <= tol:
            report.failures.append(
                CheckFailure(index, "discriminant mismatch", d_classical, d_separated)
            )
            continue

        scale = _a_scale(q, direction)
        res_c = solve(cf, a_scale=scale)
        res_s = intersect_separated(q, cache)
        if type(res_c) is not type(res_s):
            if _within_band(d_classical, b, a, c) and _within_band(d_separated, b, a, c):
                report.band_ties += 1
                continue
            report.failures.append(
                CheckFailure(
                    index,
                    f"classification mismatch: {type(res_c).__name__} vs {type(res_s).__name__}",
                    d_classical,
                    d_separated,
                )
            )
            continue
        if isinstance(res_c, Two) and isinstance(res_s, Two):
            denom = max(abs(a) * (math.sqrt(max(d_classical, 0.0)) + math.sqrt(max(d_separated, 0.0))), 1e-300)
            t_tol = tol / denom + 1e-9 * (1.0 + max(abs(res_c.t1), abs(res_c.t2)))
            if abs(res_c.t1 - res_s.t1) > t_tol or abs(res_c.t2 - res_s.t2) > t_tol:
                report.failures.append(
                    CheckFailure(index, "root mismatch", d_classical, d_separated)
                )
        elif isinstance(res_c, (Tangent, LinearHit)):
            t_c = res_c.t
            t_s = res_s.t  # type: ignore[union-attr]
            if abs(t_c - t_s) > 1e-6 * (1.0 + abs(t_c)):
                report.failures.append(
                    CheckFailure(index, "root mismatch", d_classical, d_separated)
                )
    return report


def format_report(report: CheckReport) -> str:
    lines = [
        f"oracle check: {report.cases} cases, {report.comparisons} comparisons, "
        f"{len(report.failures)} failures, {report.band_ties} band ties"
    ]
    for fail in report.failures[:_MAX_REPORTED]:
        lines.append(
            f"  case {fail.case_index}: {fail.reason} "
            f"(classical D={fail.d_classical!r}, separated D={fail.d_separated!r})"
        )
    if len(report.failures) > _MAX_REPORTED:
        lines.append(f"  ... and {len(report.failures) - _MAX_REPORTED} more")
    return "\n".join(lines)
