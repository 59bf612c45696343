"""Ratio arithmetic and the per-concept growth table.

Crossing-ratio data for one construction family: the exact counting lower
bound versus the crossing count of the cheap ("upper") standard drawing,
per-concept closed-form caps on the ratio, and a report that measures the
growth exponent of the ratio in the vertex count across a doubling
parameter grid.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from .graph_core import (
    CONCEPTS,
    K7,
    ConceptId,
    as_concept,
    connection_specs,
    evaluate,
    framework_size,
    structural_k,
)
from .kuratowski import counting_lower_bound
from .standard_layouts import crossing_count_formula


class UpperBound(NamedTuple):
    """Closed-form cap on the crossing ratio at one (n, k)."""

    value: Fraction
    expression: str
    theta_class: str
    caveat: str | None
    trace: tuple[str, ...]

    def to_json_obj(self) -> dict:
        obj = {
            "value": str(self.value),
            "expression": self.expression,
            "theta_class": self.theta_class,
            "trace": list(self.trace),
        }
        if self.caveat:
            obj["caveat"] = self.caveat
        return obj


def ratio_upper(concept: "str | ConceptId", n: int,
                m: int | None = None, k: int | None = None) -> UpperBound:
    """Evaluate the concept's ratio cap at n vertices.

    Constants are implementation-derived where only growth classes are
    known; each substitution is recorded in the trace.  The sparse edge cap
    m <= 4n is applied wherever the expression eliminated m; passing the
    actual m only annotates the trace.  Adjacency- and fan-crossing caps
    hold for simple drawings only and are tagged accordingly.
    """
    cid = as_concept(concept, k)
    kk = structural_k(cid)
    info = cid.info
    if n <= 0:
        raise ValueError("need n > 0")
    value, _text = evaluate(info.cap, n=n, k=kk)
    trace = [f"expression: {info.cap} (constants implementation-derived "
             f"for the class {info.theta_class})", *info.cap_notes]
    if m is not None:
        trace.append(f"instance edges m = {m}"
                     + ("" if m <= 4 * n else " (above the 4n sparse cap)"))
    trace.append(f"value at n={n}, k={kk}: {value}")
    return UpperBound(value, info.cap, info.theta_class, info.caveat,
                      tuple(trace))


# ---------------------------------------------------------------------------
# Ratio reports
# ---------------------------------------------------------------------------

class RatioReport(NamedTuple):
    """Crossing-ratio data for one concept.

    Point fields (n, m, crossings, bound, ratio) are evaluated at
    (ell, k); ``grid`` and ``slope`` are filled by table reports that
    measure the ratio's growth exponent across a doubling ell grid.
    empirical_ratio = counting_bound / upper_drawing_crossings.
    """

    concept: str
    ell: int
    k: int
    n: int
    m: int
    witness_crossings: int
    upper_drawing_crossings: int
    counting_bound: Fraction
    empirical_ratio: Fraction
    theta_class: str
    sharpness: bool
    rectilinear: bool
    slope: float | None = None
    grid: tuple[tuple[int, int, Fraction], ...] = ()   # (ell, n, ratio)

    def to_json_obj(self) -> dict:
        obj = {
            "concept": self.concept,
            "ell": self.ell,
            "k": self.k,
            "n": self.n,
            "m": self.m,
            "witness_crossings": self.witness_crossings,
            "upper_drawing_crossings": self.upper_drawing_crossings,
            "counting_bound": str(self.counting_bound),
            "empirical_ratio": str(self.empirical_ratio),
            "theta_class": self.theta_class,
            "sharpness": self.sharpness,
            "rectilinear": self.rectilinear,
        }
        if self.slope is not None:
            obj["slope"] = round(self.slope, 4)
        if self.grid:
            obj["grid"] = [[ell, n, str(r)] for ell, n, r in self.grid]
        return obj


def ratio_report(concept: "str | ConceptId", ell: int,
                 k: int | None = None) -> RatioReport:
    """Formula-based ratio data at a single (ell, k) point."""
    cid = as_concept(concept, k)
    kk = structural_k(cid)
    n, m = framework_size(cid, ell)
    witness = crossing_count_formula(cid, ell, variant="witness")
    upper = crossing_count_formula(cid, ell, variant="upper")
    bound, _trace = counting_lower_bound(cid, ell)
    return RatioReport(
        concept=str(cid), ell=ell, k=kk, n=n, m=m,
        witness_crossings=witness,
        upper_drawing_crossings=upper,
        counting_bound=bound,
        empirical_ratio=Fraction(bound, upper),
        theta_class=cid.info.theta_class,
        sharpness=cid.info.sharp,
        # only K7 gadgets need bent edges in the standard drawings
        rectilinear=not any(isinstance(spec, K7) for spec
                            in connection_specs(cid, ell).values()),
    )


def growth_exponent(points: Sequence[tuple[int, Fraction]]) -> float:
    """Least-squares slope of log(ratio) against log(n)."""
    if len({n for n, _ in points}) < 2:
        raise ValueError("need grid points at two different n")
    if any(r <= 0 for _, r in points):
        raise ValueError("ratios must be positive for a log-log slope")
    xs = [math.log(n) for n, _ in points]
    # a ratio can exceed the float range, its numerator and denominator not
    ys = [math.log(r.numerator) - math.log(r.denominator) for _, r in points]
    mean_x = sum(xs) / len(xs)
    mean_y = sum(ys) / len(ys)
    sxx = sum((x - mean_x) ** 2 for x in xs)
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    return sxy / sxx


# ell doublings start at max(threshold, _BASE_MIN): far enough above the
# threshold that the bounds' low-order terms (1 - c/ell, additive
# constants in n) cannot distort the measured slope.
_BASE_MIN = 1024


class NotApplicable(NamedTuple):
    """Table row of a concept that does not exist at the requested k."""

    concept: str
    reason: str

    def to_json_obj(self) -> dict:
        return {"concept": self.concept, "applicable": False,
                "reason": self.reason}


def table1_report(k: int = 2,
                  points: int = 5) -> list[RatioReport | NotApplicable]:
    """One row per concept, in table order, with measured growth exponents.

    Point data is evaluated at the grid base; the slope regression runs
    over ``points`` doublings of ell.  All values are closed-form — no
    drawings are emitted, so the grid can sit far above the thresholds.
    A concept needing a larger k than ``k`` gets a NotApplicable row.
    """
    if points < 2:
        raise ValueError("points must be >= 2")
    reports = []
    for kind, info in CONCEPTS.items():
        if info.requires_k and k < info.k_min:
            reports.append(NotApplicable(info.shorthand,
                                         f"requires k >= {info.k_min}"))
            continue
        cid = ConceptId(kind, k if info.requires_k else None)
        threshold, _ = evaluate(info.threshold, k=structural_k(cid))
        base = max(int(threshold), _BASE_MIN)
        rows = [ratio_report(cid, base << i) for i in range(points)]
        grid = tuple((r.ell, r.n, r.empirical_ratio) for r in rows)
        slope = growth_exponent([(r.n, r.empirical_ratio) for r in rows])
        reports.append(rows[0]._replace(slope=slope, grid=grid))
    return reports


def format_table1(reports: Iterable[RatioReport | NotApplicable]) -> str:
    """Human-readable growth table: one row per concept."""
    header = f"{'concept':<22} {'class':<14} {'slope':>6} " \
             f"{'sharp':>6} {'rectl':>6}"
    lines = [header, "-" * len(header)]
    for r in reports:
        if isinstance(r, NotApplicable):
            lines.append(f"{r.concept:<22} n/a ({r.reason})")
            continue
        slope = "" if r.slope is None else f"{r.slope:.2f}"
        lines.append(f"{r.concept:<22} {r.theta_class:<14} {slope:>6} "
                     f"{str(r.sharpness):>6} {str(r.rectilinear):>6}")
    return "\n".join(lines)


def reports_to_json_obj(reports: Iterable[RatioReport | NotApplicable]
                        ) -> list:
    return [r.to_json_obj() for r in reports]
