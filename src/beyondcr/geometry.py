"""Exact rational plane geometry for polyline drawings.

Coordinates are ``fractions.Fraction`` or ``int`` (the crossing engine in
``drawing`` calls these predicates on integer-scaled points); every
predicate is exact, so the rest of the package never sees an epsilon.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

Point = tuple[Fraction, Fraction]


def pt(x, y) -> Point:
    """Build an exact point from ints/strings/Fractions."""
    return (Fraction(x), Fraction(y))


def sub(a: Point, b: Point) -> Point:
    return (a[0] - b[0], a[1] - b[1])


def cross(a: Point, b: Point) -> Fraction:
    return a[0] * b[1] - a[1] * b[0]


def orient(a: Point, b: Point, c: Point) -> Fraction:
    """Twice the signed area of triangle abc (>0 means c left of a->b)."""
    return cross(sub(b, a), sub(c, a))


def on_segment(a: Point, b: Point, p: Point) -> bool:
    """True iff p lies on the closed segment ab (a, b endpoints included)."""
    if orient(a, b, p) != 0:
        return False
    return (
        min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
        and min(a[1], b[1]) <= p[1] <= max(a[1], b[1])
    )


class SegmentMeet:
    """Classification of how two closed segments meet.

    kind is one of:
      "none"      — disjoint
      "proper"    — transversal crossing in both segments' interiors
      "touch"     — a single shared point that is an endpoint of >= 1 segment
      "overlap"   — collinear with a shared sub-segment of positive length
    For "proper" and "touch", ``point`` holds the meet point and for "proper"
    ``t1``/``t2`` the parameters along each segment in (0, 1).
    """

    __slots__ = ("kind", "point", "t1", "t2")

    def __init__(self, kind: str, point: Point | None = None,
                 t1: Fraction | None = None, t2: Fraction | None = None):
        self.kind = kind
        self.point = point
        self.t1 = t1
        self.t2 = t2

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SegmentMeet({self.kind}, {self.point})"


def segment_meet(a: Point, b: Point, c: Point, d: Point) -> SegmentMeet:
    """Exactly classify the intersection of closed segments ab and cd."""
    d1 = orient(c, d, a)
    d2 = orient(c, d, b)
    d3 = orient(a, b, c)
    d4 = orient(a, b, d)

    if d1 == 0 and d2 == 0:
        # Collinear (or a degenerate segment): check 1-D overlap.
        if a == b:
            return SegmentMeet("touch", a) if on_segment(c, d, a) else SegmentMeet("none")
        if c == d:
            return SegmentMeet("touch", c) if on_segment(a, b, c) else SegmentMeet("none")
        # Project on the dominant axis.
        axis = 0 if a[0] != b[0] else 1
        lo1, hi1 = sorted((a[axis], b[axis]))
        lo2, hi2 = sorted((c[axis], d[axis]))
        lo, hi = max(lo1, lo2), min(hi1, hi2)
        if lo > hi:
            return SegmentMeet("none")
        if lo == hi:
            # They share exactly one point, necessarily a common endpoint.
            shared = a if a in (c, d) else b
            return SegmentMeet("touch", shared)
        return SegmentMeet("overlap")

    if ((d1 > 0) != (d2 > 0) or d1 == 0 or d2 == 0) and \
       ((d3 > 0) != (d4 > 0) or d3 == 0 or d4 == 0):
        # Some meet exists; distinguish proper crossing from touching.
        if d1 != 0 and d2 != 0 and d3 != 0 and d4 != 0:
            # Proper: solve a + t1*(b-a) = c + t2*(d-c).
            r = sub(b, a)
            s = sub(d, c)
            denom = cross(r, s)
            t1 = Fraction(cross(sub(c, a), s), denom)
            t2 = Fraction(cross(sub(c, a), r), denom)
            point = (a[0] + t1 * r[0], a[1] + t1 * r[1])
            return SegmentMeet("proper", point, t1, t2)
        # An endpoint of one segment lies on the other.
        for p in (a, b):
            if on_segment(c, d, p):
                return SegmentMeet("touch", p)
        for p in (c, d):
            if on_segment(a, b, p):
                return SegmentMeet("touch", p)
        return SegmentMeet("none")

    return SegmentMeet("none")


def point_in_polygon_evenodd(p: Point, polygon: Sequence[Point]) -> bool:
    """Exact even-odd containment; points on the boundary count as outside.

    The polygon is the closed chain polygon[0] -> ... -> polygon[-1] ->
    polygon[0] and may self-intersect.
    """
    n = len(polygon)
    # Boundary check first: "strictly inside" must reject boundary points.
    for i in range(n):
        a, b = polygon[i], polygon[(i + 1) % n]
        if a == b:
            if p == a:
                return False
            continue
        if on_segment(a, b, p):
            return False
    inside = False
    px, py = p
    for i in range(n):
        a, b = polygon[i], polygon[(i + 1) % n]
        (ax, ay), (bx, by) = a, b
        if ay == by:
            continue  # horizontal edges never toggle an upward ray
        if (ay > py) != (by > py):
            # x-coordinate of edge at height py, exactly.
            xcross = ax + (bx - ax) * (py - ay) / (by - ay)
            if xcross > px:
                inside = not inside
    return inside
