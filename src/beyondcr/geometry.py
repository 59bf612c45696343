"""Exact rational plane predicates for the fan checkers in ``checkers``.

Coordinates are ``fractions.Fraction`` or ``int`` and every predicate is
exact, so no caller sees an epsilon.  The crossing engine in ``drawing``
classifies segment pairs with its own inline integer orientations.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

Point = tuple[Fraction, Fraction]


def sub(a: Point, b: Point) -> Point:
    return (a[0] - b[0], a[1] - b[1])


def cross(a: Point, b: Point) -> Fraction:
    return a[0] * b[1] - a[1] * b[0]


def orient(a: Point, b: Point, c: Point) -> Fraction:
    """Twice the signed area of triangle abc (>0 means c left of a->b)."""
    return cross(sub(b, a), sub(c, a))


def on_segment(a: Point, b: Point, p: Point) -> bool:
    """True iff p lies on the closed segment ab (a, b endpoints included).

    The bounding box goes first: it rejects most points with comparisons
    alone, before the orientation's Fraction products."""
    return (
        min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
        and min(a[1], b[1]) <= p[1] <= max(a[1], b[1])
        and orient(a, b, p) == 0
    )


def point_in_polygon_evenodd(p: Point, polygon: Sequence[Point]) -> bool:
    """Exact even-odd containment; points on the boundary count as outside.

    The polygon is the closed chain polygon[0] -> ... -> polygon[-1] ->
    polygon[0] and may self-intersect.
    """
    n = len(polygon)
    # Boundary check first: "strictly inside" must reject boundary points.
    # A repeated point is a zero-length edge, on which only p == a lies.
    if any(on_segment(polygon[i - 1], polygon[i], p) for i in range(n)):
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
