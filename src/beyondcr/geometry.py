"""Exact plane predicates for strong fan-planarity's enclosure test in
``checkers``, plus the orientation test the standard layouts use.

Coordinates are ``int`` or ``fractions.Fraction`` and every predicate is
exact, so no caller sees an epsilon.  The enclosure test passes plain
integers: the points of the drawing's ``point_table`` in ``drawing``, and
crossing points homogenised by their own denominator.  It runs them only for an (edge, anchor) whose
fan rings can bend; when the edge and every crosser's tail to the anchor
are straight, ``checkers`` decides from bend counts alone.  The layouts
pass ints and ``Fraction``s.  The crossing engine in ``drawing`` classifies
segment pairs with its own inline integer orientations and keeps each
crossing's side as ``Crossing.turn``.  ``lean`` gives an exact value as an
int when it is integral, for the standard layouts and the random corpus.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

Coord = int | Fraction
Point = tuple[Coord, Coord]
IntPoint = tuple[int, int]


def lean(q: Fraction) -> Coord:
    """q, as an int when it is integral."""
    return q.numerator if q.denominator == 1 else q


def orient(a: Point, b: Point, c: Point) -> Fraction:
    """Twice the signed area of triangle abc (>0 means c left of a->b)."""
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def on_segment(a: Point, b: Point, p: Point) -> bool:
    """True iff p lies on the closed segment ab (a, b endpoints included).

    The bounding box goes first: it rejects most points with comparisons
    alone, before the orientation's products."""
    return (
        min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
        and min(a[1], b[1]) <= p[1] <= max(a[1], b[1])
        and orient(a, b, p) == 0
    )


def ray_toggle(p: Point, a: Point, b: Point) -> bool:
    """Whether segment ab flips the even-odd count of p's rightward ray:
    ab spans p's height half-open, ``(ay > py) != (by > py)``, and meets
    that height right of p.  The answer does not depend on ab's direction,
    and splitting ab at a point on it splits it: the halves' answers XOR
    to ab's."""
    (ax, ay), (bx, by) = a, b
    px, py = p
    if (ay > py) == (by > py):
        return False
    if ax > px and bx > px:
        return True
    if ax <= px and bx <= px:
        return False
    # ab's x at height py exceeds px, cross-multiplied by by - ay
    d = (ax - px) * (by - ay) + (bx - ax) * (py - ay)
    return d > 0 if by > ay else d < 0


def chain_parity(p: Point, chain: Sequence[Point]) -> bool:
    """Even-odd parity of p's rightward ray against the open chain
    chain[0] -> ... -> chain[-1].

    The chains that split a closed ring XOR to the ring's parity, which is
    the even-odd containment of every p off the ring.  Boundary points are
    the caller's to refuse: this test does not see them.
    """
    inside = False
    for a, b in zip(chain, chain[1:]):
        if ray_toggle(p, a, b):
            inside = not inside
    return inside
