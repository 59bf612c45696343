"""Exact geometric predicates, cross-checked against from-scratch oracles."""

from fractions import Fraction

from hypothesis import assume, given
from hypothesis import strategies as st

from beyondcr import Drawing, compute_crossings, edge, make_graph
from beyondcr.geometry import on_segment, orient, point_in_polygon_evenodd
from conftest import pt
from oracles import (bbox_disjoint, ray_cast_inside, solve_segments,
                     winding_number)

coords = st.integers(min_value=-8, max_value=8)
points = st.tuples(coords, coords).map(lambda t: pt(*t))


@given(points, points, points, points)
def test_bbox_disjoint_implies_no_meet(a, b, c, d):
    assume(a != b and c != d)
    if bbox_disjoint(a, b, c, d):
        assert solve_segments(a, b, c, d)[0] == "none"


def test_proper_meet_point_exactness():
    # The crossing engine works on integers and hands back exact Fractions.
    d = Drawing(make_graph("abcd", [edge("a", "b"), edge("c", "d")]),
                {"a": pt(0, 0), "b": pt(7, 1), "c": pt(0, 1), "d": pt(7, 0)})
    (x,) = compute_crossings(d)
    assert x.point == (Fraction(7, 2), Fraction(1, 2))
    assert x.pos_a == (0, Fraction(1, 2)) and x.pos_b == (0, Fraction(1, 2))


def test_orient_and_on_segment():
    assert orient(pt(0, 0), pt(2, 0), pt(1, 1)) > 0
    assert orient(pt(0, 0), pt(2, 0), pt(1, -1)) < 0
    assert orient(pt(0, 0), pt(2, 0), pt(5, 0)) == 0
    assert on_segment(pt(0, 0), pt(4, 4), pt(2, 2))
    assert on_segment(pt(0, 0), pt(4, 4), pt(0, 0))
    assert not on_segment(pt(0, 0), pt(4, 4), pt(5, 5))
    assert not on_segment(pt(0, 0), pt(4, 4), pt(2, 3))


@given(points, points, points)
def test_orient_antisymmetry(a, b, c):
    assert orient(a, b, c) == -orient(b, a, c)


polygons = st.lists(points, min_size=3, max_size=8)


def _on_boundary(p, ring):
    for i in range(len(ring)):
        a, b = ring[i], ring[(i + 1) % len(ring)]
        if a == b:
            if p == a:
                return True
        elif on_segment(a, b, p):
            return True
    return False


@given(points, polygons)
def test_even_odd_matches_ray_casting(p, ring):
    assume(not _on_boundary(p, ring))
    assert point_in_polygon_evenodd(p, ring) == ray_cast_inside(p, ring)


@given(points, polygons)
def test_even_odd_matches_winding_parity(p, ring):
    assume(not _on_boundary(p, ring))
    assert point_in_polygon_evenodd(p, ring) == (winding_number(p, ring) % 2 == 1)


def test_boundary_points_count_as_outside():
    square = [pt(0, 0), pt(4, 0), pt(4, 4), pt(0, 4)]
    assert point_in_polygon_evenodd(pt(2, 2), square)
    assert not point_in_polygon_evenodd(pt(0, 2), square)   # on an edge
    assert not point_in_polygon_evenodd(pt(4, 4), square)   # at a corner
    assert not point_in_polygon_evenodd(pt(5, 2), square)


def test_winding_direction():
    ccw = [pt(0, 0), pt(4, 0), pt(4, 4), pt(0, 4)]
    assert winding_number(pt(2, 2), ccw) == 1
    assert winding_number(pt(2, 2), list(reversed(ccw))) == -1
    assert winding_number(pt(9, 9), ccw) == 0
