"""Exact geometric predicates, cross-checked against a from-scratch solver."""

from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from beyondcr.geometry import (
    on_segment,
    orient,
    point_in_polygon_evenodd,
    pt,
    segment_meet,
)
from oracles import (bbox_disjoint, ray_cast_inside, solve_segments,
                     winding_number)

coords = st.integers(min_value=-8, max_value=8)
points = st.tuples(coords, coords).map(lambda t: pt(*t))


@given(points, points, points, points)
def test_segment_meet_matches_independent_solver(a, b, c, d):
    assume(a != b and c != d)
    got = segment_meet(a, b, c, d)
    kind, payload = solve_segments(a, b, c, d)
    assert got.kind == kind
    if kind == "proper":
        point, t, u = payload
        assert got.point == point
        assert got.t1 == t
        assert got.t2 == u
        assert 0 < t < 1 and 0 < u < 1
    elif kind == "touch":
        assert got.point == payload


int_points = st.tuples(coords, coords)


@given(int_points, int_points, int_points, int_points)
def test_segment_meet_exact_on_int_points(a, b, c, d):
    # The crossing engine calls segment_meet on integer-scaled points.
    assume(a != b and c != d)
    got = segment_meet(a, b, c, d)
    kind, payload = solve_segments(a, b, c, d)
    assert got.kind == kind
    if kind == "proper":
        point, t, u = payload
        assert (got.point, got.t1, got.t2) == (point, t, u)
        assert all(isinstance(v, Fraction)
                   for v in (*got.point, got.t1, got.t2))
    elif kind == "touch":
        assert got.point == payload


@given(points, points, points, points)
def test_segment_meet_symmetric(a, b, c, d):
    assume(a != b and c != d)
    m1 = segment_meet(a, b, c, d)
    m2 = segment_meet(c, d, a, b)
    assert m1.kind == m2.kind
    assert m1.point == m2.point
    if m1.kind == "proper":
        assert (m1.t1, m1.t2) == (m2.t2, m2.t1)


@given(points, points, points, points)
def test_bbox_disjoint_implies_no_meet(a, b, c, d):
    assume(a != b and c != d)
    if bbox_disjoint(a, b, c, d):
        assert segment_meet(a, b, c, d).kind == "none"


def test_segment_meet_corner_cases():
    # collinear, sharing exactly one endpoint: a touch, not an overlap
    m = segment_meet(pt(0, 0), pt(2, 0), pt(2, 0), pt(5, 0))
    assert m.kind == "touch" and m.point == pt(2, 0)
    # collinear with a shared positive-length piece
    assert segment_meet(pt(0, 0), pt(3, 0), pt(2, 0), pt(5, 0)).kind == "overlap"
    # identical segments
    assert segment_meet(pt(0, 0), pt(3, 0), pt(0, 0), pt(3, 0)).kind == "overlap"
    # endpoint of one in the interior of the other (T shape)
    m = segment_meet(pt(0, 0), pt(4, 0), pt(2, -1), pt(2, 0))
    assert m.kind == "touch" and m.point == pt(2, 0)
    # shared corner of two non-collinear segments
    m = segment_meet(pt(0, 0), pt(2, 2), pt(2, 2), pt(4, 0))
    assert m.kind == "touch" and m.point == pt(2, 2)
    # plain X crossing with a non-integer meet point
    m = segment_meet(pt(0, 0), pt(3, 3), pt(0, 2), pt(2, 0))
    assert m.kind == "proper"
    assert m.point == (Fraction(1), Fraction(1))
    # far apart
    assert segment_meet(pt(0, 0), pt(1, 0), pt(5, 5), pt(6, 5)).kind == "none"


def test_proper_meet_point_exactness():
    m = segment_meet(pt(0, 0), pt(7, 1), pt(0, 1), pt(7, 0))
    assert m.kind == "proper"
    assert m.point == (Fraction(7, 2), Fraction(1, 2))
    assert m.t1 == Fraction(1, 2) and m.t2 == Fraction(1, 2)


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
