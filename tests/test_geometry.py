"""Exact geometric predicates, cross-checked against from-scratch oracles."""

from fractions import Fraction

from hypothesis import assume, given
from hypothesis import strategies as st

from beyondcr import Drawing, compute_crossings, edge, make_graph
from beyondcr.geometry import chain_parity, on_segment, orient, ray_toggle
from conftest import pt
from oracles import (bbox_disjoint, on_segment_brute, ray_cast_inside,
                     solve_segments, winding_number)

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


def _evenodd(p, ring):
    """Even-odd containment of p in the closed ring from the chain parity;
    points on the boundary count as outside."""
    closed = [*ring, ring[0]]
    if any(on_segment(a, b, p) for a, b in zip(closed, closed[1:])):
        return False
    return chain_parity(p, closed)


@given(points, polygons)
def test_even_odd_matches_ray_casting(p, ring):
    assume(not _on_boundary(p, ring))
    assert _evenodd(p, ring) == ray_cast_inside(p, ring)


@given(points, polygons)
def test_even_odd_matches_winding_parity(p, ring):
    assume(not _on_boundary(p, ring))
    assert _evenodd(p, ring) == (winding_number(p, ring) % 2 == 1)


@given(points, polygons, st.data())
def test_chain_parities_xor_to_the_ring_parity(p, ring, data):
    # cut the closed ring into chains that share their end points; each
    # chain may be walked either way
    assume(not _on_boundary(p, ring))
    closed = [*ring, ring[0]]
    cuts = sorted(data.draw(st.sets(st.integers(1, len(closed) - 2))))
    bounds = [0, *cuts, len(closed) - 1]
    parity = False
    for lo, hi in zip(bounds, bounds[1:]):
        chain = closed[lo:hi + 1]
        if data.draw(st.booleans()):
            chain.reverse()
        parity ^= chain_parity(p, chain)
    assert parity == ray_cast_inside(p, ring)
    assert parity == (winding_number(p, ring) % 2 == 1)


@given(points, points, points,
       st.sampled_from([Fraction(0), Fraction(1, 3), Fraction(1, 2),
                        Fraction(1)]))
def test_ray_toggle_splits_at_a_point_of_the_segment(p, a, b, t):
    # any p, boundary included: the halves' toggles XOR to the segment's
    c = (a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1]))
    assert ray_toggle(p, a, c) ^ ray_toggle(p, c, b) == ray_toggle(p, a, b)
    assert ray_toggle(p, a, b) == ray_toggle(p, b, a)


# Small rationals (denominators 1-3) and rings drawn from a pool of at most
# four points, so repeated points, zero-length and collinear edges are common.
rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 3))
rational_points = st.tuples(rationals, rationals)


@st.composite
def rings_with_probe(draw):
    pool = draw(st.lists(st.one_of(points, rational_points), min_size=1,
                         max_size=4))
    ring = draw(st.lists(st.sampled_from(pool), min_size=3, max_size=7))
    i = draw(st.integers(0, len(ring) - 1))
    a, b = ring[i], ring[(i + 1) % len(ring)]
    t = draw(st.sampled_from([Fraction(0), Fraction(1, 3), Fraction(1, 2),
                              Fraction(1)]))
    on_edge = (a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1]))
    p = draw(st.one_of(points, rational_points, st.just(a), st.just(on_edge)))
    return ring, p


@given(rings_with_probe())
def test_boundary_and_containment_match_brute_force(ring_p):
    ring, p = ring_p
    n = len(ring)
    edges = [(ring[i], ring[(i + 1) % n]) for i in range(n)]
    for a, b in edges:
        assert on_segment(a, b, p) == on_segment_brute(a, b, p)
    on_boundary = any(on_segment_brute(a, b, p) for a, b in edges)
    inside = not on_boundary and winding_number(p, ring) % 2 == 1
    assert _evenodd(p, ring) == inside


def test_degenerate_rings():
    # repeated points and a collinear spike: the spike's edges are boundary
    ring = [pt(0, 0), pt(0, 0), pt(4, 0), pt(8, 0), pt(4, 0), pt(4, 4)]
    assert not _evenodd(pt(6, 0), ring)     # on the spike
    assert not _evenodd(pt(4, 0), ring)     # at a vertex
    assert _evenodd(pt(3, 1), ring)
    assert not _evenodd(pt(9, 0), ring)
    # a ring that is one point repeated has only that point as boundary
    assert not _evenodd(pt(1, 1), [pt(1, 1)] * 3)
    assert on_segment(pt(1, 1), pt(1, 1), pt(1, 1))
    assert not on_segment(pt(1, 1), pt(1, 1), pt(1, 2))


def test_boundary_points_count_as_outside():
    square = [pt(0, 0), pt(4, 0), pt(4, 4), pt(0, 4)]
    assert _evenodd(pt(2, 2), square)
    assert not _evenodd(pt(0, 2), square)   # on an edge
    assert not _evenodd(pt(4, 4), square)   # at a corner
    assert not _evenodd(pt(5, 2), square)


def test_winding_direction():
    ccw = [pt(0, 0), pt(4, 0), pt(4, 4), pt(0, 4)]
    assert winding_number(pt(2, 2), ccw) == 1
    assert winding_number(pt(2, 2), list(reversed(ccw))) == -1
    assert winding_number(pt(9, 9), ccw) == 0
