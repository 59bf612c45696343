"""Polyline drawings, exact crossing enumeration, general-position policing."""

import copy
import hashlib
import pickle
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beyondcr import (
    Crossing,
    Drawing,
    GeneralPositionViolation,
    Graph,
    compute_crossings,
    construction_for,
    draw_framework,
    drawing_from_json,
    drawing_from_json_obj,
    drawing_to_json,
    drawing_to_json_obj,
    edge,
    is_simple,
    is_straight_line,
    make_graph,
    random_corpus,
    random_drawing,
    to_svg,
)
from beyondcr.checkers import _xjson
from beyondcr.drawing import Crossings, _candidate_pairs
from conftest import (GRID, adjacent_crossing_drawing,
                      double_crossing_drawing, fan_fixture_weak_not_strong,
                      made_up_crossing, pt, self_crossing_drawing,
                      standard_drawing)
from oracles import (bbox_disjoint, brute_crossing_points, count_on_edge,
                     first_violation_kind, octagon_disjoint, ordered_along,
                     segments, solve_segments, turn_brute)


def D(vertices, edges, pos, curves=None, meta=None):
    return Drawing(make_graph(vertices, edges), pos,
                   curves=curves or {}, meta=meta or {})


def x_drawing():
    return D(["a", "b", "c", "d"], [edge("a", "b"), edge("c", "d")],
             {"a": pt(0, 0), "b": pt(4, 4), "c": pt(0, 4), "d": pt(4, 0)})


# ---------------------------------------------------------------------------
# Crossing enumeration
# ---------------------------------------------------------------------------

def test_single_proper_crossing():
    xs = compute_crossings(x_drawing())
    assert len(xs) == 1
    x = next(iter(xs))
    assert x.point == (Fraction(2), Fraction(2))
    assert x.a == ("a", "b") and x.b == ("c", "d")
    assert x.a <= x.b
    assert (x.ia, x.ib) == (0, 1)


def test_shared_endpoint_is_not_a_crossing():
    d = D(["a", "b", "c"], [edge("a", "b"), edge("a", "c")],
          {"a": pt(0, 0), "b": pt(4, 0), "c": pt(0, 4)})
    assert len(compute_crossings(d)) == 0


def test_bent_curves_may_touch_at_shared_endpoint():
    d = D(["a", "b", "c"], [edge("a", "b"), edge("a", "c")],
          {"a": pt(0, 0), "b": pt(4, 0), "c": pt(0, 4)},
          curves={edge("a", "b"): (pt(2, -1),), edge("a", "c"): (pt(-1, 2),)})
    assert len(compute_crossings(d)) == 0
    assert not is_straight_line(d)


def test_adjacent_edges_can_properly_cross_when_bent():
    xs = compute_crossings(adjacent_crossing_drawing())
    assert len(xs) == 1
    assert not is_simple(xs)


def test_self_crossing_polyline():
    xs = compute_crossings(self_crossing_drawing())
    assert len(xs) == 1
    x = next(iter(xs))
    assert x.a == x.b == ("a", "b")
    assert not is_simple(xs)
    assert count_on_edge(xs, ("a", "b")) == 2    # a self-crossing counts twice


def test_double_crossing_pair_not_simple():
    d = double_crossing_drawing()
    xs = compute_crossings(d)
    assert len(xs) == 2
    assert not is_simple(xs)
    assert is_straight_line(d) is False


def test_copies_of_crossings_keep_the_flag():
    for d in (x_drawing(), double_crossing_drawing()):
        xs = compute_crossings(d)
        for ys in (copy.copy(xs), pickle.loads(pickle.dumps(xs))):
            assert type(ys) is Crossings and ys.simple == xs.simple
            assert [(y.ia, y.ib, y.xyw) for y in ys] \
                == [(x.ia, x.ib, x.xyw) for x in xs]


def test_crossings_ordered_along_edge():
    d = D(["a", "b", "c", "d", "e", "f"],
          [edge("a", "b"), edge("c", "d"), edge("e", "f")],
          {"a": pt(0, 0), "b": pt(9, 0),
           "c": pt(2, 1), "d": pt(3, -1), "e": pt(6, 1), "f": pt(7, -1)})
    xs = compute_crossings(d)
    along = ordered_along(xs, ("a", "b"))
    assert len(along) == 2
    assert along[0][1].b == ("c", "d")
    assert along[1][1].b == ("e", "f")
    assert along[0][0] < along[1][0]


# ---------------------------------------------------------------------------
# General-position violations
# ---------------------------------------------------------------------------

def test_overlapping_edges_rejected():
    d = D(["a", "b", "c", "d"], [edge("a", "b"), edge("c", "d")],
          {"a": pt(0, 0), "b": pt(4, 0), "c": pt(2, 0), "d": pt(6, 0)})
    with pytest.raises(GeneralPositionViolation) as ei:
        compute_crossings(d)
    assert ei.value.kind == "overlap"


def test_touching_edges_rejected():
    d = D(["a", "b", "c", "d"], [edge("a", "b"), edge("c", "d")],
          {"a": pt(0, 0), "b": pt(4, 0), "c": pt(2, 0), "d": pt(2, 3)})
    with pytest.raises(GeneralPositionViolation) as ei:
        compute_crossings(d)
    assert ei.value.kind == "touch"


def test_concurrent_crossings_rejected():
    d = D(["a", "b", "c", "d", "e", "f"],
          [edge("a", "b"), edge("c", "d"), edge("e", "f")],
          {"a": pt(0, 0), "b": pt(4, 4), "c": pt(0, 4), "d": pt(4, 0),
           "e": pt(2, 0), "f": pt(2, 4)})
    with pytest.raises(GeneralPositionViolation) as ei:
        compute_crossings(d)
    assert ei.value.kind == "concurrent-crossings"


def test_coinciding_vertices_rejected():
    d = D(["a", "b", "c", "d"], [edge("a", "b"), edge("c", "d")],
          {"a": pt(0, 0), "b": pt(4, 0), "c": pt(0, 0), "d": pt(2, 3)})
    with pytest.raises(GeneralPositionViolation) as ei:
        compute_crossings(d)
    assert ei.value.kind == "duplicate-point"


def test_bend_on_foreign_vertex_rejected():
    d = D(["a", "b", "c", "d"], [edge("a", "b"), edge("c", "d")],
          {"a": pt(0, 0), "b": pt(4, 0), "c": pt(1, 1), "d": pt(3, 1)},
          curves={edge("a", "b"): (pt(1, 1),)})
    with pytest.raises(GeneralPositionViolation):
        compute_crossings(d)


def test_segment_through_shared_vertex_rejected():
    # the curve of (c,d) passes straight through b, a vertex of (a,b)
    d = D(["a", "b", "c", "d"], [edge("a", "b"), edge("c", "d")],
          {"a": pt(0, 0), "b": pt(4, 0), "c": pt(4, -2), "d": pt(4, 2)})
    with pytest.raises(GeneralPositionViolation) as ei:
        compute_crossings(d)
    assert ei.value.kind == "touch"


def test_curve_through_isolated_vertex_rejected():
    # z has no edge, so no segment ends there for a pair to meet it
    d = D(["a", "b", "z"], [edge("a", "b")],
          {"a": pt(0, 0), "b": pt(2, 0), "z": pt(1, 0)})
    with pytest.raises(GeneralPositionViolation) as ei:
        compute_crossings(d)
    assert (ei.value.kind, ei.value.detail) == \
        ("touch", "('a', 'b') passes through isolated vertex z")
    assert first_violation_kind(d) == "touch"
    # on a bent edge's second segment, at a rational point, with a proper
    # crossing elsewhere
    d = D(["a", "b", "c", "d", "z"], [edge("a", "b"), edge("c", "d")],
          {"a": pt(0, 0), "b": pt(0, 3), "c": pt(3, 0), "d": pt(1, 2),
           "z": (Fraction(3, 2), Fraction(3))},
          curves={edge("a", "b"): (pt(3, 3),)})
    with pytest.raises(GeneralPositionViolation) as ei:
        compute_crossings(d)
    assert (ei.value.kind, ei.value.detail) == \
        ("touch", "('a', 'b') passes through isolated vertex z")
    assert first_violation_kind(d) == "touch"
    # a pair's violation is raised first: here c-d overlaps a-b, and a
    # crossing at an isolated vertex is a crossing-at-vertex
    d.positions["c"], d.positions["d"] = pt(1, 1), pt(2, 2)
    with pytest.raises(GeneralPositionViolation) as ei:
        compute_crossings(d)
    assert ei.value.kind == first_violation_kind(d) == "overlap"
    d = D(["a", "b", "c", "d", "z"], [edge("a", "b"), edge("c", "d")],
          {"a": pt(0, 0), "b": pt(4, 4), "c": pt(0, 4), "d": pt(4, 0),
           "z": pt(2, 2)})
    with pytest.raises(GeneralPositionViolation) as ei:
        compute_crossings(d)
    assert ei.value.kind == first_violation_kind(d) == "crossing-at-vertex"
    # on the line of a segment but beyond its end, or just off it: fine
    for z in (pt(3, 0), (Fraction(1), Fraction(1, 9))):
        d = D(["a", "b", "z"], [edge("a", "b")],
              {"a": pt(0, 0), "b": pt(2, 0), "z": z})
        assert compute_crossings(d) == ()
        assert first_violation_kind(d) is None


def test_edge_doubling_back_over_itself_rejected():
    # a-b bends at (4, 0) and runs back over its own first segment through b
    d = D(["a", "b"], [edge("a", "b")], {"a": pt(0, 0), "b": pt(2, 0)},
          curves={edge("a", "b"): (pt(4, 0),)})
    with pytest.raises(GeneralPositionViolation) as ei:
        compute_crossings(d)
    assert (ei.value.kind, ei.value.detail) == \
        ("overlap", "('a', 'b') and ('a', 'b') share a subsegment")
    assert first_violation_kind(d) == "overlap"


# ---------------------------------------------------------------------------
# Random corpus agrees with the brute-force pairwise solver
# ---------------------------------------------------------------------------

def test_crossings_match_brute_force_on_random_corpus():
    rng = random.Random(4242)
    for _ in range(50):
        d = random_drawing(rng, bend_prob=0.3)
        xs = compute_crossings(d)
        brute = brute_crossing_points(d)
        inter_edge = [x for x in xs if x.a != x.b]
        assert len(inter_edge) == len(brute)
        assert sorted((x.a, x.b, x.point) for x in inter_edge) == brute


def _rational_drawing(rng):
    """Random polyline drawing: 1-3 bends per edge, denominators 1-6."""
    def coord():
        den = rng.randint(1, 6)
        return Fraction(rng.randint(0, 12 * den), den)
    n = rng.randint(3, 7)
    names = [f"u{i}" for i in range(n)]
    pairs = [(u, v) for i, u in enumerate(names) for v in names[i + 1:]]
    edges = [edge(u, v) for u, v in rng.sample(pairs, rng.randint(2, len(pairs)))]
    return D(names, edges, {v: (coord(), coord()) for v in names},
             curves={e: tuple((coord(), coord())
                              for _ in range(rng.randint(1, 3)))
                     for e in edges})


def _point_at(d, e, pos):
    i, t = pos
    (x1, y1), (x2, y2) = segments(d, e)[i]
    return (x1 + t * (x2 - x1), y1 + t * (y2 - y1))


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=2**32))
def test_crossings_match_brute_force_with_bends_and_rationals(seed):
    d = _rational_drawing(random.Random(seed))
    try:
        xs = compute_crossings(d)
    except GeneralPositionViolation:
        return  # degenerate: refusal kinds are pinned by the tests above
    inter_edge = [x for x in xs if x.a != x.b]
    assert sorted((x.a, x.b, x.point) for x in inter_edge) == \
        brute_crossing_points(d)
    for x in xs:
        assert _point_at(d, x.a, x.pos_a) == x.point
        assert _point_at(d, x.b, x.pos_b) == x.point
        assert all(0 < t < 1 for _, t in (x.pos_a, x.pos_b))
        if x.a == x.b:
            assert x.pos_a < x.pos_b


def test_self_crossing_positions_in_curve_order():
    d = D(["a", "b"], [edge("a", "b")], {"a": pt(0, 0), "b": pt(4, 0)},
          curves={edge("a", "b"): (pt(4, 2), pt(0, 2), pt(2, -1))})
    (x,) = compute_crossings(d)
    assert x.pos_a == (0, Fraction(1, 4))
    assert x.pos_b == (2, Fraction(1, 2))
    assert x.point == (Fraction(1), Fraction(1, 2))


def test_crossings_hold_integers_and_read_as_fractions():
    bent = random_drawing(random.Random(11), bend_prob=1)
    assert bent.curves
    for d in (standard_drawing("nnic", 2), bent):
        xs = compute_crossings(d)
        assert xs
        assert sorted((x.a, x.b, x.point) for x in xs if x.a != x.b) == \
            brute_crossing_points(d)
        for x in xs:
            held = [getattr(x, name) for name in Crossing.__slots__]
            assert all(type(v) in (int, str) for h in held
                       for v in (h if isinstance(h, tuple) else (h,)))
            assert _point_at(d, x.a, x.pos_a) == x.point == \
                _point_at(d, x.b, x.pos_b)
            assert _xjson(x)["point"] == [str(c) for c in x.point]
    # negative, integral and non-reduced coordinates
    for xyw in [(-6, 8, 4), (0, -5, 5), (7, -9, 3), (12, 30, 18)]:
        x = made_up_crossing(make_graph("abcd", [edge("a", "b"),
                                                 edge("c", "d")]),
                             edge("a", "b"), edge("c", "d"), xyw)
        assert _xjson(x)["point"] == [str(Fraction(c, xyw[2]))
                                      for c in xyw[:2]]


# perfbench's framework-sweep points: every concept at a mid-scale ell
SWEEP_GRID = (("k-planar", 4, 1), ("k-vertex-planar", 3, 1), ("ic", 4, None),
              ("nic", 4, None), ("nnic", 2, None),
              ("k-fan-crossing-free", 2, 2), ("adjacency-crossing", 1, None),
              ("fan-crossing", 1, None), ("weak-fan-planar", 1, None),
              ("strong-fan-planar", 1, None), ("k-edge-crossing", 1, 4),
              ("k-gap-planar", 5, 1), ("k-apex", 3, 1), ("skewness", 4, 1))


def test_edge_indices_index_the_sorted_edge_list():
    drawings = [standard_drawing(kind, ell, k, variant)
                for kind, ell, k in SWEEP_GRID
                for variant in ("witness", "upper")]
    drawings += random_corpus(4242, 200, bend_prob=0.35)
    seen = 0
    for d in drawings:
        edges = d.graph.edges
        for x in compute_crossings(d):
            assert edges[x.ia] == x.a and edges[x.ib] == x.b
            seen += 1
    assert seen > 1000


def _many_violations(drop=()):
    """Concurrent crossings at (2/3, 2/3), an overlap and touches."""
    def third(x, y):
        return (Fraction(x, 3), Fraction(y, 3))
    edges = [edge(*uv) for uv in ("ab", "cd", "ef", "gh", "ij", "kl")
             if uv not in drop]
    curves = {edge("c", "d"): (third(1, 3),),
              edge("k", "l"): (pt(-11, -2), pt(-7, 0), pt(-5, -3))}
    return D(list("abcdefghijkl"), edges,
             {"a": third(0, 0), "b": third(4, 4), "c": third(0, 4),
              "d": third(4, 0), "e": third(2, Fraction(1, 2)),
              "f": third(2, Fraction(7, 2)), "g": pt(-10, 0), "h": pt(-6, 0),
              "i": pt(-8, 0), "j": pt(-4, 0), "k": pt(-12, 1),
              "l": pt(-9, -1)},
             curves={e: bends for e, bends in curves.items() if e in edges})


def _star_and_touch(star, touch):
    """Edges m-hub and n-hub, star = (m, n, hub), leave the hub along one
    ray and overlap, the bent one on its segment 1.  Left of them, edges
    touch[0]-touch[1] and touch[2]-touch[3] touch at (2, 0)."""
    m, n, hub = star
    p, q, r, s = touch
    return D([*star, *touch],
             [edge(m, hub), edge(n, hub), edge(p, q), edge(r, s)],
             {p: pt(0, 0), q: pt(4, 0), r: pt(2, 0), s: pt(2, 3),
              hub: pt(10, 0), m: pt(12, 0), n: pt(15, 3)},
             curves={edge(n, hub): (pt(14, 0),)})


@pytest.mark.parametrize("d, kind, detail", [
    (_many_violations(()), "concurrent-crossings",
     "('a', 'b') x ('e', 'f') and (('a', 'b'), ('c', 'd')) cross at the "
     "same point (2/3,2/3)"),
    (_many_violations(("ef",)), "overlap",
     "('g', 'h') and ('i', 'j') share a subsegment"),
    (_many_violations(("ef", "gh")), "touch",
     "('i', 'j') touches ('k', 'l') at (-7,0)"),
    (_star_and_touch("bch", "pqrs"), "overlap",
     "('b', 'h') and ('c', 'h') share a subsegment"),
    (_star_and_touch("vwx", "defg"), "touch",
     "('d', 'e') touches ('f', 'g') at (2,0)"),
], ids=["all-edges", "without-ef", "without-ef-gh", "star-first",
        "star-last"])
def test_first_violation_in_edge_pair_order(d, kind, detail):
    # The overlap and touches lie left of the concurrent crossings, and the
    # touch left of the star, so a sweep in x meets them first; the
    # edge-pair order still decides.
    with pytest.raises(GeneralPositionViolation) as ei:
        compute_crossings(d)
    assert (ei.value.kind, ei.value.detail) == (kind, detail)


# Degenerate gadgets in local coordinates: (points, edges, bends).
_GADGETS = {
    "touch": ({"0": (0, 0), "1": (4, 0), "2": (2, 0), "3": (2, 3)},
              ["01", "23"], {}),
    "overlap": ({"0": (0, 0), "1": (4, 0), "2": (2, 0), "3": (6, 0)},
                ["01", "23"], {}),
    "crossing-at-vertex": ({"0": (0, 0), "1": (4, 4), "2": (0, 4),
                            "3": (4, 0), "4": (2, 2)}, ["01", "23"], {}),
    # 01 and 23 cross at vertex 4, whose own edge 45 sorts after them: the
    # crossing comes first in edge-pair order, and no vertex is isolated.
    "crossing-at-vertex-with-edge": ({"0": (0, 0), "1": (4, 4), "2": (0, 4),
                                      "3": (4, 0), "4": (2, 2), "5": (2, 5)},
                                     ["01", "23", "45"], {}),
    # The same geometry with the vertex's edge 01 first: 23 touches it.
    "touch-at-crossing": ({"2": (0, 0), "3": (4, 4), "4": (0, 4),
                           "5": (4, 0), "0": (2, 2), "1": (2, 5)},
                          ["23", "45", "01"], {}),
    "concurrent-crossings": ({"0": (0, 0), "1": (4, 4), "2": (0, 4),
                              "3": (4, 0), "4": (2, 0), "5": (2, 4)},
                             ["01", "23", "45"], {}),
    # 01 bends at (4, 0): 23 crosses its second segment at vertex 8, while
    # 45 and 67 cross its first segment at one point.  Edge order raises
    # crossing-at-vertex; segment order would raise concurrent-crossings.
    "both": ({"0": (0, 0), "1": (8, 4), "2": (5, 3), "3": (7, 1),
              "4": (2, -2), "5": (2, 2), "6": (1, -1), "7": (3, 1),
              "8": (6, 2)}, ["01", "23", "45", "67"], {"01": [(4, 0)]}),
    # 02 and 12 leave their shared vertex 2 along one ray; 02 bends at
    # (4, 0), so the overlap lies on its segment 1.
    "star-overlap": ({"0": (5, 3), "1": (2, 0), "2": (0, 0)}, ["02", "12"],
                     {"02": [(4, 0)]}),
}


def _gadget(name):
    points, pairs, bends = _GADGETS[name]
    return D(points, [edge(u, v) for u, v in pairs],
             {v: pt(*p) for v, p in points.items()},
             curves={edge(*uv): tuple(pt(*p) for p in ps)
                     for uv, ps in bends.items()})


@pytest.mark.parametrize("name,kind", [
    ("touch", "touch"), ("overlap", "overlap"),
    ("crossing-at-vertex", "crossing-at-vertex"),
    ("crossing-at-vertex-with-edge", "crossing-at-vertex"),
    ("touch-at-crossing", "touch"),
    ("concurrent-crossings", "concurrent-crossings"),
    ("both", "crossing-at-vertex"), ("star-overlap", "overlap")])
def test_each_gadget_alone_raises_its_kind(name, kind):
    d = _gadget(name)
    with pytest.raises(GeneralPositionViolation) as ei:
        compute_crossings(d)
    assert ei.value.kind == first_violation_kind(d) == kind


def _lean(d):
    """d with each integral coordinate an int, the others as they are."""
    def point(p):
        return tuple(c.numerator if c.denominator == 1 else c for c in p)
    return D(d.graph.vertices, d.graph.edges,
             {v: point(p) for v, p in d.positions.items()},
             curves={e: tuple(map(point, bends))
                     for e, bends in d.curves.items()})


def _refusal(d):
    with pytest.raises(GeneralPositionViolation) as ei:
        compute_crossings(d)
    return ei.value.kind, ei.value.detail


@pytest.mark.parametrize("make", [
    *(lambda name=name: _gadget(name) for name in sorted(_GADGETS)),
    lambda: _many_violations(()), lambda: _many_violations(("ef",)),
    lambda: _many_violations(("ef", "gh")),
    lambda: _star_and_touch("bch", "pqrs"),
    lambda: _star_and_touch("vwx", "defg")],
    ids=[*sorted(_GADGETS), "all-edges", "without-ef", "without-ef-gh",
         "star-first", "star-last"])
def test_int_coordinates_refuse_as_fractions_do(make):
    d = make()
    lean = _lean(d)
    assert any(type(c) is int for p in lean.positions.values() for c in p)
    assert _refusal(lean) == _refusal(d)


def _with_gadgets(rng, d, count):
    """d plus ``count`` gadgets of random kinds, each mirrored, scaled and
    moved far from d and from the others.  A random name prefix puts the
    gadget's edges anywhere in the edge order, before, among or after the
    edges of d (vertices u0, u1, ...)."""
    vertices, edges = list(d.graph.vertices), list(d.graph.edges)
    positions, curves = dict(d.positions), dict(d.curves)
    for slot in range(count):
        points, pairs, bends = _GADGETS[rng.choice(sorted(_GADGETS))]
        prefix = f"{rng.choice('aguz')}{slot}_"
        swap, fx, fy = rng.random() < 0.5, rng.choice((1, -1)), rng.choice((1, -1))
        scale = Fraction(rng.randrange(1, 40), rng.randrange(1, 9))
        ox = 1000 * (slot + 1) + Fraction(rng.randrange(700), 7)
        oy = Fraction(rng.randrange(700), 3)

        def place(x, y):
            if swap:
                x, y = y, x
            return (ox + fx * scale * x, oy + fy * scale * y)
        for v, p in points.items():
            vertices.append(prefix + v)
            positions[prefix + v] = place(*p)
        for u, v in pairs:
            edges.append(edge(prefix + u, prefix + v))
            if u + v in bends:
                curves[edges[-1]] = tuple(place(*p) for p in bends[u + v])
    return D(vertices, edges, positions, curves=curves)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=2**32))
def test_first_violation_matches_oracle_with_gadgets(seed):
    rng = random.Random(seed)
    d = _with_gadgets(rng, random_drawing(rng, bend_prob=0.3),
                      rng.randint(1, 3))
    with pytest.raises(GeneralPositionViolation) as ei:
        compute_crossings(d)
    assert ei.value.kind == first_violation_kind(d)


def _small_grid_drawing(rng):
    """3-6 vertices on distinct cells of a small grid, random edges, and
    1-2 bends on free cells for about 40 % of them: collinear pairs, and
    so overlaps, touches and doubling back, are common."""
    cells = [(x, y) for x in range(rng.randint(4, 6))
             for y in range(rng.randint(4, 6))]
    rng.shuffle(cells)
    names = "abcdef"[:rng.randint(3, 6)]
    positions = {v: pt(*cells.pop()) for v in names}
    pairs = list(combinations(names, 2))
    edges = [edge(u, v)
             for u, v in rng.sample(pairs, rng.randint(1, len(pairs)))]
    curves = {}
    for e in edges:
        if cells and rng.random() < 0.4:
            curves[e] = tuple(pt(*cells.pop())
                              for _ in range(min(len(cells), rng.randint(1, 2))))
    return D(names, edges, positions, curves=curves)


def _self_crossing_points(d):
    """(e, e, point) for every proper crossing of two segments of one edge."""
    out = []
    for e in d.graph.edges:
        segs = segments(d, e)
        for si, sj in combinations(range(len(segs)), 2):
            kind, payload = solve_segments(*segs[si], *segs[sj])
            if kind == "proper":
                out.append((e, e, payload[0]))
    return sorted(out)


@settings(max_examples=400, deadline=None)
@given(st.integers(min_value=0, max_value=2**32))
def test_small_grid_drawings_match_oracles(seed):
    d = _small_grid_drawing(random.Random(seed))
    kind = first_violation_kind(d)
    if kind is not None:
        with pytest.raises(GeneralPositionViolation) as ei:
            compute_crossings(d)
        assert ei.value.kind == kind
        return
    got = sorted((x.a, x.b, x.point) for x in compute_crossings(d))
    assert [x for x in got if x[0] != x[1]] == brute_crossing_points(d)
    assert [x for x in got if x[0] == x[1]] == _self_crossing_points(d)


def _hub_drawing(swap, fx, fy):
    """Nine edges at hub h (two opposite pairs, two edges nearly parallel
    to a third, a pair opposite along y = x, and two bent edges that turn
    back toward h), plus a vertical edge crossing the star, mapped by a
    symmetry of the square."""
    def place(x, y):
        x, y = (y, x) if swap else (x, y)
        return pt(fx * x, fy * y)
    at = {"h": (0, 0), "a": (10, 0), "i": (-10, 0), "j": (0, 10),
          "k": (0, -10), "l": (100, 1), "o": (100, 2), "b": (1, 3),
          "x": (-1, 2), "c": (-7, -7), "p": (5, -3), "q": (5, 20)}
    spokes = [edge("h", v) for v in "aijklobxc"]
    return D(list(at), spokes + [edge("p", "q")],
             {v: place(*p) for v, p in at.items()},
             curves={edge("b", "h"): (place(10, 10),),
                     edge("h", "x"): (place(-5, 5),)})


@pytest.mark.parametrize("swap", [False, True])
@pytest.mark.parametrize("fx, fy", [(1, 1), (1, -1), (-1, 1), (-1, -1)])
def test_legal_star_matches_brute_force(swap, fx, fy):
    d = _hub_drawing(swap, fx, fy)
    xs = compute_crossings(d)
    assert len(xs) == 5
    assert sorted((x.a, x.b, x.point) for x in xs) == brute_crossing_points(d)


def _twice_crossed_drawing(swap, fx, fy):
    """Straight ab crossed by cd at x = 5, 8 and then 1, in cd's curve
    order, and gh crossing its own first segment at x = 27 and then 23: in
    both, a later segment crosses one segment earlier along it.  Mapped by
    a symmetry of the square."""
    def place(x, y):
        x, y = (y, x) if swap else (x, y)
        return pt(fx * x, fy * y)
    at = {"a": (0, 0), "b": (10, 0), "c": (5, Fraction(1, 2)),
          "d": (3, -2), "g": (20, 0), "h": (22, 5)}
    return D(list(at), [edge("a", "b"), edge("c", "d"), edge("g", "h")],
             {v: place(*p) for v, p in at.items()},
             curves={edge("c", "d"): tuple(place(*p) for p in (
                         (5, -1), (8, -1), (8, 1), (1, 1), (1, -2))),
                     edge("g", "h"): tuple(place(*p) for p in (
                         (30, 0), (27, 3), (27, -3), (23, -3), (23, 3)))})


@pytest.mark.parametrize("swap", [False, True])
@pytest.mark.parametrize("fx, fy", [(1, 1), (1, -1), (-1, 1), (-1, -1)])
def test_crossings_of_one_segment_come_in_order_along_it(swap, fx, fy):
    d = _twice_crossed_drawing(swap, fx, fy)
    xs = compute_crossings(d)
    keys = [(x.a, x.b, x.pos_a) for x in xs]
    assert len(xs) == 5 and keys == sorted(keys)
    got = sorted((x.a, x.b, x.point) for x in xs)
    assert [x for x in got if x[0] != x[1]] == brute_crossing_points(d)
    assert [x for x in got if x[0] == x[1]] == _self_crossing_points(d)


def _sweep(d):
    """d's segments in (edge, index) order, their endpoint ids, and the
    pairs ``_candidate_pairs`` yields for them, built from the points."""
    segs = [ab for e in d.graph.edges for ab in segments(d, e)]
    ids: dict = {}
    ends = [(ids.setdefault(a, len(ids)), ids.setdefault(b, len(ids)))
            for a, b in segs]
    boxes = [(min(a[0], b[0]), max(a[0], b[0]), min(a[1], b[1]),
              max(a[1], b[1]), s, *ends[s]) for s, (a, b) in enumerate(segs)]
    sums = [sorted((a[0] + a[1], b[0] + b[1])) for a, b in segs]
    difs = [sorted((a[0] - a[1], b[0] - b[1])) for a, b in segs]
    pairs = list(_candidate_pairs(boxes, [lo for lo, _ in sums],
                                  [hi for _, hi in sums],
                                  [lo for lo, _ in difs],
                                  [hi for _, hi in difs]))
    assert len(pairs) == len(set(pairs))
    return segs, ends, set(pairs)


def test_sweep_skips_pairs_with_a_common_endpoint():
    d = draw_framework(construction_for("nnic", 2), "witness")
    segs, ends, got = _sweep(d)
    near = {(s, t) for s, t in combinations(range(len(segs)), 2)
            if not bbox_disjoint(*segs[s], *segs[t])}
    meet = {(s, t) for s, t in near
            if not octagon_disjoint(*segs[s], *segs[t])}
    star = {(s, t) for s, t in meet if set(ends[s]) & set(ends[t])}
    assert star and near - meet
    assert got == meet - star


def _bundle_45():
    """Five near-parallel 45-degree edges whose boxes all meet while their
    x - y ranges do not, crossed by one steep edge."""
    at = {}
    for i in range(5):
        at[f"p{i}"] = pt(3 * i, 0)
        at[f"q{i}"] = pt(3 * i + 40, 41)
    at["s"], at["t"] = pt(30, -5), pt(31, 50)
    edges = [edge(f"p{i}", f"q{i}") for i in range(5)] + [edge("s", "t")]
    return D(list(at), edges, at)


def test_sweep_yields_every_pair_that_meets():
    bundle = _bundle_45()
    segs, _, got = _sweep(bundle)
    boxed = {(s, t) for s, t in combinations(range(5), 2)
             if not bbox_disjoint(*segs[s], *segs[t])
             and octagon_disjoint(*segs[s], *segs[t])}
    assert len(boxed) == 10 and not got & boxed
    assert {(s, 5) for s in range(5)} <= got
    drawings = [bundle, *(_gadget(name) for name in _GADGETS)]
    drawings += random_corpus(2024, 60, bend_prob=0.35)
    rng = random.Random(77)
    drawings += [_with_gadgets(rng, random_drawing(rng, bend_prob=0.3), 2)
                 for _ in range(20)]
    kinds = set()
    for d in drawings:
        segs, ends, got = _sweep(d)
        for s, t in combinations(range(len(segs)), 2):
            if set(ends[s]) & set(ends[t]):
                continue
            kind, _ = solve_segments(*segs[s], *segs[t])
            if kind != "none":
                kinds.add(kind)
                assert (s, t) in got, (kind, segs[s], segs[t])
    assert kinds == {"proper", "touch", "overlap"}


def test_inexact_coordinates_refused():
    d = x_drawing()
    d.positions["a"] = (0.0, 0.0)
    with pytest.raises(TypeError):
        compute_crossings(d)
    # before any degeneracy: here a float duplicates vertex c's point
    d.positions["a"] = (0.0, Fraction(4))
    with pytest.raises(TypeError):
        compute_crossings(d)


def test_turn_is_the_sign_of_the_segments_cross_product():
    # the threshold drawings are checked in test_acceptance, where their
    # crossings are computed anyway
    drawings = [standard_drawing(kind, ell, k, variant=variant)
                for kind, ell, k in GRID for variant in ("witness", "upper")]
    drawings += random_corpus(1913, 300, bend_prob=0.35)
    drawings.append(fan_fixture_weak_not_strong())
    turns = set()
    for d in drawings:
        for x in compute_crossings(d):
            assert x.turn == turn_brute(d, x)
            turns.add(x.turn)
    assert turns == {1, -1}


def test_random_drawing_respects_caps():
    rng = random.Random(7)
    for _ in range(20):
        d = random_drawing(rng, n_range=(4, 6), extra_edges=(1, 3),
                           max_crossings=5)
        assert 4 <= len(d.graph.vertices) <= 6
        assert len(compute_crossings(d)) <= 5


@pytest.mark.parametrize("prob", [1.5, -0.1, float("nan")])
def test_random_drawing_refuses_a_bend_prob_outside_0_1(prob):
    rng = random.Random(7)
    with pytest.raises(ValueError, match="bend_prob must be in"):
        random_drawing(rng, bend_prob=prob)
    # nothing was drawn: the same rng still gives the same drawing
    assert drawing_to_json(random_drawing(rng)) == \
        drawing_to_json(random_drawing(random.Random(7)))


# sha256 over drawing_to_json of random_corpus seeds 11 and 2802, 120
# drawings each at bend_prob 0.3, each text followed by a newline.  It pins
# the corpus's values and bytes, which no change of a coordinate's Python
# type may move.
_CORPUS_SHA256 = \
    "698123fac040edf609e052c339b458a944c9c7fa674fdc8b722b4e2212409598"


def test_random_corpus_is_pinned_and_integral():
    drawings = [d for seed in (11, 2802)
                for d in random_corpus(seed, 120, bend_prob=0.3)]
    digest = hashlib.sha256()
    for d in drawings:
        digest.update(drawing_to_json(d).encode() + b"\n")
    assert digest.hexdigest() == _CORPUS_SHA256
    # positions are ints; a bend is an int, or a half where the midpoint
    # of its edge's endpoints is one
    assert all(type(c) is int
               for d in drawings for p in d.positions.values() for c in p)
    bends = [c for d in drawings for bend in d.curves.values()
             for p in bend for c in p]
    assert {type(c) for c in bends} == {int, Fraction}
    assert all(type(c) is int or c.denominator == 2 for c in bends)


def _outcome(d):
    """d's crossings field by field, or the refusal's (kind, detail)."""
    try:
        xs = compute_crossings(d)
    except GeneralPositionViolation as exc:
        return "refused", exc.kind, exc.detail
    return "crossings", [tuple(getattr(x, f) for f in Crossing.__slots__)
                         for x in xs]


def test_int_and_fraction_corpus_drawings_give_the_same_crossings():
    # a corpus drawing mixes int positions with int and half-integer
    # bends, and with gadgets it also holds integral Fractions; JSON reads
    # every coordinate back as a Fraction
    rng = random.Random(2929)
    drawings = random_corpus(2903, 200, bend_prob=0.35)
    drawings += [_with_gadgets(rng, d, 1) for d in drawings[:60]]
    kinds = Counter()
    for d in drawings:
        back = drawing_from_json(drawing_to_json(d))
        assert all(type(c) is Fraction for p in back.positions.values()
                   for c in p)
        outcome = _outcome(d)
        assert _outcome(back) == outcome
        kinds[outcome[0]] += 1
    assert kinds == {"crossings": 200, "refused": 60}


def pin_drawings():
    """The drawings whose crossings, and whose verdicts in test_checkers,
    are pinned: both standard drawings at every GRID point, then a seeded
    random corpus with bends, gadgets planted in every fourth drawing."""
    drawings = [standard_drawing(kind, ell, k, variant=variant)
                for kind, ell, k in GRID for variant in ("witness", "upper")]
    rng = random.Random(3434)
    for i, d in enumerate(random_corpus(3433, 200, bend_prob=0.3)):
        drawings.append(_with_gadgets(rng, d, 1 + i % 3) if i % 4 == 0
                        else d)
    return drawings


_PINNED_FIELDS = ("a", "b", "ia", "ib", "seg_a", "num_a", "den_a", "seg_b",
                  "num_b", "den_b", "xyw", "turn")

# sha256 over the repr of each pin drawing's crossings, each field in
# _PINNED_FIELDS order, and its ``simple``, or of its refusal's kind and
# detail, each followed by a newline.  It pins the engine's output bit for
# bit, so a change to how a drawing is scaled or numbered cannot move it.
_ENGINE_SHA256 = \
    "7518b4fba5bd24ba7986b090bcfccec072887ab53bea96f7d27b0a4fe30f2b1b"


def test_engine_output_is_pinned():
    digest = hashlib.sha256()
    outcomes = Counter()
    for d in pin_drawings():
        try:
            xs = compute_crossings(d)
        except GeneralPositionViolation as exc:
            record = ("refused", exc.kind, exc.detail)
            outcomes[exc.kind] += 1
        else:
            record = ([tuple(getattr(x, f) for f in _PINNED_FIELDS)
                       for x in xs], xs.simple)
            outcomes[xs.simple] += 1
        digest.update(repr(record).encode() + b"\n")
    assert digest.hexdigest() == _ENGINE_SHA256
    # simple and non-simple drawings, and refusals of every gadget kind
    assert set(outcomes) == {True, False, "touch", "overlap",
                             "crossing-at-vertex", "concurrent-crossings"}


# ---------------------------------------------------------------------------
# Serialization and rendering
# ---------------------------------------------------------------------------

def test_json_round_trip_with_curves_and_meta():
    d = D(["a", "b", "c"], [edge("a", "b"), edge("a", "c")],
          {"a": pt(0, 0), "b": pt(4, 0), "c": (Fraction(1, 3), Fraction(-7, 2))},
          curves={edge("a", "c"): (pt(2, -2), (Fraction(5, 7), Fraction(1)))},
          meta={"note": "round trip"})
    back = drawing_from_json(drawing_to_json(d))
    assert back.graph == d.graph
    assert back.positions == d.positions
    assert back.curves == d.curves
    assert back.meta["note"] == "round trip"
    # a graph given unsorted vertices and edges round-trips too
    unsorted = Drawing(Graph(("a", "b", "c"), (("b", "c"), ("a", "b"))),
                       {"a": pt(0, 0), "b": pt(4, 0), "c": pt(4, 3)})
    assert drawing_from_json(drawing_to_json(unsorted)).graph \
        == unsorted.graph
    # obj-level round trip too
    assert drawing_from_json_obj(drawing_to_json_obj(d)).positions == d.positions


def test_json_rationals_are_strings():
    d = D(["a", "b"], [edge("a", "b")],
          {"a": (Fraction(1, 3), Fraction(0)), "b": pt(1, 1)})
    obj = drawing_to_json_obj(d)
    assert obj["positions"]["a"] == ["1/3", "0"]


def test_svg_output_contains_all_edges():
    d = x_drawing()
    svg = to_svg(d)
    assert svg.startswith("<svg")
    assert svg.count("<polyline") == len(d.graph.edges)
    assert svg == to_svg(d)     # deterministic


def test_polyline_and_segments():
    d = D(["a", "b"], [edge("a", "b")], {"a": pt(0, 0), "b": pt(4, 0)},
          curves={edge("a", "b"): (pt(2, 2),)})
    poly = d.polyline(("a", "b"))
    assert tuple(poly) == (pt(0, 0), pt(2, 2), pt(4, 0))
    assert segments(d, ("a", "b"))[0] == (pt(0, 0), pt(2, 2))
    assert len(segments(d, ("a", "b"))) == 2
