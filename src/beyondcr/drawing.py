"""Polyline drawings and exact crossing computation.

Coordinates are rational (``int`` or ``fractions.Fraction``), so every
intersection test is exact.  ``point_table`` is a drawing's one integer
form, which the crossing engine and the strong fan-planar checker both
read: every vertex and bend times the LCM of the ``Fraction`` coordinates'
denominators (an int is read as it is, so a drawing of ints alone has
scale 1), each point with an integer id.  ``compute_crossings`` runs its
orientation tests on those integers; a segment is its pair of endpoint
ids.  One pass over the edges builds every segment's record, a
straight edge's one segment read off its two vertex ids.  Two segments
with a common endpoint (a star, consecutive segments of one edge included)
meet only there unless they leave it along one ray, so each segment's two
rays (endpoint id and reduced integer direction) are looked up as it is
built, and a shared ray is an overlap.  A sweep over the segments sorted
by the left end of their bounding boxes yields the other pairs whose boxes
meet and whose ranges of x + y and x - y meet too, so whose bounding
octagons meet: segments that share a point overlap on every projection, so
nothing that meets is dropped, while near-parallel diagonal segments are.
Each pair is classified as it is yielded on four integer orientations: one
lying on a side of the other's line is rejected after two, a collinear
pair is an overlap, and otherwise the pair crosses or touches.  Only the
crossings are kept and sorted, plus the first touch or overlap, so memory
is O(segments + crossings).  They are returned as a ``Crossings``, which
also says whether the drawing is simple (see ``compute_crossings``).
A ``Crossing`` keeps the engine's exact integers: each edge's index in
``graph.edges``, which ``Graph`` keeps sorted, the segment index and the
parameter (num, den) on each curve, and the point as one triple
(x, y, w) in drawing coordinates.  The checkers and the coverage ledger
count and group on the edge indices; the ``Edge`` tuples name edges in
witnesses.
``point``, ``pos_a`` and ``pos_b`` build ``Fraction``s from them on
read.  Each crossing also keeps the sign of its two segments' cross
product as ``turn``: the side a crosser passes from, which the fan
checkers read instead of the geometry.

A drawing must be in *general position*: no overlapping segments, no curve
through a vertex or bend of another curve, and no two crossings at the same
point.  Violations raise GeneralPositionViolation instead of silently
producing a bogus crossing count.
"""

from __future__ import annotations

import json
import math
import re
from bisect import bisect_left, bisect_right
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, NamedTuple

from .geometry import IntPoint, Point
from .graph_core import (Edge, FRAME_NODES, Graph, edge_from_key, edge_key,
                         graph_to_json_obj, graph_from_json_obj)


class GeneralPositionViolation(Exception):
    """The drawing degenerates in a way that makes crossings ambiguous."""

    def __init__(self, kind: str, detail: str):
        super().__init__(f"{kind}: {detail}")
        self.kind = kind
        self.detail = detail


class Drawing:
    """A polyline drawing of a graph.

    ``positions`` maps each vertex to a point; ``curves`` maps an edge to
    its tuple of interior bend points, ordered from the smaller endpoint to
    the larger one (the canonical edge orientation).  Missing curve entries
    mean a straight-line edge.  A coordinate is an ``int`` or a
    ``Fraction``: the standard layouts and the random corpus give an
    integral one as an int and any other as a Fraction, while a drawing
    read from JSON holds Fractions only.  Both give the same crossings.
    """

    __slots__ = ("graph", "positions", "curves", "meta")

    def __init__(self, graph: Graph, positions: dict[str, Point],
                 curves: dict[Edge, tuple[Point, ...]] | None = None,
                 meta: dict | None = None):
        self.graph = graph
        self.positions = positions
        self.curves = {} if curves is None else curves
        self.meta = {} if meta is None else meta

    def polyline(self, e: Edge) -> tuple[Point, ...]:
        u, v = e
        return (self.positions[u], *self.curves.get(e, ()), self.positions[v])


def is_straight_line(drawing: Drawing) -> bool:
    return all(len(bends) == 0 for bends in drawing.curves.values())


# ---------------------------------------------------------------------------
# Crossings
# ---------------------------------------------------------------------------

class Crossing:
    """One proper crossing point between two edge curves.

    ``a <= b``; for a self-crossing a == b.  ``ia`` and ``ib`` are the
    indices of a and b in ``drawing.graph.edges``, which is sorted, so
    they order as the edges do.  The crossing keeps the engine's exact
    integers: it lies on segment ``seg_a`` of a's curve at parameter
    ``num_a / den_a`` and on segment ``seg_b`` of b's curve at
    ``num_b / den_b``, at the point (x/w, y/w) in drawing coordinates,
    where ``xyw`` is (x, y, w); every den and w is positive.  ``pos_a``
    and ``pos_b``, each (segment index, parameter), and ``point`` build
    ``Fraction``s from them on every read; ``pos_a`` orders crossings
    along an edge.  ``turn`` is +1 or -1, the sign of the cross product
    of a's segment direction and b's, both curves running from their
    smaller endpoint: +1 when b passes from a's right to its left.
    Crossings have no order and compare by identity; sort them by a key
    of these fields.
    """

    __slots__ = ("a", "b", "ia", "ib", "seg_a", "num_a", "den_a", "seg_b",
                 "num_b", "den_b", "xyw", "turn")

    def __init__(self, a: Edge, b: Edge, ia: int, ib: int, seg_a: int,
                 num_a: int, den_a: int, seg_b: int, num_b: int, den_b: int,
                 xyw: tuple[int, int, int], turn: int):
        self.a = a
        self.b = b
        self.ia = ia
        self.ib = ib
        self.seg_a = seg_a
        self.num_a = num_a
        self.den_a = den_a
        self.seg_b = seg_b
        self.num_b = num_b
        self.den_b = den_b
        self.xyw = xyw
        self.turn = turn

    @property
    def point(self) -> Point:
        x, y, w = self.xyw
        return (Fraction(x, w), Fraction(y, w))

    @property
    def pos_a(self) -> tuple[int, Fraction]:
        return (self.seg_a, Fraction(self.num_a, self.den_a))

    @property
    def pos_b(self) -> tuple[int, Fraction]:
        return (self.seg_b, Fraction(self.num_b, self.den_b))

    def __repr__(self) -> str:
        return (f"Crossing({self.a}, {self.b}, pos_a={self.pos_a}, "
                f"pos_b={self.pos_b}, point={self.point}, turn={self.turn})")


class Crossings(tuple):
    """The tuple of ``Crossing`` that ``compute_crossings`` returns, with
    its answer to whether the drawing is simple as ``simple``.  A slice, a
    concatenation or ``tuple(xs)`` is a plain tuple, so the flag never
    outlives its list."""

    simple: bool

    def __new__(cls, crossings: Iterable[Crossing], simple: bool):
        self = super().__new__(cls, crossings)
        self.simple = simple
        return self

    def __reduce__(self):
        # copy and pickle rebuild it with its flag; tuple's own reduce
        # would call __new__ without one
        return Crossings, (tuple(self), self.simple)


class PointTable(NamedTuple):
    """A drawing's one integer form.  ``scale`` is the LCM of its
    ``Fraction`` coordinates' denominators, 1 when there are none;
    ``points`` holds every vertex in graph order, then every bend in
    sorted-edge order, times the scale as integer pairs; ``vid`` maps each
    vertex to its point id, and ``bends`` each bent edge to the range of
    its bends' ids."""

    scale: int
    points: list[IntPoint]
    vid: dict[str, int]
    bends: dict[Edge, range]

    def polyline(self, e: Edge) -> list[int]:
        """The point ids of edge e's curve, from its smaller endpoint."""
        return [self.vid[e[0]], *self.bends.get(e, ()), self.vid[e[1]]]


def point_table(drawing: Drawing) -> PointTable:
    """The drawing's ``PointTable``.  A vertex with no position raises
    ValueError, then a coordinate that is not an int or Fraction raises
    TypeError; an int coordinate adds no denominator."""
    g = drawing.graph
    for v in g.vertices:
        if v not in drawing.positions:
            raise ValueError(f"vertex {v} has no position")
    points = [drawing.positions[v] for v in g.vertices]
    bends: dict[Edge, range] = {}
    for e in sorted(drawing.curves):
        bends[e] = range(len(points), len(points) + len(drawing.curves[e]))
        points += drawing.curves[e]
    fractions = [c for p in points for c in p if type(c) is not int]
    for c in fractions:
        if not isinstance(c, Fraction):
            raise TypeError(f"coordinate {c!r} is not an int or Fraction")
    # the distinct denominators only, so lcm's argument tuple stays short
    scale = math.lcm(*{c.denominator for c in fractions})
    return PointTable(
        scale,
        [(x * scale if type(x) is int
          else x.numerator * (scale // x.denominator),
          y * scale if type(y) is int
          else y.numerator * (scale // y.denominator)) for x, y in points],
        {v: i for i, v in enumerate(g.vertices)}, bends)


def _point_label(table: PointTable, i: int) -> str:
    """The description of point ``i`` of a ``PointTable``."""
    if i < len(table.vid):
        return f"vertex {list(table.vid)[i]}"
    e, ids = next((e, ids) for e, ids in table.bends.items() if i in ids)
    return f"bend {i - ids.start} of {e}"


def _candidate_pairs(boxes: list[tuple[int, int, int, int, int, int, int]],
                     lo_sum: list[int], hi_sum: list[int],
                     lo_dif: list[int], hi_dif: list[int]
                     ) -> Iterator[tuple[int, int]]:
    """Pairs (s, t), s < t, of segment ids that may meet: their bounding
    boxes meet, their endpoint ids do not, and so do their ranges of x + y
    and of x - y, the other two sides of their bounding octagons.

    ``boxes`` holds one ``(xmin, xmax, ymin, ymax, s, p, q)`` per segment s
    with endpoint ids p, q; it is sorted here.  ``lo_sum[s]`` to
    ``hi_sum[s]`` is the range of x + y over segment s, and ``lo_dif[s]``
    to ``hi_dif[s]`` that of x - y.  Sorted by xmin, a box can only meet
    the boxes after it up to the first one that starts right of its xmax,
    so only that run is checked for y-overlap, and only a pair whose boxes
    meet looks up its diagonal ranges.  Two segments with a point in common
    overlap on every projection, so the octagon drops no pair that meets.
    """
    boxes.sort()
    xmins = [b[0] for b in boxes]
    for k, (_, x1, y0, y1, s, p, q) in enumerate(boxes):
        ls, hs, ld, hd = lo_sum[s], hi_sum[s], lo_dif[s], hi_dif[s]
        for _, _, v0, v1, t, e, f in boxes[k + 1:bisect_right(xmins, x1,
                                                              k + 1)]:
            if (v0 <= y1 and y0 <= v1
                    and p != e and p != f and q != e and q != f
                    and lo_sum[t] <= hs and ls <= hi_sum[t]
                    and lo_dif[t] <= hd and ld <= hi_dif[t]):
                yield (s, t) if s < t else (t, s)


def compute_crossings(drawing: Drawing) -> Crossings:
    """All proper crossings of the drawing, exactly, ordered by their pair
    of edge indices, as a ``Crossings`` whose ``simple`` says whether the
    drawing is simple.  That is decided as they are built: one edge pair's
    crossings are consecutive, so the drawing is simple until a crossing's
    edges share an end (a self-crossing included) or repeat the previous
    crossing's pair.

    Raises GeneralPositionViolation for overlaps (an edge doubling back
    over itself at a bend included), touching curves (except shared
    endpoints of adjacent edges), curves through vertices/bends, and
    coincident crossing points.  When several degeneracies exist, the one
    raised is the first in (edge, edge, segment, segment) order; a curve
    through an isolated vertex, which no pair sees, is a touch raised only
    when there is no other.  A coordinate that is not an int or Fraction
    raises TypeError before any degeneracy is looked for.
    """
    g = drawing.graph
    table = point_table(drawing)
    points, scale, vid = table.points, table.scale, table.vid
    pid: dict = {}
    for i, p in enumerate(points):
        j = pid.setdefault(p, i)
        if j != i:
            raise GeneralPositionViolation(
                "duplicate-point", f"{_point_label(table, i)} coincides "
                                   f"with {_point_label(table, j)}")
    bad = set(drawing.curves).difference(g.edges)
    if bad:
        raise ValueError(f"curve for non-edge {min(bad)}")

    # One pass over the edges builds every segment's record.  Segment ids
    # run in (edge, index along the edge) order; segment s runs from point
    # id p to point id q, at segs[s] = (ax, ay, bx, by), with its box and
    # diagonal ranges for the sweep.  Points are distinct and no edge is a
    # loop, so no segment has zero length.
    owner: list[int] = []
    index: list[int] = []
    segs: list[tuple[int, int, int, int]] = []
    boxes: list[tuple[int, int, int, int, int, int, int]] = []
    lo_sum: list[int] = []
    hi_sum: list[int] = []
    lo_dif: list[int] = []
    hi_dif: list[int] = []
    # Of the touches and overlaps only the one first in (edge, edge,
    # segment, segment) order is kept, so the first violation depends on
    # neither the sweep nor the stars.
    first_bad: tuple | None = None      # (key, kind, point)
    # Stars: segments with a common endpoint meet only there, unless they
    # leave it along one ray, and then they overlap.  Each ray, a point
    # and a reduced direction, keeps its first segment, and a later one on
    # it overlaps that one.  Of a ray's pairs, the first segment with the
    # second has the least key, so the pairs with the first suffice, and
    # of s's two such pairs the one with the smaller first segment.
    ray_first: dict[tuple[int, int, int], int] = {}
    # (edge id, index along the edge, p, q) per segment: a straight edge's
    # one segment is read off directly, with no polyline to walk
    ends: list[tuple[int, int, int, int]] = []
    for ei, e in enumerate(g.edges):
        if e in table.bends:
            poly = table.polyline(e)
            ends += [(ei, i, poly[i], poly[i + 1])
                     for i in range(len(poly) - 1)]
        else:
            ends.append((ei, 0, vid[e[0]], vid[e[1]]))
    for s, (ei, i, p, q) in enumerate(ends):
        ax, ay = points[p]
        bx, by = points[q]
        owner.append(ei)
        index.append(i)
        segs.append((ax, ay, bx, by))
        # branches, not min/max: eight calls per segment made the pass
        # 10-19 % slower on small random drawings
        if ax <= bx:
            x0, x1 = ax, bx
        else:
            x0, x1 = bx, ax
        if ay <= by:
            boxes.append((x0, x1, ay, by, s, p, q))
        else:
            boxes.append((x0, x1, by, ay, s, p, q))
        u, w = ax + ay, bx + by
        if u <= w:
            lo_sum.append(u)
            hi_sum.append(w)
        else:
            lo_sum.append(w)
            hi_sum.append(u)
        u, w = ax - ay, bx - by
        if u <= w:
            lo_dif.append(u)
            hi_dif.append(w)
        else:
            lo_dif.append(w)
            hi_dif.append(u)
        dx, dy = bx - ax, by - ay
        common = math.gcd(dx, dy)
        dx, dy = dx // common, dy // common
        t = ray_first.setdefault((p, dx, dy), s)
        r = ray_first.setdefault((q, -dx, -dy), s)
        if r < t:
            t = r
        if t != s:
            key = (owner[t], ei, t, s)
            if first_bad is None or key < first_bad[0]:
                first_bad = (key, "overlap", None)

    # Classify each other candidate as the sweep yields it.  Proper
    # crossings are kept, each as a record of ten ints: on 64-bit CPython a
    # ten-tuple and a Crossing fall in one allocator size class, so each
    # crossing reuses the memory of the record freed before it (with eight
    # ints the k-fcf 109 k=4 witness pass peaked 16 MiB higher).
    proper: list[tuple[int, ...]] = []
    for s, t in _candidate_pairs(boxes, lo_sum, hi_sum, lo_dif, hi_dif):
        ax, ay, bx, by = segs[s]
        cx, cy, dx, dy = segs[t]
        # d1, d2 = orient(c, d, a), orient(c, d, b); d3, d4 = orient(a, b,
        # c), orient(a, b, d).  A strict common sign separates the segments.
        ux, uy = dx - cx, dy - cy
        d1 = ux * (ay - cy) - uy * (ax - cx)
        d2 = ux * (by - cy) - uy * (bx - cx)
        if d1 > 0 and d2 > 0 or d1 < 0 and d2 < 0:
            continue
        rx, ry = bx - ax, by - ay
        d3 = rx * (cy - ay) - ry * (cx - ax)
        d4 = rx * (dy - ay) - ry * (dx - ax)
        if d3 > 0 and d4 > 0 or d3 < 0 and d4 < 0:
            continue
        if d1 and d2 and d3 and d4:
            proper.append((owner[s], owner[t], s, t, d1, d2, d3, d4,
                           index[s], index[t]))
            continue
        if d1 == 0 and d2 == 0:
            # Collinear with meeting boxes, so the segments share a point;
            # it is no common endpoint (points are distinct and stars never
            # reach the sweep), so they share a piece of positive length.
            kind, p = "overlap", None
        else:
            # The lines meet in one point, and the signs put it on both
            # segments, so an endpoint with a zero orientation is that
            # point.  Take the first of a, b, c, d.
            kind = "touch"
            p = ((ax, ay) if d1 == 0 else (bx, by) if d2 == 0
                 else (cx, cy) if d3 == 0 else (dx, dy))
        key = (owner[s], owner[t], s, t)
        if first_bad is None or key < first_bad[0]:
            first_bad = (key, kind, p)

    # Check the proper crossings in (edge, edge, segment, segment) order up
    # to the first touch or overlap.  A point is the triple (x, y, w) of its
    # scaled coordinates over their least common denominator, times the
    # scale, so no Fraction is hashed; with w the scale it may be a vertex
    # or bend.  That order is the order along a, except where one pair
    # crosses one segment of a more than once: such a run, found[start:],
    # takes each crossing in by its parameter on a, cross-multiplied.
    # Popped from the end of a reversed sort, each record is freed as its
    # crossing is built, so the two never all coexist.  The first four ints
    # are unique, so the sort never reads the rest.
    proper.sort(reverse=True)
    seen: set[tuple[int, int, int]] = set()
    found: list[Crossing] = []
    run, start = None, 0
    simple, last_a, last_b = True, -1, -1
    while proper:
        oa, ob, s, t, d1, d2, d3, d4, seg_a, seg_b = proper.pop()
        if first_bad is not None and (oa, ob, s, t) > first_bad[0]:
            break
        ea, eb = g.edges[oa], g.edges[ob]
        if simple:
            a0, a1 = ea
            b0, b1 = eb
            if (a0 == b0 or a0 == b1 or a1 == b0 or a1 == b1
                    or oa == last_a and ob == last_b):
                simple = False
            last_a, last_b = oa, ob
        ax, ay, bx, by = segs[s]
        # a + t1 (b - a) with t1 = d1 / (d1 - d2)
        den = d1 - d2
        if den < 0:
            d1, den = -d1, -den
        x, y = ax * den + d1 * (bx - ax), ay * den + d1 * (by - ay)
        common = math.gcd(x, y, den)
        xyw = (x // common, y // common, den // common * scale)
        if xyw[2] == scale and xyw[:2] in pid:
            raise GeneralPositionViolation(
                "crossing-at-vertex",
                f"{ea} x {eb} crosses at "
                f"{_point_label(table, pid[xyw[:2]])}")
        if xyw in seen:
            first = next(c for c in found if c.xyw == xyw)
            p = first.point
            raise GeneralPositionViolation(
                "concurrent-crossings",
                f"{ea} x {eb} and {(first.a, first.b)} cross at the same "
                f"point ({p[0]},{p[1]})")
        seen.add(xyw)
        # t2 = d3 / (d3 - d4); cross(b - a, d - c) = d4 - d3, and d3, d4
        # have opposite signs
        num_b, den_b = (-d3, d4 - d3) if d4 > 0 else (d3, d3 - d4)
        crossing = Crossing(ea, eb, oa, ob, seg_a, d1, den, seg_b, num_b,
                            den_b, xyw, 1 if d4 > 0 else -1)
        if run != (s, ob):
            run, start = (s, ob), len(found)
        i = len(found)
        while (i > start
               and d1 * found[i - 1].den_a < found[i - 1].num_a * den):
            i -= 1
        found.insert(i, crossing)
    if first_bad is not None:
        (oa, ob, _, _), kind, p = first_bad
        ea, eb = g.edges[oa], g.edges[ob]
        if kind == "overlap":
            raise GeneralPositionViolation(
                "overlap", f"{ea} and {eb} share a subsegment")
        raise GeneralPositionViolation(
            "touch", f"{ea} touches {eb} at "
                     f"({Fraction(p[0], scale)},{Fraction(p[1], scale)})")
    # No segment ends at an isolated vertex, so no pair above met one: a
    # curve through one is a touch, found only here (a crossing at one was
    # refused above).  Endpoints are other points, so a collinear point
    # within a segment's box lies inside it.
    isolated = set(g.vertices).difference(*g.edges)
    if isolated:
        lone = sorted((points[vid[v]], v) for v in isolated)
        lone_x = [p[0] for p, _ in lone]
        for s, (ax, ay, bx, by) in enumerate(segs):
            for (px, py), v in lone[bisect_left(lone_x, min(ax, bx)):
                                    bisect_right(lone_x, max(ax, bx))]:
                if (min(ay, by) <= py <= max(ay, by)
                        and (bx - ax) * (py - ay) == (by - ay) * (px - ax)):
                    raise GeneralPositionViolation(
                        "touch", f"{g.edges[owner[s]]} passes through "
                                 f"isolated vertex {v}")
    return Crossings(found, simple)


def is_simple(xs: tuple[Crossing, ...]) -> bool:
    """Whether a drawing with crossings ``xs`` is simple: no self-crossings,
    no crossing adjacent edges, and no edge pair crossing more than once.
    A ``Crossings`` answers with its ``simple``; any other sequence is
    walked.  There an end of a in b covers a == b, and a repeated pair of
    edge indices shrinks the set of pairs below the number of crossings.
    Each pair is one int, by Cantor's pairing function, so the set holds no
    tuples."""
    if isinstance(xs, Crossings):
        return xs.simple
    pairs: set[int] = set()
    for x in xs:
        u, v = x.a
        p, q = x.b
        if u == p or u == q or v == p or v == q:
            return False
        s = x.ia + x.ib
        pairs.add(s * (s + 1) // 2 + x.ib)
    return len(pairs) == len(xs)


# ---------------------------------------------------------------------------
# Verdicts
# ---------------------------------------------------------------------------

class Verdict(NamedTuple):
    """Outcome of a checker: ok plus a machine-readable witness on failure."""

    ok: bool
    concept: str
    reason: str = ""
    witness: dict | None = None

    def __bool__(self) -> bool:
        return self.ok

    def to_json_obj(self) -> dict:
        obj: dict = {"ok": self.ok, "concept": self.concept}
        if self.reason:
            obj["reason"] = self.reason
        if self.witness is not None:
            obj["witness"] = self.witness
        return obj


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def _point_json(p: Point) -> list[str]:
    return [str(p[0]), str(p[1])]


_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def _coord_from_json(c) -> Fraction:
    """An exact coordinate: an int or a rational string such as "-7/2"."""
    if type(c) is int:
        return Fraction(c)
    if isinstance(c, str) and _RATIONAL.fullmatch(c):
        try:
            return Fraction(c)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in coordinate {c!r}") from None
    raise ValueError(f"coordinate {c!r} is not an int or a rational string")


def _point_from_json(obj) -> Point:
    if not isinstance(obj, list) or len(obj) != 2:
        raise ValueError(f"point {obj!r} is not a pair of coordinates")
    return (_coord_from_json(obj[0]), _coord_from_json(obj[1]))


def drawing_to_json_obj(drawing: Drawing) -> dict:
    return {
        "graph": graph_to_json_obj(drawing.graph),
        "positions": {v: _point_json(drawing.positions[v])
                      for v in drawing.graph.vertices},
        "curves": {edge_key(e): [_point_json(p) for p in bends]
                   for e, bends in sorted(drawing.curves.items()) if bends},
        "meta": drawing.meta,
    }


def drawing_to_json(drawing: Drawing) -> str:
    """The drawing as JSON text: the one text form, whose bytes the
    sha256 pins of the drawing corpus and the standard layouts hash."""
    return json.dumps(drawing_to_json_obj(drawing), indent=2, sort_keys=True)


def drawing_from_json_obj(obj: dict) -> Drawing:
    """Read a drawing, refusing anything the crossing engine cannot trust.

    Raises ValueError unless ``positions`` maps exactly the graph's
    vertices to points, every curve belongs to an edge of the graph, and
    every coordinate is an int or a rational string (no bools, no floats,
    no zero denominators), and ``meta``, if present, is an object.
    """
    if not (isinstance(obj, dict) and "graph" in obj and "positions" in obj):
        raise ValueError("drawing must be a JSON object with graph and "
                         "positions")
    graph = graph_from_json_obj(obj["graph"])
    raw_positions = obj["positions"]
    if not isinstance(raw_positions, dict):
        raise ValueError("positions must be an object")
    if set(raw_positions) != set(graph.vertices):
        missing = sorted(set(graph.vertices) - set(raw_positions))
        unknown = sorted(set(raw_positions) - set(graph.vertices))
        raise ValueError(f"positions must cover exactly the graph's vertices "
                         f"(missing {missing}, unknown {unknown})")
    positions = {v: _point_from_json(p) for v, p in raw_positions.items()}
    raw_curves = obj.get("curves", {})
    if not isinstance(raw_curves, dict):
        raise ValueError("curves must be an object")
    edges = set(graph.edges)
    curves: dict[Edge, tuple[Point, ...]] = {}
    for key, bends in raw_curves.items():
        e = edge_from_key(key)
        if e not in edges:
            raise ValueError(f"curve for non-edge {e}")
        if e in curves:
            raise ValueError(f"two curves for {e}")
        if not isinstance(bends, list):
            raise ValueError(f"bends of {e} must be a list of points")
        curves[e] = tuple(_point_from_json(p) for p in bends)
    meta = obj.get("meta", {})
    if not isinstance(meta, dict):
        raise ValueError("meta must be an object")
    return Drawing(graph, positions, curves, meta=dict(meta))


def drawing_from_json(text: str) -> Drawing:
    return drawing_from_json_obj(json.loads(text))


# ---------------------------------------------------------------------------
# SVG
# ---------------------------------------------------------------------------

_SVG_COLORS = {
    "blue": "#2060c0",
    "red": "#c03030",
    "yellow": "#c0a020",
    "gray": "#808080",
}


def to_svg(drawing: Drawing,
           edge_colors: Mapping[Edge, str] | None = None) -> str:
    """Deterministic standalone SVG for a drawing, 900 units wide.

    ``edge_colors`` maps edges to frame colors (blue/red/yellow/gray); other
    edges are black.
    """
    width = 900
    pts: list[Point] = [drawing.positions[v] for v in drawing.graph.vertices]
    for e in sorted(drawing.curves):
        pts.extend(drawing.curves[e])
    if not pts:
        return '<svg xmlns="http://www.w3.org/2000/svg"/>\n'
    try:
        xs = [float(p[0]) for p in pts]
        ys = [float(p[1]) for p in pts]
        minx, maxx = min(xs), max(xs)
        miny, maxy = min(ys), max(ys)
        spanx = (maxx - minx) or 1.0
        spany = (maxy - miny) or 1.0
        if math.isinf(spanx + spany):
            raise OverflowError
    except OverflowError:
        raise ValueError("coordinates beyond float range: the drawing "
                         "cannot be rendered") from None
    scale = (width - 40) / max(spanx, spany)
    height = int(spany * scale) + 40

    def sx(x: Fraction) -> str:
        return f"{(float(x) - minx) * scale + 20:.3f}"

    def sy(y: Fraction) -> str:
        # Flip y so larger coordinates are higher on the canvas.
        return f"{(maxy - float(y)) * scale + 20:.3f}"

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        '<rect width="100%" height="100%" fill="white"/>',
    ]
    for e in drawing.graph.edges:
        poly = drawing.polyline(e)
        points = " ".join(f"{sx(p[0])},{sy(p[1])}" for p in poly)
        color = "#000000"
        if edge_colors and e in edge_colors:
            color = _SVG_COLORS.get(edge_colors[e], "#000000")
        lines.append(f'<polyline points="{points}" fill="none" '
                     f'stroke="{color}" stroke-width="1"/>')
    for v in drawing.graph.vertices:
        p = drawing.positions[v]
        r = 4 if v in FRAME_NODES else 1.5
        lines.append(f'<circle cx="{sx(p[0])}" cy="{sy(p[1])}" r="{r}" '
                     f'fill="#202020"/>')
        if v in FRAME_NODES:
            lines.append(f'<text x="{sx(p[0])}" y="{sy(p[1])}" dx="6" dy="-6" '
                         f'font-size="12" font-family="monospace">{v}</text>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
