"""Checkers for beyond-planarity concepts on polyline drawings.

``check_concept`` is the one entry point.  It resolves each (concept, k)
once, computes the crossings once (unless they are passed in) and calls
the concept's ``_CHECKERS`` entry as ``(kind, drawing, crossings, k)``,
k the concept's structural k (ignored by concepts without one); every
checker returns a Verdict labelled kind.
All but one decide from the crossings alone, the fan sides included
(``Crossing.turn``), reading of the drawing only its graph's edges to name
them; only strong fan-planarity's enclosure test reads its geometry: the
bend counts of each edge and its crossers for every (edge, anchor) it
tries, and the curves' points, scaled to integers once per check, only
when some fan ring can bend.  They count, group and search on
the crossings' edge indices ``ia`` and ``ib``, which order as the edges
do, and name edge i in a witness as ``drawing.graph.edges[i]``, the
numbering the indices come from.  The vertex-based concepts key on the
crossings' endpoint strings, and skewness on the edges themselves, since
its search branches in their ``str`` order.
Failure verdicts carry a machine-checkable witness: the edge / vertex /
crossing pair that breaks the condition, or for the search-based concepts
(gap, apex, skewness) a certificate that no valid assignment or deletion
set exists.

Counting conventions, applied consistently:
  * a self-crossing counts twice toward its edge's crossing count;
  * a crossing event counts once per vertex for vertex-based counts, even
    when both its edges are incident to that vertex;
  * the fan-family checkers (ac, fc, wfp, sfp) and the *-nic checkers that
    need it require a simple drawing and reject non-simple ones outright.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict, deque
from functools import lru_cache, partial
from itertools import chain, combinations
from typing import Callable

from .drawing import (Crossing, Drawing, Verdict, compute_crossings,
                      integer_scale, is_simple)
from .geometry import IntPoint, chain_parity, on_segment, ray_toggle
from .graph_core import ConceptId, Edge, as_concept, edge_key, structural_k


def _edge_counts(xs: tuple[Crossing, ...]) -> dict[int, int]:
    """Crossings per edge index, a self-crossing counted twice."""
    counts: dict[int, int] = {}
    for x in xs:
        counts[x.ia] = counts.get(x.ia, 0) + 1
        counts[x.ib] = counts.get(x.ib, 0) + 1
    return counts


def _xjson(x: Crossing) -> dict:
    """The crossing's edges and point, each coordinate written from the
    integers as ``str(Fraction)`` writes it."""
    px, py, w = x.xyw
    gx, gy = math.gcd(px, w), math.gcd(py, w)
    return {"edges": [edge_key(x.a), edge_key(x.b)],
            "point": [str(px // w) if gx == w else f"{px // gx}/{w // gx}",
                      str(py // w) if gy == w else f"{py // gy}/{w // gy}"]}


# ---------------------------------------------------------------------------
# Local crossing number / vertex crossing number
# ---------------------------------------------------------------------------

def _k_planar(kind: str, drawing: Drawing, xs: tuple[Crossing, ...],
              k: int) -> Verdict:
    """Every edge is crossed at most k times (self-crossings count twice)."""
    counts = _edge_counts(xs)
    if max(counts.values(), default=0) <= k:
        return Verdict(True, kind)
    e = min(e for e, c in counts.items() if c > k)
    name = edge_key(drawing.graph.edges[e])
    return Verdict(False, kind, f"edge {name} crossed {counts[e]} > {k} times",
                   {"edge": name, "count": counts[e],
                    "crossings": [_xjson(x) for x in xs
                                  if x.ia == e or x.ib == e]})


def _k_vertex_planar(kind: str, drawing: Drawing, xs: tuple[Crossing, ...],
                     k: int) -> Verdict:
    """Every vertex has at most k crossings on its incident edges; a crossing
    between two edges sharing that vertex still counts once.

    One pass counts each crossing at a's two ends, then at each end of b
    not in a, so a self-crossing counts once at each end of its edge."""
    counts: dict[str, int] = {}
    for x in xs:
        a = x.a
        for v in a:
            counts[v] = counts.get(v, 0) + 1
        for v in x.b:
            if v not in a:
                counts[v] = counts.get(v, 0) + 1
    if max(counts.values(), default=0) <= k:
        return Verdict(True, kind)
    v = min(v for v, c in counts.items() if c > k)
    return Verdict(False, kind,
                   f"vertex {v} has {counts[v]} > {k} adjacent crossings",
                   {"vertex": v, "count": counts[v],
                    "crossings": [_xjson(x) for x in xs
                                  if v in x.a or v in x.b]})


# ---------------------------------------------------------------------------
# Independent-crossing family
# ---------------------------------------------------------------------------

def _shared_endpoints(limit: int, require_simple: bool, kind: str,
                      drawing: Drawing, xs: tuple[Crossing, ...],
                      k: int) -> Verdict:
    """No two crossings share more than ``limit`` endpoint vertices (and,
    with ``require_simple``, the drawing is simple)."""
    if require_simple and not is_simple(xs):
        return Verdict(False, kind, "drawing is not simple")
    # Two crossings share more than `limit` endpoints exactly when they hold
    # a common (limit+1)-set of endpoints, so each such set is keyed to the
    # first crossing holding it.  The least i met at j is j's least partner;
    # the witness is the least (i, j), the first pair in combinations order.
    first: dict[tuple[str, ...], int] = {}
    pair: tuple[int, int] | None = None
    for j, x in enumerate(xs):
        for key in combinations(sorted({*x.a, *x.b}), limit + 1):
            i = first.setdefault(key, j)
            if i < j and (pair is None or i < pair[0]):
                pair = (i, j)
        if pair is not None and pair[0] == 0:
            break
    if pair is None:
        return Verdict(True, kind)
    x1, x2 = xs[pair[0]], xs[pair[1]]
    shared = {*x1.a, *x1.b} & {*x2.a, *x2.b}
    return Verdict(False, kind,
                   f"two crossings share {len(shared)} > {limit} "
                   f"endpoints ({', '.join(sorted(shared))})",
                   {"crossings": [_xjson(x1), _xjson(x2)],
                    "shared": sorted(shared)})


def _k_fan_crossing_free(kind: str, drawing: Drawing,
                         xs: tuple[Crossing, ...], k: int) -> Verdict:
    """Simple drawing in which no edge is crossed by k edges with a common
    endpoint: for every edge e and vertex z outside e, at most k-1 of the
    edges crossing e are incident to z."""
    if not is_simple(xs):
        return Verdict(False, kind, "drawing is not simple")
    # the edges crossing each edge index; in a simple drawing they are
    # distinct and miss the edge's ends
    crossers: dict[int, list[Edge]] = defaultdict(list)
    for x in xs:
        crossers[x.ia].append(x.b)
        crossers[x.ib].append(x.a)
    for e in sorted(crossers):
        fs = crossers[e]
        if len(fs) < k:
            continue
        apex_count = Counter(chain.from_iterable(fs))
        if max(apex_count.values()) < k:
            continue
        z = min(z for z, c in apex_count.items() if c >= k)
        name = edge_key(drawing.graph.edges[e])
        return Verdict(
            False, kind, f"edge {name} is crossed by {apex_count[z]} >= {k} "
            f"edges incident to {z}",
            {"edge": name, "apex": z,
             "fan": sorted(edge_key(f) for f in fs if z in f)})
    return Verdict(True, kind)


# ---------------------------------------------------------------------------
# Fan family
# ---------------------------------------------------------------------------

def _crossers_by_edge(xs: tuple[Crossing, ...]
                      ) -> dict[int, list[Crossing]]:
    out: dict[int, list[Crossing]] = defaultdict(list)
    for x in xs:
        out[x.ia].append(x)
        out[x.ib].append(x)
    return out


ScaledCurves = tuple[int, Callable[[Edge], list[IntPoint]]]


def _scaled_curves(drawing: Drawing) -> ScaledCurves:
    """The drawing's scale, as ``integer_scale`` gives it for all its
    points, and a function from an edge to its polyline's points times the
    scale as integer pairs, each edge's built once."""
    scale, scaled_points = integer_scale(
        p for points in (drawing.positions.values(),
                         *drawing.curves.values()) for p in points)
    scaled: dict[Edge, list[IntPoint]] = {}

    def polyline(e: Edge) -> list[IntPoint]:
        if e not in scaled:
            scaled[e] = scaled_points(drawing.polyline(e))
        return scaled[e]
    return scale, polyline


def _fan(level: int, kind: str, drawing: Drawing,
         xs: tuple[Crossing, ...], k: int) -> Verdict:
    """A simple drawing in which the edges crossing any one edge e are
    pairwise adjacent (level 0, adjacency-crossing), share a common anchor
    vertex (level 1, fan-crossing), for some anchor all cross e from the
    same side (level 2, weak fan-planar), and for that anchor no fan region
    traps an endpoint of e (level 3, strong fan-planar).

    Level 3 reads the bend counts of e and its crossers for every anchor
    v that passes the sides test.  When e is one segment and every
    crosser runs straight from its crossing X_i to v (``_triangle_rings``),
    each fan ring is the triangle X_i X_j v, and none can enclose an
    endpoint of e: v is off e's line (a straight tail along it would make
    the crossing an overlap, which ``compute_crossings`` refuses), so the
    line meets the closed triangle only in its side [X_i, X_j], and e's
    endpoints lie on the line outside that side.  The anchor then passes
    with no point read.  Only when some ring can bend are the drawing's
    curves scaled, once per check, and the test gives each crossing on e
    one even-odd bit per endpoint of e and compares bits instead of
    building a region per pair of crossers (``_enclosure_failure``):
    O(len(e) + sum of tail lengths + c) per edge and anchor for c
    crossings on e."""
    if not is_simple(xs):
        return Verdict(False, kind, "drawing is not simple")
    curves = None   # the scaled curves, built for the first ring walk
    for e, crossings in sorted(_crossers_by_edge(xs).items()):
        if len(crossings) <= 1:
            continue
        # the edges crossing edge e, and e itself
        fs = [x.b if x.ia == e else x.a for x in crossings]
        edge = drawing.graph.edges[e]
        # in a simple drawing no crosser touches e, so every vertex that
        # all crossers share is an anchor candidate
        common = set(fs[0]).intersection(*fs[1:])
        if level == 0:
            if common:      # crossers through one vertex are pairwise adjacent
                continue
            for f1, f2 in combinations(fs, 2):
                if f1[0] not in f2 and f1[1] not in f2:
                    return Verdict(
                        False, kind,
                        f"edges {edge_key(f1)} and {edge_key(f2)} cross "
                        f"{edge_key(edge)} but share no vertex",
                        {"edge": edge_key(edge),
                         "crossers": [edge_key(f1), edge_key(f2)]})
            continue
        if not common:
            return Verdict(False, kind,
                           f"edges crossing {edge_key(edge)} have no common "
                           "vertex", {"edge": edge_key(edge),
                                      "crossers": sorted(map(edge_key, fs))})
        if level == 1:
            continue
        ok_anchor = None
        last_reason: tuple[str, dict] | None = None
        for v in sorted(common):
            # the side f crosses e from, f running toward v: the crossing's
            # turn, flipped when e is its b and when f runs backward
            sides = {x.turn * (1 if x.ia == e else -1)
                     * (1 if f[1] == v else -1)
                     for x, f in zip(crossings, fs)}
            if len(sides) > 1:
                last_reason = (
                    f"crossings of {edge_key(edge)} approach anchor {v} from "
                    f"both sides", {"edge": edge_key(edge), "anchor": v})
                continue
            if level == 3 and not _triangle_rings(drawing, edge, e,
                                                  crossings, fs, v):
                if curves is None:
                    curves = _scaled_curves(drawing)
                trapped = _enclosure_failure(curves, edge, e, crossings, v)
                if trapped is not None:
                    last_reason = trapped
                    continue
            ok_anchor = v
            break
        if ok_anchor is None:
            reason, witness = last_reason  # at least one anchor was tried
            return Verdict(False, kind, reason, witness)
    return Verdict(True, kind)


def _triangle_rings(drawing: Drawing, edge: Edge, ie: int,
                    crossings: list[Crossing], fs: list[Edge],
                    anchor: str) -> bool:
    """Whether every fan ring of ``edge``, of index ``ie``, and the anchor
    is a triangle X_i X_j v with its side [X_i, X_j] on the edge: the edge
    has no bends, and each crosser f in ``fs`` runs straight from its
    crossing to the anchor, its crossing lying on f's last segment when
    the anchor is f's second vertex and on its first when it is f's
    first.  Only bend counts are read, no point."""
    if drawing.curves.get(edge):
        return False
    for x, f in zip(crossings, fs):
        seg = x.seg_b if x.ia == ie else x.seg_a
        if seg != (len(drawing.curves.get(f, ())) if anchor == f[1] else 0):
            return False
    return True


def _enclosure_failure(curves: ScaledCurves, e: Edge, ie: int,
                       crossings: list[Crossing],
                       anchor: str) -> tuple[str, dict] | None:
    """sfp condition: for each pair of crossers, the closed curve formed by
    the piece of e, of index ``ie``, between the two crossing
    points and the two crosser curves up to the anchor must not strictly
    enclose an endpoint of e.  ``_fan`` calls it only for an (edge, anchor)
    with some ring that can bend, having read the bend counts first
    (``_triangle_rings``); the curves it reads are scaled once per check.

    Each segment of such a ring flips an endpoint's even-odd ray count on
    its own, in either direction (``geometry.ray_toggle``), so the ring's
    parity at endpoint u is Q_i(u) XOR Q_j(u), one bit per crossing:
    Q_i = H_i XOR T_i, the parities of e's curve from its first point to
    crossing i and of crosser i's tail from crossing i to the anchor (the
    prefix of e that H_i and H_j share cancels).  Boundary points count as
    outside: a crosser whose tail holds u encloses it with no partner, and
    ``compute_crossings`` refuses an endpoint of e on e's curve between
    two crossings.  One walk of e and of each tail gives every bit, so an
    (edge, anchor) costs O(len(e) + sum of tail lengths + c) for c
    crossings on e.  The witness is the first differing pair in
    ``combinations`` order, then endpoint order, found in one pass over the
    bits (``_first_split``).

    Every predicate runs on integers: the curves are the check's scaled
    polylines, and the two segments that end at a crossing point (x/w,
    y/w) are tested with their other points and u times w, so crossings
    need not share the check's scale.
    """
    scale, polyline = curves
    poly = polyline(e)
    ends = (poly[0], poly[-1])
    # prefixes[k][s]: parity of e's curve up to its point s at endpoint k
    prefixes = []
    for p in ends:
        prefix = [False]
        for a, b in zip(poly, poly[1:]):
            prefix.append(prefix[-1] ^ ray_toggle(p, a, b))
        prefixes.append(prefix)
    bits: list[list[bool | None]] = []  # Q per crossing and endpoint
    fs: list[Edge] = []                 # the crossers, in crossing order
    for x in crossings:
        if x.ia == ie:
            f, seg, seg_f = x.b, x.seg_a, x.seg_b
        else:
            f, seg, seg_f = x.a, x.seg_b, x.seg_a
        fs.append(f)
        # the tail: the crossing point, then f's points up to the anchor
        poly_f = polyline(f)
        rest = poly_f[seg_f + 1:] if anchor == f[1] else poly_f[seg_f::-1]
        px, py, w = x.xyw
        xpt = (px * scale, py * scale)
        start = (poly[seg][0] * w, poly[seg][1] * w)
        head = (rest[0][0] * w, rest[0][1] * w)
        row: list[bool | None] = []
        for p, prefix in zip(ends, prefixes):
            pw = (p[0] * w, p[1] * w)
            if on_segment(xpt, head, pw) or any(
                    on_segment(a, b, p) for a, b in zip(rest, rest[1:])):
                row.append(None)
            else:
                row.append(prefix[seg] ^ ray_toggle(pw, start, xpt)
                           ^ ray_toggle(pw, xpt, head) ^ chain_parity(p, rest))
        bits.append(row)
    split = _first_split(bits)
    if split is None:
        return None
    i, j, k = split
    u, fi, fj = e[k], fs[i], fs[j]
    return (f"endpoint {u} of {edge_key(e)} is enclosed by the fan region "
            f"of {edge_key(fi)} and {edge_key(fj)}",
            {"edge": edge_key(e), "endpoint": u, "anchor": anchor,
             "crossers": [edge_key(fi), edge_key(fj)]})


def _first_split(bits: list[list[bool | None]]
                 ) -> tuple[int, int, int] | None:
    """The least (i, j, k), i < j, with bits[i][k] and bits[j][k] both set
    and different, or None.

    For endpoint k, the first set bit i has a partner if any later bit
    differs from it, and the first such j is its least partner; with no
    such j every set bit equals bits[i][k], so k has no pair.  The least
    of the two endpoints' pairs wins, a tie going to endpoint 0.  O(c)
    for c crossings, where comparing every pair would be O(c^2).
    """
    best = None
    for k in (0, 1):
        i = next((i for i, row in enumerate(bits) if row[k] is not None),
                 None)
        if i is None:
            continue
        first = bits[i][k]
        j = next((j for j in range(i + 1, len(bits))
                  if bits[j][k] is not None and bits[j][k] != first), None)
        if j is not None and (best is None or (i, j) < best[:2]):
            best = (i, j, k)
    return best


# ---------------------------------------------------------------------------
# Global counting concepts
# ---------------------------------------------------------------------------

def _k_edge_crossing(kind: str, drawing: Drawing, xs: tuple[Crossing, ...],
                     k: int) -> Verdict:
    """At most k edges are involved in crossings."""
    crossed = {x.ia for x in xs} | {x.ib for x in xs}
    if len(crossed) > k:
        edges = drawing.graph.edges
        return Verdict(False, kind, f"{len(crossed)} > {k} edges are crossed",
                       {"crossed_edges": sorted(edge_key(edges[e])
                                                for e in crossed)})
    return Verdict(True, kind)


def _alternating_bfs(xs: tuple[Crossing, ...], charged: dict[int, list[int]],
                     sources: list[int], k: int, dead: set[int]
                     ) -> tuple[int | None, dict]:
    """Breadth-first search from the edges of the crossings in sources, from
    each edge over the crossings charged to it to their other edges: the
    first edge with fewer than k charges (or None) and the parent map, all
    by edge index.  Edges in ``dead`` are passed over: the search reaches
    from them only full edges of ``dead``, so no other edge's place in the
    search order changes."""
    parent = dict.fromkeys(e for i in sources for e in (xs[i].ia, xs[i].ib))
    queue = deque(parent)
    while queue:
        e = queue.popleft()
        if e in dead:
            continue
        if len(charged[e]) < k:
            return e, parent
        for j in charged[e]:
            f = xs[j].ib if xs[j].ia == e else xs[j].ia
            if f not in parent:
                parent[f] = (e, j)
                queue.append(f)
    return None, parent


def _k_gap_planar(kind: str, drawing: Drawing, xs: tuple[Crossing, ...],
                  k: int) -> Verdict:
    """Each crossing can be charged to one of its two edges so that every
    edge is charged at most k times.  Decided by augmenting paths; on failure
    the witness is the set E_R of edges reached by alternating paths from the
    uncharged crossings (one set for every maximum charging), whose internal
    crossings exceed k|E_R|."""
    if not xs:
        return Verdict(True, kind)
    charged: dict[int, list[int]] = defaultdict(list)
    uncharged: list[int] = []
    # The edges a failed search reached are full and charged only crossings
    # whose edges they all hold.  No augmenting path can enter them, so
    # they stay so, and later searches pass them over.
    dead: set[int] = set()
    for i, x in enumerate(xs):
        # the search would stop at once on x's first edge with room
        held = charged[x.ia]
        if len(held) >= k:
            held = charged[x.ib]
        if len(held) < k:
            held.append(i)
            continue
        if x.ia in dead and x.ib in dead:
            uncharged.append(i)
            continue
        e, parent = _alternating_bfs(xs, charged, [i], k, dead)
        if e is None:
            uncharged.append(i)
            dead.update(parent)
            continue
        while parent[e] is not None:
            prev, j = parent[e]
            charged[prev].remove(j)
            charged[e].append(j)
            e = prev
        charged[e].append(i)
    edges = drawing.graph.edges
    if not uncharged:
        owner = {j: e for e, held in charged.items() for j in held}
        return Verdict(True, kind, witness={"assignment": {
            str(i): edge_key(edges[owner[i]]) for i in range(len(xs))}})
    reach = _alternating_bfs(xs, charged, uncharged, k, set())[1]
    internal = sum(x.ia in reach and x.ib in reach for x in xs)
    return Verdict(False, kind,
                   f"{internal} crossings among {len(reach)} edges exceed "
                   f"capacity {k}*{len(reach)}",
                   {"edges": [edge_key(edges[e]) for e in sorted(reach)],
                    "internal_crossings": internal})


def _packs_more_than(sets: list[frozenset], budget: int) -> bool:
    """Whether a greedy packing of pairwise-disjoint ``sets`` holds more
    than ``budget`` of them; each needs a choice of its own."""
    if len(sets) <= budget:
        return False
    used: set = set()
    packed = 0
    for r in sets:
        if used.isdisjoint(r):
            packed += 1
            if packed > budget:
                return True
            used |= r
    return False


def _hitting_set(universe: list[frozenset], k: int) -> set | None:
    """Smallest-first branch and bound for a hitting set of size <= k:
    depth first, each depth branching on the elements of a smallest set
    not yet hit, in ``str`` order.  A depth whose unhit sets pack more
    disjoint sets than choices are left is dead, and only such subtrees
    are cut, so the first hitting set found is the plain search's.  The
    depths are an explicit stack, so k is not limited by the recursion
    limit."""
    frames: list = []   # per depth: its unhit sets and untried choices
    chosen: list = []   # per depth: the choice being explored
    remaining = universe
    while remaining:
        if not _packs_more_than(remaining, k - len(frames)):
            target = min(remaining, key=len)
            frames.append((remaining, iter(sorted(target, key=str))))
        # the next untried choice of the deepest depth that has one
        while frames:
            sets, choices = frames[-1]
            del chosen[len(frames) - 1:]
            choice = next(choices, None)
            if choice is not None:
                break
            frames.pop()
        if not frames:
            return None
        chosen.append(choice)
        remaining = [r for r in sets if choice not in r]
    return set(chosen)


def _k_apex(kind: str, drawing: Drawing, xs: tuple[Crossing, ...],
            k: int) -> Verdict:
    """Some set of at most k vertices meets every crossing (deleting them
    leaves a crossing-free drawing)."""
    sets = [frozenset((*x.a, *x.b)) for x in xs]
    hit = _hitting_set(sets, k)
    if hit is None:
        return Verdict(False, kind,
                       f"no {k} vertices cover all {len(xs)} crossings",
                       {"crossings": [_xjson(x) for x in xs]})
    return Verdict(True, kind, witness={"apices": sorted(hit)})


def _skewness(kind: str, drawing: Drawing, xs: tuple[Crossing, ...],
              k: int) -> Verdict:
    """Some set of at most k edges meets every crossing (deleting them
    leaves a crossing-free drawing).  Its sets hold the edges themselves:
    the search branches in their ``str`` order, which indices would have
    to look up."""
    sets = [frozenset((x.a, x.b)) for x in xs]
    hit = _hitting_set(sets, k)
    if hit is None:
        return Verdict(False, kind,
                       f"no {k} edges cover all {len(xs)} crossings",
                       {"crossings": [_xjson(x) for x in xs]})
    return Verdict(True, kind,
                   witness={"removed": sorted(edge_key(e) for e in hit)})


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

_CHECKERS = {
    "k-planar": _k_planar,
    "k-vertex-planar": _k_vertex_planar,
    "ic": partial(_shared_endpoints, 0, False),
    "nic": partial(_shared_endpoints, 1, False),
    "nnic": partial(_shared_endpoints, 2, True),
    "k-fan-crossing-free": _k_fan_crossing_free,
    "adjacency-crossing": partial(_fan, 0),
    "fan-crossing": partial(_fan, 1),
    "weak-fan-planar": partial(_fan, 2),
    "strong-fan-planar": partial(_fan, 3),
    "k-edge-crossing": _k_edge_crossing,
    "k-gap-planar": _k_gap_planar,
    "k-apex": _k_apex,
    "skewness": _skewness,
}


@lru_cache(maxsize=256, typed=True)
def _resolve(name: str, k: int | None) -> tuple[str, int]:
    """(kind, structural k) of a concept name at k; raises as
    ``parse_concept`` does, and an error is not cached."""
    cid = as_concept(name, k)
    return cid.kind, structural_k(cid)


def check_concept(drawing: Drawing, concept: "str | ConceptId",
                  k: int | None = None, *,
                  xs: tuple[Crossing, ...] | None = None) -> Verdict:
    """Check a drawing against a concept.  ``xs``, when given, are the
    drawing's crossings as ``compute_crossings`` returns them; otherwise
    they are computed here.

    Each (concept, k) is resolved to its kind and structural k once, in a
    bounded cache keyed on the name and k (a ``ConceptId`` by its two
    fields, so k's type is part of every key).  No verdict, crossing or
    drawing is memoised: every call runs its checker."""
    if isinstance(concept, ConceptId):
        concept, k = concept
    kind, kk = _resolve(concept, k)
    if xs is None:
        xs = compute_crossings(drawing)
    return _CHECKERS[kind](kind, drawing, xs, kk)
