"""Checkers for beyond-planarity concepts on polyline drawings.

``check_concept`` is the one entry point.  It computes the crossings once
(unless they are passed in) and calls the concept's ``_CHECKERS`` entry as
``(drawing, crossings, k)``, where k is the concept's structural k; the
concepts without a parameter ignore it.  Every checker returns a Verdict.
All but one decide from the crossings alone, the fan sides included
(``Crossing.turn``); only strong fan-planarity's enclosure test reads the
drawing's curves.
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
from collections import defaultdict, deque
from functools import partial
from itertools import combinations
from typing import Callable

from .drawing import Crossing, Drawing, Verdict, compute_crossings, is_simple
from .geometry import IntPoint, chain_parity, on_segment, ray_toggle
from .graph_core import ConceptId, Edge, as_concept, edge_key, structural_k


def _crossing_vertices(x: Crossing) -> set[str]:
    return set(x.a) | set(x.b)


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

def _k_planar(drawing: Drawing, xs: tuple[Crossing, ...], k: int) -> Verdict:
    """Every edge is crossed at most k times (self-crossings count twice)."""
    counts: dict[Edge, int] = {}
    for x in xs:
        counts[x.a] = counts.get(x.a, 0) + 1
        counts[x.b] = counts.get(x.b, 0) + 1
    for e in sorted(counts):
        if counts[e] > k:
            return Verdict(False, "k-planar",
                           f"edge {edge_key(e)} crossed {counts[e]} > {k} times",
                           {"edge": edge_key(e), "count": counts[e],
                            "crossings": [_xjson(x) for x in xs
                                          if x.involves(e)]})
    return Verdict(True, "k-planar")


def _k_vertex_planar(drawing: Drawing, xs: tuple[Crossing, ...],
                     k: int) -> Verdict:
    """Every vertex has at most k crossings on its incident edges; a crossing
    between two edges sharing that vertex still counts once."""
    counts: dict[str, int] = {}
    per_vertex: dict[str, list[Crossing]] = {}
    for x in xs:
        for v in _crossing_vertices(x):
            counts[v] = counts.get(v, 0) + 1
            per_vertex.setdefault(v, []).append(x)
    for v in sorted(counts):
        if counts[v] > k:
            return Verdict(False, "k-vertex-planar",
                           f"vertex {v} has {counts[v]} > {k} adjacent crossings",
                           {"vertex": v, "count": counts[v],
                            "crossings": [_xjson(x) for x in per_vertex[v]]})
    return Verdict(True, "k-vertex-planar")


# ---------------------------------------------------------------------------
# Independent-crossing family
# ---------------------------------------------------------------------------

def _shared_endpoints(concept: str, limit: int, require_simple: bool,
                      drawing: Drawing, xs: tuple[Crossing, ...],
                      k: int) -> Verdict:
    """No two crossings share more than ``limit`` endpoint vertices (and,
    with ``require_simple``, the drawing is simple)."""
    if require_simple and not is_simple(xs):
        return Verdict(False, concept, "drawing is not simple")
    # Two crossings share more than `limit` endpoints exactly when they hold
    # a common (limit+1)-set of endpoints, so each such set is keyed to the
    # first crossing holding it.  The least i met at j is j's least partner;
    # the witness is the least (i, j), the first pair in combinations order.
    first: dict[tuple[str, ...], int] = {}
    pair: tuple[int, int] | None = None
    for j, x in enumerate(xs):
        for key in combinations(sorted(_crossing_vertices(x)), limit + 1):
            i = first.setdefault(key, j)
            if i < j and (pair is None or i < pair[0]):
                pair = (i, j)
        if pair is not None and pair[0] == 0:
            break
    if pair is None:
        return Verdict(True, concept)
    x1, x2 = xs[pair[0]], xs[pair[1]]
    shared = _crossing_vertices(x1) & _crossing_vertices(x2)
    return Verdict(False, concept,
                   f"two crossings share {len(shared)} > {limit} "
                   f"endpoints ({', '.join(sorted(shared))})",
                   {"crossings": [_xjson(x1), _xjson(x2)],
                    "shared": sorted(shared)})


def _k_fan_crossing_free(drawing: Drawing, xs: tuple[Crossing, ...],
                         k: int) -> Verdict:
    """Simple drawing in which no edge is crossed by k edges with a common
    endpoint: for every edge e and vertex z outside e, at most k-1 of the
    edges crossing e are incident to z."""
    if not is_simple(xs):
        return Verdict(False, "k-fan-crossing-free", "drawing is not simple")
    crossers: dict[Edge, set[Edge]] = {}
    for x in xs:
        crossers.setdefault(x.a, set()).add(x.b)
        crossers.setdefault(x.b, set()).add(x.a)
    for e in sorted(crossers):
        apex_count: dict[str, list[Edge]] = {}
        for f in crossers[e]:
            for z in f:
                apex_count.setdefault(z, []).append(f)
        for z in sorted(apex_count):
            fan = apex_count[z]
            if len(fan) > k - 1:
                return Verdict(
                    False, "k-fan-crossing-free",
                    f"edge {edge_key(e)} is crossed by {len(fan)} >= {k} "
                    f"edges incident to {z}",
                    {"edge": edge_key(e), "apex": z,
                     "fan": sorted(edge_key(f) for f in fan)})
    return Verdict(True, "k-fan-crossing-free")


# ---------------------------------------------------------------------------
# Fan family
# ---------------------------------------------------------------------------

def _crossers_by_edge(xs: tuple[Crossing, ...]
                      ) -> dict[Edge, list[Crossing]]:
    out: dict[Edge, list[Crossing]] = {}
    for x in xs:
        out.setdefault(x.a, []).append(x)
        out.setdefault(x.b, []).append(x)
    return out


ScaledCurves = tuple[int, Callable[[Edge], list[IntPoint]]]


def _scaled_curves(drawing: Drawing) -> ScaledCurves:
    """The drawing's scale, the LCM of its coordinates' denominators, and
    a function from an edge to its polyline's points times the scale as
    integer pairs, each edge's built once."""
    # the distinct denominators only, so lcm's argument tuple stays short
    scale = math.lcm(*{c.denominator for points in (
        drawing.positions.values(), *drawing.curves.values())
        for p in points for c in p})
    scaled: dict[Edge, list[IntPoint]] = {}

    def polyline(e: Edge) -> list[IntPoint]:
        if e not in scaled:
            scaled[e] = [(x.numerator * (scale // x.denominator),
                          y.numerator * (scale // y.denominator))
                         for x, y in drawing.polyline(e)]
        return scaled[e]
    return scale, polyline


def _fan(concept: str, level: int, drawing: Drawing,
         xs: tuple[Crossing, ...], k: int) -> Verdict:
    """A simple drawing in which the edges crossing any one edge e are
    pairwise adjacent (level 0, adjacency-crossing), share a common anchor
    vertex (level 1, fan-crossing), for some anchor all cross e from the
    same side (level 2, weak fan-planar), and for that anchor no fan region
    traps an endpoint of e (level 3, strong fan-planar).

    The level-3 test gives each crossing on e one even-odd bit per endpoint
    of e and compares bits instead of building a region per pair of
    crossers (``_enclosure_failure``): O(len(e) + sum of tail lengths +
    c) per edge and anchor for c crossings on e."""
    if not is_simple(xs):
        return Verdict(False, concept, "drawing is not simple")
    curves = None   # the scaled curves, built for the first level-3 test
    for e, crossings in sorted(_crossers_by_edge(xs).items()):
        if len(crossings) <= 1:
            continue
        if level == 0:
            for x1, x2 in combinations(crossings, 2):
                f1, f2 = x1.other(e), x2.other(e)
                if not set(f1) & set(f2):
                    return Verdict(
                        False, concept,
                        f"edges {edge_key(f1)} and {edge_key(f2)} cross "
                        f"{edge_key(e)} but share no vertex",
                        {"edge": edge_key(e),
                         "crossers": [edge_key(f1), edge_key(f2)]})
            continue
        # in a simple drawing no crosser touches e, so every vertex that
        # all crossers share is an anchor candidate
        anchors = sorted(set.intersection(*(set(x.other(e))
                                            for x in crossings)))
        if not anchors:
            fans = sorted(edge_key(x.other(e)) for x in crossings)
            return Verdict(False, concept,
                           f"edges crossing {edge_key(e)} have no common vertex",
                           {"edge": edge_key(e), "crossers": fans})
        if level == 1:
            continue
        ok_anchor = None
        last_reason: tuple[str, dict] | None = None
        for v in anchors:
            # the side f crosses e from, f running toward v: the crossing's
            # turn, flipped when e is its b and when f runs backward
            sides = {x.turn * (1 if x.a == e else -1)
                     * (1 if x.other(e)[1] == v else -1) for x in crossings}
            if len(sides) > 1:
                last_reason = (
                    f"crossings of {edge_key(e)} approach anchor {v} from "
                    f"both sides", {"edge": edge_key(e), "anchor": v})
                continue
            if level == 3:
                if curves is None:
                    curves = _scaled_curves(drawing)
                trapped = _enclosure_failure(curves, e, crossings, v)
                if trapped is not None:
                    last_reason = trapped
                    continue
            ok_anchor = v
            break
        if ok_anchor is None:
            reason, witness = last_reason  # at least one anchor was tried
            return Verdict(False, concept, reason, witness)
    return Verdict(True, concept)


def _enclosure_failure(curves: ScaledCurves, e: Edge,
                       crossings: list[Crossing],
                       anchor: str) -> tuple[str, dict] | None:
    """sfp condition: for each pair of crossers, the closed curve formed by
    the piece of e between the two crossing points and the two crosser
    curves up to the anchor must not strictly enclose an endpoint of e.

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
    for x in crossings:
        f = x.other(e)
        seg, seg_f = (x.seg_a, x.seg_b) if x.a == e else (x.seg_b, x.seg_a)
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
    u, fi, fj = e[k], crossings[i].other(e), crossings[j].other(e)
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

def _k_edge_crossing(drawing: Drawing, xs: tuple[Crossing, ...],
                     k: int) -> Verdict:
    """At most k edges are involved in crossings."""
    crossed = {x.a for x in xs} | {x.b for x in xs}
    if len(crossed) > k:
        return Verdict(False, "k-edge-crossing",
                       f"{len(crossed)} > {k} edges are crossed",
                       {"crossed_edges": sorted(edge_key(e) for e in crossed)})
    return Verdict(True, "k-edge-crossing")


def _alternating_bfs(xs: tuple[Crossing, ...], charged: dict[Edge, list[int]],
                     sources: list[int], k: int) -> tuple[Edge | None, dict]:
    """Breadth-first search from the edges of the crossings in sources, from
    each edge over the crossings charged to it to their other edges: the
    first edge with fewer than k charges (or None) and the parent map."""
    parent = dict.fromkeys(e for i in sources for e in (xs[i].a, xs[i].b))
    queue = deque(parent)
    while queue:
        e = queue.popleft()
        if len(charged[e]) < k:
            return e, parent
        for j in charged[e]:
            f = xs[j].other(e)
            if f not in parent:
                parent[f] = (e, j)
                queue.append(f)
    return None, parent


def _k_gap_planar(drawing: Drawing, xs: tuple[Crossing, ...],
                  k: int) -> Verdict:
    """Each crossing can be charged to one of its two edges so that every
    edge is charged at most k times.  Decided by augmenting paths; on failure
    the witness is the set E_R of edges reached by alternating paths from the
    uncharged crossings (one set for every maximum charging), whose internal
    crossings exceed k|E_R|."""
    if not xs:
        return Verdict(True, "k-gap-planar")
    charged: dict[Edge, list[int]] = defaultdict(list)
    uncharged: list[int] = []
    for i in range(len(xs)):
        e, parent = _alternating_bfs(xs, charged, [i], k)
        if e is None:
            uncharged.append(i)
            continue
        while parent[e] is not None:
            prev, j = parent[e]
            charged[prev].remove(j)
            charged[e].append(j)
            e = prev
        charged[e].append(i)
    if not uncharged:
        owner = {j: e for e, held in charged.items() for j in held}
        return Verdict(True, "k-gap-planar", witness={"assignment": {
            str(i): edge_key(owner[i]) for i in range(len(xs))}})
    reach = _alternating_bfs(xs, charged, uncharged, k)[1]
    internal = sum(x.a in reach and x.b in reach for x in xs)
    return Verdict(False, "k-gap-planar",
                   f"{internal} crossings among {len(reach)} edges exceed "
                   f"capacity {k}*{len(reach)}",
                   {"edges": [edge_key(e) for e in sorted(reach)],
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


def _k_apex(drawing: Drawing, xs: tuple[Crossing, ...], k: int) -> Verdict:
    """Some set of at most k vertices meets every crossing (deleting them
    leaves a crossing-free drawing)."""
    sets = [frozenset(_crossing_vertices(x)) for x in xs]
    hit = _hitting_set(sets, k)
    if hit is None:
        return Verdict(False, "k-apex",
                       f"no {k} vertices cover all {len(xs)} crossings",
                       {"crossings": [_xjson(x) for x in xs]})
    return Verdict(True, "k-apex", witness={"apices": sorted(hit)})


def _skewness(drawing: Drawing, xs: tuple[Crossing, ...], k: int) -> Verdict:
    """Some set of at most k edges meets every crossing (deleting them
    leaves a crossing-free drawing)."""
    sets = [frozenset({x.a, x.b}) for x in xs]
    hit = _hitting_set(sets, k)
    if hit is None:
        return Verdict(False, "skewness",
                       f"no {k} edges cover all {len(xs)} crossings",
                       {"crossings": [_xjson(x) for x in xs]})
    return Verdict(True, "skewness",
                   witness={"removed": sorted(edge_key(e) for e in hit)})


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

_CHECKERS = {
    "k-planar": _k_planar,
    "k-vertex-planar": _k_vertex_planar,
    "ic": partial(_shared_endpoints, "ic", 0, False),
    "nic": partial(_shared_endpoints, "nic", 1, False),
    "nnic": partial(_shared_endpoints, "nnic", 2, True),
    "k-fan-crossing-free": _k_fan_crossing_free,
    "adjacency-crossing": partial(_fan, "adjacency-crossing", 0),
    "fan-crossing": partial(_fan, "fan-crossing", 1),
    "weak-fan-planar": partial(_fan, "weak-fan-planar", 2),
    "strong-fan-planar": partial(_fan, "strong-fan-planar", 3),
    "k-edge-crossing": _k_edge_crossing,
    "k-gap-planar": _k_gap_planar,
    "k-apex": _k_apex,
    "skewness": _skewness,
}


def check_concept(drawing: Drawing, concept: "str | ConceptId",
                  k: int | None = None, *,
                  xs: tuple[Crossing, ...] | None = None) -> Verdict:
    """Check a drawing against a concept.  ``xs``, when given, are the
    drawing's crossings as ``compute_crossings`` returns them; otherwise
    they are computed here."""
    cid = as_concept(concept, k)
    if xs is None:
        xs = compute_crossings(drawing)
    return _CHECKERS[cid.kind](drawing, xs, structural_k(cid))
