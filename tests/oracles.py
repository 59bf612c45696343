"""Independent reference implementations used to pin down expected values.

Everything here is deliberately written from scratch with the dumbest
correct algorithm available (solve the 2x2 system, enumerate all subsets,
walk the full product space) so the tests compare two genuinely different
routes to the same answer.
"""

from fractions import Fraction
from itertools import combinations, product


def segments(drawing, e):
    """The (start, end) point pairs of e's curve, from its smaller end."""
    poly = drawing.polyline(e)
    return list(zip(poly, poly[1:]))


# ---------------------------------------------------------------------------
# Segment intersection by solving p + t*(q-p) = r + u*(s-r) exactly.
# ---------------------------------------------------------------------------

def solve_segments(p, q, r, s):
    """Classify the meet of segments pq and rs.

    Returns one of:
      ("none", None)
      ("proper", (point, t, u))    -- interior/interior, 0 < t,u < 1
      ("touch", point)             -- a single shared point, not proper
      ("overlap", None)            -- collinear, sharing more than a point
    """
    dx1, dy1 = q[0] - p[0], q[1] - p[1]
    dx2, dy2 = s[0] - r[0], s[1] - r[1]
    ex, ey = r[0] - p[0], r[1] - p[1]
    den = dx1 * dy2 - dy1 * dx2
    if den != 0:
        t = Fraction(ex * dy2 - ey * dx2, den)
        u = Fraction(ex * dy1 - ey * dx1, den)
        if not (0 <= t <= 1 and 0 <= u <= 1):
            return ("none", None)
        pt = (p[0] + t * dx1, p[1] + t * dy1)
        if 0 < t < 1 and 0 < u < 1:
            return ("proper", (pt, t, u))
        return ("touch", pt)
    # Parallel.  Not collinear -> disjoint.
    if ex * dy1 - ey * dx1 != 0:
        return ("none", None)
    # Collinear: compare parameter intervals of r and s along pq.
    if dx1 == 0 and dy1 == 0:
        # pq is a single point
        if (r[0] - p[0]) * (s[1] - p[1]) == (r[1] - p[1]) * (s[0] - p[0]):
            lo = min(r, s)
            hi = max(r, s)
            if lo <= p <= hi:
                return ("touch", p)
        return ("none", None)
    axis = 0 if dx1 != 0 else 1
    d = (dx1, dy1)[axis]
    tr = Fraction(r[axis] - p[axis], d)
    ts = Fraction(s[axis] - p[axis], d)
    lo, hi = min(tr, ts), max(tr, ts)
    lo, hi = max(lo, Fraction(0)), min(hi, Fraction(1))
    if lo > hi:
        return ("none", None)
    if lo == hi:
        pt = (p[0] + lo * dx1, p[1] + lo * dy1)
        return ("touch", pt)
    return ("overlap", None)


def bbox_disjoint(a, b, c, d):
    """True if the bounding boxes of segments ab and cd are disjoint."""
    return (
        max(a[0], b[0]) < min(c[0], d[0])
        or max(c[0], d[0]) < min(a[0], b[0])
        or max(a[1], b[1]) < min(c[1], d[1])
        or max(c[1], d[1]) < min(a[1], b[1])
    )


def octagon_disjoint(a, b, c, d):
    """True if segments ab and cd are apart along x, y, x + y or x - y:
    their bounding octagons are disjoint."""
    for f in (lambda p: p[0], lambda p: p[1], lambda p: p[0] + p[1],
              lambda p: p[0] - p[1]):
        lo1, hi1 = sorted((f(a), f(b)))
        lo2, hi2 = sorted((f(c), f(d)))
        if hi1 < lo2 or hi2 < lo1:
            return True
    return False


def brute_crossing_points(drawing):
    """All proper inter-edge crossing points via the 2x2 solver.

    Returns a sorted list of (edge_a, edge_b, point) with edge_a <= edge_b.
    Revisits every segment pair; knows nothing about the bbox prefilter or
    the shared-endpoint allowances of the production code.
    """
    out = []
    edges = list(drawing.graph.edges)
    for i, e in enumerate(edges):
        segs_e = segments(drawing, e)
        for f in edges[i + 1:]:
            for a1, a2 in segs_e:
                for b1, b2 in segments(drawing, f):
                    kind, payload = solve_segments(a1, a2, b1, b2)
                    if kind == "proper":
                        out.append((e, f, payload[0]))
    return sorted(out)


def first_violation_kind(drawing):
    """Kind of the first general-position violation, or None.

    Walks every pair of segments in (edge, edge, segment, segment) order
    and stops at the first overlap, touch (other than adjacent edges
    meeting at their shared endpoint), crossing through a vertex or bend,
    or crossing at a point an earlier pair already crossed at.
    Consecutive segments of one edge meet at their bend, so of them only
    an overlap (the edge doubling back) counts.  After all pairs, a curve
    through a vertex of no edge is a touch.
    """
    corners = set(drawing.positions.values())
    for bends in drawing.curves.values():
        corners.update(bends)
    seen = set()
    edges = sorted(drawing.graph.edges)
    for i, e in enumerate(edges):
        for f in edges[i:]:
            for si, (a1, a2) in enumerate(segments(drawing, e)):
                for sj, (b1, b2) in enumerate(segments(drawing, f)):
                    if e == f and sj <= si:
                        continue
                    kind, payload = solve_segments(a1, a2, b1, b2)
                    if e == f and sj == si + 1 and kind != "overlap":
                        continue
                    if kind == "overlap":
                        return kind
                    if kind == "touch":
                        shared = set(e) & set(f) if e != f else set()
                        if not any(payload == drawing.positions[v]
                                   and payload in (a1, a2)
                                   and payload in (b1, b2) for v in shared):
                            return kind
                    if kind == "proper":
                        point = payload[0]
                        if point in corners:
                            return "crossing-at-vertex"
                        if point in seen:
                            return "concurrent-crossings"
                        seen.add(point)
    for v in drawing.graph.vertices:
        if not any(v in e for e in edges) and any(
                on_segment_brute(a, b, drawing.positions[v])
                for e in edges for a, b in segments(drawing, e)):
            return "touch"
    return None


# ---------------------------------------------------------------------------
# Point in polygon by explicit ray casting (horizontal ray to +infinity).
# ---------------------------------------------------------------------------

def ray_cast_inside(point, ring):
    """Even-odd containment, counting crossings of a ray y = point.y."""
    px, py = point
    inside = False
    n = len(ring)
    for i in range(n):
        (x1, y1), (x2, y2) = ring[i], ring[(i + 1) % n]
        if (y1 > py) != (y2 > py):
            x_at = x1 + (x2 - x1) * Fraction(py - y1, y2 - y1)
            if x_at > px:
                inside = not inside
    return inside


def winding_number(p, polygon):
    """Exact winding number of the closed chain around p (p off-boundary)."""
    def left_of(a, b):
        return (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])

    wn = 0
    n = len(polygon)
    for i in range(n):
        a, b = polygon[i], polygon[(i + 1) % n]
        if a[1] <= p[1]:
            if b[1] > p[1] and left_of(a, b) > 0:
                wn += 1
        else:
            if b[1] <= p[1] and left_of(a, b) < 0:
                wn -= 1
    return wn


def on_segment_brute(a, b, p):
    """p == a + t·(b - a) for some t in [0, 1], solved exactly for t."""
    if a == b:
        return p == a
    axis = 0 if a[0] != b[0] else 1
    t = Fraction(p[axis] - a[axis]) / (b[axis] - a[axis])
    return 0 <= t <= 1 and p == (a[0] + t * (b[0] - a[0]),
                                 a[1] + t * (b[1] - a[1]))


# ---------------------------------------------------------------------------
# Crossings along one edge, in curve order.
# ---------------------------------------------------------------------------

def ordered_along(xs, e):
    """((segment, t), crossing) for every crossing on e, sorted along e."""
    out = []
    for x in xs:
        if x.a == e:
            out.append((x.pos_a, x))
        if x.b == e:
            out.append((x.pos_b, x))
    out.sort(key=lambda px: px[0])
    return out


def count_on_edge(xs, e):
    """How often the curve of e is crossed (a self-crossing counts twice)."""
    return sum((x.a == e) + (x.b == e) for x in xs)


# The wall edges of the appendix fixture: the drawing never crosses them.
APPENDIX_WALLS = [
    ("A", "m"), ("m", "z"), ("y", "z"), ("n", "y"), ("B", "n"), ("B", "t"),
    ("t", "tp"), ("A", "tp"),
    ("A", "v"), ("B", "v"), ("B", "d"), ("d", "y"), ("c", "z"), ("A", "c"),
    ("c", "m"), ("d", "n"), ("t", "v"), ("tp", "v"),
]


# ---------------------------------------------------------------------------
# Crossing lemma: cr(G) >= m^3 / (64 n^2) once m > 4n.
# ---------------------------------------------------------------------------

def crossing_lemma_bound(n, m):
    """(m^3 / (64 n^2), sparse) — the bound is 0 in the sparse regime.

    The classical constant 1/64 is used.  ``sparse`` is True when m <= 4n,
    where the lemma gives nothing.
    """
    if n <= 0 or m < 0:
        raise ValueError("need n > 0 and m >= 0")
    if m <= 4 * n:
        return Fraction(0), True
    return Fraction(m ** 3, 64 * n ** 2), False


# ---------------------------------------------------------------------------
# Checker reference implementations (straight recounts / exhaustive search).
# ---------------------------------------------------------------------------

def _vertices_of(x):
    return set(x.a) | set(x.b)


def kpl_ok(xs, k):
    counts = {}
    for x in xs:
        counts[x.a] = counts.get(x.a, 0) + 1
        counts[x.b] = counts.get(x.b, 0) + 1
    return all(c <= k for c in counts.values())


def kvp_ok(xs, k):
    counts = {}
    for x in xs:
        for v in _vertices_of(x):
            counts[v] = counts.get(v, 0) + 1
    return all(c <= k for c in counts.values())


def first_shared_pair(xs, limit):
    """Least (i, j), i < j, whose crossings share more than limit endpoints."""
    for (i, x1), (j, x2) in combinations(enumerate(xs), 2):
        if len(_vertices_of(x1) & _vertices_of(x2)) > limit:
            return (i, j)
    return None


def shared_endpoints_ok(xs, limit):
    return first_shared_pair(xs, limit) is None


def simple_ok(xs):
    pairs = {}
    for x in xs:
        if x.a == x.b or set(x.a) & set(x.b):
            return False
        pairs[(x.a, x.b)] = pairs.get((x.a, x.b), 0) + 1
    return all(c == 1 for c in pairs.values())


def is_simple_brute(xs):
    """No crossing of two edges with a common end (an edge with itself
    included), and no two crossings of one pair of edges, by comparing
    every pair of crossings."""
    if any(set(x.a) & set(x.b) for x in xs):
        return False
    return not any({x.a, x.b} == {y.a, y.b} for x, y in combinations(xs, 2))


def kfcf_ok(xs, k):
    if not simple_ok(xs):
        return False
    crossers = {}
    for x in xs:
        crossers.setdefault(x.a, set()).add(x.b)
        crossers.setdefault(x.b, set()).add(x.a)
    for e, fs in crossers.items():
        for z in {v for f in fs for v in f} - set(e):
            if sum(1 for f in fs if z in f) > k - 1:
                return False
    return True


def ecr_ok(xs, k):
    return len({e for x in xs for e in (x.a, x.b)}) <= k


def gap_ok_brute(xs, k):
    """Try all 2^c charge assignments."""
    xs = list(xs)
    for assign in product((0, 1), repeat=len(xs)):
        load = {}
        feasible = True
        for x, bit in zip(xs, assign):
            e = (x.a, x.b)[bit]
            load[e] = load.get(e, 0) + 1
            if load[e] > k:
                feasible = False
                break
        if feasible:
            return True
    return not xs


def gap_witness_plain(xs, k):
    """The k-gap checker's witness by the plain method, keyed on the edge
    tuples: for every crossing in turn, a breadth-first search over
    alternating paths from its two edges (a, then b) to the first edge
    with fewer than k charges, then the path flipped.  No search is
    skipped, so every shortcut of the checker must give the same witness.
    No crossings give no witness.
    """
    xs = list(xs)
    if not xs:
        return None
    charged = {}

    def search(sources):
        parent = dict.fromkeys(e for i in sources for e in (xs[i].a, xs[i].b))
        queue = list(parent)
        for e in queue:
            held = charged.setdefault(e, [])
            if len(held) < k:
                return e, parent
            for j in held:
                f = xs[j].b if xs[j].a == e else xs[j].a
                if f not in parent:
                    parent[f] = (e, j)
                    queue.append(f)
        return None, parent

    uncharged = []
    for i in range(len(xs)):
        e, parent = search([i])
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
        return {"assignment": {str(i): "|".join(owner[i])
                               for i in range(len(xs))}}
    reach = search(uncharged)[1]
    return {"edges": ["|".join(e) for e in sorted(reach)],
            "internal_crossings": sum(x.a in reach and x.b in reach
                                      for x in xs)}


def apex_ok_brute(xs, k):
    """Try all vertex subsets of size <= k among crossing endpoints."""
    xs = list(xs)
    if not xs:
        return True
    verts = sorted({v for x in xs for v in _vertices_of(x)})
    for size in range(0, k + 1):
        for subset in combinations(verts, size):
            chosen = set(subset)
            if all(_vertices_of(x) & chosen for x in xs):
                return True
    return False


def skew_ok_brute(xs, k):
    """Try all edge subsets of size <= k among crossed edges."""
    xs = list(xs)
    if not xs:
        return True
    edges = sorted({e for x in xs for e in (x.a, x.b)})
    for size in range(0, k + 1):
        for subset in combinations(edges, size):
            chosen = set(subset)
            if all({x.a, x.b} & chosen for x in xs):
                return True
    return False


# ---------------------------------------------------------------------------
# Coverage.  A subdivision is a {connection: path index} dict.
# ---------------------------------------------------------------------------

def entry_covers(entry, sub):
    c1, p1, c2, p2 = entry
    return sub[c1] == p1 and sub[c2] == p2


def product_walk_uncovered(ledger):
    """Every tuple over the ledger's constrained connections that no entry
    covers, in product order: the walk tests each tuple against each entry."""
    cids = ledger.constrained()
    out = []
    for combo in product(*(range(ledger.widths[c]) for c in cids)):
        sub = dict(zip(cids, combo))
        if not any(entry_covers(e, sub) for e in ledger.entries):
            out.append(sub)
    return out


def full_coverage_brute(ledger, fg):
    """Check every subdivision in the full product space is covered.

    Iterates all prod(widths) index tuples and tests them against the
    ledger entries directly; returns the number of uncovered tuples.
    """
    from beyondcr.graph_core import ALL_CONNECTIONS

    widths = [fg.congraphs[c].width for c in ALL_CONNECTIONS]
    uncovered = 0
    for tup in product(*(range(w) for w in widths)):
        sub = dict(zip(ALL_CONNECTIONS, tup))
        if not any(entry_covers(entry, sub) for entry in ledger.entries):
            uncovered += 1
    return uncovered


def subdivision_edges(fg, sub):
    """The subdivision's edges, each mapped to the connection it routes."""
    out = {}
    for cid, idx in sub.items():
        path = fg.congraphs[cid].paths[idx]
        for a, b in zip(path, path[1:]):
            out[(a, b) if a < b else (b, a)] = cid
    return out


def geometric_uncovered(fg, crossings):
    """Every subdivision of the whole family, in product order, in which no
    crossing joins edges on the chosen paths of two connections whose poles
    are disjoint.  Reads only the drawing's crossings and the paths."""
    from beyondcr.graph_core import ALL_CONNECTIONS, connection_poles

    widths = [fg.congraphs[c].width for c in ALL_CONNECTIONS]
    out = []
    for tup in product(*(range(w) for w in widths)):
        sub = dict(zip(ALL_CONNECTIONS, tup))
        route = subdivision_edges(fg, sub)
        if not any(x.a in route and x.b in route
                   and not set(connection_poles(route[x.a]))
                   & set(connection_poles(route[x.b]))
                   for x in crossings):
            out.append(sub)
    return out


def is_frame_subdivision(fg, sub):
    """Structural re-check that the chosen paths form a K_{3,3} subdivision.

    True construction-side by design (pole paths are internally disjoint);
    this verifies it on the actual subgraph: every frame node has degree 3,
    every other vertex degree 2, and each path joins its connection's poles
    without touching any other path internally.
    """
    from beyondcr.graph_core import connection_poles

    if set(sub) != set(fg.congraphs):
        return False
    seen_internal = set()
    for cid, idx in sub.items():
        path = fg.congraphs[cid].paths[idx]
        s, t = connection_poles(cid)
        if path[0] != s or path[-1] != t:
            return False
        inner = set(path[1:-1])
        if inner & seen_internal or len(inner) != len(path) - 2:
            return False
        seen_internal |= inner
    degree = {}
    for u, v in subdivision_edges(fg, sub):
        degree[u] = degree.get(u, 0) + 1
        degree[v] = degree.get(v, 0) + 1
    frame_nodes = {"v1", "v2", "v3", "w1", "w2", "w3"}
    return all(d == (3 if v in frame_nodes else 2) for v, d in degree.items())


# ---------------------------------------------------------------------------
# Weak and strong fan-planarity: sides from the curves' Fraction directions,
# and one explicit ring per pair of crossers.
# ---------------------------------------------------------------------------

def turn_brute(drawing, x):
    """Sign of the cross product of the directions of the segments that
    crossing x lies on, read from the drawing at x.pos_a and x.pos_b."""
    (i, _), (j, _) = x.pos_a, x.pos_b
    (a, b), (c, d) = segments(drawing, x.a)[i], segments(drawing, x.b)[j]
    turn = (b[0] - a[0]) * (d[1] - c[1]) - (b[1] - a[1]) * (d[0] - c[0])
    return (turn > 0) - (turn < 0)


def _locate(poly, point):
    """(segment, t) of the point on the first segment of the polyline that
    holds it."""
    for i, (a, b) in enumerate(zip(poly, poly[1:])):
        if a != b and on_segment_brute(a, b, point):
            axis = 0 if a[0] != b[0] else 1
            return i, Fraction(point[axis] - a[axis]) / (b[axis] - a[axis])
    raise ValueError(f"{point} is not on the curve")


def _fan_failure_brute(drawing, e, crossings, anchor, strong):
    """(reason, witness) of the first failure of anchor for edge e, or None:
    crossers oriented toward the anchor cross e from both sides, or, when
    ``strong``, the ring of a pair of crossers (e between their crossings,
    then both crossers up to the anchor) strictly encloses an endpoint of
    e."""
    from beyondcr.graph_core import edge_key

    poly_e = drawing.polyline(e)
    sides, located = set(), []
    for x in crossings:
        f = x.b if x.a == e else x.a
        poly_f = drawing.polyline(f)
        if anchor == f[0]:
            poly_f = poly_f[::-1]
        i, t = _locate(poly_e, x.point)
        j, _ = _locate(poly_f, x.point)
        (a, b), (c, d) = poly_e[i:i + 2], poly_f[j:j + 2]
        turn = (b[0] - a[0]) * (d[1] - c[1]) - (b[1] - a[1]) * (d[0] - c[0])
        sides.add(turn > 0)
        located.append(((i, t), x, f, [x.point, *poly_f[j + 1:]]))
    ek = edge_key(e)
    if len(sides) > 1:
        return (f"crossings of {ek} approach anchor {anchor} from both sides",
                {"edge": ek, "anchor": anchor})
    if not strong:
        return None
    for ri, rj in combinations(located, 2):
        fi, fj = ri[2], rj[2]
        (lo, x_lo, _, tail_lo), (hi, x_hi, _, tail_hi) = sorted([ri, rj])
        piece = [x_lo.point, *poly_e[lo[0] + 1:hi[0] + 1], x_hi.point]
        # back along the first tail, leaving out the anchor and the point
        # the ring starts at
        ring = piece + tail_hi[1:] + tail_lo[::-1][1:-1]
        n = len(ring)
        for u in e:
            p = drawing.positions[u]
            if any(on_segment_brute(ring[k], ring[(k + 1) % n], p)
                   for k in range(n)):
                continue
            if ray_cast_inside(p, ring):
                return (f"endpoint {u} of {ek} is enclosed by the fan region "
                        f"of {edge_key(fi)} and {edge_key(fj)}",
                        {"edge": ek, "endpoint": u, "anchor": anchor,
                         "crossers": [edge_key(fi), edge_key(fj)]})
    return None


def first_split_pairwise(bits):
    """(i, j, k) of the first pair of crossings, in combinations order, and
    then the first endpoint k, whose even-odd bits are both set and differ;
    None when there is none.  Every pair is compared."""
    for (i, qi), (j, qj) in combinations(enumerate(bits), 2):
        for k, (bi, bj) in enumerate(zip(qi, qj)):
            if bi is not None and bj is not None and bi != bj:
                return (i, j, k)
    return None


def fan_planar_brute(drawing, xs, strong):
    """(ok, reason, witness) of the strong (or weak) fan-planar verdict: a
    simple drawing in which, for every edge e crossed more than once, some
    common vertex of its crossers (tried in name order) passes
    ``_fan_failure_brute``; a failing edge reports its last anchor's
    failure."""
    from beyondcr.graph_core import edge_key

    if not simple_ok(xs):
        return (False, "drawing is not simple", None)
    by_edge = {}
    for x in xs:
        by_edge.setdefault(x.a, []).append(x)
        by_edge.setdefault(x.b, []).append(x)
    for e in sorted(by_edge):
        crossings = by_edge[e]
        if len(crossings) < 2:
            continue
        fans = [x.b if x.a == e else x.a for x in crossings]
        anchors = sorted(set.intersection(*(set(f) for f in fans)) - set(e))
        if not anchors:
            return (False,
                    f"edges crossing {edge_key(e)} have no common vertex",
                    {"edge": edge_key(e),
                     "crossers": sorted(edge_key(f) for f in fans)})
        failures = []
        for v in anchors:
            failure = _fan_failure_brute(drawing, e, crossings, v, strong)
            if failure is None:
                break
            failures.append(failure)
        else:
            return (False, *failures[-1])
    return (True, "", None)
