"""Standard drawings of framework graphs.

Each framework graph has two standard drawings:

  * ``witness``  — realizes the intended large crossing count while still
    satisfying the concept's predicate;
  * ``upper``    — realizes the small crossing count of the designated
    connection pair while violating the predicate.

The global scheme is shared: the six frame nodes go to six poles far apart,
one designated connection is drawn along the vertical axis and the other
along the horizontal axis, and all crossings between different connections
happen in a small box around the origin.  Every other connection is drawn
planar inside a thin corridor around the straight segment between its
poles, by its con-graph's shape; those seven segments are pairwise
non-crossing by construction.

The con-graph shapes also decide each drawing's designated-pair emitter
(a witness whose record has a ``grid_plan`` is an orthogonal grid) and
both drawings' crossing counts.

All coordinates are exact rationals: an ``int`` when integral, such as
every pole, and a ``Fraction`` otherwise, so the crossing engine reads the
integral ones as they are.  Every emitter, corridors and designated pairs
alike, computes a coordinate as one integer numerator over one integer
denominator and divides once, in ``_exact``.  Only the complete-graph gadget used by the
fan-family concepts needs bends; every other standard drawing is
straight-line.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Literal, Mapping

from .drawing import Drawing
from .geometry import Coord, IntPoint, Point, lean, orient
from .graph_core import (ALL_CONNECTIONS, DESIGNATED, ApexBlue, Bundle,
                         ConceptId, ConGraph, ConGraphSpec, FrameworkGraph,
                         K7, SkewBlue, connection_poles, connection_specs,
                         edge, make_graph)

LayoutVariant = Literal["witness", "upper"]

R = 300  # half-side of the central interaction box


def _exact(num: int, den: int) -> Coord:
    """num / den for den > 0: an int when den divides num, else a
    Fraction."""
    return num // den if num % den == 0 else Fraction(num, den)


def _affine(A: IntPoint, d: IntPoint, a: int, m: int, den: int) -> Point:
    """A + (a·d + m·rot90(d)) / den, all integers: each coordinate one
    division, an int when den divides it and one Fraction otherwise,
    instead of a chain of normalising Fraction operations."""
    (ax, ay), (dx, dy) = A, d
    return (_exact(ax * den + dx * a - dy * m, den),
            _exact(ay * den + dy * a + dx * m, den))


# ---------------------------------------------------------------------------
# Crossing-count formulas for the standard drawings
# ---------------------------------------------------------------------------

def crossing_count_formula(concept: "str | ConceptId", ell: int,
                           k: int | None = None,
                           variant: LayoutVariant = "witness") -> int:
    """Exact number of crossings of the standard drawing: each strand of
    one designated con-graph crosses each of the other's once, each
    con-graph adds its own crossings, and no other connections cross.
    The public one-call form of ``crossing_count_of(connection_specs(...))``.
    """
    return crossing_count_of(connection_specs(concept, ell, k), variant)


def crossing_count_of(specs: Mapping[str, ConGraphSpec],
                      variant: LayoutVariant) -> int:
    """``crossing_count_formula`` for the connections' specs."""
    if variant not in ("witness", "upper"):
        raise ValueError(f"unknown drawing variant {variant!r}")
    v, h = (specs[cid] for cid in DESIGNATED[variant])
    return _strands(v) * _strands(h) + sum(map(_own_crossings,
                                               specs.values()))


def _strands(spec: ConGraphSpec) -> int:
    """Strands of a designated con-graph through the central box: its pole
    paths, plus a bundle's direct pole edge."""
    return spec.width + (isinstance(spec, Bundle) and spec.direct)


def _own_crossings(spec: ConGraphSpec) -> int:
    """Crossings inside one con-graph's drawing: the 9 of the K7 gadget,
    and one per anchor (K5 blob or w-triangle) of the stripes."""
    if isinstance(spec, K7):
        return 9
    return spec.k if isinstance(spec, (ApexBlue, SkewBlue)) else 0


# ---------------------------------------------------------------------------
# The complete-graph gadget on 7 vertices
# ---------------------------------------------------------------------------
#
# Local coordinates: poles s=(0,-40), t=(0,40), convex pentagon q1..q5.
# Drawn with 9 crossings: the 5 pentagon-diagonal crossings plus s-q2 x t-q1,
# s-q3 x t-q1, s-q3 x t-q2, s-q4 x t-q5.  The horizontal slice y=0 meets
# exactly the six edges at s, one point per pole path, and nothing else.

_K7_LOCAL = {
    "s": (0, -40), "t": (0, 40),
    "q1": (5, 6), "q2": (6, 14), "q3": (0, 17), "q4": (-6, 14), "q5": (-5, 6),
}

_K7_BENDS = {
    ("s", "q2"): [(9, 9)],
    ("s", "q3"): [(16, 5), (8, 24)],
    ("s", "q4"): [(-9, 9)],
    ("s", "t"): [(-30, 2)],
    ("t", "q1"): [(10, 8)],
    ("t", "q5"): [(-10, 8)],
}


def _place_k7(cg: ConGraph, s_name: str, t_name: str,
              mapfn: Callable[[int, int], Point],
              positions: dict, curves: dict) -> None:
    names = {"s": s_name, "t": t_name}
    for idx, q in enumerate(cg.internals):
        names[f"q{idx + 1}"] = q
    for local, (x, y) in _K7_LOCAL.items():
        positions[names[local]] = mapfn(x, y)
    for (la, lb), bends in _K7_BENDS.items():
        u, v = names[la], names[lb]
        e = edge(u, v)
        path = [mapfn(x, y) for x, y in bends]
        if (u, v) != e:  # canonical orientation runs v -> u here
            path.reverse()
        curves[e] = tuple(path)


# ---------------------------------------------------------------------------
# Corridors for undesignated connections
# ---------------------------------------------------------------------------

def _corridor_bundle(cg: ConGraph, A: IntPoint, B: IntPoint,
                     positions: dict) -> None:
    """Planar nested drawing of a bundle between integer poles A and B.

    Vertex q of path p sits at A + d·q/j + rot90(d)·(p+1)/(300n), with
    d = B - A, so middle segments are parallel and the end segments fan out
    of the poles.  A direct pole edge, if any, stays on the segment itself.
    """
    d = (B[0] - A[0], B[1] - A[1])
    n300 = 300 * len(cg.paths)
    for p_idx, path in enumerate(cg.paths):
        j = len(path) - 1
        if j < 2:
            continue  # single edge: straight, nothing to place
        for q in range(1, j):
            positions[path[q]] = _affine(A, d, q * n300, (p_idx + 1) * j,
                                         n300 * j)


def _corridor_k7(cg: ConGraph, A: IntPoint, B: IntPoint,
                 positions: dict, curves: dict) -> None:
    d = (B[0] - A[0], B[1] - A[1])

    def mapfn(x: int, y: int) -> Point:
        # A + d·(y+40)/80 + rot90(d)·x/6000
        return _affine(A, d, (y + 40) * 75, x, 6000)

    _place_k7(cg, cg.s, cg.t, mapfn, positions, curves)


def _by_anchor(cg: ConGraph) -> list[tuple[str, list[tuple[str, ...]]]]:
    """The anchors a_i of an apex or skew con-graph in name order (a10
    before a2), each with the pole paths through it."""
    paths: dict[str, list] = {}
    for path in cg.paths:
        paths.setdefault(path[2], []).append(path)
    return sorted(paths.items())


# K5 blob offsets of q0..q3 in fifths: (4, 0), (2, 4), (9/5, 1), (11/5, 2)
_K5_BLOB = ((20, 0), (10, 20), (9, 5), (11, 10))


def _corridor_stripes(cg: ConGraph, A: IntPoint, B: IntPoint,
                      positions: dict, ell: int, kk: int) -> None:
    """Apex or skew con-graph between integer poles A and B, one parallel
    stripe per anchor, with exactly one internal crossing per anchor (K5
    blob or w-triangle)."""
    # Every position is A + d·alpha + rot90(d)·mu with d = B - A and alpha,
    # mu multiples of 1/den.
    cap = 10000 * (ell + 2)           # stripe spacing 1/(40(kk+1)), over den
    den = 40 * (kk + 1) * cap
    d = (B[0] - A[0], B[1] - A[1])

    def pos(alpha: int, mu: int) -> Point:
        return _affine(A, d, alpha, mu, den)

    for i, (a, paths) in enumerate(_by_anchor(cg)):
        mu_i = (i + 1) * cap
        positions[a] = pos(den // 2, mu_i)
        if isinstance(cg.spec, ApexBlue):
            delta = cap // (4 * (ell + 2))
            for jj, path in enumerate(paths):
                mu = mu_i + (jj + 1) * delta
                positions[path[1]] = pos(7 * den // 16, mu)
                positions[path[3]] = pos(9 * den // 16, mu)
            for r, (bx, by) in enumerate(_K5_BLOB):
                # alpha 1/2 + bx/5000, mu mu_i - by/(100·40(kk+1))
                positions[f"{a}/q{r}"] = pos(den // 2 + bx * den // 5000,
                                             mu_i - by * cap // 100)
        else:  # SkewBlue: w-triangle with one crossing a-w1 x w2-w3
            delta = cap // 100
            positions[f"{a}/w1"] = pos(28 * den // 64, mu_i + delta)
            positions[f"{a}/w2"] = pos(28 * den // 64, mu_i + 2 * delta)
            positions[f"{a}/w3"] = pos(29 * den // 64, mu_i + delta // 2)


# ---------------------------------------------------------------------------
# Designated-pair emitters: witness drawings
# ---------------------------------------------------------------------------

def _grid_witness(vcg: ConGraph, hcg: ConGraph, plan: list[int],
                  positions: dict) -> None:
    """Orthogonal grid: vertical strands at distinct columns, horizontal
    strands at distinct rows.  plan[q] is the number of opposing strands
    crossed by edge q of every path; the first/last entries are carried by
    the pole-side edges."""
    j = len(plan)
    width = len(vcg.paths)
    assert sum(plan) == width, "plan must distribute all opposing strands"
    # Strand u of the m crossing edge q lies at R - R(2q+1)/j less its
    # offset (2u+1-m)·sigma/2 in that cluster, sigma = R/(2j·max(plan)),
    # kept as a numerator over den; each column is minus its row.
    m4 = 4 * max(plan)
    den = j * m4
    rows: list[int] = []            # descending, grouped by V edge index
    for q, m in enumerate(plan):
        centre = R * (den - (2 * q + 1) * m4)
        for u in range(m):
            rows.append(centre - R * (2 * u + 1 - m))

    bands = [_exact(R * j - 2 * R * q, j) for q in range(j + 1)]
    for p, path in enumerate(vcg.paths):
        x = _exact(-rows[p], den)
        for q in range(1, j):
            positions[path[q]] = (x, bands[q])
    neg_bands = [-b for b in bands]
    for r, path in enumerate(hcg.paths):
        y = _exact(rows[r], den)
        for q in range(1, j):
            positions[path[q]] = (neg_bands[q], y)


def _pole_fan(vcg: ConGraph, hcg: ConGraph, positions: dict) -> None:
    """Both bundles are (i,2); the long edges toward the far poles cross
    pairwise.  The crossings of every long edge share the opposite pole."""
    iv, ih = len(vcg.paths), len(hcg.paths)
    for p, path in enumerate(vcg.paths):
        positions[path[1]] = (_exact(100 * (2 * p + 1) - 400 * iv, 2 * iv),
                              -150)
    for r, path in enumerate(hcg.paths):
        positions[path[1]] = (-250,
                              _exact(200 * ih + 100 * (2 * r + 1), 2 * ih))


def _gap_witness(vcg: ConGraph, hcg: ConGraph, positions: dict,
                 D: int, kk: int) -> None:
    """Blue (5k,2) strands cross the horizontal (lk,5) strands so that each
    of the five edges of every horizontal path is crossed exactly k times."""
    # the four inner columns at c·D/(D+350), and the strands in five groups
    # of kk, centred at 120·group - 240 and 40/kk apart
    bounds = [_exact(c * D, D + 350) for c in (-180, -60, 60, 180)]
    for p, path in enumerate(vcg.paths):
        group, idx = divmod(p, kk)
        positions[path[1]] = (_exact((120 * group - 240) * kk
                                     + 20 * (2 * idx + 1 - kk), kk), -350)
    ih = len(hcg.paths)
    for r, path in enumerate(hcg.paths):
        y = _exact(20 * (2 * r + 1) - 20 * ih, 2 * ih)
        for q in range(1, 5):
            positions[path[q]] = (bounds[q - 1], y)


def _stripe_x(i: int, kk: int) -> int:
    """x of anchor i's stripe in the apex and skew witnesses, over kk+1."""
    return 600 * (i + 1) - 300 * (kk + 1)


def _apex_witness(vcg: ConGraph, hcg: ConGraph, positions: dict,
                  ell: int, kk: int) -> None:
    # each stripe's pole paths run (jj+1)·150/((kk+1)(ell+2)) right of it
    den = (kk + 1) * (ell + 2)
    for i, (a, paths) in enumerate(_by_anchor(vcg)):
        lam = _stripe_x(i, kk)
        positions[a] = (_exact(lam, kk + 1), 0)
        for jj, path in enumerate(paths):
            x = _exact(lam * (ell + 2) + 150 * (jj + 1), den)
            positions[path[1]] = (x, 150)   # upper internal
            positions[path[3]] = (x, -150)  # lower internal
        for r, (bx, by) in enumerate(_K5_BLOB):
            positions[f"{a}/q{r}"] = (_exact(lam - bx * (kk + 1), kk + 1),
                                      -by)
    ih = len(hcg.paths)
    for r, path in enumerate(hcg.paths):
        h = _exact(60 * ih + 90 * (2 * r + 1), 2 * ih)
        positions[path[1]] = (420, h)


def _skew_witness(vcg: ConGraph, hcg: ConGraph, positions: dict,
                  D: int, kk: int) -> None:
    w_local = {"w1": (16, 9), "w2": (16, -7), "w3": (-9, 1)}
    for i, (a, _) in enumerate(_by_anchor(vcg)):
        lam = _stripe_x(i, kk)
        positions[a] = (_exact(lam, kk + 1), 0)
        # w = a + (d·2ux + rot90(d)·2uy)/D with d = t - a = (-x, -D), x the
        # anchor's; measured from t = (0, -D) and with d scaled by kk+1,
        # which makes it (-lam, -D(kk+1)), to integers
        d = (-lam, -D * (kk + 1))
        for suffix, (ux, uy) in w_local.items():
            positions[f"{a}/{suffix}"] = _affine(
                (0, -D), d, 2 * ux - D, 2 * uy, D * (kk + 1))
    ih = len(hcg.paths)
    for r, path in enumerate(hcg.paths):
        h = _exact(160 * ih + 220 * (2 * r + 1), 2 * ih)
        positions[path[1]] = (420, -h)


# ---------------------------------------------------------------------------
# Designated-pair emitters: upper drawings
# ---------------------------------------------------------------------------

def _ry_upper(vcg: ConGraph, positions: dict) -> None:
    """Vertical bundle whose long edges all cross the horizontal single
    edge; a direct pole edge crosses it at the origin instead."""
    if vcg.spec.direct:
        positions[vcg.paths[0][1]] = (100, 150)
        return
    i = len(vcg.paths)
    for p, path in enumerate(vcg.paths):
        positions[path[1]] = (_exact(300 * (2 * p + 1) - 300 * i, 2 * i),
                              150)


def _fan_upper(vcg: ConGraph, positions: dict, curves: dict, D: int) -> None:
    """The complete-graph gadget spanning the vertical axis; the horizontal
    single edge runs along y=0 and crosses exactly the six pole paths."""

    def mapfn(x: int, y: int) -> Point:
        return (8 * x, _exact(y * D, 40))

    # the gadget's bottom pole is the w-node (drawn at (0,-D))
    _place_k7(vcg, vcg.t, vcg.s, mapfn, positions, curves)


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------

def draw_framework(fg: FrameworkGraph, variant: LayoutVariant) -> Drawing:
    """Standard drawing of a framework graph (witness or upper)."""
    if variant not in ("witness", "upper"):
        raise ValueError(f"unknown drawing variant {variant!r}")
    D = 5000 * (fg.ell + fg.k + 2)  # pole distance
    vcid, hcid = DESIGNATED[variant]
    vv, vw = connection_poles(vcid)
    hv, hw = connection_poles(hcid)
    poles = {vv: (0, D), vw: (0, -D), hv: (-D, 0), hw: (D, 0),
             "v3": (4 * D, -2 * D), "w3": (-2 * D, 4 * D)}
    positions: dict[str, Point] = dict(poles)
    curves: dict = {}

    for cid in ALL_CONNECTIONS:
        if cid in (vcid, hcid):
            continue
        cg = fg.congraphs[cid]
        A, B = poles[cg.s], poles[cg.t]
        if isinstance(cg.spec, K7):
            _corridor_k7(cg, A, B, positions, curves)
        elif isinstance(cg.spec, Bundle):
            _corridor_bundle(cg, A, B, positions)
        else:
            _corridor_stripes(cg, A, B, positions, fg.ell, fg.k)

    # the designated pair's emitter, picked by its shapes; first match wins,
    # as every pair above the last two branches has internal vertices too
    vcg, hcg = fg.congraphs[vcid], fg.congraphs[hcid]
    plan = fg.concept.info.grid_plan
    if variant == "witness" and plan:
        _grid_witness(vcg, hcg, plan(fg.ell, fg.k), positions)
    elif isinstance(vcg.spec, K7):
        _fan_upper(vcg, positions, curves, D)
    elif isinstance(vcg.spec, ApexBlue):
        _apex_witness(vcg, hcg, positions, fg.ell, fg.k)
    elif isinstance(vcg.spec, SkewBlue):
        _skew_witness(vcg, hcg, positions, D, fg.k)
    elif isinstance(hcg.spec, Bundle) and hcg.spec.j > 2:
        _gap_witness(vcg, hcg, positions, D, fg.k)
    elif hcg.internals:
        _pole_fan(vcg, hcg, positions)
    elif vcg.internals:
        _ry_upper(vcg, positions)
    # else both are single edges, which already cross at the origin
    meta = {"concept": fg.concept.kind, "ell": fg.ell, "k": fg.concept.k,
            "variant": variant}
    return Drawing(fg.graph, positions, curves, meta=meta)


def frame_edge_colors(fg: FrameworkGraph) -> dict:
    """Edge -> frame color of its connection, for rendering."""
    colors = fg.colors
    return {e: colors[cid] for cid, cg in fg.congraphs.items()
            for e in cg.edges}


# ---------------------------------------------------------------------------
# Fixed drawings: the wall-and-blob fixture and the one-crossing K5
# ---------------------------------------------------------------------------

_FIX_LARGE = {
    "A": (0, 12), "m": (9, 9), "z": (12, 0), "y": (9, -9), "n": (0, -12),
    "B": (-9, -9), "t": (-12, 0), "tp": (-9, 9),
    "v": (-4, 0), "c": (4, 4), "d": (0, -8),
}

_FIX_WALLS = [
    ("A", "m"), ("m", "z"), ("z", "y"), ("y", "n"), ("n", "B"), ("B", "t"),
    ("t", "tp"), ("tp", "A"),
    ("A", "v"), ("v", "B"), ("B", "d"), ("d", "y"), ("z", "c"), ("c", "A"),
    ("c", "m"), ("d", "n"), ("v", "t"), ("v", "tp"),
]

# Loner edges: (u, v, bends listed from u to v).
_FIX_LONERS = [
    ("A", "B", [(-20, 12), (-20, -12)]),
    ("y", "t", [(2, -17), (-17, -8)]),
    ("z", "tp", [(14, 8), (2, 17), (-17, 8)]),
    ("v", "c", []),
    ("v", "d", []),
    ("A", "y", []),
    ("B", "z", []),
]

# Blob side per wall: an anchor vertex of the face the blob sits in, or
# "out" for the octagon walls whose blob goes to the unbounded face.
_FIX_BLOB_SIDE = {
    ("A", "m"): "out", ("m", "z"): "out", ("z", "y"): "out",
    ("y", "n"): "out", ("n", "B"): "out", ("B", "t"): "out",
    ("t", "tp"): "out", ("tp", "A"): "out",
    ("A", "v"): "tp", ("v", "B"): "t", ("B", "d"): "n", ("d", "y"): "n",
    ("z", "c"): "m", ("c", "A"): "m", ("c", "m"): "z", ("d", "n"): "y",
    ("v", "t"): "tp", ("v", "tp"): "A",
}

_BLOB_H = Fraction(7, 20)
_BLOB_LOCAL = {
    "x": (Fraction(1, 2), 3 * _BLOB_H),
    "y": (Fraction(1, 2), _BLOB_H),
    "z": (Fraction(3, 10), _BLOB_H / 4),
}
_BLOB_SCALE = Fraction(1, 20)


def _blob_points(U: Point, V: Point, side: int) -> dict[str, Point]:
    """U + (V-U)·px + rot90(V-U)·py·side/20 for each local blob point."""
    (ux, uy), (dx, dy) = U, (V[0] - U[0], V[1] - U[1])
    s = _BLOB_SCALE * side
    return {name: (lean(ux + dx * px - dy * py * s),
                   lean(uy + dy * px + dx * py * s))
            for name, (px, py) in _BLOB_LOCAL.items()}


def appendix_fcf_fixture():
    """A fixed 65-vertex drawing: planar wall skeleton, 7 polyline loner
    edges and one 5-clique blob per wall.  Exactly 23 crossings; every
    crossing pair of its fan-crossing-free check is disjoint, while two
    crossing pairs share three endpoints."""
    positions: dict[str, Point] = dict(_FIX_LARGE)
    vertices = list(_FIX_LARGE)
    edges = []
    curves: dict = {}

    for u, v in _FIX_WALLS:
        edges.append(edge(u, v))
    for u, v, bends in _FIX_LONERS:
        e = edge(u, v)
        edges.append(e)
        if bends:
            path = list(bends)
            if (u, v) != e:
                path.reverse()
            curves[e] = tuple(path)

    for u, v in _FIX_WALLS:
        U, V = positions[u], positions[v]
        anchor = _FIX_BLOB_SIDE[(u, v)]
        # "out": the opposite side from the origin
        if anchor == "out":
            o = -orient(U, V, (0, 0))
        else:
            o = orient(U, V, positions[anchor])
        if o == 0:
            raise ValueError("degenerate blob side")
        side = 1 if o > 0 else -1
        pts = _blob_points(U, V, side)
        names = {}
        for local in ("x", "y", "z"):
            nm = f"{u}-{v}/{local}"
            names[local] = nm
            vertices.append(nm)
            positions[nm] = pts[local]
        blob_vs = [u, v, names["x"], names["y"], names["z"]]
        for a in range(len(blob_vs)):
            for b in range(a + 1, len(blob_vs)):
                e = edge(blob_vs[a], blob_vs[b])
                if e not in edges:
                    edges.append(e)

    graph = make_graph(vertices, edges)
    drawing = Drawing(graph, positions, curves,
                      meta={"fixture": "appendix-fcf"})
    return graph, drawing


def k5_fcf_fixture() -> Drawing:
    """A 5-clique drawn with exactly one crossing; the smallest fixture on
    which the fan-crossing-free checker has something to do."""
    positions: dict[str, Point] = {"u": (0, 0), "v": (1, 0)}
    for name, p in _BLOB_LOCAL.items():
        positions[name] = p
    vs = ["u", "v", "x", "y", "z"]
    edges = [edge(a, b) for i, a in enumerate(vs) for b in vs[i + 1:]]
    graph = make_graph(vs, edges)
    return Drawing(graph, positions, {}, meta={"fixture": "k5-fcf"})
