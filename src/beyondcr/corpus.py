"""Seeded random small drawings for property tests and oracle comparisons.

Drawings are sampled on an integer grid and rejected until they are in
general position with at most ``max_crossings`` crossings, so exhaustive
oracles (assignment/subset enumeration) stay cheap.  Everything is driven
by a caller-supplied ``random.Random``, making corpora reproducible.
Coordinates are ints, as the crossing engine reads them without scaling;
only a bend whose midpoint is not integral holds a ``Fraction``.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

from .drawing import Drawing, GeneralPositionViolation, compute_crossings
from .geometry import lean
from .graph_core import edge, make_graph

_GRID = 256
_MAX_ATTEMPTS = 500


def random_drawing(rng: random.Random,
                   n_range: tuple[int, int] = (4, 8),
                   extra_edges: tuple[int, int] = (2, 5),
                   bend_prob: float = 0.0,
                   max_crossings: int = 12) -> Drawing:
    """One random polyline drawing in general position.

    The graph has n vertices (uniform in ``n_range``) on distinct points of
    the [0, _GRID)^2 grid, each position a pair of ints, and n-1+extra
    edges sampled from all pairs; with ``bend_prob`` an edge gets a single
    bend, offset from the midpoint of its endpoints and computed exactly:
    an int when integral, else a ``Fraction`` of denominator 2.
    Degenerate geometry (collinear overlaps, concurrent crossings, ...)
    and drawings with more than ``max_crossings`` crossings are rejected
    and resampled, up to ``_MAX_ATTEMPTS`` times.  A negative
    ``max_crossings`` raises ValueError, since no drawing meets it, and so
    does a ``bend_prob`` outside [0, 1] (NaN included), which is no
    probability.
    """
    if max_crossings < 0:
        raise ValueError(f"max_crossings must be >= 0, not {max_crossings}")
    if not 0 <= bend_prob <= 1:
        raise ValueError(f"bend_prob must be in [0, 1], not {bend_prob}")
    for _ in range(_MAX_ATTEMPTS):
        n = rng.randint(*n_range)
        names = [f"u{i}" for i in range(n)]
        pts = set()
        while len(pts) < n:
            pts.add((rng.randrange(_GRID), rng.randrange(_GRID)))
        positions = dict(zip(names, sorted(pts)))
        pairs = list(combinations(names, 2))
        rng.shuffle(pairs)
        m = min(len(pairs), n - 1 + rng.randint(*extra_edges))
        edges = [edge(u, v) for u, v in pairs[:m]]
        curves = {}
        for e in edges:
            if rng.random() < bend_prob:
                (x1, y1), (x2, y2) = positions[e[0]], positions[e[1]]
                off = rng.randrange(-_GRID // 8, _GRID // 8 + 1)
                mid = (lean(Fraction(x1 + x2, 2) + off),
                       lean(Fraction(y1 + y2, 2) + off // 2 + 1))
                curves[e] = (mid,)
        drawing = Drawing(make_graph(names, edges), positions, curves)
        try:
            crossings = compute_crossings(drawing)
        except GeneralPositionViolation:
            continue
        if len(crossings) <= max_crossings:
            return drawing
    raise RuntimeError(f"no acceptable drawing after {_MAX_ATTEMPTS} attempts")


def random_corpus(seed: int, count: int, **kwargs) -> list[Drawing]:
    """A reproducible list of random drawings for one seed."""
    rng = random.Random(seed)
    return [random_drawing(rng, **kwargs) for _ in range(count)]
