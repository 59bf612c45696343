"""Concept checkers against brute-force oracles and hand-made drawings."""

import random
from collections import Counter
from fractions import Fraction
from itertools import product
from types import SimpleNamespace

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from beyondcr import (Drawing, GeneralPositionViolation, Graph,
                      appendix_fcf_fixture, check_concept, compute_crossings,
                      construction_for, coverage_ledger, draw_framework,
                      drawing_from_json, drawing_to_json, edge, is_simple,
                      make_graph, random_corpus, random_drawing)
from beyondcr import checkers
from beyondcr.checkers import _CHECKERS, _first_split
from beyondcr.graph_core import (CONCEPTS, ConceptId, as_concept,
                                 edge_from_key, edge_key, parse_concept,
                                 structural_k)
from conftest import (
    FAN_KINDS,
    GRID,
    fan_fixture_adjacent_not_fan,
    fan_fixture_bent_edge_straight_crossers,
    fan_fixture_fan_not_weak,
    fan_fixture_weak_not_strong,
    made_up_crossing,
    pt,
    standard_drawing,
)
import oracles as o


# ---------------------------------------------------------------------------
# Standard drawings: witness passes its own checker, the upper variant fails.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind,ell,k", GRID)
def test_witness_passes_upper_fails(kind, ell, k):
    w = standard_drawing(kind, ell, k, variant="witness")
    u = standard_drawing(kind, ell, k, variant="upper")
    assert check_concept(w, kind, k).ok
    assert not check_concept(u, kind, k).ok


def test_failure_reasons_are_informative():
    v = check_concept(standard_drawing("ic", 2, variant="upper"), "ic")
    assert "share" in v.reason and v.witness is not None
    v = check_concept(standard_drawing("k-apex", 1, 1, variant="upper"), "k-apex", 1)
    assert "no 1 vertices" in v.reason
    v = check_concept(standard_drawing("skewness", 2, 1, variant="upper"), "skewness", 1)
    assert "no 1 edges" in v.reason
    v = check_concept(standard_drawing("k-planar", 2, 1, variant="upper"), "k-planar", 1)
    assert "crossed" in v.reason


# ---------------------------------------------------------------------------
# Fan-variant ladder: three drawings that each separate one rung.
# ---------------------------------------------------------------------------

def _fan_verdicts(d):
    xs = compute_crossings(d)
    return tuple(check_concept(d, kind, xs=xs).ok
                 for kind in ("adjacency-crossing", "fan-crossing",
                              "weak-fan-planar", "strong-fan-planar"))


def test_adjacent_but_not_fan():
    d = fan_fixture_adjacent_not_fan()
    assert _fan_verdicts(d) == (True, False, False, False)
    v = check_concept(d, "fan-crossing")
    assert "no common vertex" in v.reason


def test_fan_but_not_weak():
    d = fan_fixture_fan_not_weak()
    assert _fan_verdicts(d) == (True, True, False, False)
    _fan_matches_brute(d, compute_crossings(d))
    v = check_concept(d, "weak-fan-planar")
    assert "both sides" in v.reason


def test_weak_but_not_strong():
    d = fan_fixture_weak_not_strong()
    assert _fan_verdicts(d) == (True, True, True, False)
    v = _fan_matches_brute(d, compute_crossings(d))
    assert v.witness["endpoint"] == "e1" and "enclosed" in v.reason


def test_bent_edge_with_straight_crossers_is_not_strong():
    # every tail is straight, so only e's bends can close the region
    d = fan_fixture_bent_edge_straight_crossers()
    xs = compute_crossings(d)
    assert len(xs) == 2
    assert _fan_verdicts(d) == (True, True, True, False)
    v = _fan_matches_brute(d, xs)
    assert v.reason == ("endpoint u0 of u0|u1 is enclosed by the fan region "
                        "of a|v and b|v")


def test_non_simple_fails_every_fan_variant():
    # two adjacent edges crossing: not a simple drawing
    g = make_graph(["a", "b", "c"], [edge("a", "b"), edge("a", "c")])
    d = Drawing(g, {"a": pt(0, 0), "b": pt(6, 0), "c": pt(6, 3)},
                curves={edge("a", "c"): (pt(2, -2), pt(4, 1))})
    assert _fan_verdicts(d) == (False, False, False, False)
    assert not check_concept(d, "nnic").ok
    assert not check_concept(d, "k-fan-crossing-free", 5).ok
    # but the pairwise-endpoint and counting concepts do not mind
    assert check_concept(d, "ic").ok
    assert check_concept(d, "k-planar", 1).ok


# ---------------------------------------------------------------------------
# Weak and strong fan-planarity against sides from the curves' Fraction
# directions and one explicit ring per pair of crossers
# ---------------------------------------------------------------------------

_SQUARE_SYMMETRIES = [
    lambda x, y: (x, y), lambda x, y: (-y, x), lambda x, y: (-x, -y),
    lambda x, y: (y, -x), lambda x, y: (-x, y), lambda x, y: (x, -y),
    lambda x, y: (y, x), lambda x, y: (-y, -x),
]


@st.composite
def fan_gadgets(draw):
    """e = ab from (0, 0) to (12, 0), bent half a unit up or down between
    any two whole x so that an endpoint's ray may cross e's own curve, and
    2-4 crossers sharing the anchor, each crossing e once at a whole x.  A
    "straight" crosser rises from below e to the anchor; the others drop
    through e from above and run left around a, right around b, or "under"
    the rest of e to its far end.  Crossers turning the same way nest by
    where they cross e.  The whole drawing is mapped by one of the 8
    symmetries of the square.  e's endpoints and the crossers' own ends
    are named so that e may be the first or the second edge of a crossing,
    with both in one gadget."""
    width = 12
    n = draw(st.integers(2, 4))
    at = sorted(draw(st.sets(st.integers(1, width - 1), min_size=n,
                             max_size=n)))
    # left of the turn a crosser mostly goes left, right of it right; a
    # turn between two crossers makes their fan region wrap e's ends
    turn = draw(st.integers(1, n - 1) | st.integers(0, n))
    routes = [draw(st.sampled_from([side] * 3 + ["under", "straight"]))
              for side in ["left"] * turn + ["right"] * (n - turn)]
    anchor = draw(st.sampled_from(["c", "v"]))
    anchor_at = (draw(st.integers(-3, width + 3)), 2 * n + 8)
    sym = draw(st.sampled_from(_SQUARE_SYMMETRIES))
    lefts = [x for x, r in zip(at, routes) if r == "left"]
    rights = [x for x, r in zip(at, routes) if r == "right"][::-1]
    unders = [x for x, r in zip(at, routes) if r == "under"]
    a, b = draw(st.sampled_from([("a", "b"), ("m", "n")]))
    positions = {a: (0, 0), b: (width, 0), anchor: anchor_at}
    zigzag = draw(st.lists(st.sampled_from([-1, 0, 1]), min_size=width,
                           max_size=width))
    curves = {(a, b): [(x + Fraction(1, 2), Fraction(y, 2))
                       for x, y in enumerate(zigzag) if y]}
    for k, (x, route) in enumerate(zip(at, routes)):
        s = draw(st.sampled_from("fs")) + str(k)
        h = draw(st.integers(1, 3))
        if route == "straight":
            positions[s], bends = (x, -h), []
        else:
            if route == "under":
                depth = n + 1 + unders.index(x)
                left = 2 * x > width
            else:
                left = route == "left"
                depth = 1 + (lefts if left else rights).index(x)
            side = -depth if left else width + depth
            positions[s] = (x, h)
            bends = [(x, -depth), (side, -depth), (side, 4 + depth)]
            if draw(st.booleans()):  # a kink outward on the way up
                bends.insert(2, (side + Fraction(-1 if left else 1, 3), 2))
        # the curve runs from the edge's first vertex to its second
        curves[edge(s, anchor)] = bends if s < anchor else bends[::-1]
    g = make_graph(sorted(positions), list(curves))
    return Drawing(g, {v: pt(*sym(*p)) for v, p in positions.items()},
                   {f: tuple(pt(*sym(*p)) for p in ps)
                    for f, ps in curves.items() if ps})


def _fan_matches_brute(d, xs):
    """Checks the wfp and sfp verdicts against the oracle; returns sfp's."""
    for kind, strong in (("weak-fan-planar", False),
                         ("strong-fan-planar", True)):
        v = check_concept(d, kind, xs=xs)
        assert (v.ok, v.reason, v.witness) == o.fan_planar_brute(d, xs, strong)
    return v


def test_sfp_matches_explicit_rings_on_fan_gadgets():
    reasons = Counter()

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(fan_gadgets())
    def run(d):
        try:
            xs = compute_crossings(d)
        except GeneralPositionViolation:
            reject()
        v = _fan_matches_brute(d, xs)
        reasons["ok" if v.ok else "enclosed" if "enclosed" in v.reason
                else "both sides" if "both sides" in v.reason
                else "other"] += 1

    run()
    # the gadgets reach the side test and the enclosure test, both ways
    assert reasons["enclosed"] >= 10 and reasons["ok"] >= 10
    assert reasons["both sides"] >= 10


@pytest.mark.parametrize("kind,ell,k", [g for g in GRID if g[0] in (
    "weak-fan-planar", "strong-fan-planar")])
@pytest.mark.parametrize("variant", ["witness", "upper"])
def test_sfp_matches_explicit_rings_on_fan_drawings(kind, ell, k, variant):
    d = standard_drawing(kind, ell, k, variant=variant)
    _fan_matches_brute(d, compute_crossings(d))


def test_sfp_tail_through_an_endpoint_encloses_nothing():
    # The fixture with a's tail rerouted through e1 after its crossing.
    # compute_crossings refuses that touch, so the crossings come from the
    # fixture: the segments they lie on are unchanged.  A boundary point
    # counts as outside, so only e2 is enclosed.
    d = fan_fixture_weak_not_strong()
    xs = compute_crossings(d)
    d.curves[edge("a", "v")] = (pt(1, -2), pt(-1, -2), pt(1, 2))
    v = _fan_matches_brute(d, xs)
    assert v.witness["endpoint"] == "e2"


def test_sfp_reads_no_point_of_a_straight_line_drawing(monkeypatch):
    # In a straight-line drawing every fan ring is a triangle with one side
    # on e, so the enclosure test never scales a curve or walks a ring, and
    # the verdicts still match the explicit rings.
    def refuse(*args):
        raise AssertionError("a straight-line drawing read its points")
    monkeypatch.setattr(checkers, "_enclosure_failure", refuse)
    monkeypatch.setattr(checkers, "_scaled_curves", refuse)
    triangles = Counter()
    triangle_rings = checkers._triangle_rings

    def counted(*args):
        got = triangle_rings(*args)
        triangles[got] += 1
        return got
    monkeypatch.setattr(checkers, "_triangle_rings", counted)
    drawings = [standard_drawing(kind, ell, k, variant=variant)
                for kind, ell, k in GRID if kind not in FAN_KINDS
                for variant in ("witness", "upper")]
    drawings += random_corpus(2727, 200, bend_prob=0)
    for d in drawings:
        xs = compute_crossings(d)
        v = check_concept(d, "strong-fan-planar", xs=xs)
        assert (v.ok, v.reason, v.witness) == o.fan_planar_brute(d, xs, True)
    # the inputs reach the enclosure test, many (edge, anchor) times
    assert triangles[True] >= 50


def test_first_split_is_the_first_differing_pair():
    # every table of up to 4 crossings, each bit unset, False or True
    values = (None, False, True)
    for c in range(5):
        for flat in product(values, repeat=2 * c):
            bits = [list(flat[2 * i:2 * i + 2]) for i in range(c)]
            assert _first_split(bits) == o.first_split_pairwise(bits)


def test_enclosure_witness_matches_the_pairwise_loop(monkeypatch):
    # the bits of every enclosure test on the fan gadgets and fixtures
    splits = Counter()

    def checked(bits):
        got = _first_split(bits)
        assert got == o.first_split_pairwise(bits)
        splits[got is not None] += 1
        return got
    monkeypatch.setattr(checkers, "_first_split", checked)

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(fan_gadgets())
    def run(d):
        try:
            xs = compute_crossings(d)
        except GeneralPositionViolation:
            reject()
        _fan_matches_brute(d, xs)

    run()
    for d in [fan_fixture_adjacent_not_fan(), fan_fixture_fan_not_weak(),
              fan_fixture_weak_not_strong(),
              fan_fixture_bent_edge_straight_crossers(),
              appendix_fcf_fixture()[1]]:
        _fan_matches_brute(d, compute_crossings(d))
    assert splits[True] >= 10 and splits[False] >= 10


def test_is_simple_matches_pairwise_oracle():
    drawings = random_corpus(515, 150, bend_prob=0.35)
    drawings += [standard_drawing(kind, ell, k, variant=variant)
                 for kind, ell, k in GRID for variant in ("witness", "upper")]
    drawings += [fan_fixture_adjacent_not_fan(), fan_fixture_fan_not_weak(),
                 fan_fixture_weak_not_strong(), appendix_fcf_fixture()[1]]
    seen = Counter()
    for d in drawings:
        xs = compute_crossings(d)
        e = min(d.graph.edges)
        loop = made_up_crossing(d.graph, e, e, (0, 0, 1))
        # as computed, with its first crossing repeated, and with a loop
        for ys in (xs, xs + xs[:1], xs + (loop,)):
            assert is_simple(ys) == o.is_simple_brute(ys)
            seen[is_simple(ys)] += 1
    assert seen[True] >= 10 and seen[False] >= 10


# ---------------------------------------------------------------------------
# Brute-force oracle agreement on a random corpus
# ---------------------------------------------------------------------------

def _verdict(d, xs, kind, k=None):
    """check_concept's verdict; below the concept's k_min, where
    check_concept refuses k, the concept's checker called directly."""
    if k is not None and k < CONCEPTS[kind].k_min:
        return _CHECKERS[kind](kind, d, xs, k)
    return check_concept(d, kind, k, xs=xs)


def test_checkers_agree_with_oracles_on_random_drawings():
    rng = random.Random(1312)
    for _ in range(40):
        d = random_drawing(rng, bend_prob=0.35)
        xs = compute_crossings(d)
        for k in (1, 2, 3):
            assert _verdict(d, xs, "k-planar", k).ok == o.kpl_ok(xs, k)
            assert _verdict(d, xs, "k-vertex-planar", k).ok == o.kvp_ok(xs, k)
            assert _verdict(d, xs, "k-edge-crossing", k).ok == o.ecr_ok(xs, k)
            assert (_verdict(d, xs, "k-fan-crossing-free", k).ok
                    == o.kfcf_ok(xs, k))
            gap = _verdict(d, xs, "k-gap-planar", k)
            assert gap.ok == o.gap_ok_brute(xs, k)
            if gap.ok and len(xs):
                charges = gap.witness["assignment"]
                assert len(charges) == len(xs)
                for i, x in enumerate(xs):
                    assert charges[str(i)] in (edge_key(x.a), edge_key(x.b))
                assert max(Counter(charges.values()).values()) <= k
            elif not gap.ok:
                named = {edge_from_key(key) for key in gap.witness["edges"]}
                internal = sum(x.a in named and x.b in named for x in xs)
                assert gap.witness["internal_crossings"] == internal
                assert internal > k * len(named)
            assert _verdict(d, xs, "k-apex", k).ok == o.apex_ok_brute(xs, k)
            assert _verdict(d, xs, "skewness", k).ok == o.skew_ok_brute(xs, k)
        assert _verdict(d, xs, "ic").ok == o.shared_endpoints_ok(xs, 0)
        assert _verdict(d, xs, "nic").ok == o.shared_endpoints_ok(xs, 1)
        assert _verdict(d, xs, "nnic").ok == (
            o.simple_ok(xs) and o.shared_endpoints_ok(xs, 2))


def _ic_family_drawings():
    yield from random_corpus(2718, 120, bend_prob=0.35, max_crossings=12)
    for kind, ell, k in GRID:
        yield standard_drawing(kind, ell, k, variant="upper")
    yield appendix_fcf_fixture()[1]


def _ic_family_orders(rng):
    """Each drawing with its crossings in engine order, then shuffled; then
    made-up crossing lists on sparser vertex sets, where the first pair that
    shares endpoints often starts after the first crossing."""
    for d in _ic_family_drawings():
        lst = list(compute_crossings(d))
        yield d, lst
        yield d, rng.sample(lst, len(lst))
    for _ in range(200):
        names = [f"u{i}" for i in range(rng.randrange(4, 32))]
        pairs = [(edge(a, b), edge(c, e)) for a, b, c, e in (
            rng.sample(names, 4) for _ in range(rng.randrange(2, 9)))]
        d = Drawing(make_graph(names, {e for pair in pairs for e in pair}),
                    {})
        yield d, [made_up_crossing(d.graph, e, f, (i, 0, 1))
                  for i, (e, f) in enumerate(pairs)]


def test_ic_family_witness_is_the_first_pair_in_combinations_order():
    rng = random.Random(31)
    pinned = set()
    for d, lst in _ic_family_orders(rng):
        xs = tuple(lst)
        for kind, limit in (("ic", 0), ("nic", 1), ("nnic", 2)):
            v = check_concept(d, kind, xs=xs)
            if kind == "nnic" and not o.simple_ok(xs):
                assert (v.ok, v.reason) == (False, "drawing is not simple")
                continue
            pair = o.first_shared_pair(lst, limit)
            assert v.ok == (pair is None)
            if pair is None:
                continue
            if pair[0] > 0:
                pinned.add(limit)
            assert v.witness["crossings"] == [
                {"edges": [edge_key(lst[i].a), edge_key(lst[i].b)],
                 "point": [str(c) for c in lst[i].point]} for i in pair]
            shared = sorted(o._vertices_of(lst[pair[0]])
                            & o._vertices_of(lst[pair[1]]))
            assert v.witness["shared"] == shared
    # every limit also meets pairs whose first crossing is not the first
    assert pinned == {0, 1, 2}


def test_gap_planar_success_carries_an_assignment():
    d = standard_drawing("k-gap-planar", 5, 1, variant="witness")
    xs = compute_crossings(d)
    v = check_concept(d, "k-gap-planar", 1, xs=xs)
    assert v.ok
    assignment = v.witness["assignment"]
    assert len(assignment) == len(xs)
    loads = {}
    for e_key in assignment.values():
        loads[e_key] = loads.get(e_key, 0) + 1
    assert max(loads.values()) <= 1


def test_gap_witness_matches_the_plain_search():
    # the checker skips searches (a crossing with room on an edge, edges a
    # failed search reached) and must still give the witness that searching
    # for every crossing gives
    drawings = random_corpus(1717, 200, bend_prob=0.35)
    drawings += [standard_drawing(kind, ell, k, variant=variant)
                 for kind, ell, k in GRID for variant in ("witness", "upper")]
    drawings += [standard_drawing("nnic", 10), standard_drawing("ic", 8),
                 standard_drawing("strong-fan-planar", 6)]
    seen = Counter()
    for d in drawings:
        xs = compute_crossings(d)
        for k in (1, 2, 3):
            v = check_concept(d, "k-gap-planar", k, xs=xs)
            assert v.witness == o.gap_witness_plain(xs, k)
            seen[v.ok] += 1
    assert seen[True] >= 500 and seen[False] >= 50


def test_gap_planar_failure_witness_is_pinned():
    # Recorded from the max-flow checker this one replaced.
    d = standard_drawing("strong-fan-planar", 6, variant="witness")
    v = check_concept(d, "k-gap-planar", 1)
    assert not v.ok
    assert v.reason == "36 crossings among 12 edges exceed capacity 1*12"
    assert v.witness == {
        "edges": [f"v1|v1-w1/p{i}/1" for i in range(6)]
        + [f"v2-w2/p{i}/1|w2" for i in range(6)],
        "internal_crossings": 36}


def test_apex_and_skew_witnesses_name_their_removals():
    d = standard_drawing("k-apex", 2, 2, variant="witness")
    v = check_concept(d, "k-apex", 2)
    assert v.ok and len(v.witness["apices"]) <= 2
    d = standard_drawing("skewness", 2, 1, variant="witness")
    v = check_concept(d, "skewness", 1)
    assert v.ok and len(v.witness["removed"]) <= 1


def test_hitting_set_branches_in_str_order():
    # a|b is crossed by a!|c and a!|d.  As tuples ("a", "b") comes first,
    # so it has the least edge index, but str(("a!", "c")) < str(("a",
    # "b")): the search branches on a!|c first.  Recorded before crossings
    # carried edge indices.
    d = Drawing(make_graph(["a", "b", "a!", "c", "d"],
                           [edge("a", "b"), edge("a!", "c"), edge("a!", "d")]),
                {"a": pt(0, 0), "b": pt(6, 0), "a!": pt(3, -2),
                 "c": pt(1, 2), "d": pt(5, 2)})
    xs = compute_crossings(d)
    assert [(x.ia, x.ib) for x in xs] == [(0, 1), (0, 2)]
    assert check_concept(d, "skewness", 1, xs=xs).witness == {
        "removed": ["a|b"]}
    assert check_concept(d, "skewness", 2, xs=xs).witness == {
        "removed": ["a!|c", "a!|d"]}
    for k in (1, 2):
        assert check_concept(d, "k-apex", k, xs=xs).witness == {
            "apices": ["a"]}


def test_verdicts_read_indices_into_graph_edges():
    # Graph(...) sorts the vertices and edges it is given, so a drawing
    # built from shuffled ones has the graph, the crossing indices, the
    # verdicts and the ledger of the same drawing made through make_graph
    rng = random.Random(2323)
    cases = [(construction_for(kind, ell, k), variant)
             for kind, ell, k in GRID for variant in ("witness", "upper")]
    cases += [(None, d) for d in random_corpus(2324, 40, bend_prob=0.35)]
    for fg, d in cases:
        if fg is not None:
            d = draw_framework(fg, d)
        vertices, edges = list(d.graph.vertices), list(d.graph.edges)
        rng.shuffle(vertices)
        rng.shuffle(edges)
        if edges == sorted(edges):
            edges.reverse()
        assert edges != sorted(edges)
        graph = Graph(tuple(vertices), tuple(edges))
        assert graph == d.graph
        out_of_order = Drawing(graph, d.positions, d.curves)
        xs = compute_crossings(out_of_order)
        assert all(graph.edges[x.ia] == x.a and graph.edges[x.ib] == x.b
                   for x in xs)
        for concept, info in CONCEPTS.items():
            for k in ((info.k_min, info.k_min + 1) if info.requires_k
                      else (None,)):
                assert (check_concept(out_of_order, concept, k,
                                      xs=xs).to_json_obj()
                        == check_concept(d, concept, k).to_json_obj())
        if fg is not None:
            ledger = coverage_ledger(out_of_order, fg, xs)
            want = coverage_ledger(d, fg)
            assert ledger.skipped == want.skipped
            assert ledger.entries == want.entries


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

def test_check_concept_dispatch():
    d = standard_drawing("ic", 2, variant="witness")
    assert check_concept(d, "ic").ok
    assert check_concept(d, "IC").ok
    assert check_concept(d, as_concept("ic")).ok
    # ic witnesses are exactly 1-vertex-planar
    assert check_concept(d, "k-vertex-planar", 1).ok
    with pytest.raises(ValueError):
        check_concept(d, "k-planar")         # k missing
    with pytest.raises(ValueError):
        check_concept(d, "no-such-concept")


def test_cached_resolution_is_the_plain_path():
    # check_concept resolves (concept, k) through a cache: a miss, then a
    # hit, for every name of every kind and its ConceptId, must give the
    # verdict of the checker called on the uncached resolution.  A k that
    # equals k_min but is a bool is a different key, since it shows in a
    # verdict's reason.
    drawings = random_corpus(2930, 12, bend_prob=0.35)
    crossings = [compute_crossings(d) for d in drawings]
    assert checkers._resolve.cache_info().maxsize == 256
    for kind, info in CONCEPTS.items():
        names = (kind, info.shorthand, *info.aliases, info.shorthand.upper())
        ks = list(range(info.k_min, info.k_min + 3))
        if info.k_min == 1:
            ks.append(True)
        if not info.requires_k:
            ks.append(None)
        for name, k in product(names, ks):
            cid = parse_concept(name, k)
            for d, xs in zip(drawings, crossings):
                want = _CHECKERS[kind](kind, d, xs, structural_k(cid))
                for _ in range(2):
                    assert check_concept(d, name, k, xs=xs) == want
                    assert check_concept(d, cid, xs=xs) == want
                    assert (check_concept(d, ConceptId(kind, cid.k), xs=xs)
                            == want)
    # errors are not cached: each call raises again
    for _ in range(2):
        with pytest.raises(ValueError, match="unknown concept"):
            check_concept(drawings[0], "no-such-concept", 2, xs=crossings[0])
        for kind, info in CONCEPTS.items():
            if info.requires_k:
                with pytest.raises(ValueError, match="requires k >="):
                    check_concept(drawings[0], kind, info.k_min - 1,
                                  xs=crossings[0])
                with pytest.raises(ValueError, match="requires k >="):
                    check_concept(drawings[0], ConceptId(kind, 0),
                                  xs=crossings[0])


def test_int_and_fraction_corpus_drawings_give_the_same_verdicts():
    # corpus coordinates are ints and halves; JSON reads them back as
    # Fractions, and no verdict may tell the two apart
    for d in random_corpus(2903, 200, bend_prob=0.35):
        back = drawing_from_json(drawing_to_json(d))
        xs, back_xs = compute_crossings(d), compute_crossings(back)
        for concept, info in CONCEPTS.items():
            for k in ((info.k_min, info.k_min + 1) if info.requires_k
                      else (None,)):
                assert (check_concept(back, concept, k,
                                      xs=back_xs).to_json_obj()
                        == check_concept(d, concept, k, xs=xs).to_json_obj())


def test_precomputed_crossings_short_circuit():
    # every concept on every GRID drawing: the same verdict, witness and all
    for kind, ell, k in GRID:
        for variant in ("witness", "upper"):
            d = standard_drawing(kind, ell, k, variant=variant)
            xs = compute_crossings(d)
            for concept, info in CONCEPTS.items():
                ck = 2 if info.requires_k else None
                assert (check_concept(d, concept, ck, xs=xs).to_json_obj()
                        == check_concept(d, concept, ck).to_json_obj())


def test_only_strong_fan_planarity_reads_the_drawing():
    # every other checker gives the same verdict from the drawing's graph
    # alone, which names the edges: it reads no position and no curve
    drawings = [standard_drawing(kind, ell, k, variant=variant)
                for kind, ell, k in GRID for variant in ("witness", "upper")]
    drawings += [fan_fixture_adjacent_not_fan(), fan_fixture_fan_not_weak(),
                 fan_fixture_weak_not_strong(),
                 fan_fixture_bent_edge_straight_crossers()]
    for d in drawings:
        xs = compute_crossings(d)
        for concept, info in CONCEPTS.items():
            if concept == "strong-fan-planar":
                continue
            cid = as_concept(concept, 2 if info.requires_k else None)
            assert (_CHECKERS[concept](concept,
                                       SimpleNamespace(graph=d.graph), xs,
                                       structural_k(cid))
                    == check_concept(d, cid, xs=xs))


def test_every_concept_has_one_checker():
    assert set(_CHECKERS) == set(CONCEPTS)
