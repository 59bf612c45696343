"""Frame colorings, con-graph gadgets, concept registry, and framework construction."""

import warnings
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from beyondcr import (
    ConceptId,
    connection_widths,
    construction_for,
    edge,
    framework_size,
    graph_from_json_obj,
    make_graph,
    parse_concept,
)
from beyondcr.graph_core import (
    ALL_CONNECTIONS,
    COLORINGS,
    CONCEPTS,
    DESIGNATED,
    FRAME_NODES,
    Bundle,
    ApexBlue,
    Graph,
    K7,
    SkewBlue,
    as_concept,
    connection_id,
    connection_poles,
    evaluate,
    graph_to_json_obj,
    instantiate_congraph,
    structural_k,
)
from conftest import GRID


# ---------------------------------------------------------------------------
# Graphs and edges
# ---------------------------------------------------------------------------

def test_edge_normalizes_and_rejects_loops():
    assert edge("b", "a") == ("a", "b")
    assert edge("a", "b") == ("a", "b")
    with pytest.raises(ValueError):
        edge("a", "a")


def test_make_graph_sorts_and_validates():
    g = make_graph(["c", "a", "b"], [edge("c", "a"), edge("a", "b")])
    assert g.vertices == ("a", "b", "c")
    assert g.edges == (("a", "b"), ("a", "c"))
    with pytest.raises(ValueError):
        make_graph(["a"], [edge("a", "b")])
    with pytest.raises(ValueError):
        Graph(("a", "b"), (("b", "a"),))


def test_graph_json_round_trip():
    g = make_graph(["a", "b", "c"], [edge("a", "b"), edge("b", "c")])
    assert graph_from_json_obj(graph_to_json_obj(g)) == g


# ---------------------------------------------------------------------------
# Frame colorings
# ---------------------------------------------------------------------------

def test_connection_ids():
    assert connection_id("w2", "v1") == "v1-w2"
    assert connection_poles("v1-w2") == ("v1", "w2")
    assert len(ALL_CONNECTIONS) == 9
    assert len(FRAME_NODES) == 6


def test_standard_coloring():
    assert COLORINGS["standard"] == {
        "v1-w1": "blue", "v2-w2": "blue", "v1-w2": "red", "v2-w1": "yellow",
        "v1-w3": "gray", "v2-w3": "gray", "v3-w1": "gray", "v3-w2": "gray",
        "v3-w3": "gray"}
    assert tuple(COLORINGS["standard"]) == ALL_CONNECTIONS
    assert DESIGNATED["upper"] == ("v1-w2", "v2-w1")
    assert DESIGNATED["witness"] == ("v1-w1", "v2-w2")


def test_alternate_coloring():
    assert COLORINGS["alternate"] == {
        "v1-w1": "blue", "v1-w2": "red", "v2-w1": "red", "v1-w3": "gray",
        "v2-w2": "gray", "v2-w3": "gray", "v3-w1": "gray", "v3-w2": "gray",
        "v3-w3": "gray"}
    assert tuple(COLORINGS["alternate"]) == ALL_CONNECTIONS
    assert DESIGNATED == {"upper": ("v1-w2", "v2-w1"),
                          "witness": ("v1-w1", "v2-w2")}


def test_every_recipe_covers_its_coloring():
    # construction_for looks each connection's color up in the recipe
    for kind, info in CONCEPTS.items():
        assert info.coloring in COLORINGS, kind
        recipe = info.recipe(2, info.k_min)
        assert set(COLORINGS[info.coloring].values()) <= set(recipe), kind


# ---------------------------------------------------------------------------
# Con-graph gadgets: the declared size properties must match what is built.
# ---------------------------------------------------------------------------

small = st.integers(min_value=1, max_value=6)


def _assert_spec_matches(spec, disjoint_paths=True):
    cg = instantiate_congraph(spec, "v1-w1")
    assert cg.width == spec.width == len(cg.paths)
    assert len(cg.internals) == spec.internal_count
    assert len(cg.edges) == spec.edge_count
    seen = set()
    for path in cg.paths:
        assert path[0] == "v1" and path[-1] == "w1"
        inner = set(path[1:-1])
        if disjoint_paths:
            # bundles promise internally disjoint pole paths
            assert not (inner & seen)
        seen |= inner
        for a, b in zip(path, path[1:]):
            assert edge(a, b) in cg.edges


@given(small, st.integers(min_value=2, max_value=6))
def test_bundle_counts(i, j):
    _assert_spec_matches(Bundle(i, j))


@given(small, st.integers(min_value=2, max_value=6))
def test_bundle_plus_counts(i, j):
    # a bundle plus its direct pole edge
    _assert_spec_matches(Bundle(i, j, True))


@given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=3))
def test_apex_blue_counts(ell, k):
    # apex paths deliberately share their apex vertices, so no disjointness
    _assert_spec_matches(ApexBlue(ell, k), disjoint_paths=False)


@given(st.integers(min_value=1, max_value=3))
def test_skew_blue_counts(k):
    _assert_spec_matches(SkewBlue(k), disjoint_paths=False)


def test_special_gadget_counts():
    _assert_spec_matches(Bundle(1, 1))
    _assert_spec_matches(Bundle(1, 2, True))
    _assert_spec_matches(K7())
    k7 = K7()
    assert (k7.width, k7.internal_count, k7.edge_count) == (6, 5, 21)
    assert Bundle(1, 1).width == 1 and Bundle(1, 2, True).edge_count == 3


def _recipe_points(kind):
    """(ell, k) from ell 1 (2 for k-planar) to 6 and k from k_min to
    k_min + 2, k only where the concept takes one."""
    info = CONCEPTS[kind]
    ks = range(info.k_min, info.k_min + 3) if info.requires_k else (None,)
    first_ell = 2 if kind == "k-planar" else 1
    return [(ell, k) for k in ks for ell in range(first_ell, 7)]


@pytest.mark.parametrize("kind", sorted(CONCEPTS))
def test_every_recipe_builds_its_declared_sizes(kind):
    # instantiate_congraph and construction_for trust the recipes: no spec
    # needs a parallel edge, and no two con-graphs share a vertex or edge
    for ell, k in _recipe_points(kind):
        fg = construction_for(kind, ell, k)
        for cid, cg in fg.congraphs.items():
            built = (len(cg.paths), len(cg.internals), len(cg.edges))
            spec = cg.spec
            declared = (spec.width, spec.internal_count, spec.edge_count)
            assert built == declared, (ell, k, cid)
        assert (fg.graph.n, fg.graph.m) == framework_size(kind, ell, k), \
            (ell, k)


def test_spec_shapes_never_compare_equal():
    # tuple lengths 3, 2, 1 and 0
    shapes = [Bundle(1, 2), Bundle(1, 2, True), ApexBlue(1, 2), SkewBlue(1),
              K7()]
    assert len(set(shapes)) == len(shapes)
    assert Bundle(2, 1) != ApexBlue(2, 1)


# ---------------------------------------------------------------------------
# Concept registry
# ---------------------------------------------------------------------------

def test_parse_concept_round_trips():
    assert parse_concept("ic").kind == "ic"
    assert parse_concept("IC") == parse_concept("ic")
    assert parse_concept("kpl", 3) == as_concept("k-planar", 3)
    assert parse_concept("gap", 2).kind == "k-gap-planar"
    assert parse_concept("skew", 1).k == 1


def test_parse_concept_errors():
    with pytest.raises(ValueError):
        parse_concept("bogus")
    with pytest.raises(ValueError):
        parse_concept("k-planar")            # k required
    with pytest.raises(ValueError):
        parse_concept("k-fan-crossing-free", 1)   # k_min = 2
    with pytest.raises(ValueError):
        parse_concept("k-edge-crossing", 1)       # k_min = 2


def test_as_concept_checks_hand_built_ids_like_parse_concept():
    assert as_concept(ConceptId("ic", 3)) == ConceptId("ic")
    assert as_concept(ConceptId("k-planar", 2)) == ConceptId("k-planar", 2)
    for bad in (ConceptId("bogus"), ConceptId("k-planar"),
                ConceptId("k-edge-crossing", 1)):
        with pytest.raises(ValueError):
            as_concept(bad)


def test_structural_k_defaults():
    assert structural_k(as_concept("ic")) == 1
    assert structural_k(as_concept("nnic")) == 2
    assert structural_k(as_concept("k-gap-planar", 3)) == 3


def test_thresholds():
    at_k2 = {kind: evaluate(CONCEPTS[kind].threshold, k=2)[0]
             for kind in CONCEPTS}
    # share-limited, and the 109 of NNIC and k-fcf: see the two tests below
    assert at_k2["k-planar"] == 41
    assert at_k2["k-vertex-planar"] == 11
    assert at_k2["nic"] == 4
    assert at_k2["nnic"] == 109
    assert at_k2["k-fan-crossing-free"] == 109
    # the paper's; share (1) is positive and the witness passes at ell = 1
    assert at_k2["ic"] == 2
    # the paper's; share (1/5) is positive and the witness passes at ell < 5
    assert at_k2["k-gap-planar"] == 5
    # the paper's k + 1; share (1) is positive and the witness passes below
    assert at_k2["skewness"] == 3
    assert evaluate(CONCEPTS["skewness"].threshold, k=5)[0] == 6
    # share is positive at every ell, so ell = 1 is the least
    for kind in ("adjacency-crossing", "fan-crossing", "weak-fan-planar",
                 "strong-fan-planar", "k-edge-crossing", "k-apex"):
        assert at_k2[kind] == 1, kind


@pytest.mark.parametrize("kind", ["k-planar", "k-vertex-planar", "nic"])
def test_share_limited_threshold_is_the_least_ell_with_positive_share(kind):
    info = CONCEPTS[kind]
    for k in range(info.k_min, info.k_min + 9):
        t, _ = evaluate(info.threshold, k=k)
        assert evaluate(info.share, ell=t, k=k)[0] > 0, (kind, k)
        assert evaluate(info.share, ell=t - 1, k=k)[0] <= 0, (kind, k)


@pytest.mark.parametrize("kind", ["nnic", "k-fan-crossing-free"])
def test_109_is_where_a_k_free_lower_bound_on_share_turns_positive(kind):
    # share = 1 - 108*(k-1)/(ell*k) is positive earlier (ell = 55 at k = 2);
    # 109 is the least ell with 1 - 108/ell > 0, which share is never below
    info = CONCEPTS[kind]
    for k in range(info.k_min, info.k_min + 9):
        assert evaluate(info.threshold, k=k)[0] == 109
        for ell in range(1, 300):
            assert evaluate("1 - 108/ell", ell=ell)[0] \
                <= evaluate(info.share, ell=ell, k=k)[0], (kind, k, ell)
    assert evaluate("1 - 108/ell", ell=109)[0] > 0
    assert evaluate("1 - 108/ell", ell=108)[0] <= 0


# ---------------------------------------------------------------------------
# Formula texts
# ---------------------------------------------------------------------------

def test_evaluate_is_exact():
    assert evaluate("1/2") == (Fraction(1, 2), "1/2")
    # a float would give 0.333... and 1 + 2^-60 == 1
    assert evaluate("1/3")[0] == Fraction(1, 3)
    assert evaluate("(2^60 + 1)/2^60")[0] == 1 + Fraction(1, 2 ** 60)
    assert all(type(evaluate(t, k=3)[0]) is Fraction
               for t in ("1/2", "7", "k^2", "floor(k/2)"))


def test_evaluate_substitutes_whole_names_only():
    assert evaluate("4*n^2 + n", n=3) == (39, "4*3^2 + 3")
    assert evaluate("(ell*k)^2", ell=41, k=1) == (1681, "(41*1)^2")
    assert evaluate("1 - 108*(k-1)/(ell*k)", ell=109, k=2) \
        == (Fraction(55, 109), "1 - 108*(2-1)/(109*2)")
    # floor is the grammar's one function, never a name to replace
    assert evaluate("floor(k/2)^2", k=5, floor=9) == (4, "floor(5/2)^2")
    # whitespace of any kind only separates, and the trace keeps it
    assert evaluate("  k^2 ", k=3) == (9, "  3^2 ")
    assert evaluate("\tk\n+ 1\u00a0", k=3) == (4, "\t3\n+ 1\u00a0")


def test_evaluate_precedence():
    assert evaluate("-k^2", k=3)[0] == -9
    assert evaluate("2^3^2")[0] == 512
    assert evaluate("2^-1")[0] == Fraction(1, 2)
    assert evaluate("4*n*k/(k+1) + k", n=100, k=1)[0] == 201
    assert evaluate("1 - 1/2 - 3/(2*ell)", ell=4)[0] == Fraction(1, 8)


@pytest.mark.parametrize("text", [
    "1.5",           # a float literal
    "x + 1",         # a name not given
    "ell.k",         # an attribute
    "max(k, 2)",     # a call other than floor
    "'k'",           # a string constant
    "k**2",          # Python's power, not the grammar's
    "+k", "", "k k", "(k", "floor", "k^(1/2)",
    # Python syntax that is no part of the grammar
    "True", "k if k else 1", "lambda: 1", "floor(k/2, 1)", "[k]", "k < 2",
    "ceil(k/2)", "(floor)(k)", "floor(k,)", "floor()", "floor(^k)",
    "k # 1", "k@k", "k//2", "k%2", "~k",
    # literals that are not plain decimal digits, or have leading zeros
    "1_000", "0x10", "0o7", "1e3", "007",
    # Python would read fullwidth k as k
    "\uff4b",
])
def test_evaluate_refuses_anything_outside_the_grammar(text):
    with pytest.raises(ValueError):
        evaluate(text, ell=2, k=4)


@pytest.mark.parametrize("text", ["2k", "1if k else 2", "2or k", "0x1for"])
def test_evaluate_refuses_a_syntax_warning_text_silently(text):
    # a literal run into a keyword makes Python's parser warn "invalid
    # decimal literal" on stderr before it parses or refuses the text
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        with pytest.raises(ValueError):
            evaluate(text, k=4)
    assert seen == []


@pytest.mark.parametrize("kind", sorted(CONCEPTS))
def test_rect_is_the_witness_pair_product(kind):
    # Pole paths are internally disjoint, so no edge lies on two of them:
    # a crossing of the designated witness pair covers one path pair at
    # most, 1/(w[v]*w[h]) of the family, and rect must be that product.
    info = CONCEPTS[kind]
    v, h = DESIGNATED["witness"]
    for k in range(info.k_min, info.k_min + 8) if info.requires_k else [None]:
        cid = as_concept(kind, k)
        for ell in range(2, 80):
            w = connection_widths(cid, ell)
            rect, _ = evaluate(info.rect, ell=ell, k=structural_k(cid))
            assert rect == w[v] * w[h], (kind, k, ell)


# ---------------------------------------------------------------------------
# Framework construction
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind,ell,k", GRID)
def test_framework_size_matches_built_graph(kind, ell, k):
    fg = construction_for(kind, ell, k)
    n, m = framework_size(kind, ell, k)
    assert (len(fg.graph.vertices), len(fg.graph.edges)) == (n, m)


def test_vertex_count_formulas():
    # frozen closed forms, one instance each
    assert framework_size("ic", 2) == (28, 39)
    assert framework_size("ic", 3)[0] == 4 * 9 + 12
    assert framework_size("nic", 4)[0] == 7 + 5 * 4 + 2 * 4 * 5
    assert framework_size("nnic", 3)[0] == 18 * 3 + 10
    assert framework_size("adjacency-crossing", 2)[0] == 36 + 2 * 2
    assert framework_size("k-planar", 3, 2)[0] == 6 + 3 + 2 * 6 * 2 + 5 * 6
    assert framework_size("k-vertex-planar", 2, 1)[0] == 6 + 2 + 4 * 4 * 1 + 5 * 2
    assert framework_size("k-fan-crossing-free", 3, 2)[0] == 6 + 4 + 9 * 6
    assert framework_size("k-edge-crossing", 1, 2)[0] == 6 + 2 + 2 * 1 + 5 * 2
    assert framework_size("k-gap-planar", 5, 1)[0] == 6 + 15 + 24 * 5
    assert framework_size("k-apex", 1, 1)[0] == 6 + 8 + 5
    assert framework_size("skewness", 2, 1)[0] == 6 + 12 + 4


def test_connection_widths_match_congraphs():
    for kind, ell, k in GRID[::3]:
        fg = construction_for(kind, ell, k)
        assert connection_widths(kind, ell, k) == fg.widths()


def test_framework_graph_structure():
    fg = construction_for("ic", 2)
    assert fg.concept.kind == "ic"
    assert fg.ell == 2
    assert fg.k == 1
    assert not fg.below_threshold
    assert set(fg.congraphs) == set(ALL_CONNECTIONS)
    # every edge belongs to exactly one con-graph
    assert set(fg.edge_paths) == set(fg.graph.edges)
    for e, (cid, _) in fg.edge_paths.items():
        assert e in fg.congraphs[cid].edges
    assert edge("v1", "v2") not in fg.edge_paths


def test_paths_through():
    fg = construction_for("k-planar", 2, 1)
    cg = fg.congraphs["v1-w1"]
    for i, path in enumerate(cg.paths):
        for a, b in zip(path, path[1:]):
            assert fg.edge_paths[edge(a, b)] == ("v1-w1", frozenset({i}))
    # the direct pole edge of a bundle belongs to no pole path
    fg_ic = construction_for("ic", 2)
    assert fg_ic.edge_paths[edge("v1", "w2")] == ("v1-w2", frozenset())
    # a K7 edge from a pole lies on exactly one of its six pole paths
    fg_k7 = construction_for("fan-crossing", 2)
    k7 = next(c for c in fg_k7.congraphs.values() if len(c.edges) == 21)
    assert all(len(fg_k7.edge_paths[e][1]) == (1 if k7.s in e or k7.t in e
                                                else 0)
               for e in k7.edges)


def test_below_threshold_flag():
    assert construction_for("ic", 1).below_threshold
    assert not construction_for("ic", 2).below_threshold
    assert construction_for("nic", 3).below_threshold
    assert construction_for("skewness", 2, 2).below_threshold


def test_k_planar_needs_ell_at_least_two():
    with pytest.raises(ValueError):
        construction_for("k-planar", 1, 1)


def test_construction_deterministic():
    a = construction_for("k-gap-planar", 2, 2)
    b = construction_for("k-gap-planar", 2, 2)
    assert a.graph == b.graph
    assert a.widths() == b.widths()


def test_framework_graph_json_round_trip():
    fg = construction_for("skewness", 2, 1)
    obj = graph_to_json_obj(fg.graph)
    assert graph_from_json_obj(obj) == fg.graph
