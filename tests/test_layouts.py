"""Standard drawings: exact crossing counts, straightness, determinism.

``drawings_golden.json`` maps ``concept/ell/k/variant`` to the sha256 of
``drawing_to_json(draw_framework(...))`` for every GRID point and every
threshold point, both variants.  It was recorded at commit 88daf00, before
the corridor coordinates became integer affine maps, and is not regenerated
by any tool: a change to any coordinate of a standard drawing fails here.
"""

import hashlib
import json
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from beyondcr import (
    check_concept,
    compute_crossings,
    construction_for,
    crossing_count_formula,
    draw_framework,
    frame_edge_colors,
    is_straight_line,
)
from beyondcr.drawing import Crossing, drawing_from_json, drawing_to_json
from beyondcr.graph_core import (CONCEPTS, DESIGNATED, connection_specs,
                                 parse_concept, structural_k)
from beyondcr.standard_layouts import _own_crossings, _strands
from conftest import FAN_KINDS, GOLDEN_POINTS, GRID, standard_drawing

GOLDEN = Path(__file__).with_name("drawings_golden.json")


def drawing_hashes(kind, ell, k) -> dict[str, str]:
    """``concept/ell/k/variant`` -> sha256 of the drawing's JSON."""
    fg = construction_for(kind, ell, k)
    return {f"{kind}/{ell}/{k}/{variant}": hashlib.sha256(
                drawing_to_json(draw_framework(fg, variant)).encode()
            ).hexdigest()
            for variant in ("witness", "upper")}


@pytest.mark.parametrize("kind,ell,k", GRID)
@pytest.mark.parametrize("variant", ["witness", "upper"])
def test_crossing_count_matches_formula(kind, ell, k, variant):
    d = standard_drawing(kind, ell, k, variant=variant)
    assert len(compute_crossings(d)) == crossing_count_formula(kind, ell, k, variant)


def _coordinates(d):
    return [c for points in (d.positions.values(), *d.curves.values())
            for p in points for c in p]


def _crossing_fields(xs):
    return [tuple(getattr(x, f) for f in Crossing.__slots__) for x in xs]


@pytest.mark.parametrize("kind,ell,k", GOLDEN_POINTS)
@pytest.mark.parametrize("variant", ["witness", "upper"])
def test_int_and_fraction_coordinates_give_the_same_crossings(kind, ell, k,
                                                              variant):
    d = standard_drawing(kind, ell, k, variant=variant)
    # an integral coordinate is an int, so the engine's int path runs here
    coords = _coordinates(d)
    assert any(type(c) is int for c in coords)
    assert all(type(c) is int or type(c) is Fraction and c.denominator > 1
               for c in coords)
    # JSON reads every coordinate back as a Fraction
    back = drawing_from_json(drawing_to_json(d))
    assert all(type(c) is Fraction for c in _coordinates(back))
    assert _crossing_fields(compute_crossings(back)) \
        == _crossing_fields(compute_crossings(d))


@pytest.mark.parametrize("kind,ell,k", GRID)
def test_straight_line_except_fan_concepts(kind, ell, k):
    for variant in ("witness", "upper"):
        d = standard_drawing(kind, ell, k, variant=variant)
        assert is_straight_line(d) == (kind not in FAN_KINDS)


def test_witness_formulas_frozen():
    # closed forms at one point each, evaluated by hand
    assert crossing_count_formula("k-planar", 3, 2) == 36            # (ell*k)^2
    assert crossing_count_formula("k-vertex-planar", 2, 1) == 4
    assert crossing_count_formula("ic", 3) == 9                      # ell^2
    assert crossing_count_formula("nic", 4) == 16
    assert crossing_count_formula("nnic", 3) == 36                   # (2*ell)^2
    assert crossing_count_formula("k-fan-crossing-free", 3, 2) == 36
    assert crossing_count_formula("adjacency-crossing", 2) == 58     # ell^2 + 54
    assert crossing_count_formula("k-edge-crossing", 1, 4) == 4      # floor(k/2)^2
    assert crossing_count_formula("k-gap-planar", 5, 1) == 25        # 5*ell*k^2
    assert crossing_count_formula("k-apex", 2, 2) == 18              # (ell*k)^2 + k
    assert crossing_count_formula("skewness", 3, 2) == 14            # ell*k^2 + k


def test_upper_formulas_frozen():
    assert crossing_count_formula("k-planar", 3, 2, "upper") == 3    # k + 1
    assert crossing_count_formula("k-vertex-planar", 2, 1, "upper") == 2
    assert crossing_count_formula("ic", 3, variant="upper") == 2
    assert crossing_count_formula("nic", 4, variant="upper") == 2
    assert crossing_count_formula("nnic", 3, variant="upper") == 4
    assert crossing_count_formula("k-fan-crossing-free", 3, 2, "upper") == 4  # 2k
    assert crossing_count_formula("fan-crossing", 2, variant="upper") == 60
    assert crossing_count_formula("k-edge-crossing", 1, 4, "upper") == 4      # k
    assert crossing_count_formula("k-gap-planar", 5, 1, "upper") == 25        # 25k^2
    assert crossing_count_formula("k-apex", 2, 2, "upper") == 3
    assert crossing_count_formula("skewness", 3, 2, "upper") == 3


@pytest.mark.parametrize("kind,ell,k", GRID)
@pytest.mark.parametrize("variant", ["witness", "upper"])
def test_crossings_split_by_connection(kind, ell, k, variant):
    # every strand of the vertical designated con-graph crosses every strand
    # of the horizontal one once, each con-graph crosses itself only by its
    # shape's own crossings, and no other pair of connections crosses
    fg = construction_for(kind, ell, k)
    split = Counter(
        tuple(sorted({fg.edge_paths[x.ia][0], fg.edge_paths[x.ib][0]}))
        for x in compute_crossings(draw_framework(fg, variant)))
    specs = connection_specs(kind, ell, k)
    v, h = DESIGNATED[variant]
    want = {(cid,): _own_crossings(spec) for cid, spec in specs.items()}
    want[tuple(sorted((v, h)))] = _strands(specs[v]) * _strands(specs[h])
    assert split == {pair: n for pair, n in want.items() if n}


# The paper's closed forms of the two standard drawings' crossing counts,
# (witness, upper) per concept, in the construction parameter ell and the
# structural k: references for the counts read off the con-graph shapes.
_K_PLANAR = (lambda ell, k: (ell * k) ** 2, lambda ell, k: k + 1)
_IC = (lambda ell, k: ell * ell, lambda ell, k: 2)
_NNIC = (lambda ell, k: (ell * k) ** 2, lambda ell, k: 2 * k)
PAPER_CROSSINGS = {
    "k-planar": _K_PLANAR, "k-vertex-planar": _K_PLANAR,
    "ic": _IC, "nic": _IC,
    "nnic": _NNIC, "k-fan-crossing-free": _NNIC,
    **dict.fromkeys(FAN_KINDS, (lambda ell, k: ell * ell + 54,
                                lambda ell, k: 60)),
    "k-edge-crossing": (lambda ell, k: (k // 2) ** 2, lambda ell, k: k),
    "k-gap-planar": (lambda ell, k: 5 * ell * k * k,
                     lambda ell, k: 25 * k * k),
    "k-apex": (lambda ell, k: (ell * k) ** 2 + k, lambda ell, k: k + 1),
    "skewness": (lambda ell, k: ell * k * k + k, lambda ell, k: k + 1),
}


@pytest.mark.parametrize("kind", sorted(CONCEPTS))
@pytest.mark.parametrize("variant", ["witness", "upper"])
def test_crossing_counts_match_the_papers_closed_forms(kind, variant):
    formula = PAPER_CROSSINGS[kind][variant == "upper"]
    info = CONCEPTS[kind]
    ks = range(info.k_min, info.k_min + 4) if info.requires_k else [None]
    low = 2 if kind == "k-planar" else 1  # k-planar's blue bundles: length ell
    for k in ks:
        kk = structural_k(parse_concept(kind, k))
        for ell in range(low, low + 31):
            assert crossing_count_formula(kind, ell, k, variant) \
                == formula(ell, kk), (kind, ell, k, variant)


@pytest.mark.parametrize(
    "kind", sorted(kind for kind, info in CONCEPTS.items() if info.grid_plan))
def test_every_grid_plan_fits_the_witness_pair(kind):
    # the grid witness lays edge q of every pole path of both designated
    # con-graphs across plan[q] opposing strands: one entry per edge, and
    # every strand of the other con-graph laid
    info = CONCEPTS[kind]
    ks = range(info.k_min, info.k_min + 4) if info.requires_k else [None]
    low = 2 if kind == "k-planar" else 1  # k-planar's blue bundles: length ell
    for k in ks:
        for ell in range(low, low + 12):
            fg = construction_for(kind, ell, k)
            plan = info.grid_plan(ell, fg.k)
            for cid in DESIGNATED["witness"]:
                cg = fg.congraphs[cid]
                assert {len(p) - 1 for p in cg.paths} == {len(plan)}, \
                    (kind, ell, k, cid)
                assert sum(plan) == cg.width, (kind, ell, k, cid)


def test_unknown_variant_rejected():
    fg = construction_for("ic", 2)
    with pytest.raises(ValueError):
        draw_framework(fg, "sideways")
    with pytest.raises(ValueError):
        crossing_count_formula("ic", 2, variant="sideways")


def test_crossing_count_formula_refuses_what_construction_refuses():
    # ell < 1 for every concept, and ell = 1 for k-planar (blue bundles
    # have length ell): the formula has no drawing to count
    for args in (("ic", -3), ("kpl", 1, 1)):
        with pytest.raises(ValueError):
            construction_for(*args)
        with pytest.raises(ValueError):
            crossing_count_formula(*args)


def test_drawings_deterministic():
    for kind, ell, k in [("ic", 2, None), ("k-gap-planar", 2, 2),
                         ("adjacency-crossing", 1, None)]:
        d1 = standard_drawing(kind, ell, k)
        d2 = standard_drawing(kind, ell, k)
        assert d1.positions == d2.positions
        assert d1.curves == d2.curves


def test_below_threshold_layouts_still_draw():
    # parameters under the extremal threshold still produce valid drawings
    d = standard_drawing("ic", 1, variant="witness")
    assert len(compute_crossings(d)) == 1
    assert check_concept(d, "ic").ok
    d = standard_drawing("nic", 2, variant="witness")
    assert len(compute_crossings(d)) == crossing_count_formula("nic", 2)


def test_frame_edge_colors():
    fg = construction_for("ic", 2)
    colors = frame_edge_colors(fg)
    assert set(colors.values()) <= {"blue", "red", "yellow", "gray"}
    # every edge of a blue con-graph is blue
    for e in fg.congraphs["v1-w1"].edges:
        assert colors[e] == "blue"
    assert colors[("v2", "w1")] == "yellow"
    fg_alt = construction_for("k-apex", 1, 1)
    alt_colors = frame_edge_colors(fg_alt)
    assert "yellow" not in set(alt_colors.values())


def test_drawing_meta_identifies_construction():
    d = standard_drawing("skewness", 2, 1, variant="upper")
    assert d.meta["concept"] == "skewness"
    assert d.meta["ell"] == 2
    assert d.meta["k"] == 1
    assert d.meta["variant"] == "upper"


def test_designated_pair_actually_crosses():
    # in the witness drawing the two designated con-graphs produce the grid
    fg = construction_for("k-planar", 2, 1)
    d = draw_framework(fg, "witness")
    xs = compute_crossings(d)
    cids = {tuple(sorted((fg.edge_paths[x.ia][0], fg.edge_paths[x.ib][0])))
            for x in xs}
    assert cids == {("v1-w1", "v2-w2")}
    # the upper drawing crosses the other designated pair
    du = draw_framework(fg, "upper")
    xs_u = compute_crossings(du)
    cids_u = {tuple(sorted((fg.edge_paths[x.ia][0], fg.edge_paths[x.ib][0])))
              for x in xs_u}
    assert cids_u == {("v1-w2", "v2-w1")}


def test_drawings_golden_covers_grid_and_thresholds():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert set(golden) == {f"{kind}/{ell}/{k}/{variant}"
                           for kind, ell, k in GOLDEN_POINTS
                           for variant in ("witness", "upper")}


@pytest.mark.parametrize("kind,ell,k", GOLDEN_POINTS)
def test_standard_drawings_match_golden(kind, ell, k):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    for key, digest in drawing_hashes(kind, ell, k).items():
        assert golden[key] == digest, key


# sha256 of the drawing's JSON past ten anchors, where name order (a10
# before a2) and numeric order differ, recorded at commit 99474c5.
PAST_TEN_ANCHORS = {
    "k-apex/2/12/witness":
        "4f69db5f677e92cf02f283b3cd4a5998622587817fe67ae1f7a5bb963ef0bc27",
    "k-apex/2/12/upper":
        "a5db70517e5e3b80e63df04da4086281f53ed309930cf900ea0e560f5cb81c30",
    "skewness/2/12/witness":
        "6b4be7f8f6bc6cc9a99910590016f80fe7d2d6c7fe092e3ed9038f14f5dae644",
    "skewness/2/12/upper":
        "73f25bed49eef008b56500c612d19d12c90b11bd0342a3096d46d01cfe560a50",
}


def test_drawings_past_ten_anchors_match_pins():
    assert {**drawing_hashes("k-apex", 2, 12),
            **drawing_hashes("skewness", 2, 12)} == PAST_TEN_ANCHORS


# sha256 of the drawing's JSON at k = 3, recorded at commit 482dcb5: the
# grid clusters and the gap strand groups have odd size there, and k-apex
# has three stripes, none of which ``drawings_golden.json`` covers.
K_THREE = {
    "k-planar/3/3/witness":
        "48c438cb02029397fde8a722eefb88e87b4ec7e954c414239f5274fc72260ee0",
    "k-planar/3/3/upper":
        "34b89042a2d7eaaf3c46d22e7694e76faf95a4475c3aac7750b858b4134ce2ee",
    "k-vertex-planar/2/3/witness":
        "d161e3a4d60ce6052a17ce8fc76401fdd0e5ba387485e640528ab4216c7249fc",
    "k-vertex-planar/2/3/upper":
        "d4dd19f68ceed314aab7047c1dea847e4e220bf39f887205312e459b4c7aaeec",
    "k-gap-planar/5/3/witness":
        "391a7212fe942662c6aad83a293dbc35a7c86ed65704d0151562588498ee77a9",
    "k-gap-planar/5/3/upper":
        "70fc9fafed7d4e3e5b71262dd250a4be4aed1404fb6e9e7bda96d96bef93a65f",
    "k-apex/2/3/witness":
        "4734d05a94489e1f1a2914d9d65852a6f11b50cee293992f12325d007964e8f7",
    "k-apex/2/3/upper":
        "a3759ab7a04a5882304d525ab2f229575338c74d3ca93be174cbe1b1d604eca2",
}


def test_drawings_at_k_three_match_pins():
    assert {**drawing_hashes("k-planar", 3, 3),
            **drawing_hashes("k-vertex-planar", 2, 3),
            **drawing_hashes("k-gap-planar", 5, 3),
            **drawing_hashes("k-apex", 2, 3)} == K_THREE
