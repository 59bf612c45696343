"""Acceptance gate: one test per shipping criterion.

Each test records a PASS/FAIL line that pytest prints in its terminal
summary, so a single run shows the status of every criterion at a glance.
The numbered order matters only for the report; the tests are independent
except for a shared drawing cache.
"""

import functools
import itertools
import time
from fractions import Fraction

from beyondcr import (
    check_concept,
    compute_crossings,
    construction_for,
    counting_lower_bound,
    coverage_ledger,
    crossing_count_formula,
    draw_framework,
    kuratowski_count,
    table1_report,
    verify_full_coverage,
)
from beyondcr.cli import run
from beyondcr.corpus import random_corpus
from beyondcr.drawing import is_straight_line
from beyondcr.graph_core import CONCEPTS, as_concept, evaluate, structural_k
from beyondcr.kuratowski import DEFAULT_BUDGET
from beyondcr.standard_layouts import appendix_fcf_fixture
from conftest import (ACCEPTANCE_REPORT, FAN_KINDS, GRID, SLOPE_TARGET,
                      THRESHOLD_POINTS)
from oracles import (APPENDIX_WALLS, apex_ok_brute, count_on_edge,
                     gap_ok_brute, skew_ok_brute, turn_brute)


def criterion(num: int, desc: str):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                ACCEPTANCE_REPORT[num] = (False, desc)
                raise
            ACCEPTANCE_REPORT[num] = (True, desc)
        return wrapper
    return deco


# standard drawings are reused by several criteria; build each once
_CACHE: dict = {}


def standard(kind, ell, k, variant):
    key = (kind, ell, k, variant)
    if key not in _CACHE:
        fg = construction_for(kind, ell, k)
        d = draw_framework(fg, variant)
        _CACHE[key] = (fg, d, compute_crossings(d))
    return _CACHE[key]


# ---------------------------------------------------------------------------

@criterion(1, "IC: witness l^2 crossings on 4l^2+12 vertices, upper <= 2")
def test_criterion_1_ic_exact():
    t0 = time.monotonic()
    for ell in (2, 3, 4, 5):
        fg, witness, wxs = standard("ic", ell, None, "witness")
        assert len(wxs) == ell * ell
        assert len(fg.graph.vertices) == 4 * ell * ell + 12
        assert check_concept(witness, "ic", xs=wxs).ok
        _, upper, uxs = standard("ic", ell, None, "upper")
        assert len(uxs) <= 2
        assert not check_concept(upper, "ic", xs=uxs).ok
    assert time.monotonic() - t0 < 1.0


@criterion(2, "every witness drawing passes its checker, every upper fails")
def test_criterion_2_checker_validity():
    t0 = time.monotonic()
    for kind, ell, k in GRID:
        _, witness, wxs = standard(kind, ell, k, "witness")
        verdict = check_concept(witness, kind, k, xs=wxs)
        assert verdict.ok, (kind, ell, k, verdict.reason)
        _, upper, uxs = standard(kind, ell, k, "upper")
        assert not check_concept(upper, kind, k, xs=uxs).ok, (kind, ell, k)
    assert time.monotonic() - t0 < 30.0


@criterion(3, "upper drawing crossing counts equal the formulas, small consts")
def test_criterion_3_upper_counts():
    for kind, ell, k in GRID:
        _, _, uxs = standard(kind, ell, k, "upper")
        count = len(uxs)
        assert count == crossing_count_formula(kind, ell, k, "upper")
        if kind in ("k-planar", "k-vertex-planar", "k-fan-crossing-free"):
            assert count <= 3 * k
        elif kind in ("ic", "nic"):
            assert count <= 2
        elif kind in FAN_KINDS:
            # constant: independent of ell
            assert count == crossing_count_formula(kind, 7, k, "upper")
        elif kind == "k-gap-planar":
            assert count <= 25 * k * k
        elif kind in ("k-apex", "skewness"):
            assert count <= k + 1


@criterion(4, "both standard drawings cover the whole subdivision family")
def test_criterion_4_full_coverage():
    for (kind, ell, k), variant in itertools.product(GRID,
                                                     ("witness", "upper")):
        fg, d, xs = standard(kind, ell, k, variant)
        ledger = coverage_ledger(d, fg, xs)
        v = verify_full_coverage(ledger, fg)
        assert v.ok, (kind, ell, k, variant, v.reason)


@criterion(5, "counting bound sound everywhere; threshold ratios <= 50")
def test_criterion_5_counting_bound():
    # soundness against the actually drawn witness, at every grid point
    for kind, ell, k in GRID:
        bound, _ = counting_lower_bound(kind, ell, k)
        _, _, wxs = standard(kind, ell, k, "witness")
        assert bound <= len(wxs), (kind, ell, k)

    # constant-factor tightness at the threshold scales (exact rationals)
    for kind, ell, k in THRESHOLD_POINTS:
        bound, _ = counting_lower_bound(kind, ell, k)
        witness = crossing_count_formula(kind, ell, k, "witness")
        assert bound > 0, (kind, ell, k)
        assert Fraction(witness) / bound <= 50, (kind, ell, k)

    # the four concepts whose full threshold families are too large to
    # enumerate really are over budget; coverage enumerates only the
    # connections the crossings constrain, so exact geometry still checks
    # them (test_threshold_points_verified_by_exact_geometry)
    for kind, ell, k in [("k-planar", 41, 1), ("k-vertex-planar", 11, 1),
                         ("nnic", 109, None),
                         ("k-fan-crossing-free", 109, 2)]:
        assert kuratowski_count(construction_for(kind, ell, k)) \
            > DEFAULT_BUDGET

    # fan variants: at ell=1 the fixed-size core contributes 54 forced
    # crossings against a bound of 1, giving exactly 55; from ell=2 on the
    # quadratic term dominates and the usual factor bound applies
    for kind in FAN_KINDS:
        bound1, _ = counting_lower_bound(kind, 1)
        assert Fraction(crossing_count_formula(kind, 1, None, "witness"),
                        bound1) == 55
        bound2, _ = counting_lower_bound(kind, 2)
        assert Fraction(crossing_count_formula(kind, 2, None, "witness")) \
            / bound2 <= 50


def test_threshold_points_verified_by_exact_geometry():
    # Every threshold point, both drawings, through the whole pipeline:
    # crossings, checker, coverage, and the counting bound's premise that
    # each witness crossing covers exactly 1/rect of the family.
    counted = []            # (graph, positions, curves), crossings
    for (kind, ell, k), variant in itertools.product(THRESHOLD_POINTS,
                                                     ("witness", "upper")):
        fg = construction_for(kind, ell, k)
        d = draw_framework(fg, variant)
        geometry = (d.graph, d.positions, d.curves)
        xs = next((xs for g, xs in counted if g == geometry), None)
        if xs is None:
            xs = compute_crossings(d)
            counted.append((geometry, xs))
            assert all(x.turn == turn_brute(d, x) for x in xs)
        assert len(xs) == crossing_count_formula(kind, ell, k, variant)
        ok = check_concept(d, kind, k, xs=xs).ok
        assert ok == (variant == "witness"), (kind, ell, k, variant)
        ledger = coverage_ledger(d, fg, xs)
        assert verify_full_coverage(ledger, fg).ok, (kind, ell, k, variant)
        if variant == "witness":
            cid = as_concept(kind, k)
            share, _ = evaluate(cid.info.share, ell=ell, k=structural_k(cid))
            rect, _ = evaluate(cid.info.rect, ell=ell, k=structural_k(cid))
            w = ledger.widths
            assert {w[c1] * w[c2] for c1, _, c2, _ in ledger.entries} \
                == {rect}
            assert ledger.fraction_sum == 1 >= share
    # NNIC and k-fan-crossing-free (k=2) at ell=109 draw the same geometry,
    # so their 47 524 witness crossings are counted once per variant
    assert len(counted) == 2 * len(THRESHOLD_POINTS) - 2


@criterion(6, "log-log ratio slopes match each growth class within 0.2")
def test_criterion_6_growth_exponents():
    t0 = time.monotonic()
    reports = table1_report(k=2, points=5)
    assert len(reports) == len(CONCEPTS)
    targets = dict(SLOPE_TARGET)
    for r in reports:
        kind = next(kd for kd in CONCEPTS
                    if str(r.concept).lower().startswith(
                        CONCEPTS[kd].shorthand.lower()))
        assert len(r.grid) >= 5
        assert abs(r.slope - targets[kind]) <= 0.2, (r.concept, r.slope)
    assert time.monotonic() - t0 < 120.0


@criterion(7, "large fan-crossing-free fixture: FCF(2) yes, NNIC no, walls clean")
def test_criterion_7_appendix_fixture():
    _, d = appendix_fcf_fixture()
    xs = compute_crossings(d)
    assert check_concept(d, "k-fan-crossing-free", 2, xs=xs).ok
    assert not check_concept(d, "nnic", xs=xs).ok
    lst = list(xs)
    heavy = sum(
        1
        for i in range(len(lst)) for j in range(i + 1, len(lst))
        if len((set(lst[i].a) | set(lst[i].b)) &
               (set(lst[j].a) | set(lst[j].b))) == 3
    )
    assert heavy >= 2
    for wall in APPENDIX_WALLS:
        assert count_on_edge(xs, wall) == 0


@criterion(8, "gap/apex/skew checkers match exhaustive search, 0 disagreements")
def test_criterion_8_oracle_equivalence():
    drawings = random_corpus(20260815, 200, bend_prob=0.3, max_crossings=12)
    assert len(drawings) >= 200
    for d in drawings:
        xs = compute_crossings(d)
        assert len(xs) <= 12
        for k in (1, 2):
            assert check_concept(d, "k-gap-planar", k, xs=xs).ok \
                == gap_ok_brute(xs, k)
            assert check_concept(d, "k-apex", k, xs=xs).ok \
                == apex_ok_brute(xs, k)
            assert check_concept(d, "skewness", k, xs=xs).ok \
                == skew_ok_brute(xs, k)


def _pairwise_shared_at_most_two(xs) -> bool:
    lst = list(xs)
    for i in range(len(lst)):
        for j in range(i + 1, len(lst)):
            va = set(lst[i].a) | set(lst[i].b)
            vb = set(lst[j].a) | set(lst[j].b)
            if len(va & vb) > 2:
                return False
    return True


@criterion(9, "hierarchy implications and fan equivalences, 0 violations")
def test_criterion_9_hierarchy():
    drawings = random_corpus(1847, 200, bend_prob=0.3, max_crossings=12)
    for d in drawings:
        xs = compute_crossings(d)
        ic = check_concept(d, "ic", xs=xs).ok
        nic = check_concept(d, "nic", xs=xs).ok
        if ic:
            assert nic
        if nic:
            assert _pairwise_shared_at_most_two(xs)
        sfp = check_concept(d, "strong-fan-planar", xs=xs).ok
        wfp = check_concept(d, "weak-fan-planar", xs=xs).ok
        fc = check_concept(d, "fan-crossing", xs=xs).ok
        ac = check_concept(d, "adjacency-crossing", xs=xs).ok
        if sfp:
            assert wfp
        if wfp:
            assert fc
        if fc:
            assert ac
        assert ic == check_concept(d, "k-vertex-planar", 1, xs=xs).ok

    straight = random_corpus(6021, 100, bend_prob=0.0, max_crossings=12)
    for d in straight:
        assert is_straight_line(d)
        xs = compute_crossings(d)
        verdicts = {check_concept(d, kind, xs=xs).ok for kind in FAN_KINDS}
        assert len(verdicts) == 1, "fan variants disagree on a straight-line drawing"


@criterion(10, "non-fan standard drawings are straight-line and still pass")
def test_criterion_10_rectilinear():
    subset = [(kind, ell, k) for kind, ell, k in GRID
              if kind not in FAN_KINDS]
    assert subset
    for kind, ell, k in subset:
        for variant in ("witness", "upper"):
            fg, d, xs = standard(kind, ell, k, variant)
            assert is_straight_line(d), (kind, ell, k, variant)
            # checker verdicts (criterion 2 shape)
            ok = check_concept(d, kind, k, xs=xs).ok
            assert ok == (variant == "witness")
            # exact counts (criterion 3 shape)
            assert len(xs) == crossing_count_formula(kind, ell, k, variant)
            # coverage (criterion 4 shape)
            ledger = coverage_ledger(d, fg, xs)
            assert verify_full_coverage(ledger, fg).ok


@criterion(11, "fixture regeneration is byte-identical across two runs")
def test_criterion_11_fixture_determinism(tmp_path):
    a, b = tmp_path / "run1", tmp_path / "run2"
    assert run(["fixtures", "--out", str(a)]) == 0
    assert run(["fixtures", "--out", str(b)]) == 0
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    assert any(n.endswith(".json") for n in names)
    assert any(n.endswith(".svg") for n in names)
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
