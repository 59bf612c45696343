"""Ratio bounds, growth exponents, and the summary table."""

from fractions import Fraction

import pytest

from beyondcr import (
    counting_lower_bound,
    crossing_count_formula,
    format_table1,
    framework_size,
    growth_exponent,
    ratio_report,
    ratio_upper,
    table1_report,
)
from beyondcr.bounds_report import reports_to_json_obj
from beyondcr.graph_core import CONCEPTS, as_concept, structural_k
from conftest import FAN_KINDS, GRID, SLOPE_TARGET
from oracles import crossing_lemma_bound


def test_crossing_lemma_values():
    # dense case: m^3 / (64 n^2)
    assert crossing_lemma_bound(10, 45) == (Fraction(3645, 256), False)
    # at or below 4n the bound is vacuous
    assert crossing_lemma_bound(10, 40) == (Fraction(0), True)
    assert crossing_lemma_bound(10, 39) == (Fraction(0), True)
    assert crossing_lemma_bound(100, 401)[1] is False


# ---------------------------------------------------------------------------
# Worst-case ratio upper bounds
# ---------------------------------------------------------------------------

RATIO_AT_100 = {
    ("k-planar", 1): (Fraction(201), "4*n*k/(k+1) + k"),
    ("k-vertex-planar", 1): (Fraction(51), "n*k/(k+1) + k"),
    ("ic", None): (Fraction(25, 2), "n/8"),
    ("nic", None): (Fraction(90), "9*n/10"),
    ("nnic", None): (Fraction(40100), "4*n^2 + n"),
    ("k-fan-crossing-free", 2): (Fraction(40100), "8*n^2/k + n"),
    ("adjacency-crossing", None): (Fraction(40100), "4*n^2 + n"),
    ("fan-crossing", None): (Fraction(40100), "4*n^2 + n"),
    ("weak-fan-planar", None): (Fraction(40100), "4*n^2 + n"),
    ("strong-fan-planar", None): (Fraction(40100), "4*n^2 + n"),
    ("k-edge-crossing", 2): (Fraction(4), "2*k"),
    ("k-gap-planar", 2): (Fraction(202), "4*n/k + k"),
    ("k-apex", 1): (Fraction(40100), "8*n^2/(k+1) + n"),
    ("skewness", 1): (Fraction(201), "4*n*k/(k+1) + k"),
}


@pytest.mark.parametrize("kind", sorted(CONCEPTS))
def test_construction_ratio_stays_under_its_cap(kind):
    info = CONCEPTS[kind]
    for k in range(info.k_min, info.k_min + 4) if info.requires_k else [None]:
        cid = as_concept(kind, k)
        t = info.threshold(structural_k(cid))
        for ell in {t, t + 1, 2 * t, 4 * t, 64 * t, 1024 * t}:
            r = ratio_report(cid, ell)
            assert r.empirical_ratio <= ratio_upper(cid, r.n, r.m).value, \
                (kind, k, ell)


@pytest.mark.parametrize("kind,k", sorted(RATIO_AT_100, key=str))
def test_ratio_upper_at_n_100(kind, k):
    want_value, want_expr = RATIO_AT_100[(kind, k)]
    u = ratio_upper(kind, 100, k=k)
    assert u.value == want_value
    assert u.expression == want_expr
    assert u.theta_class == CONCEPTS[kind].theta_class
    assert len(u.trace) >= 2
    assert u.trace[0].startswith("expression:")
    assert u.trace[-1].startswith("value at n=100")


def test_ratio_upper_caveat_only_for_unrestricted_fans():
    caveats = {kind: ratio_upper(kind, 100, k=2).caveat for kind in CONCEPTS}
    flagged = {kind for kind, c in caveats.items() if c is not None}
    assert flagged == {"adjacency-crossing", "fan-crossing"}
    assert caveats["fan-crossing"] == "simple-drawings-only"


def test_theta_classes_and_slope_targets():
    THETA_CLASS = {kind: info.theta_class for kind, info in CONCEPTS.items()}
    assert set(THETA_CLASS) == set(CONCEPTS) == set(SLOPE_TARGET)
    assert THETA_CLASS["k-planar"] == "Theta(n)"
    assert THETA_CLASS["nnic"] == "Theta(n^2)"
    assert THETA_CLASS["k-fan-crossing-free"] == "Theta(n^2/k)"
    assert THETA_CLASS["k-apex"] == "Theta(n^2/k)"
    assert THETA_CLASS["k-edge-crossing"] == "Theta(k)"
    assert THETA_CLASS["k-gap-planar"] == "Theta(n/k)"
    for kind, target in SLOPE_TARGET.items():
        if THETA_CLASS[kind] == "Theta(n)":
            assert target == 1
        elif THETA_CLASS[kind] == "Theta(k)":
            assert target == 0
        elif THETA_CLASS[kind] == "Theta(n/k)":
            assert target == 1
        else:
            assert target == 2


def test_sharpness_and_rectilinear_flags():
    not_sharp = {kind for kind in CONCEPTS
                 if not as_concept(kind, 2).info.sharp}
    assert not_sharp == {"k-gap-planar"}
    bent = {kind for kind in CONCEPTS if not ratio_report(kind, 2, 2).rectilinear}
    assert bent == set(FAN_KINDS)


# ---------------------------------------------------------------------------
# Growth exponent estimation
# ---------------------------------------------------------------------------

def test_growth_exponent_recovers_power_law():
    pts = [(n, Fraction(3 * n * n)) for n in (8, 64, 512, 4096)]
    assert growth_exponent(pts) == pytest.approx(2.0, abs=1e-9)
    pts = [(n, Fraction(n, 7)) for n in (10, 100, 1000)]
    assert growth_exponent(pts) == pytest.approx(1.0, abs=1e-9)
    flat = [(n, Fraction(5)) for n in (10, 100, 1000)]
    assert growth_exponent(flat) == pytest.approx(0.0, abs=1e-9)


def test_growth_exponent_needs_two_points():
    with pytest.raises(ValueError):
        growth_exponent([(10, Fraction(1))])
    # points at one n give no slope, however many there are; at n = 6 the
    # float variance of three equal logs is not even exactly zero
    with pytest.raises(ValueError, match="different n"):
        growth_exponent([(5, Fraction(1)), (5, Fraction(2))])
    with pytest.raises(ValueError, match="different n"):
        growth_exponent([(6, Fraction(r)) for r in (1, 2, 3)])


def test_growth_exponent_beyond_the_float_range():
    # ratios far above 2**1024, where a float of the ratio overflows
    pts = [(n, Fraction(3 ** 2000 * n * n, 7)) for n in (8, 64, 512)]
    assert growth_exponent(pts) == pytest.approx(2.0, abs=1e-9)
    with pytest.raises(ValueError, match="positive"):
        growth_exponent([(10, Fraction(0)), (20, Fraction(1))])


def test_slope_grid_shape():
    grid = next(r.grid for r in table1_report(k=2, points=3)
                if r.concept == "IC")
    assert len(grid) == 3
    ns = [n for _ell, n, _r in grid]
    assert ns == sorted(ns) and ns[0] >= 1024
    for ell, n, ratio in grid:
        assert n == framework_size("ic", ell)[0]
        bound, _ = counting_lower_bound("ic", ell)
        assert ratio == bound / crossing_count_formula("ic", ell, None, "upper")


# ---------------------------------------------------------------------------
# Per-construction reports
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind,ell,k", GRID[::3])
def test_ratio_report_is_consistent(kind, ell, k):
    r = ratio_report(kind, ell, k)
    assert (r.n, r.m) == framework_size(kind, ell, k)
    assert r.witness_crossings == crossing_count_formula(kind, ell, k, "witness")
    assert r.upper_drawing_crossings == crossing_count_formula(kind, ell, k, "upper")
    assert r.empirical_ratio == Fraction(r.counting_bound,
                                         r.upper_drawing_crossings)
    assert r.counting_bound == counting_lower_bound(kind, ell, k)[0]
    assert r.counting_bound <= r.witness_crossings
    assert r.theta_class == CONCEPTS[kind].theta_class
    assert r.sharpness == as_concept(kind, k).info.sharp
    assert r.rectilinear == (kind not in FAN_KINDS)


def test_table1_covers_every_concept():
    reps = table1_report(k=2, points=4)
    assert len(reps) == len(CONCEPTS)
    for r in reps:
        assert r.slope is not None
        assert len(r.grid) == 4
    by_class = {r.concept: r.slope for r in reps}
    assert by_class["k-ecr(k=2)"] == pytest.approx(0.0, abs=0.2)
    assert by_class["IC"] == pytest.approx(1.0, abs=0.2)
    assert by_class["NNIC"] == pytest.approx(2.0, abs=0.2)


def test_format_table1_layout():
    reps = table1_report(k=2, points=4)
    text = format_table1(reps)
    lines = text.splitlines()
    assert lines[0].split() == ["concept", "class", "slope", "sharp", "rectl"]
    assert set(lines[1]) == {"-"}
    assert len(lines) == 2 + len(reps)  # header, rule, one row each
    assert any(ln.startswith("k-gap-pl(k=2)") and "False" in ln for ln in lines)
    assert any(ln.startswith("sfp") and ln.rstrip().endswith("False")
               for ln in lines)


def test_reports_to_json_obj():
    reps = table1_report(k=2, points=4)[:2]
    objs = reports_to_json_obj(reps)
    assert len(objs) == 2
    for obj in objs:
        assert {"concept", "n", "m", "witness_crossings", "empirical_ratio",
                "theta_class", "slope", "sharpness", "rectilinear"} <= set(obj)
        assert isinstance(obj["empirical_ratio"], str)  # exact rational
