"""Kuratowski families: coverage accounting and counting bounds."""

import gc
import random
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from beyondcr import (
    BudgetExceeded,
    check_concept,
    compute_crossings,
    construction_for,
    counting_lower_bound,
    coverage_ledger,
    covered_fraction,
    crossing_count_formula,
    draw_framework,
    kuratowski_count,
    ratio_report,
    verify_full_coverage,
)
from beyondcr.graph_core import ALL_CONNECTIONS, CONCEPTS
from beyondcr.kuratowski import (
    DEFAULT_BUDGET,
    CoverageLedger,
    _uncovered,
)
from conftest import GRID, made_up_crossing
from oracles import (
    entry_covers,
    full_coverage_brute,
    geometric_uncovered,
    is_frame_subdivision,
    product_walk_uncovered,
)


# ---------------------------------------------------------------------------
# Family size and subdivision structure
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind,ell,k", GRID[::2])
def test_family_size_is_width_product(kind, ell, k):
    fg = construction_for(kind, ell, k)
    assert kuratowski_count(fg) == prod(fg.widths().values())


def test_subdivision_is_a_k33_subdivision():
    fg = construction_for("ic", 2)
    for tup in [(0, 0, 0, 0, 0, 0, 0, 0, 0), (1, 0, 0, 0, 1, 0, 0, 0, 0)]:
        assert is_frame_subdivision(fg, dict(zip(ALL_CONNECTIONS, tup)))
    # eight paths leave two frame nodes at degree 2
    assert not is_frame_subdivision(
        fg, dict(zip(ALL_CONNECTIONS[1:], (0,) * 8)))


# ---------------------------------------------------------------------------
# Coverage of the standard drawings
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind,ell,k", GRID)
@pytest.mark.parametrize("variant", ["witness", "upper"])
def test_standard_drawings_cover_everything(kind, ell, k, variant):
    fg = construction_for(kind, ell, k)
    d = draw_framework(fg, variant)
    ledger = coverage_ledger(d, fg)
    assert _in_order(ledger)
    v = verify_full_coverage(ledger, fg)
    assert v.ok, v.reason
    assert covered_fraction(ledger) == 1
    assert ledger.fraction_sum >= 1


def test_pipeline_leaves_no_cyclic_garbage():
    # A reference cycle outlives its last use until the collector's next
    # pass, holding whatever it reaches (a suspended coverage walk holds
    # its covered sets and the ledger).  With the collector off, the final
    # collect() counts every object the pipeline left in a cycle.
    gc.collect()
    gc.disable()
    try:
        for kind, ell, k in GRID[::8]:
            fg = construction_for(kind, ell, k)
            for variant in ("witness", "upper"):
                d = draw_framework(fg, variant)
                xs = compute_crossings(d)
                for c, info in CONCEPTS.items():
                    check_concept(d, c, info.k_min if info.requires_k
                                  else None, xs=xs)
                ledger = coverage_ledger(d, fg, xs)
                assert verify_full_coverage(ledger, fg).ok
                assert covered_fraction(ledger) == 1
            counting_lower_bound(kind, ell, k)
            ratio_report(kind, ell, k)
        assert gc.collect() == 0
    finally:
        gc.enable()


def _in_order(ledger):
    """Every entry names its connections in order, c1 < c2, which the
    ledger gets without a swap and the pruned walk relies on."""
    return all(c1 < c2 for c1, _, c2, _ in ledger.entries)


def test_coverage_matches_full_product_walk():
    # small families: compare against walking every index tuple
    for kind, ell, k in [("ic", 2, None), ("ic", 3, None), ("skewness", 2, 1),
                         ("k-apex", 2, 2), ("k-planar", 2, 1),
                         ("k-edge-crossing", 1, 2)]:
        fg = construction_for(kind, ell, k)
        for variant in ("witness", "upper"):
            ledger = coverage_ledger(draw_framework(fg, variant), fg)
            assert _in_order(ledger)
            assert full_coverage_brute(ledger, fg) == 0


def test_partial_ledger_detected():
    fg = construction_for("k-planar", 2, 1)
    d = draw_framework(fg, "witness")
    full = coverage_ledger(d, fg)
    assert len(full.entries) > 1
    clipped = CoverageLedger(full.widths, full.entries[:1], full.skipped)
    # one crossing of the designated 2 x 2 pair
    assert clipped.fraction_sum == Fraction(1, 4)
    v = verify_full_coverage(clipped, fg)
    assert not v.ok
    missing = v.witness["subdivision"]
    assert not any(entry_covers(e, missing) for e in clipped.entries)
    assert full_coverage_brute(clipped, fg) > 0
    assert covered_fraction(clipped) < 1


# Families of at most a few thousand subdivisions, small enough to check
# one by one against the drawing's crossings.
_SMALL_FAMILIES = [("ic", 2, None), ("ic", 3, None), ("k-planar", 2, 1),
                   ("k-vertex-planar", 2, 1), ("k-edge-crossing", 1, 2),
                   ("k-edge-crossing", 2, 2), ("k-apex", 3, 1),
                   ("skewness", 2, 1)]


@pytest.mark.parametrize("kind,ell,k", _SMALL_FAMILIES)
@pytest.mark.parametrize("variant", ["witness", "upper"])
def test_ledger_agrees_with_crossings_subdivision_by_subdivision(
        kind, ell, k, variant):
    fg = construction_for(kind, ell, k)
    d = draw_framework(fg, variant)
    xs = list(compute_crossings(d))
    rng = random.Random(f"{kind}-{ell}-{k}-{variant}")
    subsets = [xs] + [
        [xs[i] for i in sorted(rng.sample(range(len(xs)),
                                          rng.randrange(len(xs) + 1)))]
        for _ in range(6)]
    # the standard drawings never cross edges of one connection or of two
    # adjacent ones, so made-up crossings between any two edges add them
    subsets += [[made_up_crossing(fg.graph, *rng.sample(fg.graph.edges, 2),
                                  (i, 0, 1))
                 for i in range(rng.randrange(1, 12))] for _ in range(6)]
    for subset in subsets:
        ledger = coverage_ledger(d, fg, xs=tuple(subset))
        assert _in_order(ledger)
        cids = ledger.constrained()
        walked = [tuple(sub[c] for c in cids)
                  for sub in _uncovered(ledger, DEFAULT_BUDGET)[1]]
        geo = geometric_uncovered(fg, subset)
        # the family's uncovered subdivisions are exactly the extensions of
        # the walked tuples, which come once each and in product order
        assert walked == sorted({tuple(sub[c] for c in cids) for sub in geo})
        others = prod(w for c, w in ledger.widths.items() if c not in cids)
        assert len(geo) == len(walked) * others
        v = verify_full_coverage(ledger, fg)
        assert v.ok == (not geo)
        if geo:
            assert v.witness["subdivision"] == geo[0]
        assert covered_fraction(ledger) == 1 - Fraction(
            len(geo), kuratowski_count(fg))


@st.composite
def _clipped_ledgers(draw):
    """Ledgers over two to four connections, each entry one path pair on
    two of them, in either order."""
    cids = draw(st.lists(st.sampled_from(ALL_CONNECTIONS), min_size=2,
                         max_size=4, unique=True))
    widths = {c: draw(st.integers(1, 4)) for c in cids}
    entries = []
    for _ in range(draw(st.integers(0, 12))):
        c1, c2 = draw(st.permutations(cids))[:2]
        entries.append((c1, draw(st.integers(0, widths[c1] - 1)),
                        c2, draw(st.integers(0, widths[c2] - 1))))
    return CoverageLedger(widths, tuple(entries))


@settings(max_examples=300, deadline=None)
@given(_clipped_ledgers())
def test_pruned_walk_matches_product_walk(ledger):
    expected = product_walk_uncovered(ledger)
    assert list(_uncovered(ledger, DEFAULT_BUDGET)[1]) == expected
    required = prod(ledger.widths[c] for c in ledger.constrained())
    assert covered_fraction(ledger) == 1 - Fraction(len(expected), required)
    w = ledger.widths
    assert ledger.fraction_sum == sum(
        (Fraction(1, w[c1] * w[c2]) for c1, _, c2, _ in ledger.entries),
        Fraction(0))


def test_ledger_refuses_a_drawing_of_another_graph():
    nic = draw_framework(construction_for("nic", 4), "witness")
    with pytest.raises(ValueError, match="not of the IC framework graph"):
        coverage_ledger(nic, construction_for("ic", 4))


def test_empty_ledger_fails_fast():
    fg = construction_for("ic", 2)
    empty = CoverageLedger(fg.widths(), (), 0)
    assert not verify_full_coverage(empty, fg).ok
    assert covered_fraction(empty) == 0


# ---------------------------------------------------------------------------
# Budgeting
# ---------------------------------------------------------------------------

def test_budget_exceeded_raises():
    fg = construction_for("k-planar", 3, 2)
    ledger = coverage_ledger(draw_framework(fg, "witness"), fg)
    with pytest.raises(BudgetExceeded) as ei:
        verify_full_coverage(ledger, fg, budget=10)
    assert ei.value.required > 10
    assert ei.value.budget == 10
    # the default budget is plenty here
    assert verify_full_coverage(ledger, fg).ok


def test_threshold_families_exceed_default_budget():
    # the parameter points excluded from enumeration really are too large
    for kind, ell, k in [("k-planar", 41, 1), ("k-vertex-planar", 11, 1),
                         ("nnic", 109, None), ("k-fan-crossing-free", 109, 2)]:
        fg = construction_for(kind, ell, k)
        assert kuratowski_count(fg) > DEFAULT_BUDGET


# ---------------------------------------------------------------------------
# Counting lower bounds
# ---------------------------------------------------------------------------

def test_counting_bound_values_at_thresholds():
    expected = {
        ("k-planar", 41, 1): Fraction(41),
        ("k-vertex-planar", 11, 1): Fraction(11),
        ("ic", 2, None): Fraction(4),
        ("nic", 4, None): Fraction(2),
        ("adjacency-crossing", 1, None): Fraction(1),
        ("k-edge-crossing", 1, 2): Fraction(1, 2),
        ("k-gap-planar", 5, 1): Fraction(5),
        ("k-apex", 1, 1): Fraction(1),
        ("skewness", 2, 1): Fraction(2),
    }
    for (kind, ell, k), want in expected.items():
        got, _trace = counting_lower_bound(kind, ell, k)
        assert got == want, (kind, got, want)


def test_counting_bound_trace_structure():
    bound, trace = counting_lower_bound("k-planar", 41, 1)
    assert len(trace) == 3
    assert trace[0].startswith("classes:")
    assert trace[1].startswith("coefficient:")
    assert trace[2].startswith("bound:")
    assert str(41) in trace[2]
    # below the threshold an explanatory fourth line appears
    _, trace_low = counting_lower_bound("ic", 1)
    assert len(trace_low) == 4
    assert "below threshold" in trace_low[3]


@pytest.mark.parametrize("kind,ell,k", GRID)
def test_counting_bound_no_larger_than_witness_count(kind, ell, k):
    bound, _ = counting_lower_bound(kind, ell, k)
    witness = crossing_count_formula(kind, ell, k, "witness")
    assert bound <= witness
