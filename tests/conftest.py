"""Shared test data: the concept/parameter grid, hand-made non-simple
and fan drawings."""

from fractions import Fraction

from beyondcr import (Crossing, Drawing, construction_for, draw_framework,
                      edge, make_graph)

# Figure-scale (ell, k) points per concept.  Every theorem threshold whose
# Kuratowski family fits the enumeration budget appears here too, so the
# coverage checks run on the exact extremal parameters where possible.
GRID = [
    ("k-planar", 2, 1),
    ("k-planar", 3, 2),
    ("k-vertex-planar", 2, 1),
    ("k-vertex-planar", 3, 2),
    ("ic", 2, None),
    ("ic", 3, None),
    ("nic", 4, None),
    ("nic", 5, None),
    ("nnic", 3, None),
    ("nnic", 4, None),
    ("k-fan-crossing-free", 3, 2),
    ("k-fan-crossing-free", 2, 3),
    ("adjacency-crossing", 1, None),
    ("adjacency-crossing", 2, None),
    ("adjacency-crossing", 3, None),
    ("fan-crossing", 1, None),
    ("fan-crossing", 2, None),
    ("weak-fan-planar", 1, None),
    ("weak-fan-planar", 2, None),
    ("strong-fan-planar", 1, None),
    ("strong-fan-planar", 2, None),
    ("k-edge-crossing", 1, 2),
    ("k-edge-crossing", 2, 2),
    ("k-edge-crossing", 2, 4),
    ("k-gap-planar", 5, 1),
    ("k-gap-planar", 2, 2),
    ("k-apex", 1, 1),
    ("k-apex", 2, 2),
    ("k-apex", 3, 1),
    ("skewness", 2, 1),
    ("skewness", 3, 2),
]

THRESHOLD_POINTS = [
    # (kind, threshold ell, k): the scale each worst-case statement needs
    ("k-planar", 41, 1),
    ("k-vertex-planar", 11, 1),
    ("ic", 2, None),
    ("nic", 4, None),
    ("nnic", 109, None),
    ("k-fan-crossing-free", 109, 2),
    ("k-edge-crossing", 1, 2),
    ("k-gap-planar", 5, 1),
    ("k-apex", 1, 1),
    ("skewness", 2, 1),
]

# Every point whose standard drawings ``drawings_golden.json`` pins.
GOLDEN_POINTS = sorted(set(GRID) | set(THRESHOLD_POINTS), key=str)

FAN_KINDS = ("adjacency-crossing", "fan-crossing",
             "weak-fan-planar", "strong-fan-planar")

# The paper's expected log-log slope of the crossing ratio in n (fixed k),
# per concept: the exponent its growth class predicts.
SLOPE_TARGET: dict[str, int] = {
    "k-planar": 1,
    "k-vertex-planar": 1,
    "ic": 1,
    "nic": 1,
    "nnic": 2,
    "k-fan-crossing-free": 2,
    "adjacency-crossing": 2,
    "fan-crossing": 2,
    "weak-fan-planar": 2,
    "strong-fan-planar": 2,
    "k-edge-crossing": 0,
    "k-gap-planar": 1,
    "k-apex": 2,
    "skewness": 1,
}


def pt(x, y):
    return (Fraction(x), Fraction(y))


def made_up_crossing(graph, e, f, xyw, turn=1) -> Crossing:
    """A crossing of edges e and f of ``graph`` at (x/w, y/w), halfway along
    the first segment of each, with the engine's edge indices: each edge's
    index in ``graph.edges``, so no test can pass indices that disagree
    with its edges."""
    a, b = sorted((e, f))
    return Crossing(a, b, graph.edges.index(a), graph.edges.index(b),
                    0, 1, 2, 0, 1, 2, xyw, turn)


def standard_drawing(kind, ell, k=None, variant="witness") -> Drawing:
    """The standard drawing of the concept's framework graph at (ell, k)."""
    return draw_framework(construction_for(kind, ell, k), variant)


def self_crossing_drawing() -> Drawing:
    """One edge whose bent curve crosses itself once."""
    return Drawing(make_graph(["a", "b"], [edge("a", "b")]),
                   {"a": pt(0, 0), "b": pt(4, 0)},
                   curves={edge("a", "b"): (pt(4, 2), pt(0, 2), pt(2, -1))})


def adjacent_crossing_drawing() -> Drawing:
    """Two edges at a whose curves properly cross once, a|c bent."""
    return Drawing(make_graph(["a", "b", "c"],
                              [edge("a", "b"), edge("a", "c")]),
                   {"a": pt(0, 0), "b": pt(6, 0), "c": pt(6, 3)},
                   curves={edge("a", "c"): (pt(2, -2), pt(4, 1))})


def double_crossing_drawing() -> Drawing:
    """Two independent edges that cross twice, c|d bent below a|b."""
    return Drawing(make_graph(["a", "b", "c", "d"],
                              [edge("a", "b"), edge("c", "d")]),
                   {"a": pt(0, 0), "b": pt(6, 0), "c": pt(1, 1),
                    "d": pt(5, 1)},
                   curves={edge("c", "d"): (pt(2, -1), pt(4, -1))})


def fan_fixture_adjacent_not_fan() -> Drawing:
    """Three pairwise-adjacent triangle sides cross e without a common vertex.

    Passes adjacency-crossing, fails fan-crossing (and the rest).
    """
    g = make_graph(
        ["e1", "e2", "a", "b", "c"],
        [edge("e1", "e2"), edge("a", "b"), edge("a", "c"), edge("b", "c")],
    )
    return Drawing(
        g,
        {"e1": pt(0, 0), "e2": pt(10, 0),
         "a": pt(3, 2), "b": pt(7, -2), "c": pt(5, -4)},
        curves={edge("b", "c"): (pt(11, 1), pt(11, -1))},
    )


def fan_fixture_fan_not_weak() -> Drawing:
    """Both crossers share the anchor v but cross e in opposite directions.

    Passes fan-crossing, fails weak-fan-planar.
    """
    g = make_graph(
        ["e1", "e2", "u1", "u2", "v"],
        [edge("e1", "e2"), edge("u1", "v"), edge("u2", "v")],
    )
    return Drawing(
        g,
        {"e1": pt(0, 0), "e2": pt(20, 0),
         "u1": pt(6, -4), "u2": pt(11, 2), "v": pt(10, 6)},
        curves={edge("u2", "v"): (pt(14, -4), pt(24, -2), pt(24, 8))},
    )


def fan_fixture_weak_not_strong() -> Drawing:
    """Consistent-side fan whose region wraps around both endpoints of e.

    Both crossers dive below e at their crossing and climb back to the
    anchor around opposite outside ends, so the fan region strictly
    encloses e's endpoints.  Passes weak-fan-planar, fails strong.
    """
    g = make_graph(
        ["e1", "e2", "a", "b", "v"],
        [edge("e1", "e2"), edge("a", "v"), edge("b", "v")],
    )
    return Drawing(
        g,
        {"e1": pt(0, 0), "e2": pt(10, 0),
         "a": pt(2, 2), "b": pt(8, 2), "v": pt(5, 4)},
        curves={
            edge("a", "v"): (pt(1, -2), pt(-1, -2), pt(-1, 3)),
            edge("b", "v"): (pt(9, -2), pt(11, -2), pt(11, 3)),
        },
    )


def fan_fixture_bent_edge_straight_crossers() -> Drawing:
    """Both crossers run straight from their crossings to the anchor, but
    e = u0|u1 bends: it crosses a|v just right of u0, loops around below
    and up the left, and crosses b|v just before u1, so the piece of e
    between the crossings and the two tails close a region around u0.
    Passes weak-fan-planar, fails strong.
    """
    g = make_graph(
        ["u0", "u1", "a", "b", "v"],
        [edge("u0", "u1"), edge("a", "v"), edge("b", "v")],
    )
    return Drawing(
        g,
        {"u0": pt(-10, -3), "u1": pt(-20, 30),
         "a": pt(0, -10), "b": pt(-36, 16), "v": pt(0, 100)},
        curves={edge("u0", "u1"): (pt(50, -5), pt(50, -50), pt(-50, -50),
                                   pt(-50, 30))},
    )


# ---------------------------------------------------------------------------
# Acceptance reporting: one PASS/FAIL line per criterion at the end of the
# pytest run (see test_acceptance.py).
# ---------------------------------------------------------------------------

ACCEPTANCE_REPORT: dict[int, tuple[bool, str]] = {}


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_REPORT:
        return
    terminalreporter.section("acceptance criteria")
    for n in sorted(ACCEPTANCE_REPORT):
        ok, desc = ACCEPTANCE_REPORT[n]
        status = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"{status} criterion {n}: {desc}")
