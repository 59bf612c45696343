"""Crossing-ratio framework graphs for beyond-planarity concepts.

Construct the extremal framework graphs, emit and validate their standard
drawings, check polyline drawings against beyond-planarity predicates, and
run the Kuratowski-subdivision coverage accounting behind the counting
lower bounds.
"""

from .bounds_report import (
    RatioReport,
    UpperBound,
    format_table1,
    growth_exponent,
    ratio_report,
    ratio_upper,
    table1_report,
)
from .checkers import check_concept
from .corpus import random_corpus, random_drawing
from .drawing import (
    Crossing,
    Drawing,
    GeneralPositionViolation,
    Verdict,
    compute_crossings,
    drawing_from_json,
    drawing_from_json_obj,
    drawing_to_json,
    drawing_to_json_obj,
    is_simple,
    is_straight_line,
    to_svg,
)
from .graph_core import (
    ConceptId,
    FrameworkGraph,
    Graph,
    construction_for,
    edge,
    framework_size,
    graph_from_json_obj,
    graph_to_json,
    make_graph,
    parse_concept,
)
from .kuratowski import (
    BudgetExceeded,
    CoverageLedger,
    counting_lower_bound,
    coverage_ledger,
    covered_fraction,
    kuratowski_count,
    verify_full_coverage,
)
from .standard_layouts import (
    appendix_fcf_fixture,
    crossing_count_formula,
    draw_framework,
    frame_edge_colors,
    k5_fcf_fixture,
)

__version__ = "0.1.0"
