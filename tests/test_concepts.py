"""Golden pin of the per-concept data: formulas, traces, widths, names.

``concepts_golden.json`` holds, for every concept at two (ell, k) points
(one below its quality threshold where one exists, one at or above it), the
full ``beyondcr bound --format json`` stdout, the ratio report, the
connection widths, ``str(ConceptId)`` and ``structural_k``; plus every
concept alias the parser accepts and the kind it maps to.  Any change to a
concept's record that alters one of these bytes fails here.

The data was recorded from commit f179bf6, before the per-concept data was
folded into the one ``CONCEPTS`` table; it is not regenerated by any tool.
``bound_text_golden.json`` holds the ``beyondcr bound --format text``
stdout at the same points, recorded from commit 7ee1782, before ``bound``
printed from one ``RatioReport``.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from beyondcr import parse_concept, ratio_report
from beyondcr.cli import run
from beyondcr.graph_core import connection_specs, structural_k

GOLDEN = Path(__file__).with_name("concepts_golden.json")
TEXT_GOLDEN = Path(__file__).with_name("bound_text_golden.json")

# (kind, ell, k): the first point of each concept is below its threshold
# when the concept has one above ell = 1 (k-planar also needs ell >= 2).
POINTS = [
    ("k-planar", 40, 1), ("k-planar", 41, 3),
    ("k-vertex-planar", 10, 2), ("k-vertex-planar", 11, 1),
    ("ic", 1, None), ("ic", 2, None),
    ("nic", 3, None), ("nic", 4, None),
    ("nnic", 108, None), ("nnic", 109, None),
    ("k-fan-crossing-free", 108, 2), ("k-fan-crossing-free", 109, 3),
    ("adjacency-crossing", 1, None), ("adjacency-crossing", 3, None),
    ("fan-crossing", 1, None), ("fan-crossing", 3, None),
    ("weak-fan-planar", 1, None), ("weak-fan-planar", 3, None),
    ("strong-fan-planar", 1, None), ("strong-fan-planar", 3, None),
    ("k-edge-crossing", 1, 2), ("k-edge-crossing", 2, 5),
    ("k-gap-planar", 4, 1), ("k-gap-planar", 5, 2),
    ("k-apex", 1, 1), ("k-apex", 2, 3),
    ("skewness", 2, 2), ("skewness", 4, 1),
]


def _point_id(kind, ell, k):
    return f"{kind}_l{ell}_k{k}"


def _bound_stdout(kind, ell, k, fmt="json") -> str:
    argv = ["bound", "--concept", kind, "--ell", str(ell), "--format", fmt]
    if k is not None:
        argv += ["--k", str(k)]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert run(argv) == 0
    return buf.getvalue()


def observe_point(kind, ell, k) -> dict:
    cid = parse_concept(kind, k)
    return {
        "bound_stdout": _bound_stdout(kind, ell, k),
        "ratio_report": ratio_report(cid, ell).to_json_obj(),
        "connection_widths": {c: s.width for c, s
                              in connection_specs(cid, ell).items()},
        "str": str(cid),
        "structural_k": structural_k(cid),
    }


def test_golden_covers_every_concept():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    kinds = {kind for kind, _ell, _k in POINTS}
    assert len(kinds) == 14
    assert set(golden["points"]) == {_point_id(*p) for p in POINTS}
    text_golden = json.loads(TEXT_GOLDEN.read_text(encoding="utf-8"))
    assert set(text_golden) == {_point_id(*p) for p in POINTS}
    assert set(golden["aliases"].values()) == kinds


@pytest.mark.parametrize("kind,ell,k", POINTS,
                         ids=[_point_id(*p) for p in POINTS])
def test_concept_point_matches_golden(kind, ell, k):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert observe_point(kind, ell, k) == golden["points"][_point_id(kind, ell, k)]


@pytest.mark.parametrize("kind,ell,k", POINTS,
                         ids=[_point_id(*p) for p in POINTS])
def test_bound_text_matches_golden(kind, ell, k):
    golden = json.loads(TEXT_GOLDEN.read_text(encoding="utf-8"))
    assert _bound_stdout(kind, ell, k, "text") == golden[_point_id(kind, ell, k)]


def test_aliases_match_golden():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    for alias, kind in golden["aliases"].items():
        # k is ignored by concepts without a parameter
        assert parse_concept(alias, 2).kind == kind, alias
        assert parse_concept(f"  {alias.upper()} ", 2).kind == kind, alias
