"""Kuratowski-subdivision coverage accounting for framework graphs.

A framework graph contains one K_{3,3} subdivision for every way of picking
a single pole path per connection, so the family has prod(widths) members.
In any drawing, each of those subdivisions must contain a crossing between
two edges lying on vertex-disjoint ("non-adjacent") Kuratowski paths — a
drawing in which only adjacent edges cross could be rerouted planarly.  A
crossing therefore *covers* the axis-aligned rectangle of subdivisions that
route through both of its crossed edges, and full coverage of the family is
a necessary condition checked here exactly.  Turning coverage fractions
into crossing counts gives the per-concept counting lower bounds.

A subdivision is named by its path choices, a ``{connection: path index}``
dict; ``verify_full_coverage`` returns the first uncovered one in that form.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod
from typing import Iterator, NamedTuple

from .drawing import Crossing, Drawing, Verdict, compute_crossings
from .graph_core import (
    ALL_CONNECTIONS,
    ConceptId,
    FrameworkGraph,
    as_concept,
    connection_poles,
    connection_widths,
    evaluate,
    structural_k,
)

DEFAULT_BUDGET = 10_000_000


class BudgetExceeded(Exception):
    """Deciding coverage would enumerate more path tuples than allowed.

    Raised instead of ever returning an approximate answer.
    """

    def __init__(self, required: int, budget: int):
        super().__init__(
            f"coverage decision needs {required} tuple evaluations, "
            f"budget is {budget} (raise it with --budget or budget=)")
        self.required = required
        self.budget = budget


# ---------------------------------------------------------------------------
# The subdivision family
# ---------------------------------------------------------------------------

def kuratowski_count(fg: FrameworkGraph) -> int:
    """Number of K_{3,3} subdivisions with the frame nodes as branch nodes."""
    return prod(cg.width for cg in fg.congraphs.values())


# ---------------------------------------------------------------------------
# Coverage ledgers
# ---------------------------------------------------------------------------

class CoverageEntry:
    """One covering crossing, as the rectangle of subdivisions it covers.

    ``index`` is the crossing's position in the drawing's crossing list.
    ``paths1``/``paths2`` are the path-index sets P_{c1}[e1] and P_{c2}[e2];
    the entry covers every subdivision choosing from both sets, a
    |paths1|*|paths2| / (w1*w2) share of the family.  The connections are
    stored in order, c1 < c2, each with its own path set.
    """

    __slots__ = ("index", "c1", "c2", "paths1", "paths2", "fraction")

    def __init__(self, index: int, c1: str, c2: str, paths1: frozenset[int],
                 paths2: frozenset[int], fraction: Fraction):
        if c1 == c2:
            raise ValueError(f"entry {index} pairs {c1} with itself")
        if c2 < c1:
            c1, c2, paths1, paths2 = c2, c1, paths2, paths1
        self.index = index
        self.c1 = c1
        self.c2 = c2
        self.paths1 = paths1
        self.paths2 = paths2
        self.fraction = fraction


class CoverageLedger(NamedTuple):
    """All covering crossings of one drawing, plus the connection widths.

    ``skipped`` counts crossings that cover nothing: same-connection and
    adjacent-connection crossings, and crossings on edges that lie on no
    pole path (direct pole edges of bundles, K7 pentagon edges, apex K5
    blobs, ...).
    """

    widths: dict[str, int]
    entries: tuple[CoverageEntry, ...]
    skipped: int = 0

    @property
    def fraction_sum(self) -> Fraction:
        return sum((e.fraction for e in self.entries), Fraction(0))

    def constrained(self) -> tuple[str, ...]:
        """Connections whose path choice any entry depends on."""
        cids = {e.c1 for e in self.entries} | {e.c2 for e in self.entries}
        return tuple(sorted(cids))


# Connection pairs that share a pole, each connection with itself included:
# crossings between their edges cover nothing.
_ADJACENT = {(c, d) for c in ALL_CONNECTIONS for d in ALL_CONNECTIONS
             if set(connection_poles(c)) & set(connection_poles(d))}


def coverage_ledger(drawing: Drawing, fg: FrameworkGraph,
                    crossings: tuple[Crossing, ...] | None = None
                    ) -> CoverageLedger:
    """Attribute every crossing of the drawing to the subdivisions it covers.

    Crossings between edges of non-adjacent connections (pole sets disjoint)
    contribute a rectangle entry; everything else contributes nothing.
    A drawing of another graph than the framework graph's raises ValueError.
    """
    if drawing.graph != fg.graph:
        raise ValueError(f"the drawing is not of the {fg.concept} framework "
                         f"graph at ell={fg.ell}")
    if crossings is None:
        crossings = compute_crossings(drawing)
    widths = fg.widths()
    edge_paths = fg.edge_paths
    entries: list[CoverageEntry] = []
    skipped = 0
    # one Fraction per (paths, product of widths) pair: few distinct values
    fracs: dict[tuple[int, int], Fraction] = {}
    for i, x in enumerate(crossings):
        try:
            c1, t1 = edge_paths[x.a]
            c2, t2 = edge_paths[x.b]
        except KeyError as exc:
            raise ValueError(f"crossed edge {exc.args[0]} belongs to no "
                             "con-graph of the framework graph") from None
        if (c1, c2) in _ADJACENT or not t1 or not t2:
            skipped += 1
            continue
        key = (len(t1) * len(t2), widths[c1] * widths[c2])
        frac = fracs.get(key)
        if frac is None:
            frac = fracs[key] = Fraction(*key)
        entries.append(CoverageEntry(i, c1, c2, t1, t2, frac))
    return CoverageLedger(widths, tuple(entries), skipped)


def _check_same_widths(ledger: CoverageLedger, fg: FrameworkGraph) -> None:
    if ledger.widths != fg.widths():
        raise ValueError("ledger was built for a different framework graph")


def _uncovered(ledger: CoverageLedger, budget: int
               ) -> tuple[int, Iterator[dict[str, int]]]:
    """Path tuples over the constrained connections: their number, and a lazy
    walk, in product order, over those no entry covers.  Over budget raises
    BudgetExceeded; no entries leave the one empty tuple, which no budget
    refuses.

    Every entry forbids a rectangle of path pairs on two connections, so
    the walk assigns the constrained connections depth first, in order,
    and skips each path that an earlier choice already pairs with a
    covering entry: a covered prefix never reaches its extensions.
    """
    cids = ledger.constrained()
    required = prod(ledger.widths[c] for c in cids)
    if cids and required > budget:
        raise BudgetExceeded(required, budget)
    # covered[c, d][p]: the paths of d that an entry covers with path p of c
    covered: dict[tuple[str, str], dict[int, set[int]]] = {}
    for e in ledger.entries:
        rows = covered.setdefault((e.c1, e.c2), {})
        for p in e.paths1:
            rows.setdefault(p, set()).update(e.paths2)

    def walk(depth: int, sub: dict[str, int]) -> Iterator[dict[str, int]]:
        if depth == len(cids):
            yield dict(sub)
            return
        d = cids[depth]
        blocked: set[int] = set()
        for c in cids[:depth]:
            blocked.update(covered.get((c, d), {}).get(sub[c], ()))
        for q in range(ledger.widths[d]):
            if q not in blocked:
                sub[d] = q
                yield from walk(depth + 1, sub)

    return required, walk(0, {})


def verify_full_coverage(ledger: CoverageLedger,
                         fg: FrameworkGraph,
                         budget: int = DEFAULT_BUDGET) -> Verdict:
    """Decide exactly whether every subdivision is covered by some entry.

    Only connections mentioned by an entry influence whether it applies, so
    it suffices to enumerate path choices over that subset; all extensions
    to the remaining connections behave identically.  The number of
    enumerated tuples is capped by the budget — exceeding it raises
    BudgetExceeded rather than ever sampling.
    """
    _check_same_widths(ledger, fg)
    sub = next(_uncovered(ledger, budget)[1], None)
    if sub is None:
        return Verdict(True, str(fg.concept))
    reason = ("uncovered subdivision" if ledger.entries
              else "no covering crossings")
    return Verdict(False, str(fg.concept), reason,
                   {"subdivision": {c: sub.get(c, 0) for c in ALL_CONNECTIONS}})


def covered_fraction(ledger: CoverageLedger,
                     budget: int = DEFAULT_BUDGET) -> Fraction:
    """Exact share of the subdivision family covered by >= 1 entry."""
    required, uncovered = _uncovered(ledger, budget)
    return Fraction(required - sum(1 for _ in uncovered), required)


# ---------------------------------------------------------------------------
# Counting lower bounds
# ---------------------------------------------------------------------------

def counting_lower_bound(concept: "str | ConceptId", ell: int,
                         k: int | None = None
                         ) -> tuple[Fraction, tuple[str, ...]]:
    """Exact coverage-counting lower bound on crossings, with its arithmetic.

    The bound has the shape ``share * rectangles``: at least ``share`` of
    the subdivision family must be covered by crossings of the designated
    kind, each of which covers at most ``1/rectangles`` of the family.  The
    trace records the family size, both factors, and the product.  Below
    the construction's quality threshold the same formula is evaluated
    anyway (it may be non-positive) and the trace says so.
    """
    cid = as_concept(concept, k)
    widths = connection_widths(cid, ell)    # refuses ell < 1 first
    kk = structural_k(cid)
    share, share_s = evaluate(cid.info.share, ell=ell, k=kk)
    rect, rect_s = evaluate(cid.info.rect, ell=ell, k=kk)
    total = prod(widths[c] for c in ALL_CONNECTIONS)
    bound = share * rect
    trace = [
        "classes: |K| = "
        + " * ".join(str(widths[c]) for c in ALL_CONNECTIONS)
        + f" = {total}",
        f"coefficient: required covered share {share_s} = {share}; "
        f"each counted crossing covers at most 1/({rect_s}) = 1/{rect}",
        f"bound: ({share}) * {rect} = {bound}",
    ]
    threshold, _ = evaluate(cid.info.threshold, k=kk)
    if ell < threshold:
        trace.append(f"below threshold: ell={ell} < {threshold}; "
                     "formula evaluated anyway")
    return bound, tuple(trace)
