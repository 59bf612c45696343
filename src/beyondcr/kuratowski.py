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
An edge lies on at most one pole path, so a covering crossing is the tuple
``(c1, p1, c2, p2)`` of its two connections and their paths, and covers
1/(w1*w2) of the family.  The ledger looks each crossing's edges up by
their indices ``ia``/``ib`` in ``FrameworkGraph.edge_paths``, which names
each edge's connection by its id, and tests adjacency in a table keyed by
connection ids.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import prod
from typing import Iterator, Mapping, NamedTuple

from .drawing import Crossing, Drawing, Verdict, compute_crossings
from .graph_core import (
    ALL_CONNECTIONS,
    ConceptId,
    ConGraphSpec,
    FrameworkGraph,
    as_concept,
    connection_poles,
    connection_specs,
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

# A covering crossing (c1, p1, c2, p2): path p1 of connection c1 crosses
# path p2 of connection c2, the two connections in either order.  A plain
# tuple of str and int, not a NamedTuple or a class: CPython's collector
# untracks only exact tuples of atoms, and a threshold-scale ledger holds
# ~10^5 of them.
Entry = tuple[str, int, str, int]


class CoverageLedger(NamedTuple):
    """All covering crossings of one drawing, as ``Entry`` tuples in
    crossing order, plus the connection widths.

    ``skipped`` counts crossings that cover nothing: same-connection and
    adjacent-connection crossings, and crossings on edges that lie on no
    pole path (direct pole edges of bundles, K7 pentagon edges, apex K5
    blobs, ...).
    """

    widths: dict[str, int]
    entries: tuple[Entry, ...]
    skipped: int = 0

    @property
    def fraction_sum(self) -> Fraction:
        """The entries' covers summed: a subdivision two entries cover
        counts twice."""
        pairs = Counter((c1, c2) for c1, _, c2, _ in self.entries)
        return sum((Fraction(n, self.widths[c1] * self.widths[c2])
                    for (c1, c2), n in pairs.items()), Fraction(0))

    def constrained(self) -> tuple[str, ...]:
        """Connections whose path choice any entry depends on."""
        return tuple(sorted({e[0] for e in self.entries}
                            | {e[2] for e in self.entries}))


# _ADJACENT[c][d]: whether connections c and d, by id, share a pole, each
# connection with itself included: crossings between their edges cover
# nothing.
_ADJACENT = {c: {d: bool(set(connection_poles(c)) & set(connection_poles(d)))
                 for d in ALL_CONNECTIONS} for c in ALL_CONNECTIONS}


def coverage_ledger(drawing: Drawing, fg: FrameworkGraph,
                    xs: tuple[Crossing, ...] | None = None
                    ) -> CoverageLedger:
    """Attribute every crossing of the drawing to the subdivisions it covers.

    A crossing between pole paths of non-adjacent connections (pole sets
    disjoint) becomes the entry ``(c1, p1, c2, p2)``; everything else
    covers nothing and is counted in ``skipped``.  A drawing of another
    graph than the framework graph's raises ValueError.  ``xs``, when
    given, are the drawing's crossings as ``compute_crossings`` returns
    them: their edge indices index ``fg.edge_paths``.
    Entries come with c1 < c2 (edges sort by their connection's v-pole,
    distinct for non-adjacent connections); the walk reads either order.
    """
    if drawing.graph != fg.graph:
        raise ValueError(f"the drawing is not of the {fg.concept} framework "
                         f"graph at ell={fg.ell}")
    if xs is None:
        xs = compute_crossings(drawing)
    edge_paths = fg.edge_paths
    entries: list[Entry] = []
    skipped = 0
    for x in xs:
        c1, p1 = edge_paths[x.ia]
        c2, p2 = edge_paths[x.ib]
        if _ADJACENT[c1][c2] or p1 is None or p2 is None:
            skipped += 1
        else:
            entries.append((c1, p1, c2, p2))
    return CoverageLedger(fg.widths(), tuple(entries), skipped)


def _uncovered(ledger: CoverageLedger, budget: int
               ) -> tuple[int, Iterator[dict[str, int]]]:
    """Path tuples over the constrained connections: their number, and a lazy
    walk, in product order, over those no entry covers.  Over budget raises
    BudgetExceeded; no entries leave the one empty tuple, which no budget
    refuses.

    Every entry forbids one path pair on two connections, so the walk
    assigns the constrained connections depth first, in order, and skips
    each path that an earlier choice already pairs with a covering entry:
    a covered prefix never reaches its extensions (``_walk``).
    """
    cids = ledger.constrained()
    required = prod(ledger.widths[c] for c in cids)
    if cids and required > budget:
        raise BudgetExceeded(required, budget)
    # covered[c, p, d]: the paths of d that an entry covers with path p of
    # c; an entry may name c and d in either order, the walk's is c < d
    covered: dict[tuple[str, int, str], set[int]] = {}
    for c1, p1, c2, p2 in ledger.entries:
        if c2 < c1:
            c1, p1, c2, p2 = c2, p2, c1, p1
        covered.setdefault((c1, p1, c2), set()).add(p2)
    return required, _walk(cids, covered, ledger.widths, 0, {})


def _walk(cids: tuple[str, ...],
          covered: dict[tuple[str, int, str], set[int]],
          widths: dict[str, int], depth: int, sub: dict[str, int]
          ) -> Iterator[dict[str, int]]:
    """The uncovered extensions of ``sub``, which assigns ``cids[:depth]``,
    in product order.  A module function, not a closure over itself, so a
    walk left suspended holds no reference cycle and is freed when
    dropped."""
    if depth == len(cids):
        yield dict(sub)
        return
    d = cids[depth]
    blocked: set[int] = set()
    for c in cids[:depth]:
        blocked.update(covered.get((c, sub[c], d), ()))
    for q in range(widths[d]):
        if q not in blocked:
            sub[d] = q
            yield from _walk(cids, covered, widths, depth + 1, sub)


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
    if ledger.widths != fg.widths():
        raise ValueError("ledger was built for a different framework graph")
    sub = next(_uncovered(ledger, budget)[1], None)
    if sub is None:
        return Verdict(True, str(fg.concept))
    reason = ("uncovered subdivision" if ledger.entries
              else "no covering crossings")
    return Verdict(False, str(fg.concept), reason,
                   {"subdivision": {c: sub.get(c, 0) for c in ALL_CONNECTIONS}})


def covered_fraction(ledger: CoverageLedger,
                     budget: int = DEFAULT_BUDGET) -> Fraction:
    """Exact share of the subdivision family covered by >= 1 entry.

    Kept for checking a concept's ``share``: a full ledger always covers
    the whole family, one restricted to the counted crossings need not.
    """
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
    # connection_specs refuses ell < 1 first
    return counting_lower_bound_of(cid, ell, connection_specs(cid, ell))


def counting_lower_bound_of(cid: ConceptId, ell: int,
                            specs: Mapping[str, ConGraphSpec]
                            ) -> tuple[Fraction, tuple[str, ...]]:
    """``counting_lower_bound`` for a parsed concept whose connections at
    ell have these specs."""
    widths = {c: spec.width for c, spec in specs.items()}
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
