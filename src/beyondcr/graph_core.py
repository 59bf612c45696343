"""Concepts, con-graphs and framework graphs.

The *frame* is a K_{3,3} on nodes v1,v2,v3 / w1,w2,w3, edge-colored by one
of the ``COLORINGS``.  A concept and ell fix a *framework graph*: each
connection is replaced by the *con-graph* (a two-pole graph) its color
dictates, carrying internally disjoint pole-to-pole paths for the
Kuratowski-subdivision accounting.
"""

from __future__ import annotations

import json
import math
import operator
import re
from functools import cached_property, lru_cache
from fractions import Fraction
from itertools import combinations
from typing import Callable, Iterable, Mapping, NamedTuple

Edge = tuple[str, str]

V_NODES = ("v1", "v2", "v3")
W_NODES = ("w1", "w2", "w3")
FRAME_NODES = V_NODES + W_NODES


def edge(u: str, v: str) -> Edge:
    if u == v:
        raise ValueError(f"loop edge at {u!r}")
    return (u, v) if u < v else (v, u)


def edge_key(e: Edge) -> str:
    return f"{e[0]}|{e[1]}"


def edge_from_key(key: str) -> Edge:
    u, _, v = key.partition("|")
    return edge(u, v)


class Graph:
    """A simple undirected graph with string vertex ids; equal graphs have
    equal vertex and edge tuples."""

    __slots__ = ("vertices", "edges")

    def __init__(self, vertices: tuple[str, ...], edges: tuple[Edge, ...]):
        vs = set(vertices)
        if len(vs) != len(vertices):
            raise ValueError("duplicate vertices")
        if any("|" in v for v in vs):
            raise ValueError("'|' separates edge keys, so no vertex id may "
                             f"contain it: {sorted(v for v in vs if '|' in v)}")
        if len(set(edges)) != len(edges):
            raise ValueError("parallel edges")
        for u, v in edges:
            if u not in vs or v not in vs:
                raise ValueError(f"edge ({u},{v}) uses unknown vertex")
            if not u < v:
                raise ValueError(f"edge ({u},{v}) not normalized")
        self.vertices = vertices
        self.edges = edges

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (self.vertices, self.edges) == (other.vertices, other.edges)

    def __hash__(self) -> int:
        return hash((self.vertices, self.edges))

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def m(self) -> int:
        return len(self.edges)


def make_graph(vertices: Iterable[str], edges: Iterable[Edge]) -> Graph:
    return Graph(tuple(sorted(set(vertices))), tuple(sorted(set(edges))))


# ---------------------------------------------------------------------------
# The frame
# ---------------------------------------------------------------------------

def connection_id(v: str, w: str) -> str:
    """Canonical id of the frame connection between a v-node and a w-node."""
    if v in W_NODES:
        v, w = w, v
    if v not in V_NODES or w not in W_NODES:
        raise ValueError(f"not a frame connection: {v},{w}")
    return f"{v}-{w}"


ALL_CONNECTIONS = tuple(
    connection_id(v, w) for v in V_NODES for w in W_NODES
)


def connection_poles(cid: str) -> tuple[str, str]:
    v, _, w = cid.partition("-")
    return v, w


# Coloring name -> color of each connection, in ALL_CONNECTIONS order.
# standard: the 4-cycle v1-w1 blue, w1-v2 yellow, v2-w2 blue, w2-v1 red.
# alternate: v1-w1 blue, and v1-w2 and v2-w1 red (independent, each
# adjacent to the blue one).  The other connections are gray.
COLORINGS: dict[str, dict[str, str]] = {
    name: {cid: colors.get(cid, "gray") for cid in ALL_CONNECTIONS}
    for name, colors in (
        ("standard", {"v1-w1": "blue", "v2-w1": "yellow", "v2-w2": "blue",
                      "v1-w2": "red"}),
        ("alternate", {"v1-w1": "blue", "v1-w2": "red", "v2-w1": "red"}),
    )
}

# Drawing variant -> the (vertical, horizontal) pair of non-adjacent
# connections whose con-graphs may cross in that standard drawing, the
# same for both colorings.
DESIGNATED: dict[str, tuple[str, str]] = {
    "upper": ("v1-w2", "v2-w1"),
    "witness": ("v1-w1", "v2-w2"),
}


# ---------------------------------------------------------------------------
# Con-graph specifications
# ---------------------------------------------------------------------------

# Each spec is an immutable record with three sizes of the con-graph it
# stands for, known without instantiating it: ``width`` (the pole-path
# family), ``internal_count`` (internal vertices) and ``edge_count``.

class Bundle(NamedTuple):
    """i internally disjoint pole paths, each of length j (j edges), plus
    the direct pole edge {s, t} if ``direct``."""

    i: int
    j: int
    direct: bool = False

    @property
    def width(self) -> int:
        return self.i

    @property
    def internal_count(self) -> int:
        return self.i * (self.j - 1)

    @property
    def edge_count(self) -> int:
        return self.i * self.j + self.direct


class K7(NamedTuple):
    """Complete graph on the two poles and five internal vertices."""

    @property
    def width(self) -> int:
        # the direct pole edge plus the five length-2 pole paths
        return 6

    @property
    def internal_count(self) -> int:
        return 5

    @property
    def edge_count(self) -> int:
        return 21


class ApexBlue(NamedTuple):
    """(k,2)-bundle s-a_i-t where each edge {s,a_i} is replaced by an
    (ell,2)-bundle and each a_i carries a K5 built on four new vertices."""

    ell: int
    k: int

    @property
    def width(self) -> int:
        return self.ell * self.k

    @property
    def internal_count(self) -> int:
        # k anchors, ell*k left + ell*k right path vertices, 4 blob
        # vertices per anchor
        return 2 * self.ell * self.k + 5 * self.k

    @property
    def edge_count(self) -> int:
        return 4 * self.ell * self.k + 10 * self.k


class SkewBlue(NamedTuple):
    """(k,2)-bundle s-a_i-t where each edge {s,a_i} is replaced by a K5 on
    {s, a_i} and three new vertices minus the edge {s, a_i} itself."""

    k: int

    @property
    def width(self) -> int:
        return self.k

    @property
    def internal_count(self) -> int:
        # one anchor plus three K5 vertices per pole path
        return 4 * self.k

    @property
    def edge_count(self) -> int:
        # per anchor: the 9 K5 edges (direct pole-anchor edge removed)
        # plus the anchor-t edge
        return 10 * self.k


ConGraphSpec = Bundle | K7 | ApexBlue | SkewBlue


class ConGraph(NamedTuple):
    """An instantiated con-graph on concrete vertex ids.

    ``paths`` is the family of internally disjoint pole paths used for
    Kuratowski accounting (each a vertex tuple from s to t).  Edges not on
    any family path (direct pole edges of bundles, K7 pentagon edges, apex
    K5 blobs, ...) simply never contribute coverage.
    """

    cid: str
    spec: ConGraphSpec
    s: str
    t: str
    internals: tuple[str, ...]
    edges: tuple[Edge, ...]
    paths: tuple[tuple[str, ...], ...]

    @property
    def width(self) -> int:
        return len(self.paths)


def instantiate_congraph(spec: ConGraphSpec, cid: str) -> ConGraph:
    """Create the concrete con-graph for one frame connection; its poles
    are the connection's v-node and w-node."""
    s, t = connection_poles(cid)
    internals: list[str] = []
    edges: list[Edge] = []
    paths: list[tuple[str, ...]] = []

    def name(*parts) -> str:
        return "/".join([cid, *map(str, parts)])

    if isinstance(spec, Bundle):
        for p in range(spec.i):
            path = (s, *(name(f"p{p}", pos) for pos in range(1, spec.j)), t)
            internals.extend(path[1:-1])
            edges.extend(edge(a, b) for a, b in zip(path, path[1:]))
            paths.append(path)
        if spec.direct:
            edges.append(edge(s, t))
    elif isinstance(spec, K7):
        qs = [name(f"q{r}") for r in range(1, 6)]
        internals.extend(qs)
        edges.extend(edge(a, b) for a, b in combinations((s, t, *qs), 2))
        paths.append((s, t))
        for q in qs:
            paths.append((s, q, t))
    elif isinstance(spec, ApexBlue):
        for ai in range(spec.k):
            a = name(f"a{ai}")
            internals.append(a)
            for jj in range(spec.ell):
                left = name(f"a{ai}", f"L{jj}")
                right = name(f"a{ai}", f"R{jj}")
                internals.extend([left, right])
                edges.append(edge(s, left))
                edges.append(edge(left, a))
                edges.append(edge(a, right))
                edges.append(edge(right, t))
                paths.append((s, left, a, right, t))
            blob = [name(f"a{ai}", f"q{r}") for r in range(4)]
            internals.extend(blob)
            edges.extend(edge(x, y) for x, y in combinations((a, *blob), 2))
    else:  # SkewBlue
        for ai in range(spec.k):
            a = name(f"a{ai}")
            ws = [name(f"a{ai}", f"w{r}") for r in (1, 2, 3)]
            internals.extend([a, *ws])
            edges.append(edge(a, t))
            for w in ws:
                edges.append(edge(s, w))
                edges.append(edge(a, w))
            edges.extend(edge(x, y) for x, y in combinations(ws, 2))
            paths.append((s, ws[0], a, t))

    return ConGraph(cid, spec, s, t, tuple(internals), tuple(sorted(set(edges))),
                    tuple(paths))


# ---------------------------------------------------------------------------
# Concepts
# ---------------------------------------------------------------------------

class ConceptId(NamedTuple):
    """Identifier of a beyond-planarity concept, with parameter k if any."""

    kind: str
    k: int | None = None

    @property
    def info(self) -> "ConceptInfo":
        return CONCEPTS[self.kind]

    @property
    def shorthand(self) -> str:
        return self.info.shorthand

    def __str__(self) -> str:
        if self.info.requires_k:
            return f"{self.shorthand}(k={self.k})"
        return self.shorthand


class ConceptInfo(NamedTuple):
    """Everything that is data or a formula about one concept.

    ``threshold``, ``share``, ``rect`` and ``cap`` are formula texts, each
    stated once: ``evaluate`` gives both its exact value and, with every
    name replaced by its value, the text the traces print.  ``share`` and
    ``rect`` read the construction parameter ell and the structural k (see
    ``structural_k``), ``cap`` the vertex count n and k, and ``threshold``
    k alone.  ``recipe`` and ``grid_plan`` take ell and k.  The concept's
    checker lives in ``checkers``.  The record names only the witness
    drawing's layout family in ``standard_layouts``; the upper drawing,
    straightness and the crossing counts of both standard drawings follow
    from the recipe.
    """

    kind: str
    shorthand: str
    threshold: str  # least ell with the quality guarantee, in k
    # frame color -> con-graph spec
    recipe: Callable[[int, int], dict[str, ConGraphSpec]]
    # counting lower bound share * rect: the share of the subdivision
    # family that counted crossings must cover, and the number of
    # rectangles one crossing covers at most
    share: str
    rect: str
    # closed-form cap on the crossing ratio and its growth class in n
    cap: str
    theta_class: str
    # standard-drawing layout family of the witness drawing
    witness_layout: str
    aliases: tuple[str, ...] = ()  # parser names besides kind and shorthand
    coloring: str = "standard"     # the frame's COLORINGS key
    requires_k: bool = False
    k_min: int = 1
    implied_k: int = 1             # structural k when requires_k is False
    cap_notes: tuple[str, ...] = ()
    caveat: str | None = None
    sharp: bool = True             # worst-case ratio survives k -> k+1
    # strands per edge of the "grid" witness family
    grid_plan: Callable[[int, int], list[int]] | None = None


def evaluate(text: str, **values: int) -> tuple[Fraction, str]:
    """The exact value of a formula text, and the text with each name
    replaced by its value.

    The grammar is Python arithmetic with ``^`` for power: integer
    literals, the names given as ``values``, ``+ - * /``, unary minus,
    ``^`` (right-associative, and binding tighter than a unary minus on its
    left, as Python's ``**``), parentheses and ``floor(...)``.  ``/``
    divides exactly, so no float ever arises.  Anything else, ``**`` and a
    literal with leading zeros such as ``007`` included, raises ValueError.
    ``evaluate("(ell*k)^2", ell=41, k=1)`` is ``(Fraction(1681), "(41*1)^2")``.
    """
    run, template = _compile(text)
    try:
        value = run(values)
    except KeyError as name:
        raise ValueError(f"unknown name {name} in formula {text!r}") from None
    return (value if type(value) is Fraction else Fraction(value),
            template.format_map(values))


def _power(base, exponent):
    if exponent != int(exponent):
        raise ValueError(f"exponent {exponent} is not an integer")
    # an int to a negative int power would be a float
    exponent = int(exponent)
    return base ** exponent if exponent >= 0 else Fraction(base) ** exponent


@lru_cache  # 128 texts, several times what the records hold
def _compile(text: str):
    """Parse a formula text once, by Python's parser with ``^`` read as
    ``**``: its evaluator on a name -> value dict and its trace template.
    One walk maps the grammar's node kinds to closures and refuses any
    other node, and an integer literal that is not plain decimal digits.
    """
    import ast  # off the eager path of ``import beyondcr.cli``
    import warnings

    def fail(what: str):
        raise ValueError(f"{what} in formula {text!r}")

    # whitespace of any kind only separates tokens; Python's comments,
    # commas and non-ASCII names have no place in the grammar
    source = " ".join(text.split())
    if not source.isascii() or any(c in source for c in ("**", "#", ",")):
        fail("a character outside the grammar")
    source = source.replace("^", "**")
    try:
        with warnings.catch_warnings():
            # "1if k else 2" warns "invalid decimal literal" on stderr; as
            # an error it becomes a SyntaxError and prints nothing
            warnings.simplefilter("error")
            tree = ast.parse(source, mode="eval")
    except SyntaxError as e:
        fail(f"syntax error ({e.msg})")
    binary = {ast.Add: operator.add, ast.Sub: operator.sub,
              ast.Mult: operator.mul, ast.Div: Fraction, ast.Pow: _power}

    def walk(node):
        match node:
            case ast.BinOp(left, op, right) if type(op) in binary:
                f, a, b = binary[type(op)], walk(left), walk(right)
                return lambda v: f(a(v), b(v))
            case ast.UnaryOp(ast.USub(), operand):
                inner = walk(operand)
                return lambda v: -inner(v)
            case ast.Constant(int(value)) \
                    if ast.get_source_segment(source, node).isdigit():
                return lambda v: value
            case ast.Name(name) if name != "floor":
                return lambda v: v[name]
            # "(floor)(k)" is no call of floor
            case ast.Call(ast.Name("floor", col_offset=at), [arg], []) \
                    if at == node.col_offset:
                inner = walk(arg)
                return lambda v: math.floor(inner(v))
        fail(f"{type(node).__name__} outside the grammar")

    run = walk(tree.body)
    template = re.sub(r"[A-Za-z_][A-Za-z_0-9]*",
                      lambda m: m[0] if m[0] == "floor" else f"{{{m[0]}}}",
                      text)
    return run, template


def _k_planar_specs(ell: int, k: int) -> dict[str, ConGraphSpec]:
    if ell < 2:
        raise ValueError("k-planar construction needs ell >= 2 "
                         "(blue bundles have length ell)")
    return {"red": Bundle(k + 1, 2), "blue": Bundle(ell * k, ell),
            "gray": Bundle(ell * k, 2), "yellow": Bundle(1, 1)}


def _alternating_plan(ell: int, k: int) -> list[int]:
    return [0] + [k, 0] * ell


_SPARSE_K_NOTE = "sparse term 4*n*k/(k+1) uses m <= 4n"
_QUADRATIC_NOTE = "quadratic concept cap with m <= 4n"

_NNIC = ConceptInfo(
    kind="nnic", shorthand="NNIC", implied_k=2, threshold="109",
    recipe=lambda ell, k: {"red": Bundle(2 * k, 2), "blue": Bundle(ell * k, 3),
                           "gray": Bundle(ell * k, 2), "yellow": Bundle(1, 1)},
    share="1 - 108*(k-1)/(ell*k)", rect="(ell*k)^2", cap="4*n^2 + n",
    cap_notes=(_QUADRATIC_NOTE,), theta_class="Theta(n^2)",
    witness_layout="grid", grid_plan=lambda ell, k: [0, ell * k, 0])

# The four fan-family concepts share one construction: K7 gadgets on the
# red and gray connections, whose fixed drawing needs bent edges.
_ADJACENCY_CROSSING = ConceptInfo(
    kind="adjacency-crossing", shorthand="ac", threshold="1",
    recipe=lambda ell, k: {"red": K7(), "blue": Bundle(ell, 2),
                           "gray": K7(), "yellow": Bundle(1, 1)},
    share="1", rect="ell^2", cap="4*n^2 + n", cap_notes=(_QUADRATIC_NOTE,),
    caveat="simple-drawings-only", theta_class="Theta(n^2)",
    witness_layout="pole-fan")

CONCEPTS: dict[str, ConceptInfo] = {
    c.kind: c
    for c in [
        ConceptInfo(
            kind="k-planar", shorthand="k-pl", aliases=("kpl",),
            requires_k=True, threshold="41", recipe=_k_planar_specs,
            share="1 - 40/ell", rect="(ell*k)^2", cap="4*n*k/(k+1) + k",
            cap_notes=(_SPARSE_K_NOTE,), theta_class="Theta(n)",
            witness_layout="grid", grid_plan=lambda ell, k: [k] * ell),
        ConceptInfo(
            kind="k-vertex-planar", shorthand="k-vp", aliases=("kvp",),
            requires_k=True, threshold="11",
            recipe=lambda ell, k: {
                "red": Bundle(k + 1, 2), "blue": Bundle(ell * k, 2 * ell + 1),
                "gray": Bundle(ell * k, 2), "yellow": Bundle(1, 1)},
            share="1 - 10/ell", rect="(ell*k)^2", cap="n*k/(k+1) + k",
            theta_class="Theta(n)", witness_layout="grid",
            grid_plan=_alternating_plan),
        ConceptInfo(
            kind="ic", shorthand="IC", threshold="2",
            recipe=lambda ell, k: {
                "red": Bundle(1, 2, True), "blue": Bundle(ell, 2 * ell + 1),
                "gray": Bundle(1, 2, True), "yellow": Bundle(1, 1)},
            share="1", rect="ell^2", cap="n/8",
            cap_notes=("n/4 crossings cap against a floor of 2 crossings",),
            theta_class="Theta(n)", witness_layout="grid",
            grid_plan=_alternating_plan),
        ConceptInfo(
            kind="nic", shorthand="NIC", threshold="4",
            recipe=lambda ell, k: {
                "red": Bundle(1, 2, True), "blue": Bundle(ell, ell + 2),
                "gray": Bundle(ell, 2), "yellow": Bundle(1, 1)},
            share="1 - 1/2 - 3/(2*ell)", rect="ell^2", cap="9*n/10",
            theta_class="Theta(n)", witness_layout="grid",
            grid_plan=lambda ell, k: [0] + [1] * ell + [0]),
        _NNIC,
        _NNIC._replace(kind="k-fan-crossing-free", shorthand="k-fcf",
                       aliases=("kfcf",), requires_k=True, k_min=2,
                       cap="8*n^2/k + n", theta_class="Theta(n^2/k)"),
        _ADJACENCY_CROSSING,
        _ADJACENCY_CROSSING._replace(kind="fan-crossing", shorthand="fc"),
        _ADJACENCY_CROSSING._replace(kind="weak-fan-planar",
                                     shorthand="wfp", caveat=None),
        _ADJACENCY_CROSSING._replace(kind="strong-fan-planar",
                                     shorthand="sfp", caveat=None),
        ConceptInfo(
            kind="k-edge-crossing", shorthand="k-ecr", aliases=("kecr",),
            requires_k=True, k_min=2, threshold="1",
            recipe=lambda ell, k: {
                "red": Bundle(k, 2), "blue": Bundle(k // 2, 2),
                "gray": Bundle(ell * k, 2), "yellow": Bundle(1, 1)},
            share="1/2", rect="floor(k/2)^2", cap="2*k",
            theta_class="Theta(k)", witness_layout="pole-fan"),
        ConceptInfo(
            kind="k-gap-planar", shorthand="k-gap-pl",
            aliases=("kgap", "k-gap", "gap"), coloring="alternate",
            requires_k=True, threshold="5",
            recipe=lambda ell, k: {"red": Bundle(5 * k, 2),
                                   "blue": Bundle(5 * k, 2),
                                   "gray": Bundle(ell * k, 5)},
            share="1/5", rect="5*ell*k^2", cap="4*n/k + k",
            cap_notes=("sparse term 4*n/k uses m <= 4n",),
            theta_class="Theta(n/k)", sharp=False,
            witness_layout="gap"),
        ConceptInfo(
            kind="k-apex", shorthand="k-apex", aliases=("apex",),
            coloring="alternate", requires_k=True, threshold="1",
            recipe=lambda ell, k: {"red": Bundle(1, 1),
                                   "blue": ApexBlue(ell, k),
                                   "gray": Bundle(ell * k, 2)},
            share="1", rect="(ell*k)^2", cap="8*n^2/(k+1) + n",
            cap_notes=(_QUADRATIC_NOTE,), theta_class="Theta(n^2/k)",
            witness_layout="apex"),
        ConceptInfo(
            kind="skewness", shorthand="skew-k", aliases=("skew",),
            coloring="alternate", requires_k=True, threshold="k + 1",
            recipe=lambda ell, k: {"red": Bundle(1, 1),
                                   "blue": SkewBlue(k),
                                   "gray": Bundle(ell * k, 2)},
            share="1", rect="ell*k^2", cap="4*n*k/(k+1) + k",
            cap_notes=(_SPARSE_K_NOTE,), theta_class="Theta(n)",
            witness_layout="skew"),
    ]
}

# Every name parse_concept accepts, lower-cased.
_KIND_OF_NAME = {name.lower(): info.kind for info in CONCEPTS.values()
                 for name in (info.kind, info.shorthand, *info.aliases)}


def parse_concept(text: str, k: int | None = None) -> ConceptId:
    kind = _KIND_OF_NAME.get(text.strip().lower())
    if kind is None:
        raise ValueError(f"unknown concept {text!r}")
    info = CONCEPTS[kind]
    if info.requires_k:
        if k is None:
            raise ValueError(f"concept {info.shorthand} requires k")
        if k < info.k_min:
            raise ValueError(f"concept {info.shorthand} requires k >= {info.k_min}")
        return ConceptId(kind, k)
    return ConceptId(kind)


def as_concept(concept: "str | ConceptId", k: int | None = None) -> ConceptId:
    if isinstance(concept, ConceptId):
        return parse_concept(concept.kind, concept.k)
    return parse_concept(concept, k)


def structural_k(concept: ConceptId) -> int:
    info = concept.info
    return concept.k if info.requires_k else info.implied_k


# ---------------------------------------------------------------------------
# Framework graphs
# ---------------------------------------------------------------------------

class FrameworkGraph:
    """The frame of a concept's coloring with every connection replaced by
    a con-graph, and the graph that results."""

    def __init__(self, concept: ConceptId, ell: int,
                 congraphs: Mapping[str, ConGraph], graph: Graph):
        self.concept = concept
        self.ell = ell
        self.congraphs = congraphs
        self.graph = graph

    @property
    def k(self) -> int:
        return structural_k(self.concept)

    @property
    def colors(self) -> dict[str, str]:
        """Connection id -> frame color."""
        return COLORINGS[self.concept.info.coloring]

    @property
    def below_threshold(self) -> bool:
        return self.ell < evaluate(self.concept.info.threshold, k=self.k)[0]

    @cached_property
    def edge_paths(self) -> dict[Edge, tuple[str, frozenset[int]]]:
        """Every edge's connection and the indices of the pole paths of that
        connection running through it (P_c[e], empty off the path family)."""
        out: dict[Edge, tuple[str, frozenset[int]]] = {}
        for cid, cg in self.congraphs.items():
            through: dict[Edge, set[int]] = {e: set() for e in cg.edges}
            for idx, p in enumerate(cg.paths):
                for a, b in zip(p, p[1:]):
                    through[edge(a, b)].add(idx)
            out.update((e, (cid, frozenset(ps))) for e, ps in through.items())
        return out

    def widths(self) -> dict[str, int]:
        return {cid: cg.width for cid, cg in self.congraphs.items()}


def construction_for(concept: "str | ConceptId", ell: int,
                     k: int | None = None) -> FrameworkGraph:
    """Build the extremal framework graph G_ell for a concept: every frame
    connection is replaced by the con-graph its color dictates.

    Valid for every ell >= 1 (ell >= 2 for k-planar); when ell is below the
    concept's quality threshold the graph is still built and flagged.
    """
    cid = as_concept(concept, k)
    congraphs: dict[str, ConGraph] = {}
    vertices: set[str] = set(FRAME_NODES)
    edges: set[Edge] = set()
    for c, spec in connection_specs(cid, ell).items():
        cg = congraphs[c] = instantiate_congraph(spec, c)
        vertices.update(cg.internals)
        edges.update(cg.edges)
    return FrameworkGraph(cid, ell, congraphs, make_graph(vertices, edges))


def connection_specs(concept: "str | ConceptId", ell: int,
                     k: int | None = None) -> dict[str, ConGraphSpec]:
    """The con-graph spec of every connection, in ALL_CONNECTIONS order.

    The graph construction, the closed-form sizes and the crossing counts
    of the standard drawings all start here, so this is the one place that
    refuses ell < 1.
    """
    cid = as_concept(concept, k)
    if ell < 1:
        raise ValueError("ell must be >= 1")
    recipe = cid.info.recipe(ell, structural_k(cid))
    return {c: recipe[color]
            for c, color in COLORINGS[cid.info.coloring].items()}


def connection_widths(concept: "str | ConceptId", ell: int,
                      k: int | None = None) -> dict[str, int]:
    """Per-connection pole-path family sizes, without building the graph.

    Matches ``construction_for(...).widths()`` but stays cheap at large ell,
    which the counting bounds and ratio tables need.
    """
    specs = connection_specs(concept, ell, k)
    return {c: spec.width for c, spec in specs.items()}


def framework_size(concept: "str | ConceptId", ell: int,
                   k: int | None = None) -> tuple[int, int]:
    """(n, m) of the framework graph, without building it."""
    specs = connection_specs(concept, ell, k).values()
    n = len(FRAME_NODES) + sum(s.internal_count for s in specs)
    m = sum(s.edge_count for s in specs)
    return n, m


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------

def graph_to_json_obj(fg: FrameworkGraph | Graph) -> dict:
    if isinstance(fg, Graph):
        return {
            "vertices": list(fg.vertices),
            "edges": [list(e) for e in fg.edges],
            "meta": {},
        }
    g = fg.graph
    edge_labels = {}
    for cid, cg in sorted(fg.congraphs.items()):
        color = fg.colors[cid]
        for e in cg.edges:
            edge_labels[edge_key(e)] = {"connection": cid, "color": color}
    vertex_labels = {}
    for v in g.vertices:
        if v in FRAME_NODES:
            vertex_labels[v] = {"role": "frame"}
        else:
            vertex_labels[v] = {"role": "internal",
                                "connection": v.split("/", 1)[0]}
    return {
        "vertices": list(g.vertices),
        "edges": [list(e) for e in g.edges],
        "meta": {
            "concept": fg.concept.kind,
            "ell": fg.ell,
            "k": fg.concept.k,
            "coloring": fg.concept.info.coloring,
            "below_threshold": fg.below_threshold,
            "vertex_labels": vertex_labels,
            "edge_labels": edge_labels,
        },
    }


def graph_to_json(fg: FrameworkGraph | Graph) -> str:
    return json.dumps(graph_to_json_obj(fg), indent=2, sort_keys=True)


def graph_from_json_obj(obj: dict) -> Graph:
    """Read a simple graph, refusing anything else with ValueError.

    ``vertices`` must be a list of distinct strings and ``edges`` a list of
    vertex-id pairs with no loop, no unknown endpoint and no repeat.
    """
    if not (isinstance(obj, dict) and "vertices" in obj and "edges" in obj):
        raise ValueError("graph must be an object with vertices and edges")
    vertices, pairs = obj["vertices"], obj["edges"]
    if not isinstance(vertices, list) \
            or not all(isinstance(v, str) for v in vertices):
        raise ValueError("vertices must be a list of strings")
    if len(set(vertices)) != len(vertices):
        raise ValueError("duplicate vertex ids")
    if not isinstance(pairs, list):
        raise ValueError("edges must be a list")
    edges: set[Edge] = set()
    for pair in pairs:
        if not (isinstance(pair, list) and len(pair) == 2
                and all(isinstance(v, str) for v in pair)):
            raise ValueError(f"edge {pair!r} is not a pair of vertex ids")
        e = edge(*pair)
        if e in edges:
            raise ValueError(f"edge {pair!r} given twice")
        edges.add(e)
    return make_graph(vertices, edges)
