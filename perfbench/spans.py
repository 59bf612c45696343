"""Spans around calls into the layers' public functions.

Tracing never edits the program.  ``Tracer.install`` rebinds, in every
loaded ``beyondcr`` module, each name that refers to one of the functions
in TRACED to a wrapper that records a span, so calls the program makes
itself (``check_concept`` computing crossings when none are passed, say)
show up as child spans.  A span is ``[name, start, end, parent, item,
info]``: ``name`` is ``<module>.<function>``, times come from
``perf_counter`` (one clock for every process on the machine), ``parent``
indexes the enclosing span, ``item`` identifies the workload item and
``info`` holds the counts taken at that boundary.  Spans stay in memory
until the run ends.
"""

from __future__ import annotations

import functools
import sys
from contextlib import contextmanager
from time import perf_counter

CONCEPT_KINDS = ("k-planar", "k-vertex-planar", "ic", "nic", "nnic",
                 "k-fan-crossing-free", "adjacency-crossing", "fan-crossing",
                 "weak-fan-planar", "strong-fan-planar", "k-edge-crossing",
                 "k-gap-planar", "k-apex", "skewness")
REFUSAL_KINDS = ("touch", "overlap", "crossing-at-vertex",
                 "concurrent-crossings")
CLI_LABELS = ("bound", "report", "gen", "layout", "check", "coverage", "svg",
              "fixtures", "usage")


def _segments(drawing) -> int:
    return sum(len(drawing.polyline(e)) - 1 for e in drawing.graph.edges)


def _crossings_info(args, kwargs, result, exc) -> dict:
    info = {"segments": _segments(args[0])}
    if exc is None:
        info["crossings"] = len(result)
    elif hasattr(exc, "kind"):
        info["refusal"] = exc.kind
    return info


def _check_info(args, kwargs, result, exc) -> dict:
    from beyondcr.graph_core import as_concept
    concept = args[1] if len(args) > 1 else kwargs["concept"]
    k = args[2] if len(args) > 2 else kwargs.get("k")
    info = {"kind": as_concept(concept, k).kind}
    if exc is None:
        info["fail"] = not result.ok
    return info


def _ledger_info(args, kwargs, result, exc) -> dict:
    if exc is not None:
        return {}
    tuples = 1
    for cid in result.constrained():
        tuples *= result.widths[cid]
    return {"entries": len(result.entries), "skipped": result.skipped,
            "tuples": tuples if result.entries else 0}


def _no_info(args, kwargs, result, exc) -> dict:
    return {}


# (module, public function, counts taken when the call returns)
TRACED = (
    ("graph_core", "construction_for",
     lambda a, kw, r, exc: {} if exc else {"edges": r.graph.m}),
    ("standard_layouts", "draw_framework",
     lambda a, kw, r, exc: {} if exc else {"segments": _segments(r)}),
    ("drawing", "compute_crossings", _crossings_info),
    ("checkers", "check_concept", _check_info),
    ("kuratowski", "coverage_ledger", _ledger_info),
    ("kuratowski", "verify_full_coverage", _no_info),
    ("kuratowski", "counting_lower_bound", _no_info),
    ("bounds_report", "ratio_report", _no_info),
    ("corpus", "random_corpus",
     lambda a, kw, r, exc: {} if exc else {"drawings": len(r)}),
)


class Tracer:
    """Collects spans in memory; see the module docstring for the format."""

    def __init__(self):
        self.spans: list[list] = []
        self.item = "setup"
        self._open: list[int] = []
        self._undo: list[tuple] = []

    def _begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([name, perf_counter(), None, parent, self.item, {}])
        self._open.append(idx)
        return idx

    def _end(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        """A span around the benchmark's own call, e.g. one CLI process."""
        idx = self._begin(name)
        try:
            yield idx
        finally:
            self._end(idx)

    def _wrap(self, name: str, fn, describe):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._begin(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self._end(idx)
                self.spans[idx][5] = describe(args, kwargs, None, exc)
                raise
            self._end(idx)
            self.spans[idx][5] = describe(args, kwargs, result, None)
            return result
        return traced

    def install(self) -> None:
        """Route every call of a TRACED function through a span."""
        import beyondcr  # noqa: F401  (loads every module of the package)
        modules = [m for n, m in list(sys.modules.items())
                   if n == "beyondcr" or n.startswith("beyondcr.")]
        for module, fname, describe in TRACED:
            original = getattr(sys.modules[f"beyondcr.{module}"], fname)
            wrapper = self._wrap(f"{module}.{fname}", original, describe)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._undo.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._undo):
            setattr(mod, attr, original)
        self._undo.clear()

    def adopt(self, spans: list[list], parent: int) -> None:
        """Append spans recorded in a child process under ``parent``."""
        base = len(self.spans)
        item = self.spans[parent][4]
        for name, start, end, p, _item, info in spans:
            self.spans.append([name, start, end,
                               parent if p is None else base + p, item, info])


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    covered = [0.0] * len(spans)
    for _name, start, end, parent, _item, _info in spans:
        if parent is not None:
            covered[parent] += end - start
    return [end - start - c
            for (_n, start, end, _p, _i, _f), c in zip(spans, covered)]


def layer_metrics(spans: list[list], passes: int) -> dict[str, float]:
    """Per-layer metrics for one set-up plus one timed pass.

    Spans of the set-up (item ``"setup"``) count once; spans of the traced
    passes count as their mean over ``passes``.  Times are self times.
    """
    setup: dict[str, float] = {}
    timed: dict[str, float] = {}

    def add(name: str, value: float, item) -> None:
        side = setup if item == "setup" else timed
        side[name] = side.get(name, 0) + value

    for span, own in zip(spans, self_times(spans)):
        name, _start, _end, _parent, item, info = span
        ms = own * 1000
        if name == "graph_core.construction_for":
            add("graph_core.construct_ms", ms, item)
            add("graph_core.edges", info.get("edges", 0), item)
        elif name == "standard_layouts.draw_framework":
            add("standard_layouts.draw_ms", ms, item)
            add("standard_layouts.segments", info.get("segments", 0), item)
        elif name == "drawing.compute_crossings":
            s = info["segments"]
            add("drawing.crossings_ms", ms, item)
            add("drawing.segments_in", s, item)
            add("drawing.segment_pairs", s * (s - 1) // 2, item)
            add("drawing.crossings_out", info.get("crossings", 0), item)
            if "refusal" in info:
                add("drawing.refusals", 1, item)
                add(f"drawing.refusals.{info['refusal']}", 1, item)
        elif name == "checkers.check_concept":
            add("checkers.check_ms", ms, item)
            add("checkers.calls", 1, item)
            add("checkers.fail_verdicts", int(info.get("fail", False)), item)
            add(f"checkers.{info['kind']}_ms", ms, item)
        elif name == "kuratowski.coverage_ledger":
            add("kuratowski.ledger_ms", ms, item)
            for key in ("entries", "skipped", "tuples"):
                add(f"kuratowski.{key}", info.get(key, 0), item)
        elif name == "kuratowski.verify_full_coverage":
            add("kuratowski.cover_ms", ms, item)
        elif name == "kuratowski.counting_lower_bound":
            add("kuratowski.bound_ms", ms, item)
        elif name == "bounds_report.ratio_report":
            add("bounds_report.ratio_ms", ms, item)
        elif name == "corpus.random_corpus":
            add("corpus.generate_ms", ms, item)
            add("corpus.drawings", info.get("drawings", 0), item)
    m = {name: setup.get(name, 0) + timed.get(name, 0) / passes
         for name in setup.keys() | timed.keys()}
    pairs = m.get("drawing.segment_pairs", 0)
    m["drawing.hit_ratio"] = m.get("drawing.crossings_out", 0) / pairs \
        if pairs else 0.0
    return m


def per_layer_names() -> list[str]:
    """Every per-layer metric, in the order BENCHMARK.json lists them."""
    names = ["graph_core.construct_ms", "graph_core.edges",
             "standard_layouts.draw_ms", "standard_layouts.segments",
             "drawing.crossings_ms", "drawing.segments_in",
             "drawing.segment_pairs", "drawing.crossings_out",
             "drawing.hit_ratio", "drawing.refusals"]
    names += [f"drawing.refusals.{kind}" for kind in REFUSAL_KINDS]
    names += ["checkers.check_ms", "checkers.calls", "checkers.fail_verdicts"]
    names += [f"checkers.{kind}_ms" for kind in CONCEPT_KINDS]
    names += ["kuratowski.ledger_ms", "kuratowski.cover_ms",
              "kuratowski.bound_ms", "kuratowski.entries",
              "kuratowski.skipped", "kuratowski.tuples",
              "bounds_report.ratio_ms", "corpus.generate_ms",
              "corpus.drawings", "cli.interp_ms", "cli.import_ms"]
    names += [f"cli.{label}_ms" for label in CLI_LABELS]
    return names


def layer_shares(spans: list[list], passes: int) -> dict[str, dict]:
    """Self time per span name and per layer, split into set-up and pass.

    Pass figures are means over the traced passes, in ms.
    """
    out: dict[str, dict] = {"setup": {}, "pass": {}}
    for span, own in zip(spans, self_times(spans)):
        name, item = span[0], span[4]
        side = "setup" if item == "setup" else "pass"
        ms = own * 1000 / (1 if side == "setup" else passes)
        for key in (name, name.split(".", 1)[0]):
            out[side][key] = out[side].get(key, 0.0) + ms
    return out
