"""Command-line front end.

Subcommands: gen (framework graphs / random corpora), layout (standard
drawings), check (concept predicates), coverage (subdivision coverage),
bound (counting lower bounds), report (ratio growth table), svg (render a
drawing file), fixtures (regenerate the golden corpus).

Exit codes: 0 when the requested predicate holds (or plain output
succeeded), 1 when a checked predicate fails (witness on stdout), 2 on
usage, input, or budget errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .bounds_report import (
    format_table1,
    ratio_report,
    ratio_upper,
    reports_to_json_obj,
    table1_report,
)
from .checkers import check_concept
from .corpus import random_corpus
from .drawing import (
    GeneralPositionViolation,
    Verdict,
    compute_crossings,
    drawing_from_json,
    drawing_to_json_obj,
    is_straight_line,
    to_svg,
)
from .graph_core import (
    ConceptId,
    construction_for,
    graph_to_json,
    parse_concept,
    structural_k,
)
from .kuratowski import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    coverage_ledger,
    kuratowski_count,
    verify_full_coverage,
)
from .standard_layouts import (
    appendix_fcf_fixture,
    draw_framework,
    frame_edge_colors,
    k5_fcf_fixture,
)


def _dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _concept_of(args) -> ConceptId:
    return parse_concept(args.concept, getattr(args, "k", None))


def _emit_verdict(verdict: Verdict, fmt: str, out: str | None) -> int:
    """Print a verdict as JSON (also for svg) or text; its exit code."""
    if fmt == "text":
        lines = [f"ok: {str(verdict.ok).lower()}"]
        if verdict.reason:
            lines.append(f"reason: {verdict.reason}")
        if verdict.witness is not None:
            lines.append("witness: " + json.dumps(verdict.witness,
                                                  sort_keys=True))
        _emit("\n".join(lines) + "\n", out)
    else:
        _emit(_dumps(verdict.to_json_obj()), out)
    return 0 if verdict.ok else 1


def _load_drawing(path: str):
    try:
        with open(path, "rb") as f:
            data = f.read()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None
    try:
        return drawing_from_json(data.decode("utf-8"))
    except (ValueError, KeyError, TypeError, RecursionError) as exc:
        raise ValueError(f"malformed drawing file {path}: {exc}") from None


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_gen(args) -> int:
    if args.random is not None:
        if args.seed is None:
            raise ValueError("--random needs --seed")
        if args.random < 0:
            raise ValueError("--random needs N >= 0")
        drawings = random_corpus(args.seed, args.random,
                                 bend_prob=args.bend_prob,
                                 max_crossings=args.max_crossings)
        obj = {
            "seed": args.seed,
            "count": args.random,
            "drawings": [drawing_to_json_obj(d) for d in drawings],
        }
        _emit(_dumps(obj), args.out)
        return 0
    if not args.concept or args.ell is None:
        raise ValueError("gen needs --concept and --ell (or --random)")
    fg = construction_for(_concept_of(args), args.ell)
    _emit(graph_to_json(fg) + "\n", args.out)
    return 0


def _cmd_layout(args) -> int:
    fg = construction_for(_concept_of(args), args.ell)
    drawing = draw_framework(fg, args.variant)
    if args.rectilinear and not is_straight_line(drawing):
        return _emit_verdict(Verdict(False, str(fg.concept),
                                     "drawing is not straight-line"),
                             args.format, args.out)
    if args.format == "svg":
        _emit(to_svg(drawing, frame_edge_colors(fg)), args.out)
    elif args.format == "text":
        xs = compute_crossings(drawing)
        _emit(f"concept: {fg.concept}\nell: {fg.ell}\nvariant: "
              f"{args.variant}\nvertices: {drawing.graph.n}\n"
              f"edges: {drawing.graph.m}\ncrossings: {len(xs)}\n", args.out)
    else:
        _emit(_dumps(drawing_to_json_obj(drawing)), args.out)
    return 0


def _cmd_check(args) -> int:
    drawing = _load_drawing(args.infile)
    cid = _concept_of(args)
    if args.rectilinear and not is_straight_line(drawing):
        verdict = Verdict(False, str(cid), "drawing is not straight-line")
    else:
        verdict = check_concept(drawing, cid)
    return _emit_verdict(verdict, args.format, args.out)


def _cmd_coverage(args) -> int:
    fg = construction_for(_concept_of(args), args.ell)
    if args.infile:
        drawing = _load_drawing(args.infile)
    else:
        drawing = draw_framework(fg, args.variant)
    ledger = coverage_ledger(drawing, fg)
    verdict = verify_full_coverage(ledger, fg, budget=args.budget)
    if args.format == "json":
        obj = {
            "ok": verdict.ok,
            "concept": str(fg.concept),
            "kuratowski_count": kuratowski_count(fg),
            "covering_crossings": len(ledger.entries),
            "skipped_crossings": ledger.skipped,
            "fraction_sum": str(ledger.fraction_sum),
        }
        if verdict.witness is not None:
            obj["witness"] = verdict.witness
        _emit(_dumps(obj), args.out)
    else:
        lines = [f"fully covered: {str(verdict.ok).lower()}"]
        if verdict.witness is not None:
            lines.append("witness: " + json.dumps(verdict.witness,
                                                  sort_keys=True))
        _emit("\n".join(lines) + "\n", args.out)
    return 0 if verdict.ok else 1


def _cmd_bound(args) -> int:
    cid = _concept_of(args)
    r = ratio_report(cid, args.ell)
    cap = ratio_upper(cid, r.n, r.m)
    if args.format == "json":
        _emit(_dumps({
            "concept": r.concept, "ell": r.ell, "k": r.k, "n": r.n, "m": r.m,
            "counting_bound": str(r.counting_bound), "trace": list(r.trace),
            "witness_crossings": r.witness_crossings,
            "upper_crossings": r.upper_drawing_crossings,
            "ratio_upper": cap.to_json_obj(),
        }), args.out)
    else:
        lines = [f"concept: {r.concept}", f"ell: {r.ell}",
                 f"counting bound: {r.counting_bound}"]
        lines += [f"  {step}" for step in r.trace]
        lines += [f"witness crossings: {r.witness_crossings}",
                  f"upper crossings: {r.upper_drawing_crossings}",
                  f"ratio upper at n={r.n}: {cap.value}"]
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_report(args) -> int:
    reports = table1_report(k=args.k, points=args.points)
    if args.format == "json":
        _emit(_dumps(reports_to_json_obj(reports)), args.out)
    else:
        _emit(format_table1(reports) + "\n", args.out)
    return 0


def _cmd_svg(args) -> int:
    drawing = _load_drawing(args.infile)
    _emit(to_svg(drawing), args.out)
    return 0


# The golden corpus: small enough to regenerate in seconds, wide enough to
# pin every emitter family (both frame colorings, grids, fans, stripes).
_FIXTURE_GRID = [
    ("ic", 2, None),
    ("k-planar", 2, 1),
    ("fan-crossing", 1, None),
    ("k-gap-planar", 1, 1),
    ("k-apex", 1, 1),
    ("skewness", 2, 1),
]


def _cmd_fixtures(args) -> int:
    outdir = args.out or "fixtures"
    os.makedirs(outdir, exist_ok=True)
    written = []

    def save(name: str, text: str) -> None:
        _emit(text, os.path.join(outdir, name))
        written.append(name)

    for concept, ell, k in _FIXTURE_GRID:
        cid = parse_concept(concept, k)
        fg = construction_for(cid, ell)
        tag = f"{cid.kind}_l{ell}_k{structural_k(cid)}"
        for variant in ("witness", "upper"):
            drawing = draw_framework(fg, variant)
            save(f"{tag}_{variant}.json", _dumps(drawing_to_json_obj(drawing)))
            save(f"{tag}_{variant}.svg", to_svg(drawing, frame_edge_colors(fg)))

    graph, drawing = appendix_fcf_fixture()
    save("appendix_fcf.json", _dumps(drawing_to_json_obj(drawing)))
    save("appendix_fcf.svg", to_svg(drawing))
    k5 = k5_fcf_fixture()
    save("k5_fcf.json", _dumps(drawing_to_json_obj(k5)))
    save("k5_fcf.svg", to_svg(k5))

    r = ratio_report("k-planar", 41, 1)
    save("bound_k-planar_l41_k1.json", _dumps({
        "concept": r.concept, "ell": r.ell, "k": r.k,
        "counting_bound": str(r.counting_bound), "trace": list(r.trace),
    }))
    save("table1_k2.json", _dumps(reports_to_json_obj(table1_report(k=2))))

    sys.stdout.write("\n".join(written) + "\n")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_concept_flags(p: argparse.ArgumentParser, required: bool) -> None:
    """--concept, --ell and --k; the first two are required unless the
    command has another source, as ``gen --random`` has."""
    p.add_argument("--concept", required=required,
                   help="concept name or shorthand")
    p.add_argument("--ell", type=int, required=required,
                   help="construction parameter ell")
    p.add_argument("--k", type=int, help="concept parameter k")


def _add_io_flags(p: argparse.ArgumentParser,
                  formats: tuple[str, ...] = ("json", "text")) -> None:
    p.add_argument("--out", help="output file (default stdout)")
    p.add_argument("--format", choices=formats, default=formats[0])


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="beyondcr",
        description="Extremal framework graphs for beyond-planarity "
                    "concepts: construction, standard drawings, checkers, "
                    "coverage accounting, and crossing-ratio bounds.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="emit a framework graph (or a random "
                                   "drawing corpus)")
    _add_concept_flags(p, required=False)
    p.add_argument("--random", type=int, metavar="N",
                   help="emit N random small drawings instead")
    p.add_argument("--seed", type=int, help="corpus seed")
    p.add_argument("--bend-prob", type=float, default=0.0)
    p.add_argument("--max-crossings", type=int, default=12)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("layout", help="emit a standard drawing")
    _add_concept_flags(p, required=True)
    p.add_argument("--variant", choices=("witness", "upper"),
                   default="witness")
    p.add_argument("--rectilinear", action="store_true",
                   help="fail unless the drawing is straight-line")
    _add_io_flags(p, ("json", "svg", "text"))
    p.set_defaults(func=_cmd_layout)

    p = sub.add_parser("check", help="run a concept checker on a drawing")
    p.add_argument("--concept", required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--in", dest="infile", required=True,
                   help="drawing JSON file")
    p.add_argument("--rectilinear", action="store_true")
    _add_io_flags(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("coverage", help="verify Kuratowski coverage of a "
                                        "standard or given drawing")
    _add_concept_flags(p, required=True)
    p.add_argument("--variant", choices=("witness", "upper"),
                   default="witness")
    p.add_argument("--in", dest="infile", help="drawing JSON file "
                   "(default: emit the standard drawing)")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                   help="tuple enumeration budget (default %(default)s)")
    _add_io_flags(p)
    p.set_defaults(func=_cmd_coverage)

    p = sub.add_parser("bound", help="counting lower bound with trace")
    _add_concept_flags(p, required=True)
    _add_io_flags(p)
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("report", help="ratio growth table over all concepts")
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--points", type=int, default=5)
    _add_io_flags(p, ("text", "json"))
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("svg", help="render a drawing JSON file as SVG")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_svg)

    p = sub.add_parser("fixtures", help="regenerate the golden corpus")
    p.add_argument("--out", help="fixture directory (default ./fixtures)")
    p.set_defaults(func=_cmd_fixtures)

    return parser


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code is None else int(exc.code)
    try:
        return args.func(args)
    except (BudgetExceeded, OSError, ValueError, KeyError,
            GeneralPositionViolation) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        pass
    # Reported once the handler has dropped the traceback, whose frames
    # hold what filled the memory: printing needs memory too.
    print("error: out of memory", file=sys.stderr)
    return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
