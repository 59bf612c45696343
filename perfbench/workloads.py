"""The four workloads: their inputs, their timed items and their known answers.

Each workload has the same shape:

* ``setup()`` builds the inputs from the seed; set-up time is measured
  from process start to the end of this call;
* ``items`` is the list one timed pass runs, in a seed-dependent order;
* ``run(item)`` is one timed item, and returns what the gate compares;
* ``expect(oracles)`` works out the known answers before the timed passes
  and returns the set-up outputs that already contradict them;
* ``mismatches(results)`` compares one pass's results with them.

``B`` is the ``beyondcr`` package.  Items call its public functions by
attribute, so the tracer's rebinding reaches them.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from collections import namedtuple
from fractions import Fraction
from pathlib import Path

import known
from spans import CONCEPT_KINDS as CONCEPTS, REFUSAL_KINDS


def _program():
    import beyondcr
    return beyondcr


def program_env(root: Path) -> dict:
    """Environment for a fresh interpreter that imports the checkout's src."""
    path = os.environ.get("PYTHONPATH")
    src = str(root / "src")
    return dict(os.environ,
                PYTHONPATH=src + (os.pathsep + path if path else ""))


class Workload:
    layers: tuple[str, ...] = ()
    in_process = True
    tracer = None

    def expect(self, oracles) -> list[str]:
        return []

    def close(self) -> None:
        pass


class FrameworkSweep(Workload):
    """All 14 concepts, both variants, each through the whole pipeline."""

    name = "framework-sweep"
    layers = ("graph_core", "standard_layouts", "drawing", "checkers",
              "kuratowski", "bounds_report")
    # (concept, ell, k): mid-scale points that keep a pass near 4 s on a
    # 2-core Xeon, so a run holds several passes.  The fan drawings (two
    # fixed K7 gadgets) and k-gap at its threshold cost about 300 ms an
    # item; every other item is sized near 80 ms, so the median item falls
    # inside one cluster instead of between two.
    GRID = (("k-planar", 4, 1), ("k-vertex-planar", 3, 1), ("ic", 4, None),
            ("nic", 4, None), ("nnic", 2, None),
            ("k-fan-crossing-free", 2, 2), ("adjacency-crossing", 1, None),
            ("fan-crossing", 1, None), ("weak-fan-planar", 1, None),
            ("strong-fan-planar", 1, None), ("k-edge-crossing", 1, 4),
            ("k-gap-planar", 5, 1), ("k-apex", 3, 1), ("skewness", 4, 1))
    TINY = (("ic", 2, None), ("k-planar", 2, 1), ("skewness", 2, 1))

    def __init__(self, root: Path, seed: int, tiny: bool):
        grid = self.TINY if tiny else self.GRID
        self.items = [(kind, ell, k, variant) for kind, ell, k in grid
                      for variant in ("witness", "upper")]
        random.Random(seed).shuffle(self.items)

    def setup(self) -> None:
        self.B = _program()

    def run(self, item):
        B = self.B
        kind, ell, k, variant = item
        fg = B.construction_for(kind, ell, k)
        drawing = B.draw_framework(fg, variant)
        xs = B.compute_crossings(drawing)
        verdict = B.check_concept(drawing, kind, k, xs=xs)
        ledger = B.coverage_ledger(drawing, fg, xs)
        covered = B.verify_full_coverage(ledger, fg)
        bound, _trace = B.counting_lower_bound(kind, ell, k)
        report = B.ratio_report(kind, ell, k)
        return (verdict.ok, len(xs), covered.ok, bound,
                (report.witness_crossings, report.upper_drawing_crossings,
                 report.counting_bound))

    def expect(self, oracles) -> list[str]:
        # (own verdict, witness crossings, upper crossings) per the paper
        self.expected = []
        for kind, ell, k, variant in self.items:
            kk = known.structural_k(kind, k)
            self.expected.append((variant == "witness",
                                  known.witness_crossings(kind, ell, kk),
                                  known.upper_crossings(kind, ell, kk)))
        return []

    def plant(self) -> None:
        ok, witness, upper = self.expected[0]
        self.expected[0] = (not ok, witness, upper)

    def mismatches(self, results) -> list[str]:
        out = []
        for item, want, got in zip(self.items, self.expected, results):
            if got is None:
                continue
            kind, ell, k, variant = item
            want_ok, witness, upper = want
            ok, crossings, covered, bound, report = got
            tag = f"{kind} ell={ell} k={k} {variant}"
            if ok != want_ok:
                out.append(f"{tag}: own checker says {ok}")
            want = witness if variant == "witness" else upper
            if crossings != want:
                out.append(f"{tag}: {crossings} crossings, paper has {want}")
            if not covered:
                out.append(f"{tag}: coverage not full")
            if bound > witness:
                out.append(f"{tag}: counting bound {bound} > {witness}")
            if report != (witness, upper, bound):
                out.append(f"{tag}: ratio report {report}")
        return out


class CheckMatrix(Workload):
    """Every checker on a few dense witness drawings, plus their coverage."""

    name = "check-matrix"
    layers = ("graph_core", "standard_layouts", "drawing", "checkers",
              "kuratowski")
    DRAWINGS = (("nnic", 10, None), ("strong-fan-planar", 6, None),
                ("k-gap-planar", 8, 1), ("k-apex", 8, 1), ("ic", 8, None))
    TINY = (("nnic", 2, None), ("ic", 2, None))
    # k for the parametric checkers; each drawing's own concept uses it too
    K = {"k-planar": 2, "k-vertex-planar": 2, "k-fan-crossing-free": 2,
         "k-edge-crossing": 2, "k-gap-planar": 1, "k-apex": 1, "skewness": 1}

    def __init__(self, root: Path, seed: int, tiny: bool):
        self.drawings_spec = self.TINY if tiny else self.DRAWINGS
        self.items = [(i, kind) for i in range(len(self.drawings_spec))
                      for kind in CONCEPTS + ("coverage",)]
        random.Random(seed).shuffle(self.items)

    def setup(self) -> None:
        B = self.B = _program()
        self.inputs = []
        for kind, ell, k in self.drawings_spec:
            fg = B.construction_for(kind, ell, k)
            drawing = B.draw_framework(fg, "witness")
            self.inputs.append((fg, drawing, B.compute_crossings(drawing)))

    def run(self, item):
        i, kind = item
        fg, drawing, xs = self.inputs[i]
        if kind == "coverage":
            ledger = self.B.coverage_ledger(drawing, fg, xs)
            return self.B.verify_full_coverage(ledger, fg).ok
        return self.B.check_concept(drawing, kind, self.K.get(kind),
                                    xs=xs).ok

    def expect(self, oracles) -> list[str]:
        self.expected = {}
        errors = []
        for i, (kind, ell, k) in enumerate(self.drawings_spec):
            _fg, _drawing, xs = self.inputs[i]
            want = known.witness_crossings(kind, ell,
                                           known.structural_k(kind, k))
            if len(xs) != want:
                errors.append(
                    f"{kind} ell={ell}: {len(xs)} crossings, paper has {want}")
            self.expected[(i, "coverage")] = True
            for c in CONCEPTS:
                self.expected[(i, c)] = known.verdict_oracles(
                    oracles, xs, c, self.K.get(c))
            if self.expected[(i, kind)] is False:
                errors.append(f"{kind}: oracle fails the witness")
            self.expected[(i, kind)] = True     # the witness passes its own
        return errors

    def plant(self) -> None:
        self.expected[self.items[0]] = "planted"

    def mismatches(self, results) -> list[str]:
        out = []
        fan = {}
        for (i, kind), ok in zip(self.items, results):
            if ok is None:
                continue
            want = self.expected[(i, kind)]
            tag = "{} ell={}".format(*self.drawings_spec[i][:2])
            if want is not None and ok != want:
                out.append(f"{tag}: {kind} says {ok}, expected {want}")
            fan.setdefault(i, {})[kind] = ok
        for i, verdicts in fan.items():
            out += [f"{self.drawings_spec[i][0]}: {v}"
                    for v in known.fan_chain_breaks(verdicts)]
        return out


BruteCrossing = namedtuple("BruteCrossing", "a b")


class RandomCorpus(Workload):
    """Many small polyline drawings with bends; every eighth is degenerate."""

    name = "random-corpus"
    layers = ("corpus", "drawing", "checkers")
    # drawings per vertex count 4..8; fixing the mix keeps the work of a
    # pass nearly the same from seed to seed
    PER_SIZE, TINY = 60, 5
    # k for the parametric checkers, chosen so each one both passes and
    # fails somewhere in the corpus
    K = {"k-planar": 2, "k-vertex-planar": 2, "k-fan-crossing-free": 2,
         "k-edge-crossing": 4, "k-gap-planar": 1, "k-apex": 1, "skewness": 2}

    def __init__(self, root: Path, seed: int, tiny: bool):
        self.seed = seed
        self.per_size = self.TINY if tiny else self.PER_SIZE

    def setup(self) -> None:
        B = self.B = _program()
        drawings = []
        for n in range(4, 9):
            drawings += B.random_corpus(self.seed * 10 + n, self.per_size,
                                        n_range=(n, n), bend_prob=0.3,
                                        max_crossings=12)
        rng = random.Random(self.seed)
        self.refusals = {}
        for i in range(0, len(drawings), 8):
            kind = REFUSAL_KINDS[(i // 8) % len(REFUSAL_KINDS)]
            drawings[i] = _degenerate(B, rng, drawings[i], kind)
            self.refusals[i] = kind
        self.drawings = drawings
        self.items = list(range(len(drawings)))

    def run(self, i):
        B = self.B
        drawing = self.drawings[i]
        try:
            xs = B.compute_crossings(drawing)
        except B.GeneralPositionViolation as exc:
            return ("refused", exc.kind)
        return ("crossings", xs, tuple(
            B.check_concept(drawing, c, self.K.get(c), xs=xs).ok
            for c in CONCEPTS))

    def expect(self, oracles) -> list[str]:
        self.expected = {}
        for i in self.items:
            if i in self.refusals:
                self.expected[i] = ("refused", self.refusals[i])
                continue
            points = oracles.brute_crossing_points(self.drawings[i])
            xs = [BruteCrossing(a, b) for a, b, _p in points]
            self.expected[i] = ("crossings", points, tuple(
                known.verdict_oracles(oracles, xs, c, self.K.get(c))
                for c in CONCEPTS))
        return []

    def plant(self) -> None:
        self.expected[0] = ("refused", "planted")

    def mismatches(self, results) -> list[str]:
        out = []
        for i, got in zip(self.items, results):
            if got is None:
                continue
            want = self.expected[i]
            if want[0] == "refused" or got[0] == "refused":
                if got != want:
                    out.append(f"drawing {i}: {got[:2]} where {want[:2]} "
                               "was expected")
                continue
            points = sorted((x.a, x.b, x.point) for x in got[1])
            if points != want[1]:
                out.append(f"drawing {i}: crossings differ from brute force")
            for c, ok, expected in zip(CONCEPTS, got[2], want[2]):
                if expected is not None and ok != expected:
                    out.append(f"drawing {i}: {c} says {ok}")
            out += [f"drawing {i}: {v}"
                    for v in known.fan_chain_breaks(dict(zip(CONCEPTS,
                                                             got[2])))]
        return out


def _degenerate(B, rng: random.Random, base, kind: str):
    """``base`` plus a far-away gadget that is degenerate in one way.

    The gadget lives in local coordinates 0..4, is mapped by a random
    symmetry of the square, a random rational scale and an offset beyond
    the corpus's coordinate range, and meets nothing of ``base``.
    """
    local = {
        "touch": ({"g0": (0, 0), "g1": (4, 0), "g2": (2, 0), "g3": (2, 3)},
                  [("g0", "g1"), ("g2", "g3")]),
        "overlap": ({"g0": (0, 0), "g1": (4, 0), "g2": (2, 0), "g3": (6, 0)},
                    [("g0", "g1"), ("g2", "g3")]),
        "crossing-at-vertex": ({"g0": (0, 0), "g1": (4, 4), "g2": (0, 4),
                                "g3": (4, 0), "g4": (2, 2)},
                               [("g0", "g1"), ("g2", "g3")]),
        "concurrent-crossings": ({"g0": (0, 0), "g1": (4, 4), "g2": (0, 4),
                                  "g3": (4, 0), "g4": (2, 0), "g5": (2, 4)},
                                 [("g0", "g1"), ("g2", "g3"), ("g4", "g5")]),
    }[kind]
    points, edges = local
    swap, fx, fy = rng.random() < 0.5, rng.choice((1, -1)), rng.choice((1, -1))
    scale = Fraction(rng.randrange(1, 40), rng.randrange(1, 9))
    ox = 2000 + Fraction(rng.randrange(0, 700), 7)
    oy = 2000 + Fraction(rng.randrange(0, 700), 3)
    positions = dict(base.positions)
    for v, (x, y) in points.items():
        if swap:
            x, y = y, x
        positions[v] = (ox + fx * scale * x, oy + fy * scale * y)
    graph = B.make_graph(base.graph.vertices + tuple(points),
                         base.graph.edges + tuple(B.edge(u, v)
                                                  for u, v in edges))
    return B.Drawing(graph, positions, dict(base.curves))


class CliCalls(Workload):
    """A fixed script of fresh-interpreter ``python -m beyondcr.cli`` calls."""

    name = "cli-calls"
    in_process = False
    layers = ("cli", "graph_core", "standard_layouts", "drawing", "checkers",
              "kuratowski", "bounds_report", "corpus")
    # threshold points of the paper's tightness statement (ratio <= 50)
    BOUND_POINTS = (("kpl", 41, 1), ("kvp", 11, 1), ("ic", 2, None),
                    ("nic", 4, None), ("nnic", 109, None), ("kfcf", 109, 2),
                    ("kecr", 1, 2), ("kgap", 5, 1), ("apex", 1, 1),
                    ("skew", 2, 1))
    # committed fixture stem -> concept flags
    CHECKED = {"ic_l2_k1": ["ic"], "k-planar_l2_k1": ["kpl", "--k", "1"],
               "k-apex_l1_k1": ["apex", "--k", "1"],
               "skewness_l2_k1": ["skew", "--k", "1"]}
    COVERED = (("ic", 2, None), ("kpl", 2, 1), ("apex", 1, 1),
               ("skew", 2, 1))
    USAGE = (["check", "--concept", "no-such-concept", "--in",
              "fixtures/k5_fcf.json"],
             ["layout", "--concept", "ic"],
             ["bound", "--concept", "kpl", "--ell", "3"])

    def __init__(self, root: Path, seed: int, tiny: bool):
        self.root = root
        self.seed = seed
        self.calls = 0
        rng = random.Random(seed)
        concept, ell, k = rng.choice(self.BOUND_POINTS)
        stem = rng.choice(sorted(self.CHECKED))
        cov = rng.choice(self.COVERED)
        self.gen_ell = rng.choice((2, 3, 4))
        self.layout_ell = rng.choice((2, 3))
        self.svg = rng.choice(("k5_fcf", "appendix_fcf"))
        self.bound_point = (concept, ell, k)
        script = [
            ("bound", ["bound", "--concept", concept, "--ell", str(ell)]
             + _k(k)),
            ("report", ["report", "--k", "2", "--format", "json"]),
            ("gen", ["gen", "--concept", "ic", "--ell", str(self.gen_ell)]),
            ("gen", ["gen", "--random", "5", "--seed", str(seed),
                     "--bend-prob", "0.3"]),
            ("layout", ["layout", "--concept", "ic", "--ell",
                        str(self.layout_ell), "--format", "text"]),
            ("check", ["check", "--concept", *self.CHECKED[stem], "--in",
                       f"fixtures/{stem}_witness.json"]),
            ("check", ["check", "--concept", *self.CHECKED[stem], "--in",
                       f"fixtures/{stem}_upper.json"]),
            ("coverage", ["coverage", "--concept", cov[0], "--ell",
                          str(cov[1])] + _k(cov[2])),
            ("svg", ["svg", "--in", f"fixtures/{self.svg}.json"]),
            ("fixtures", ["fixtures", "--out", "{fresh}"]),
            ("usage", rng.choice(self.USAGE)),
        ]
        rng.shuffle(script)
        self.items = script

    def setup(self) -> None:
        self.tmp = self.root / ".perfbench_tmp" / str(os.getpid())
        self.tmp.mkdir(parents=True, exist_ok=True)
        self.env = program_env(self.root)
        # one untimed call fills the bytecode and file caches
        self._call(["--help"])

    def _call(self, args: list[str]):
        cmd = [sys.executable, "-m", "beyondcr.cli", *args]
        env = self.env
        if self.tracer is not None:
            spans = self.tmp / "spans.json"
            cmd[1:3] = [str(Path(__file__).with_name("cli_child.py"))]
            env = dict(env, PERFBENCH_SPANS=str(spans))
        proc = subprocess.run(cmd, cwd=self.root, env=env,
                              capture_output=True, timeout=120)
        if self.tracer is not None:
            child = json.loads(spans.read_text())
            spans.unlink()
            return proc, child
        return proc, None

    def run(self, item):
        label, args = item
        self.calls += 1
        args = [str(self.tmp / f"fixtures-{self.calls}") if a == "{fresh}"
                else a for a in args]
        if self.tracer is None:
            proc, _ = self._call(args)
        else:
            with self.tracer.span(f"cli.{label}") as idx:
                proc, child = self._call(args)
            self.tracer.adopt(child, idx)
        return proc.returncode, proc.stdout, args

    def expect(self, oracles) -> list[str]:
        self.oracles = oracles
        # usage errors exit 2, the check of an upper drawing exits 1
        self.want_code = [2 if label == "usage" else
                          1 if label == "check" and args[-1].endswith(
                              "_upper.json") else 0
                          for label, args in self.items]
        return []

    def plant(self) -> None:
        self.want_code[0] = 3

    def mismatches(self, results) -> list[str]:
        out = []
        for (label, _a), want, got in zip(self.items, self.want_code, results):
            if got is None:
                continue
            code, stdout, args = got
            problems = ([f"exit {code}, expected {want}"] if code != want
                        else self._check(label, args, code, stdout))
            out += [f"{' '.join(args)}: {p}" for p in problems]
        return out

    def _check(self, label: str, args: list[str], code: int,
               stdout: bytes) -> list[str]:
        fixtures = self.root / "fixtures"
        if label == "usage":
            return []
        if label == "fixtures":
            out = Path(args[-1])
            names = sorted(p.name for p in fixtures.iterdir())
            if sorted(p.name for p in out.iterdir()) != names:
                return ["fixture file set differs"]
            return [f"{n} differs" for n in names
                    if (out / n).read_bytes() != (fixtures / n).read_bytes()]
        if label == "report":
            same = stdout == (fixtures / "table1_k2.json").read_bytes()
            return [] if same else ["output differs from table1_k2.json"]
        if label == "svg":
            same = stdout == (fixtures / f"{self.svg}.svg").read_bytes()
            return [] if same else [f"output differs from {self.svg}.svg"]
        if label == "layout":
            want = f"crossings: {self.layout_ell ** 2}\n"
            return [] if want in stdout.decode() else [f"missing {want!r}"]
        obj = json.loads(stdout)
        if label == "check":
            return [] if obj["ok"] == (code == 0) else ["verdict differs"]
        if label == "coverage":
            return [] if obj["ok"] else ["coverage not full"]
        if label == "bound":
            return self._check_bound(obj)
        if "drawings" in obj:
            return self._check_corpus(obj)
        want = known.ic_vertices(self.gen_ell)
        got = len(obj["vertices"])
        return [] if got == want else [f"{got} vertices, paper has {want}"]

    def _check_bound(self, obj: dict) -> list[str]:
        concept, ell, k = self.bound_point
        kind = {"kpl": "k-planar", "kvp": "k-vertex-planar",
                "kfcf": "k-fan-crossing-free", "kecr": "k-edge-crossing",
                "kgap": "k-gap-planar", "apex": "k-apex",
                "skew": "skewness"}.get(concept, concept)
        witness = known.witness_crossings(kind, ell,
                                          known.structural_k(kind, k))
        bound = Fraction(obj["counting_bound"])
        out = []
        if obj["witness_crossings"] != witness:
            out.append(f"witness crossings {obj['witness_crossings']}, "
                       f"paper has {witness}")
        if not 0 < bound <= witness or witness > 50 * bound:
            out.append(f"bound {bound} outside (witness/50, {witness}]")
        return out

    def _check_corpus(self, obj: dict) -> list[str]:
        from beyondcr import drawing_from_json_obj
        if len(obj["drawings"]) != 5:
            return [f"{len(obj['drawings'])} drawings, asked for 5"]
        counts = [len(self.oracles.brute_crossing_points(
            drawing_from_json_obj(d))) for d in obj["drawings"]]
        return [f"a drawing has {c} > 12 crossings" for c in counts if c > 12]

    def close(self) -> None:
        import shutil
        shutil.rmtree(self.tmp, ignore_errors=True)


def _k(k):
    return [] if k is None else ["--k", str(k)]


WORKLOADS = {w.name: w for w in (FrameworkSweep, CheckMatrix, RandomCorpus,
                                 CliCalls)}
