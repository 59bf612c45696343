"""The workload process: set up, run timed passes, check the answers.

run.py starts it from the root of a checkout.  It prints ``ready`` the
moment set-up is done (run.py times process start to that line as
set-up) and then, unless ``--setup-only``, works out the known answers,
runs the timed passes, checks each against them and prints one JSON
summary line.

The passes form a closed loop in one thread: the next item starts when
the previous one has returned.  Between items, every REFERENCE_EVERY
seconds, the untraced passes run ``reference()``; its mean time tells
run.py how fast the host ran this run.  With ``--trace 1`` the first half
of the time runs untraced passes and the second half traced ones, so the
tracing overhead can be read off the same process.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import known
from spans import Tracer, layer_metrics, layer_shares, per_layer_names
from workloads import WORKLOADS, program_env

REFERENCE_EVERY = 0.05      # seconds of items between reference runs


def reference() -> list[int]:
    """A fixed computation of the benchmark's own, not the program's.

    Exact fractions, tuples and a dict, like the program's inner loops;
    about 1 ms on a 2-vCPU Xeon.
    """
    s = Fraction(0)
    d = {}
    for i in range(1, 120):
        s += Fraction(i, i + 7) * Fraction(3, i + 1)
        d[(i, i % 7)] = s.numerator % 97
    return sorted(d.values())


def _timed_passes(workload, seconds: float,
                  tracer: Tracer | None) -> tuple[list, list, list, list]:
    """Closed-loop passes over the items while the time lasts.

    Returns ``[wall, item_times, traced]`` per pass (the wall is the sum
    of its item times), the answers that differ from the known ones, the
    tracebacks of items that raised (their result is None) and the times
    of the reference runs.  Each pass is checked when it ends, outside
    its item times, and its results are dropped, so memory does not grow
    with the number of passes.  The first pass of each phase is whole;
    an untraced pass after it stops at the deadline, so every second of
    the run gives items another try, while a traced pass starts only if
    the one before suggests it ends in time, to keep per-pass span means
    whole.
    """
    passes: list = []
    problems: list[str] = []
    failures: list[str] = []
    references: list[float] = []
    last_reference = float("-inf")
    start = perf_counter()
    phases = [(seconds, False)] if tracer is None else \
        [(seconds / 2, False), (seconds, True)]
    for limit, traced in phases:
        if traced:
            if workload.in_process:
                tracer.install()
            workload.tracer = tracer
        first = True
        while first or perf_counter() - start + (
                passes[-1][0] if traced else 0) < limit:
            times, results = [], []
            for idx, item in enumerate(workload.items):
                if not (first or traced) and perf_counter() - start >= limit:
                    break
                if traced:
                    tracer.item = f"{len(passes)}.{idx}"
                t = perf_counter()
                try:
                    results.append(workload.run(item))
                except Exception:       # a failed item; the run goes on
                    results.append(None)
                    failures.append(traceback.format_exc(limit=3))
                times.append(perf_counter() - t)
                t = perf_counter()
                if not traced and t - last_reference >= REFERENCE_EVERY:
                    reference()
                    last_reference = perf_counter()
                    references.append(last_reference - t)
            first = False
            if times:
                passes.append([sum(times), times, traced])
                problems += workload.mismatches(results)
        if traced:
            tracer.uninstall()
            workload.tracer = None
    return passes, problems, failures, references


def _probe_ms(root: Path, code: str, runs: int = 5) -> float:
    """Median wall time of a fresh interpreter running ``code``."""
    env = program_env(root)
    times = []
    for _ in range(runs):
        t = perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=root, env=env,
                       check=True, timeout=60)
        times.append(perf_counter() - t)
    return statistics.median(times) * 1000


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--plant-mismatch", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans-out")
    args = ap.parse_args(argv)
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))

    workload = WORKLOADS[args.workload](root, args.seed, args.tiny)
    tracer = Tracer() if args.trace else None
    in_process = workload.in_process
    if tracer is not None and in_process:
        tracer.install()                # set-up spans, e.g. corpus generation
    workload.setup()
    if tracer is not None:
        tracer.uninstall()
    print("ready", flush=True)
    if args.setup_only:
        workload.close()
        return 0

    # known answers come before the timed passes, outside set-up and timing
    problems = workload.expect(known.load_oracles(root))
    if args.plant_mismatch:
        workload.plant()
    passes, wrong, failures, references = _timed_passes(
        workload, args.seconds, tracer)
    problems += wrong
    usage = resource.getrusage(resource.RUSAGE_SELF if in_process
                               else resource.RUSAGE_CHILDREN)
    workload.close()

    untraced = [p for p in passes if not p[2]]
    out = {
        "pass_walls": [p[0] for p in untraced
                       if len(p[1]) == len(workload.items)],
        "item_ms": [[t * 1000 for t in p[1]] for p in untraced],
        "reference_ms": statistics.fmean(references) * 1000,
        "references": len(references),
        "attempted": sum(len(p[1]) for p in passes),
        "failed": len(failures),
        "failures": failures[:3],
        "mismatches": len(problems),
        "mismatch_examples": problems[:10],
        "peak_rss_mb": usage.ru_maxrss / 1024,
    }
    if tracer is not None:
        traced = [p for p in passes if p[2]]
        layers = layer_metrics(tracer.spans, len(traced))
        layers["cli.interp_ms"] = _probe_ms(root, "pass")
        layers["cli.import_ms"] = _probe_ms(root, "import beyondcr")
        if not in_process:
            for label, _args in workload.items:
                layers[f"cli.{label}_ms"] = statistics.median(
                    t * 1000 for p in untraced
                    for (lab, _a), t in zip(workload.items, p[1])
                    if lab == label)
        out["layers"] = {n: layers.get(n, 0.0) for n in per_layer_names()}
        out["shares"] = layer_shares(tracer.spans, len(traced))
        out["traced_walls"] = [p[0] for p in traced]
        out["touched"] = sorted({s[0].split(".", 1)[0]
                                 for s in tracer.spans})
        if args.spans_out:
            Path(args.spans_out).write_text(json.dumps(tracer.spans))
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
