"""Benchmark of the beyondcr verification pipeline.

Run from the root of a checkout:

    python3 perfbench/run.py --workload framework-sweep --seed 1 \\
        --seconds 25 --trace 0

``--workload all`` runs the four workloads one after another.  The
workload process (worker.py) sets up, runs closed-loop timed passes for
``--seconds`` and checks every answer against known results; this script
adds repeated set-ups, prints every metric by name with its unit and the
environment, and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones.
Spans and the full result go to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
from importlib import metadata
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
WORKLOADS = ("framework-sweep", "check-matrix", "random-corpus", "cli-calls")
SETUPS = 3              # set-ups per run; setup_s is their median
TAIL_ITEMS = 50         # items per pass from which the tail is per item
REFERENCE_MS = 1.0      # nominal mean time of worker.reference()
WORKER_TIMEOUT = 150    # seconds; the whole run must end within 180

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("item_ms_p50", "ms"),
              ("item_ms_tail", "ms"), ("peak_rss_mb", "MiB"))


class RunError(Exception):
    pass


def _spawn(root: Path, argv: list[str]):
    """Start a worker; return (seconds to its ``ready`` line, stdout rest)."""
    cmd = [sys.executable, str(HERE / "worker.py"), *argv]
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    # on timeout, kill the worker with every CLI process it started
    watchdog = threading.Timer(WORKER_TIMEOUT, os.killpg,
                               (proc.pid, signal.SIGKILL))
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup = perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        proc.stdout.close()
    if ready.strip() != "ready" or code != 0:
        raise RunError(f"worker {' '.join(argv)} exited with {code}")
    return setup, rest


def _tries(passes: list[list[float]]) -> list[list[float]]:
    """Each item's times over the run's passes; the last may stop short."""
    return [[p[i] for p in passes if i < len(p)]
            for i in range(len(passes[0]))]


def _tail(samples: list[float],
          typical: list[float]) -> tuple[float, str]:
    """The highest percentile with at least 10 samples beyond it.

    Taken over each item's median time when a pass holds TAIL_ITEMS items
    or more, else over all the run's samples, since fewer items have no
    tail.  Returns the value and a note with the percentile and the base.
    """
    many = len(typical) >= TAIL_ITEMS
    s = sorted(typical if many else samples)
    n = len(s)
    beyond = 10 if n > 10 else 0
    return s[n - 1 - beyond], (
        f"p{100.0 * (n - beyond) / n:.1f}, {beyond} samples beyond, n={n} "
        + ("item medians" if many else "samples"))


def environment(root: Path, seed: int, trace: int) -> dict:
    commit = None               # a checkout without .git has no commit id
    if (root / ".git").exists():
        try:
            res = subprocess.run(["git", "--git-dir", str(root / ".git"),
                                  "rev-parse", "HEAD"], capture_output=True,
                                 text=True, timeout=30)
            commit = res.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"commit": commit, "src_sha256": digest.hexdigest()[:16],
            "seed": seed, "python": platform.python_version(),
            "networkx": metadata.version("networkx"),
            "nproc": os.cpu_count(), "cpu": cpu,
            "tracing": "on" if trace else "off"}


def run_workload(root: Path, args) -> dict:
    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    argv = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    argv += ["--tiny"] * args.tiny + ["--plant-mismatch"] * args.plant_mismatch
    setup, rest = _spawn(root, argv + ["--spans-out",
                                       str(out_dir / f"spans-{tag}.json")])
    worker = json.loads(rest.strip().splitlines()[-1])
    setups = [setup]
    if not args.trace:
        setups += [_spawn(root, argv + ["--setup-only"])[0]
                   for _ in range(SETUPS - 1)]

    attempted = worker["attempted"]
    lines = [f"== {args.workload}  seed={args.seed}  "
             f"seconds={args.seconds}  trace={args.trace}"]
    if args.trace:
        metrics = worker["layers"]
        lines += _trace_report(worker)
    else:
        # On a shared host the speed of a core drifts by up to a half
        # between runs a minute apart.  The worker ran a fixed reference
        # computation between items all through the run, so every time
        # is scaled to a host on which it takes REFERENCE_MS; the set-ups
        # ran just before and after, so theirs are too.
        scale = REFERENCE_MS / worker["reference_ms"]
        passes = [[t * scale for t in p] for p in worker["item_ms"]]
        tries = _tries(passes)
        samples = sum(passes, [])
        tail, tail_note = _tail(samples,
                                [statistics.median(t) for t in tries])
        wall = sum(statistics.fmean(t) for t in tries) / 1000
        metrics = {"setup_s": statistics.median(setups) * scale,
                   "wall_s": wall,
                   "item_ms_p50": statistics.median(samples),
                   "item_ms_tail": tail,
                   "peak_rss_mb": worker["peak_rss_mb"]}
        notes = {"setup_s": f"median of {len(setups)} set-ups, "
                            f"{statistics.median(setups):.4f} s unscaled",
                 "wall_s": f"each item's mean over {len(passes)} passes,"
                           f" summed; {wall / scale:.4f} s unscaled",
                 "item_ms_p50": f"n={len(samples)}",
                 "item_ms_tail": tail_note,
                 "peak_rss_mb": "ru_maxrss of the workload process"
                                if args.workload != "cli-calls" else
                                "largest ru_maxrss of the CLI processes"}
        for name, unit in END_TO_END:
            lines.append(f"{name:<20} {metrics[name]:>12.4f} {unit:<6} "
                         f"({notes[name]})")
        lines.append(f"timings scaled by {scale:.4f}: the reference took "
                     f"{worker['reference_ms']:.4f} ms on average over "
                     f"{worker['references']} runs")
    lines.append(f"{'verdict_mismatches':<20} {worker['mismatches']:>12d} "
                 f"{'count':<6}")
    lines.append(f"{'failed_frac':<20} {worker['failed'] / attempted:>12.4f} "
                 f"{'ratio':<6} ({worker['failed']} of {attempted} attempted)")
    lines += [f"  mismatch: {m}" for m in worker["mismatch_examples"]]
    lines += [f"  failure: {f}" for f in worker["failures"]]

    units = dict(END_TO_END)
    result = {
        "correct": worker["mismatches"] == 0 and worker["failed"] == 0,
        "attempted": attempted,
        "failed": worker["failed"],
        "metrics": {name: {"value": value,
                           "unit": units.get(name) or _layer_unit(name)}
                    for name, value in metrics.items()},
    }
    env = environment(root, args.seed, args.trace)
    (out_dir / f"result-{tag}.json").write_text(json.dumps(
        {"env": env, "result": result, "worker": worker}, indent=1))
    print("\n".join(lines))
    print("env: " + json.dumps(env))
    return result


def _layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    return "ratio" if name == "drawing.hit_ratio" else "count"


def _trace_report(worker: dict) -> list[str]:
    """Per-layer metrics, self-time shares and the tracing overhead."""
    layers = worker["layers"]
    lines = [f"{name:<34} {value:>14.4f} {_layer_unit(name)}"
             for name, value in layers.items()]
    untraced = statistics.median(worker["pass_walls"]) * 1000
    traced = statistics.median(worker["traced_walls"]) * 1000
    # self times are means over the traced passes, so their base is too
    mean = statistics.fmean(worker["traced_walls"]) * 1000
    lines.append(f"layers touched: {', '.join(worker['touched'])}")
    for side, base, what in (("pass", mean, "ms per traced pass"),
                             ("setup", None, "ms of set-up")):
        shares = worker["shares"][side]
        for key in sorted(shares, key=shares.get, reverse=True):
            share = f"  {100 * shares[key] / base:5.1f}%" if base else ""
            lines.append(f"  {side:<5} self {key:<36} "
                         f"{shares[key]:10.2f} {what}{share}")
        if base:
            lines.append(f"  shares are of the mean traced pass, "
                         f"{base:.2f} ms")
    lines.append(f"tracing overhead: {traced - untraced:.2f} ms per pass "
                 f"(traced {traced:.2f} ms, untraced {untraced:.2f} ms)")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="shrink every workload (for the self-tests)")
    ap.add_argument("--plant-mismatch", action="store_true",
                    help="corrupt one known answer (for the self-tests)")
    args = ap.parse_args(argv)
    root = Path.cwd()
    needed = ("src/beyondcr/__init__.py", "tests/oracles.py", "fixtures")
    missing = [p for p in needed if not (root / p).exists()]
    if missing:
        print(f"error: run from the root of a beyondcr checkout "
              f"(missing {', '.join(missing)})", file=sys.stderr)
        return 2
    try:
        # compile the program's bytecode before anything is timed
        subprocess.run([sys.executable, "-c", "import beyondcr.cli"],
                       cwd=root, check=True, timeout=120,
                       env=dict(os.environ, PYTHONPATH=str(root / "src")))
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = []
        for name in names:
            args.workload = name
            results.append(run_workload(root, args))
    except (RunError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        print(json.dumps(results[0]))
    else:
        print(json.dumps({"correct": all(r["correct"] for r in results),
                          "attempted": sum(r["attempted"] for r in results),
                          "failed": sum(r["failed"] for r in results),
                          "metrics": {n: r["metrics"]
                                      for n, r in zip(names, results)}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
