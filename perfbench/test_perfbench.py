"""Self-tests of the benchmark.

Run from the root of a checkout:  python3 -m pytest perfbench -q
Each test starts run.py on a tiny version of a workload.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# the seven end-to-end metrics the report prints, with their units
PRINTED = [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] + [
    ("verdict_mismatches", "count"), ("failed_frac", "ratio")]


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--seed", "3",
         "--seconds", "1", "--tiny", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def _table(stdout: str) -> dict[str, list[str]]:
    return {line.split()[0]: line.split()[1:]
            for line in stdout.splitlines() if line.strip()}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_prints_every_end_to_end_metric(workload):
    proc = _run("--workload", workload, "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {n: m["unit"] for n, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    table = _table(proc.stdout)
    for name, unit in PRINTED:
        assert table[name][1] == unit, name
    assert float(table["verdict_mismatches"][0]) == 0
    assert '"networkx"' in proc.stdout and '"cpu"' in proc.stdout


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_planted_wrong_answer_is_caught(workload):
    proc = _run("--workload", workload, "--trace", "0", "--plant-mismatch")
    assert proc.returncode == 0, proc.stderr
    assert not json.loads(proc.stdout.splitlines()[-1])["correct"]
    assert int(_table(proc.stdout)["verdict_mismatches"][0]) > 0


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_run_has_a_span_for_every_layer_it_touches(workload):
    proc = _run("--workload", workload, "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    spans = json.loads((ROOT / ".perfbench_out" /
                        f"spans-{workload}-seed3-trace1.json").read_text())
    layers = {name.split(".", 1)[0] for name, *_ in spans}
    assert set(WORKLOADS[workload].layers) <= layers
    for name, start, end, parent, item, info in spans:
        assert start <= end and (parent is None or parent < len(spans))


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "BENCHMARK.json").write_bytes(
        (ROOT / "BENCHMARK.json").read_bytes())
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "framework-sweep", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
