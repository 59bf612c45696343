"""End-to-end command line tests (everything in-process through run())."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import beyondcr
from beyondcr import (Drawing, drawing_from_json, drawing_to_json, edge,
                      make_graph)
from beyondcr.cli import run
from beyondcr.graph_core import CONCEPTS
from conftest import pt


def out_of(capsys):
    return capsys.readouterr().out


# ---------------------------------------------------------------------------
# layout / check round trips
# ---------------------------------------------------------------------------

def test_layout_then_check_witness_passes(tmp_path, capsys):
    f = tmp_path / "d.json"
    assert run(["layout", "--concept", "ic", "--ell", "2",
                "--out", str(f)]) == 0
    assert run(["check", "--concept", "ic", "--in", str(f)]) == 0
    obj = json.loads(out_of(capsys))
    assert obj == {"concept": "ic", "ok": True}


def test_check_upper_variant_fails_with_reason(tmp_path, capsys):
    f = tmp_path / "d.json"
    run(["layout", "--concept", "ic", "--ell", "2", "--variant", "upper",
         "--out", str(f)])
    rc = run(["check", "--concept", "ic", "--in", str(f), "--format", "text"])
    assert rc == 1
    text = out_of(capsys)
    assert "ok: false" in text
    assert "reason:" in text
    assert "witness:" in text


def test_check_parametric_concept(tmp_path, capsys):
    f = tmp_path / "d.json"
    run(["layout", "--concept", "k-planar", "--ell", "2", "--k", "1",
         "--out", str(f)])
    assert run(["check", "--concept", "kpl", "--k", "1", "--in", str(f)]) == 0
    assert run(["check", "--concept", "kpl", "--k", "1", "--in", str(f),
                "--rectilinear"]) == 0


def test_layout_stdout_json_and_meta(capsys):
    assert run(["layout", "--concept", "skewness", "--ell", "2",
                "--k", "1"]) == 0
    d = drawing_from_json(out_of(capsys))
    assert d.meta["concept"] == "skewness"
    assert d.meta["variant"] == "witness"
    assert d.meta["ell"] == 2 and d.meta["k"] == 1


def test_layout_text_and_svg_formats(capsys):
    run(["layout", "--concept", "ic", "--ell", "2", "--format", "text"])
    text = out_of(capsys)
    assert text.startswith("concept: IC")
    assert "crossings:" in text
    run(["layout", "--concept", "ic", "--ell", "2", "--format", "svg"])
    svg = out_of(capsys)
    assert svg.lstrip().startswith("<svg")
    assert "<polyline" in svg


def test_rectilinear_flag_rejects_bent_fan_layout(capsys):
    argv = ["layout", "--concept", "fan-crossing", "--ell", "2",
            "--rectilinear"]
    refusal = ('{\n  "concept": "fc",\n  "ok": false,\n'
               '  "reason": "drawing is not straight-line"\n}\n')
    # a verdict, as check prints it; svg has no verdict form, so json
    for fmt, want in (("json", refusal), ("svg", refusal),
                      ("text", "ok: false\nreason: drawing is not "
                               "straight-line\n")):
        assert run(argv + ["--format", fmt]) == 1
        assert out_of(capsys) == want
    # non-fan constructions are straight-line, so the flag is harmless there
    assert run(["layout", "--concept", "nnic", "--ell", "3",
                "--rectilinear"]) == 0


def test_check_rectilinear_refuses_bent_fan_drawing(tmp_path, capsys):
    f = tmp_path / "fan.json"
    assert run(["layout", "--concept", "fan-crossing", "--ell", "1",
                "--out", str(f)]) == 0
    argv = ["check", "--concept", "fan-crossing", "--in", str(f),
            "--rectilinear"]
    assert run(argv) == 1
    assert out_of(capsys) == (
        '{\n  "concept": "fc",\n  "ok": false,\n'
        '  "reason": "drawing is not straight-line"\n}\n')
    assert run(argv + ["--format", "text"]) == 1
    assert out_of(capsys) == "ok: false\nreason: drawing is not straight-line\n"


def _run_python(*args, hash_seed="0", preexec_fn=None):
    """Run a fresh interpreter on this checkout's package."""
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=str(Path(beyondcr.__file__).resolve().parent.parent))
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True,
                          cwd=Path(__file__).resolve().parent.parent,
                          preexec_fn=preexec_fn)


def _python(*args, hash_seed="0"):
    done = _run_python(*args, hash_seed=hash_seed)
    done.check_returncode()
    return done.stdout


def test_gap_check_stdout_is_the_same_under_every_hash_seed():
    outs = {_python("-m", "beyondcr.cli", "check", "--concept", "gap",
                    "--k", "1", "--in",
                    "fixtures/k-gap-planar_l1_k1_witness.json",
                    hash_seed=seed) for seed in ("1", "2", "3")}
    assert len(outs) == 1 and '"assignment"' in outs.pop()


def test_import_pulls_in_no_graph_library():
    _python("-c", "import beyondcr, sys; "
                  "assert 'networkx' not in sys.modules")


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # -S keeps site-packages' start-up hooks out of sys.modules; ast is
    # loaded only by a process that evaluates a formula text
    out = _python("-S", "-c", "import beyondcr.cli, sys; print(sorted("
                              "{'dataclasses', 'inspect', 'ast'}"
                              " & set(sys.modules)))")
    assert out == "[]\n"


def test_every_definition_in_src_has_a_use_there_or_is_exported():
    # by name: a function, class or method is kept for src/ itself or for
    # the package's users, never for the tests alone
    defined, used, exported = [], set(), set()
    for path in sorted(Path(beyondcr.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((node.name, f"{path.name}:{node.lineno}"))
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom) \
                    and path.name == "__init__.py":
                exported.update(alias.name for alias in node.names)
    assert [(name, where) for name, where in defined
            if name not in used | exported
            and not (name.startswith("__") and name.endswith("__"))] == []


def test_no_src_module_imports_a_private_name_from_a_sibling():
    # an underscore name belongs to its module; a sibling goes through a
    # public entry point instead
    private = [(path.name, alias.name)
               for path in sorted(Path(beyondcr.__file__).parent.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.ImportFrom) and (
                   node.level > 0 or node.module.startswith("beyondcr"))
               for alias in node.names if alias.name.startswith("_")]
    assert private == []


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

def test_gen_framework_graph(capsys):
    assert run(["gen", "--concept", "nic", "--ell", "4"]) == 0
    obj = json.loads(out_of(capsys))
    assert sorted(obj) == ["edges", "meta", "vertices"]
    assert obj["meta"]["concept"] == "nic"
    assert obj["meta"]["ell"] == 4
    assert "coloring" in obj["meta"]


def test_gen_is_deterministic(capsys):
    run(["gen", "--concept", "ic", "--ell", "3"])
    first = out_of(capsys)
    run(["gen", "--concept", "ic", "--ell", "3"])
    assert out_of(capsys) == first


def test_gen_random_corpus(capsys):
    assert run(["gen", "--random", "5", "--seed", "11"]) == 0
    obj = json.loads(out_of(capsys))
    assert obj["count"] == 5 and obj["seed"] == 11
    assert len(obj["drawings"]) == 5
    run(["gen", "--random", "5", "--seed", "11"])
    assert json.loads(out_of(capsys)) == obj
    run(["gen", "--random", "5", "--seed", "12"])
    assert json.loads(out_of(capsys)) != obj


# ---------------------------------------------------------------------------
# coverage
# ---------------------------------------------------------------------------

def test_coverage_standard_drawing(capsys):
    assert run(["coverage", "--concept", "ic", "--ell", "2"]) == 0
    obj = json.loads(out_of(capsys))
    assert obj["ok"] is True
    assert obj["fraction_sum"] is not None
    assert obj["kuratowski_count"] == 4
    assert obj["skipped_crossings"] == 0
    assert obj["covering_crossings"] > 0


def test_coverage_of_drawing_file(tmp_path, capsys):
    f = tmp_path / "d.json"
    run(["layout", "--concept", "skewness", "--ell", "2", "--k", "1",
         "--out", str(f)])
    capsys.readouterr()
    assert run(["coverage", "--concept", "skewness", "--ell", "2", "--k", "1",
                "--in", str(f), "--format", "text"]) == 0
    assert "fully covered: true" in out_of(capsys)


def test_coverage_refuses_drawing_of_another_graph(tmp_path, capsys):
    # NIC's blue con-graph is Bundle(4, 6), IC's Bundle(4, 9)
    f = tmp_path / "nic4.json"
    assert run(["layout", "--concept", "nic", "--ell", "4",
                "--out", str(f)]) == 0
    assert run(["coverage", "--concept", "ic", "--ell", "4",
                "--in", str(f)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: the drawing is not of the IC framework graph "
                   "at ell=4\n")


def test_coverage_budget_exhaustion(capsys):
    rc = run(["coverage", "--concept", "ic", "--ell", "2", "--budget", "2"])
    assert rc == 2
    assert "budget" in capsys.readouterr().err.lower()


# ---------------------------------------------------------------------------
# bound / report
# ---------------------------------------------------------------------------

def test_bound_json_fields(capsys):
    assert run(["bound", "--concept", "k-gap-planar", "--ell", "5",
                "--k", "1"]) == 0
    obj = json.loads(out_of(capsys))
    assert obj["concept"] == "k-gap-pl(k=1)"
    assert obj["counting_bound"] == "5"
    assert obj["witness_crossings"] == 25
    assert obj["upper_crossings"] == 25
    assert len(obj["trace"]) == 3
    assert {"expression", "theta_class", "value"} <= set(obj["ratio_upper"])
    assert obj["n"] > 0 and obj["m"] > obj["n"] - 1


@pytest.mark.parametrize("ell", [0, -3])
@pytest.mark.parametrize("kind", sorted(CONCEPTS))
def test_bound_refuses_ell_below_1(kind, ell, capsys):
    assert run(["bound", "--concept", kind, "--ell", str(ell),
                "--k", "2"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: ell must be >= 1\n"


def test_bound_text_has_trace(capsys):
    run(["bound", "--concept", "ic", "--ell", "2", "--format", "text"])
    text = out_of(capsys)
    assert "counting bound: 4" in text
    assert "classes:" in text and "bound:" in text


def test_report_text(capsys):
    assert run(["report", "--k", "2", "--points", "3"]) == 0
    lines = out_of(capsys).splitlines()
    assert lines[0].split()[:2] == ["concept", "class"]
    assert len(lines) == 16  # header + rule + 14 concepts
    assert any(ln.startswith("IC") for ln in lines)


def test_report_k1_marks_concepts_needing_larger_k(capsys):
    assert run(["report", "--k", "1", "--points", "3"]) == 0
    lines = out_of(capsys).splitlines()
    assert len(lines) == 16  # header + rule + 14 concepts, in table order
    rows = [ln.split()[0] for ln in lines[2:]]
    assert rows[5] == "k-fcf" and rows[10] == "k-ecr"
    assert lines[2 + 5].split(None, 1)[1] == "n/a (requires k >= 2)"
    assert lines[2 + 10].split(None, 1)[1] == "n/a (requires k >= 2)"
    assert sum("n/a" in ln for ln in lines) == 2
    assert run(["report", "--k", "1", "--points", "3",
                "--format", "json"]) == 0
    objs = json.loads(out_of(capsys))
    assert len(objs) == 14
    assert objs[5] == {"concept": "k-fcf", "applicable": False,
                       "reason": "requires k >= 2"}
    assert objs[10] == {"concept": "k-ecr", "applicable": False,
                        "reason": "requires k >= 2"}
    assert objs[0]["concept"] == "k-pl(k=1)" and len(objs[0]["grid"]) == 3


def test_report_json(capsys):
    assert run(["report", "--k", "2", "--points", "3",
                "--format", "json"]) == 0
    objs = json.loads(out_of(capsys))
    assert len(objs) == 14
    assert all(len(o["grid"]) == 3 for o in objs)


@pytest.mark.parametrize("points", ["1", "0", "-2"])
def test_report_refuses_fewer_than_two_points(points, capsys):
    assert run(["report", "--k", "2", "--points", points]) == 2
    assert capsys.readouterr().err == "error: points must be >= 2\n"


def test_report_ratios_beyond_the_float_range(capsys):
    # from 503 points on, the grid's largest ratios exceed the float range
    assert run(["report", "--k", "2", "--points", "503",
                "--format", "json"]) == 0
    objs = json.loads(out_of(capsys))
    assert all(len(o["grid"]) == 503 for o in objs)


# ---------------------------------------------------------------------------
# svg / fixtures
# ---------------------------------------------------------------------------

def test_svg_command(tmp_path, capsys):
    f = tmp_path / "d.json"
    run(["layout", "--concept", "ic", "--ell", "2", "--out", str(f)])
    out = tmp_path / "d.svg"
    assert run(["svg", "--in", str(f), "--out", str(out)]) == 0
    svg = out.read_text()
    assert svg.lstrip().startswith("<svg") and "</svg>" in svg
    # deterministic
    assert run(["svg", "--in", str(f)]) == 0
    assert out_of(capsys).strip() == svg.strip()


@pytest.mark.parametrize("a,b", [
    (["0", "0"], ["1" + "0" * 400, "0"]),         # no float holds it
    ([-17 * 10 ** 307, 0], [17 * 10 ** 307, 0]),  # their span overflows
], ids=["coordinate", "span"])
def test_svg_refuses_coordinates_beyond_float_range(tmp_path, capsys, a, b):
    f = tmp_path / "d.json"
    f.write_text(drawing_to_json(Drawing(make_graph("ab", [("a", "b")]),
                                         {"a": pt(*a), "b": pt(*b)}, {})))
    assert run(["svg", "--in", str(f)]) == 2
    assert capsys.readouterr() == ("", "error: coordinates beyond float "
                                       "range: the drawing cannot be rendered\n")


def test_fixtures_regenerate_byte_identically(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(["fixtures", "--out", str(a)]) == 0
    assert run(["fixtures", "--out", str(b)]) == 0
    files_a = sorted(p.name for p in a.iterdir())
    files_b = sorted(p.name for p in b.iterdir())
    assert files_a == files_b and files_a
    for name in files_a:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
    assert "appendix_fcf.json" in files_a
    assert "k5_fcf.svg" in files_a
    assert "table1_k2.json" in files_a


def test_fixtures_match_committed_corpus(tmp_path, capsys):
    committed = Path(__file__).resolve().parent.parent / "fixtures"
    assert run(["fixtures", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    fresh = sorted(p.name for p in tmp_path.iterdir())
    assert fresh == sorted(p.name for p in committed.iterdir())
    for name in fresh:
        assert (tmp_path / name).read_bytes() == \
            (committed / name).read_bytes(), name


@pytest.mark.parametrize("concept,key", [("apex", "apices"),
                                         ("skew", "removed")])
def test_deletion_search_deeper_than_the_recursion_limit(tmp_path, capsys,
                                                         concept, key):
    # 1 100 pairwise-disjoint X's: one deletion per crossing is needed
    n = 1100
    names = [f"{c}{i}" for i in range(n) for c in "abcd"]
    positions = {}
    for i in range(n):
        positions.update({f"a{i}": pt(10 * i, 0), f"b{i}": pt(10 * i + 2, 2),
                          f"c{i}": pt(10 * i, 2), f"d{i}": pt(10 * i + 2, 0)})
    edges = [edge(f"{u}{i}", f"{v}{i}") for i in range(n)
             for u, v in ("ab", "cd")]
    f = tmp_path / "xs.json"
    f.write_text(drawing_to_json(Drawing(make_graph(names, edges),
                                         positions)))
    assert run(["check", "--concept", concept, "--k", str(n),
                "--in", str(f)]) == 0
    assert len(json.loads(out_of(capsys))["witness"][key]) == n
    # one deletion short: the n disjoint X's refute k = n - 1 at the root
    assert run(["check", "--concept", concept, "--k", str(n - 1),
                "--in", str(f)]) == 1
    assert json.loads(out_of(capsys))["ok"] is False


# ---------------------------------------------------------------------------
# failure modes
# ---------------------------------------------------------------------------

def test_error_exit_codes(tmp_path, capsys):
    assert run(["layout", "--concept", "no-such-thing", "--ell", "2"]) == 2
    assert "error:" in capsys.readouterr().err
    assert run(["layout", "--concept", "k-planar", "--ell", "2"]) == 2  # no k
    assert run(["check", "--concept", "ic",
                "--in", str(tmp_path / "missing.json")]) == 2
    assert run(["layout", "--concept", "k-planar", "--ell", "1",
                "--k", "1"]) == 2  # ell below the constructible range
    assert run(["coverage", "--concept", "ic"]) == 2  # argparse: missing --ell
    capsys.readouterr()
    assert run(["gen", "--random", "-2", "--seed", "11"]) == 2
    assert capsys.readouterr() == ("", "error: --random needs N >= 0\n")


def test_out_of_memory_exits_2_with_one_error_line():
    # exit 1 would read "predicate fails"; the cap binds the child only
    import resource
    cap = 256 * 2 ** 20

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
    done = _run_python("-m", "beyondcr.cli", "gen", "--concept", "kpl",
                       "--ell", "3000", "--k", "1", preexec_fn=limit_memory)
    assert (done.returncode, done.stdout, done.stderr) == (
        2, "", "error: out of memory\n")


def test_gen_refuses_negative_max_crossings(capsys):
    assert run(["gen", "--random", "1", "--seed", "1",
                "--max-crossings", "-1"]) == 2
    assert capsys.readouterr() == (
        "", "error: max_crossings must be >= 0, not -1\n")


@pytest.mark.parametrize("prob", ["1.5", "-0.1", "nan"])
def test_gen_refuses_a_bend_prob_outside_0_1(prob, capsys):
    assert run(["gen", "--random", "3", "--seed", "1",
                "--bend-prob", prob]) == 2
    assert capsys.readouterr() == (
        "", f"error: bend_prob must be in [0, 1], not {float(prob)}\n")


def test_corrupt_drawing_file(tmp_path, capsys):
    f = tmp_path / "bad.json"
    f.write_text("{not json")
    assert run(["check", "--concept", "ic", "--in", str(f)]) == 2
    assert "error:" in capsys.readouterr().err
    f.write_text("[" * 100_000 + "]" * 100_000)  # deeper than the decoder
    assert run(["check", "--concept", "ic", "--in", str(f)]) == 2
    assert capsys.readouterr().err.startswith("error: malformed drawing")
    f.write_bytes(b"\xff\xfe{}")                 # not UTF-8
    assert run(["check", "--concept", "ic", "--in", str(f)]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: malformed drawing file {f}: ")


def _x_drawing_obj():
    """Edges a-b (bent at (1, 2)) and c-d, crossing once."""
    return {
        "graph": {"vertices": ["a", "b", "c", "d"],
                  "edges": [["a", "b"], ["c", "d"]], "meta": {}},
        "positions": {"a": ["0", "0"], "b": ["4", "4"],
                      "c": ["0", "4"], "d": ["4", "0"]},
        "curves": {"a|b": [["1", "2"]]},
        "meta": {},
    }


def _set_position(obj, point):
    obj["positions"]["a"] = point


def _set_graph(obj, key, value):
    obj["graph"][key] = value


def _add_vertex(obj, name):
    obj["graph"]["vertices"].append(name)
    obj["positions"][name] = ["9", "9"]


@pytest.mark.parametrize("mutate", [
    lambda o: _set_position(o, ["1/0", "0"]),           # zero denominator
    lambda o: o.__setitem__("positions", []),           # not an object
    lambda o: _set_position(o, [True, 0]),              # bool, not an int
    lambda o: _set_position(o, [0.5, 0]),               # float
    lambda o: _set_position(o, ["1.5", "0"]),           # decimal string
    lambda o: _set_position(o, ["0", "0", "0"]),        # not a pair
    lambda o: o["positions"].__delitem__("d"),          # vertex without point
    lambda o: o["positions"].__setitem__("z", [9, 9]),  # point for no vertex
    lambda o: o["curves"].__setitem__("a|c", [["1", "1"]]),  # non-edge curve
    lambda o: o["curves"].__setitem__("b|a", [["3", "1"]]),  # curve twice
    lambda o: o["curves"].__setitem__("a|b", ["1", "2"]),    # bend not a pair
    lambda o: _set_graph(o, "vertices", "abcd"),        # a string
    lambda o: _set_graph(o, "vertices", ["a", "b", "c", "d", 5]),
    lambda o: _set_graph(o, "vertices", ["a", "b", "c", "d", "a"]),
    lambda o: _set_graph(o, "edges", ["ab", "cd"]),     # strings, not pairs
    lambda o: _set_graph(o, "edges", [["a", "b", "c"], ["c", "d"]]),
    lambda o: o["graph"]["edges"].append(["a", "a"]),   # loop
    lambda o: o["graph"]["edges"].append(["a", "z"]),   # unknown endpoint
    lambda o: o["graph"]["edges"].append(["b", "a"]),   # repeated edge
    lambda o: _add_vertex(o, "a|b"),                    # edge-key separator
    lambda o: [o],                                      # a list, not an object
    lambda o: o.__setitem__("graph", "abcd"),           # graph a string
    lambda o: o.__delitem__("positions"),               # no positions
    lambda o: o.__setitem__("meta", "ab"),              # meta a string
    lambda o: o.__setitem__("meta", [["a", 1]]),        # meta a pair list
], ids=["zero-denominator", "positions-list", "bool", "float", "decimal",
        "triple", "missing-vertex", "unknown-vertex", "non-edge-curve",
        "duplicate-curve", "malformed-bend", "vertices-string",
        "vertex-not-string", "duplicate-vertex", "edge-string", "edge-triple",
        "loop", "unknown-endpoint", "repeated-edge", "vertex-with-pipe",
        "top-level-list", "graph-string", "positions-missing", "meta-string",
        "meta-pairs"])
def test_malformed_drawing_refused_with_exit_2(tmp_path, capsys, mutate):
    f = tmp_path / "d.json"
    f.write_text(json.dumps(_x_drawing_obj()))
    assert run(["check", "--concept", "ic", "--in", str(f)]) == 0
    capsys.readouterr()
    obj = _x_drawing_obj()
    obj = mutate(obj) or obj
    f.write_text(json.dumps(obj))
    assert run(["check", "--concept", "ic", "--in", str(f)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: malformed drawing")
    # The reason is the loader's own, not a TypeError or bare KeyError text.
    assert not re.search(r"indices must be|sequence element|: '[^']*'$",
                         lines[0])


# ---------------------------------------------------------------------------
# fuzzed input boundary
# ---------------------------------------------------------------------------

_FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
_DRAWING_FIXTURES = sorted(p.name for p in _FIXTURES.glob("*.json")
                           if "positions" in json.loads(p.read_text()))
_JSON_LEAVES = (st.none() | st.booleans() | st.integers(-3, 300)
                | st.floats() | st.text(max_size=4)
                | st.sampled_from(["0", "7", "-3/2", "1/0", "1.5", "v1",
                                   "w1", "v1|w1", "a|b", ""]))
_COORD = st.fractions(-8, 300, max_denominator=4).map(str)
_JSON = st.recursive(_JSON_LEAVES,
                     lambda kids: st.lists(kids, max_size=3)
                     | st.dictionaries(st.text(max_size=3), kids, max_size=3),
                     max_leaves=6)


def _json_paths(node, path=()):
    yield path
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield from _json_paths(child, path + (key,))


def _mutate(obj, data):
    """Replace, delete or copy one node of obj, or add one to a container."""
    path = data.draw(st.sampled_from(list(_json_paths(obj))[1:]))
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    op = data.draw(st.sampled_from(["replace", "delete", "copy", "add"]))
    if op == "replace":
        parent[key] = data.draw(_COORD | _JSON)
    elif op == "delete":
        del parent[key]
    elif op == "copy" and isinstance(parent, list):
        parent.insert(key, parent[key])
    elif op == "copy":
        parent[data.draw(st.text(max_size=3))] = parent[key]
    elif isinstance(parent[key], dict):
        parent[key][data.draw(st.text(max_size=3))] = data.draw(_JSON)
    elif isinstance(parent[key], list):
        parent[key].append(data.draw(_JSON))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(data=st.data())
def test_mutated_fixture_keeps_the_exit_contract(tmp_path, capsys, data):
    obj = json.loads((_FIXTURES / data.draw(
        st.sampled_from(_DRAWING_FIXTURES))).read_text())
    for _ in range(data.draw(st.integers(0, 3))):
        v = data.draw(st.sampled_from(sorted(obj["positions"])))
        obj["positions"][v] = [data.draw(_COORD), data.draw(_COORD)]
    for _ in range(data.draw(st.integers(0, 2))):
        _mutate(obj, data)
    f = tmp_path / "d.json"
    f.write_text(json.dumps(obj))
    concept, k = data.draw(st.sampled_from([
        ("kpl", "1"), ("kvp", "2"), ("ic", None), ("nic", None),
        ("nnic", None), ("kfcf", "2"), ("ac", None), ("fc", None),
        ("wfp", None), ("sfp", None), ("kecr", "2"), ("gap", "1"),
        ("apex", "1"), ("skew", "1")]))
    fmt = data.draw(st.sampled_from(["json", "text"]))
    rc = run(["check", "--concept", concept, "--in", str(f), "--format", fmt,
              *(["--k", k] if k else [])])
    out, err = capsys.readouterr()
    assert rc in (0, 1, 2)
    if rc == 2:
        assert out == "" and err.startswith("error: ")
    else:
        assert err == ""
        if fmt == "json":
            assert json.loads(out)["ok"] is (rc == 0)
        else:
            assert out.startswith(f"ok: {'true' if rc == 0 else 'false'}\n")
