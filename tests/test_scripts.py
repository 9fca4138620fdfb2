import importlib.util
import json
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(monkeypatch, name):
    monkeypatch.setattr(sys, "path", sys.path[:])  # the scripts prepend src/ (and perfbench/)
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def json_lines(text):
    return [json.loads(line) for line in text.splitlines()]


def test_bench_search_wraps_helpers_that_exist(monkeypatch):
    # bench_search.py patches search helpers by name, so a renamed or deleted
    # helper would only show as an AttributeError when the script runs
    script = load_script(monkeypatch, "bench_search")
    targets = [(mod, attr) for mod, attr, _ in script.TIMED] + list(script.COUNTED)
    assert len(targets) == 9
    assert [(mod.__name__, attr) for mod, attr in targets if not hasattr(mod, attr)] == []


def test_rebuild_tables_runs(monkeypatch, capsys):
    load_script(monkeypatch, "rebuild_tables").main()
    out = capsys.readouterr().out.splitlines()
    assert "== gf2: 263 published cells, 1 propagation updates ==" in out
    assert "  [40,14]: published 11-13, derived 12-13" in out
    assert "== gf3: 117 published cells, 14 propagation updates ==" in out


def test_search_demo_runs(monkeypatch, capsys):
    load_script(monkeypatch, "search_demo").main()
    out = capsys.readouterr().out.splitlines()
    assert "best vector: 0000102210220001222" in out
    assert "extended code: [20,7,9] exact=True" in out


def test_bench_linalg_runs(monkeypatch, capsys):
    # one round of one pass, so a removed parameter or helper fails here
    script = load_script(monkeypatch, "bench_linalg")
    monkeypatch.setattr(script, "ROUNDS", 1)
    monkeypatch.setattr(script, "REPEATS", 1)
    script.main()
    lines = json_lines(capsys.readouterr().out)
    assert [line["field"] for line in lines] == ["gf2", "gf3", "gf4h"]
    assert all(line["rref_reversed_us"] > 0 and line["matrices"] == 48 for line in lines)


def test_bench_scan_runs(monkeypatch, capsys):
    # small codes, one scanned through its dual, and codes just past the
    # default codeword caps, which Brouwer-Zimmermann decides at once
    script = load_script(monkeypatch, "bench_scan")
    monkeypatch.setattr(script, "ROUNDS", 1)
    monkeypatch.setattr(script, "SIZES", [("gf2", 12, 5), ("gf3", 8, 5), ("gf4h", 8, 3), ("gf2", 24, 18)])
    monkeypatch.setattr(script, "PAST_CAP", [("gf2", 34, 27), ("gf3", 22, 17), ("gf4h", 18, 14)])
    script.main()
    lines = json_lines(capsys.readouterr().out)
    scans, past_cap = lines[:4], lines[4:]
    assert [(line["field"], line["n"], line["k"]) for line in lines] == script.SIZES + script.PAST_CAP
    assert {line["route"] for line in scans} == {"direct", "dual"}
    assert all(line["min_weight_codewords_per_s"] > 0 for line in scans)
    assert all(line["codewords"] > line["cap"] and line["exact"] for line in past_cap)


def test_bench_search_runs(monkeypatch, capsys):
    # one round of a small exhaustive and a small sampled search
    script = load_script(monkeypatch, "bench_search")
    b13, t19 = script.corpus.resolve_code("b_13_7_4"), script.corpus.resolve_code("t_19_6_9")
    monkeypatch.setattr(script, "ROUNDS", 1)
    monkeypatch.setattr(script, "cases", lambda: [("b13.exhaustive", b13, 2**6, 0), ("t19.sampled", t19, 300, 0)])
    script.main()
    lines = json_lines(capsys.readouterr().out)
    assert [line["case"] for line in lines] == ["b13.exhaustive", "t19.sampled"]
    stages = ("draw", "dedupe", "build", "distance", "scoring", "extend", "total")
    assert all(f"{stage}_ms" in line for line in lines for stage in stages)
    assert all(line["candidates"] > 0 and line["pairs"] > 0 for line in lines)
    assert lines[0]["distinct"] is None and lines[1]["distinct"] > 0


def test_bench_search_interleaves_trees(monkeypatch, capsys, tmp_path):
    # --trees runs each tree's own script in a fresh process per round, the
    # tree order flipping every round, and prints each tree's medians
    script = load_script(monkeypatch, "bench_search")
    trees, calls = [tmp_path / "a", tmp_path / "b"], []

    def run(cmd, cwd, **kwargs):
        calls.append(cwd)
        total = 10.0 * (cwd == trees[1]) + len(calls)
        out = [{"case": case, "draw_ms": 1.0, "total_ms": total, "candidates": 7, "min_weight": 3} for case in ("x", "y")]
        return subprocess.CompletedProcess(cmd, 0, stdout="".join(json.dumps(line) + "\n" for line in out))

    monkeypatch.setattr(script.subprocess, "run", run)
    script.interleaved(trees, 3)
    assert calls == [trees[0], trees[1], trees[1], trees[0], trees[0], trees[1]]
    lines = json_lines(capsys.readouterr().out)
    assert [(line["tree"], line["case"]) for line in lines] == [(str(t), c) for t in trees for c in ("x", "y")]
    # tree a ran as calls 1, 4 and 5, tree b as calls 2, 3 and 6
    assert [line["total_ms"] for line in lines] == [4.0, 4.0, 13.0, 13.0]
    assert all(line["draw_ms"] == 1.0 and line["rounds"] == 3 and line["candidates"] == 7 for line in lines)
