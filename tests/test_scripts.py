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
    assert len(targets) == 10
    assert [(mod.__name__, attr) for mod, attr in targets if not hasattr(mod, attr)] == []


def test_rebuild_tables_runs(monkeypatch, capsys):
    load_script(monkeypatch, "rebuild_tables").main()
    out = capsys.readouterr().out.splitlines()
    assert "== gf2: 263 published cells, 1 propagation updates ==" in out
    assert "  [40,14]: published 11-13, derived 12-13" in out
    assert "== gf3: 117 published cells, 14 propagation updates ==" in out


def test_rebuild_tables_grids_equal_the_bounds_command(monkeypatch, capsys):
    # the script and `lcdkit bounds` start from the same bundled table, so
    # each grid the script renders is the command's stdout, byte for byte
    from lcdkit.cli import main

    load_script(monkeypatch, "rebuild_tables").main()
    script_out = capsys.readouterr().out
    for field in ("gf2", "gf3"):
        assert main(["--threads", "1", "bounds", "--field", field]) == 0
        grid = capsys.readouterr().out
        assert grid.count("\n") > 5 and f"==\n{grid}\n" in script_out, field


BENCH_LINES = [
    "  algebra.wall_s     0.370000 s",
    'op_s {"algebra.hull": 0.0002}',
    'meta {"seed": 1, "workload": "all"}',
    '{"correct": true, "attempted": 9, "failed": 0, "metrics": {"algebra.wall_s": {"value": 0.37, "unit": "s"}}}',
]


HEAD_SHA = "8" * 40


def bench_record(monkeypatch, tmp_path, returncode, stdout, git=(0, HEAD_SHA + "\n", "")):
    # bench_record.py in a repository root of its own, with run.py mocked;
    # git answers rev-parse and status with git = (exit code, HEAD, status)
    script = load_script(monkeypatch, "bench_record")
    monkeypatch.setattr(script, "ROOT", tmp_path)
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"command": ["python3", "perfbench/run.py"], "run_seconds": 7}))
    calls = []

    def run(cmd, cwd, **kwargs):
        if cmd[0] == "git":
            assert cwd == tmp_path and cmd[1] in ("rev-parse", "status") and cmd[-2:] in (["rev-parse", "HEAD"], ["--", "src"])
            return subprocess.CompletedProcess(cmd, git[0], stdout=git[1] if cmd[1] == "rev-parse" else git[2])
        calls.append((cmd, cwd))
        return subprocess.CompletedProcess(cmd, returncode, stdout=stdout, stderr="run.py said so\n")

    monkeypatch.setattr(script.subprocess, "run", run)
    return script.record("x1"), calls


def test_bench_record_writes_the_run(monkeypatch, capsys, tmp_path):
    code, calls = bench_record(monkeypatch, tmp_path, 0, "\n".join(BENCH_LINES) + "\n")
    argv = ["python3", "perfbench/run.py", "--workload", "all", "--seed", "1", "--seconds", "7"]
    assert (code, calls) == (0, [(argv, tmp_path)])
    assert capsys.readouterr().out == "wrote BENCH_x1.json\n"
    assert json.loads((tmp_path / "BENCH_x1.json").read_text()) == {
        "op_s": {"algebra.hull": 0.0002},
        "meta": {"seed": 1, "workload": "all"},
        "result": json.loads(BENCH_LINES[-1]),
        "tree": {"head": HEAD_SHA, "src_equals_head": True},
    }


def test_bench_record_says_whether_src_is_head(monkeypatch, capsys, tmp_path):
    # git status lists a modified or untracked file under src/: the run
    # measured files that HEAD does not hold.  Where git fails (no
    # repository), neither is known
    stdout = "\n".join(BENCH_LINES) + "\n"
    for git, tree in [
        ((0, HEAD_SHA + "\n", " M src/lcdkit/construct.py\n"), {"head": HEAD_SHA, "src_equals_head": False}),
        ((0, HEAD_SHA + "\n", "?? src/lcdkit/new.py\n"), {"head": HEAD_SHA, "src_equals_head": False}),
        ((128, "", ""), {"head": None, "src_equals_head": None}),
    ]:
        assert bench_record(monkeypatch, tmp_path, 0, stdout, git)[0] == 0
        assert json.loads((tmp_path / "BENCH_x1.json").read_text())["tree"] == tree


def test_bench_record_writes_nothing_for_a_failed_run(monkeypatch, capsys, tmp_path):
    wrong = BENCH_LINES[:-1] + [BENCH_LINES[-1].replace("true", "false").replace('"failed": 0', '"failed": 1')]
    for returncode, lines in [(1, BENCH_LINES), (0, wrong), (0, BENCH_LINES[:2]), (0, BENCH_LINES[:-1] + ["[]"])]:
        code, calls = bench_record(monkeypatch, tmp_path, returncode, "\n".join(lines) + "\n")
        assert (code, len(calls)) == (1, 1)
        err = capsys.readouterr().err
        assert err.startswith("run.py said so\n") and "nothing written" in err
        assert list(tmp_path.iterdir()) == [tmp_path / "BENCHMARK.json"]


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
    assert all(line[f"extend_{m}_codes"] > 0 and line[f"extend_{m}_us"] > 0 for line in lines for m in ("m1", "m2"))


def test_bench_linalg_interleaves_trees(monkeypatch, capsys, tmp_path):
    # --trees runs each tree's own script in a fresh process per round, the
    # tree order flipping every round, and prints each tree's medians and
    # code counts; a count that a tree's lines lack (decompose on gf3) stays out
    script = load_script(monkeypatch, "bench_linalg")
    trees, calls = [tmp_path / "a", tmp_path / "b"], []

    def run(cmd, cwd, **kwargs):
        assert cmd[1:] == [str(cwd / "scripts" / "bench_linalg.py")]
        calls.append(cwd)
        us = 10.0 * (cwd == trees[1]) + len(calls)
        out = [{"field": "gf2", "nullspace_us": us, "shorten_codes": 5, "decompose_codes": 2},
               {"field": "gf3", "nullspace_us": us + 1, "shorten_codes": 4}]
        return subprocess.CompletedProcess(cmd, 0, stdout="".join(json.dumps(line) + "\n" for line in out))

    monkeypatch.setattr(subprocess, "run", run)
    script.interleaved(trees, 4)
    assert calls == [trees[0], trees[1], trees[1], trees[0], trees[0], trees[1], trees[1], trees[0]]
    lines = json_lines(capsys.readouterr().out)
    assert [(line["tree"], line["field"]) for line in lines] == [(str(t), f) for t in trees for f in ("gf2", "gf3")]
    # tree a ran as calls 1, 4, 5 and 8, tree b as calls 2, 3, 6 and 7
    assert [line["nullspace_us"] for line in lines] == [4.5, 5.5, 14.5, 15.5]
    assert [line.get("decompose_codes") for line in lines] == [2, None, 2, None]
    assert all(line["rounds"] == 4 and line["shorten_codes"] in (4, 5) for line in lines)


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

    monkeypatch.setattr(subprocess, "run", run)
    script.interleaved(trees, 3)
    assert calls == [trees[0], trees[1], trees[1], trees[0], trees[0], trees[1]]
    lines = json_lines(capsys.readouterr().out)
    assert [(line["tree"], line["case"]) for line in lines] == [(str(t), c) for t in trees for c in ("x", "y")]
    # tree a ran as calls 1, 4 and 5, tree b as calls 2, 3 and 6
    assert [line["total_ms"] for line in lines] == [4.0, 4.0, 13.0, 13.0]
    assert all(line["draw_ms"] == 1.0 and line["rounds"] == 3 and line["candidates"] == 7 for line in lines)
