import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from lcdkit import cli
from lcdkit import corpus as corpus_mod
from lcdkit.cli import build_parser, main
from lcdkit.codes import CodeError, is_lcd, min_weight, parse_code, read_code_file
from lcdkit.construct import apply_record, parse_record
from lcdkit.corpus import data_dir
from lcdkit.gf import FIELDS_BY_NAME, FieldError


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def corpus_file(rel):
    return str(data_dir() / rel)


@pytest.mark.parametrize("module", ["lcdkit", "lcdkit.cli"])
def test_python_m_runs_the_cli(module):
    # README documents `python3 -m lcdkit`; both module entry points exit with main's code
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    argv = [sys.executable, "-m", module, "--threads", "1", "eaqecc", "5", "1", "5"]
    out = subprocess.run(argv, env=env, capture_output=True, text=True)
    assert (out.returncode, out.stdout, out.stderr) == (0, "[[5,1,5;4]]\n", "")


def test_verify_corpus_code(capsys):
    code, out, err = run(capsys, "verify", corpus_file("codes/b_13_7_4.code"))
    assert code == 0
    assert "lcd=true" in out
    assert "d=4 exact=true" in out
    assert "odd-like=true" in out
    assert "wd=[0:1 4:22" in out or "wd=[0:1 4:" in out


def test_verify_even_like_binary_code(capsys, tmp_path):
    # the [3,2,2] even-weight code is LCD: its Gram matrix [[0,1],[1,0]] is invertible
    even = tmp_path / "even.code"
    even.write_text("gf2 3 2\n110\n011\n")
    code, out, err = run(capsys, "verify", str(even))
    assert (code, err) == (0, "")
    assert out == f"file={even} field=gf2 n=3 k=2 lcd=true d=2 exact=true odd-like=false even-like=true wd=[0:1 2:3]\n"


def test_verify_rank_deficient_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.code"
    bad.write_text("gf2 3 2\n110\n110\n")
    code, out, err = run(capsys, "verify", str(bad))
    assert code == 2
    assert "row 2" in err


def test_gf4_is_no_field_name(capsys, tmp_path):
    # GF(4) is Hermitian GF(4), named gf4h: a code file or --field naming gf4 is a usage error
    f = tmp_path / "e.code"
    f.write_text("gf4 2 1\n11\n")
    code, out, err = run(capsys, "verify", str(f))
    assert (code, out) == (2, "")
    assert err.startswith("error: unknown field name 'gf4'")
    with pytest.raises(SystemExit) as exc:
        main(["bounds", "--field", "gf4"])
    assert exc.value.code == 2 and "invalid choice: 'gf4'" in capsys.readouterr().err
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert sub.choices["bounds"]._option_string_actions["--field"].choices == tuple(FIELDS_BY_NAME)


def test_verify_unreadable_exits_2(capsys):
    code, out, err = run(capsys, "verify", "/no/such/file.code")
    assert code == 2
    assert "error" in err.lower()


def test_verify_budget_exhaustion_exits_1(capsys, tmp_path):
    import random

    import oracles
    from lcdkit.codes import format_code
    from lcdkit.gf import GF2

    # past the cap there is no weight distribution; Brouwer-Zimmermann
    # settles this [16,12] code's distance under the same cap ...
    c = oracles.random_code(GF2, 16, 12, random.Random(3))
    f = tmp_path / "big.code"
    f.write_text(format_code(c))
    code, out, err = run(capsys, "--cap", "100", "verify", str(f))
    assert code == 1
    assert "budget" in err
    assert "d=1 exact=true" in out
    assert "wd=" not in out
    # ... but not this [24,12] one's
    f.write_text(format_code(oracles.random_code(GF2, 24, 12, random.Random(3))))
    code, out, err = run(capsys, "--cap", "100", "verify", str(f))
    assert code == 1
    assert "budget" in err
    assert "exact=false" in out
    assert "d<=" in out


def test_hull_pivots_one_based(capsys, tmp_path):
    f = tmp_path / "h.code"
    f.write_text("gf2 3 2\n110\n001\n")
    code, out, err = run(capsys, "hull", str(f))
    assert code == 0
    assert "hull-dim=1" in out
    assert "T=1" in out
    assert out.strip().splitlines()[1] == "110"


def test_shorten_lcd_roundtrip(capsys, tmp_path):
    f = tmp_path / "c.code"
    f.write_text("gf2 3 2\n110\n001\n")
    outfile = tmp_path / "out.code"
    code, out, err = run(capsys, "shorten-lcd", str(f), "-o", str(outfile))
    assert code == 0
    assert "n=2 k=1 lcd=true" in out
    assert read_code_file(outfile).params() == (2, 1)


def test_extend_with_vector(capsys, tmp_path):
    outfile = tmp_path / "c14.code"
    code, out, err = run(
        capsys,
        "extend",
        corpus_file("codes/b_13_7_4.code"),
        "--method",
        "1",
        "--vector",
        "1001110001100",
        "-o",
        str(outfile),
    )
    assert code == 0
    assert "n=14 k=8 lcd=true d=4 exact=true" in out
    assert read_code_file(outfile).params() == (14, 8)


def test_extend_search_target(capsys, tmp_path):
    f = tmp_path / "c.code"
    f.write_text("gf3 6 2\n101120\n010210\n")
    code, out, err = run(capsys, "extend", str(f), "--method", "1", "--search", "--budget", "2000", "--seed", "5")
    assert code == 0
    assert "search method=1 vector=" in out
    assert "exhaustive=true" in out
    # impossible target fails with exit 1
    code, out, err = run(
        capsys, "extend", str(f), "--method", "1", "--search", "--target", "7", "--budget", "2000", "--seed", "5"
    )
    assert code == 1
    assert "met=false" in out


def test_minweight_strategies_agree(capsys):
    code1, out1, _ = run(capsys, "minweight", corpus_file("codes/t_20_6_10.code"), "--strategy", "exhaustive")
    code2, out2, _ = run(capsys, "minweight", corpus_file("codes/t_20_6_10.code"), "--strategy", "bz")
    assert code1 == code2 == 0
    assert "d=10 exact=true" in out1
    assert "d=10 exact=true" in out2


def test_minweight_bz_budget_exit_line(capsys):
    # caps that end inside a Brouwer-Zimmermann level: b_13_7_4 (d = 4) has
    # 14 codewords of information weight 1, t_20_6_10 (d = 10) ends level 2
    # at codeword 144
    for name, cap, bound in [("b_13_7_4", 1, 5), ("t_20_6_10", 100, 10)]:
        path = corpus_file(f"codes/{name}.code")
        code, out, err = run(capsys, "--cap", str(cap), "minweight", path, "--strategy", "bz")
        assert code == 1
        assert out == f"file={path} strategy=bz d<={bound} exact=false\n"
        assert err == f"error: budget exhausted after {cap + 1} steps\n"


def test_replay_past_the_cap_prints_a_bound_or_unknown(capsys, monkeypatch):
    path = corpus_file("records/t_23_9_9.rec")
    code, out, err = run(capsys, "--cap", "0", "replay", path)
    assert code == 0
    assert "d<=None" not in out
    final = out.splitlines()[-1]
    assert final.startswith("final n=23 k=9 d<=") and final.endswith(" exact=false")
    assert int(final.split("d<=")[1].split()[0]) >= 9
    # a budget error without a bound prints d=unknown
    def no_bound(*args, **kwargs):
        raise cli.BudgetExceeded(None, 0)

    monkeypatch.setattr(cli, "min_weight", no_bound)
    code, out, err = run(capsys, "--cap", "0", "replay", path)
    assert code == 0
    assert out.splitlines()[-1] == "final n=23 k=9 d=unknown exact=false"


def test_corpus_check_reports_every_entry_past_a_broken_one(capsys, tmp_path, monkeypatch):
    copy = tmp_path / "data"
    shutil.copytree(data_dir(), copy)
    (copy / "records" / "broken.rec").write_text("base no_such_entry\npad\n", encoding="ascii")
    with open(copy / "manifest.csv", "a", encoding="ascii") as fh:
        fh.write("broken,record,records/broken.rec,gf2,3,1,,,,test,no\n")
    monkeypatch.setenv("LCDKIT_CORPUS", str(copy))
    code, out, err = run(capsys, "corpus-check")
    assert code == 1
    assert err == ""
    assert "ok b_14_8_4" in out
    assert "skip ext_b_36_21_7" in out
    assert "FAIL broken (unknown corpus entry 'no_such_entry')" in out.splitlines()
    assert out.splitlines()[-1] == "summary verified=16 skipped=74 failed=1"


def test_corpus_check_fails_broken_entries_and_checks_the_rest(capsys, tmp_path, monkeypatch):
    # a record whose vector no longer lies in the dual, and a deleted code
    # file: both entries fail, so does the record built on the deleted one,
    # and every other entry is still checked
    copy = tmp_path / "data"
    shutil.copytree(data_dir(), copy)
    rec = copy / "records" / "b_14_8_4.rec"
    rec.write_text(rec.read_text(encoding="ascii").replace("extend-m1 1001110001100", "extend-m1 1001110001101"))
    (copy / "codes" / "t_20_8_8.code").unlink()
    monkeypatch.setenv("LCDKIT_CORPUS", str(copy))
    code, out, err = run(capsys, "corpus-check")
    assert (code, err) == (1, "")
    lines = out.splitlines()
    missing = f"t_20_8_8: [Errno 2] No such file or directory: '{copy / 'codes' / 't_20_8_8.code'}'"
    assert [line for line in lines if line.startswith("FAIL")] == [
        f"FAIL t_20_8_8 ({missing})",
        "FAIL b_14_8_4 (b_14_8_4: vector does not pair to zero with every generator row)",
        f"FAIL t_21_9_8 ({missing})",
    ]
    assert "ok b_16_10_4" in lines and "ok t_23_9_9" in lines
    assert lines[-1] == "summary verified=13 skipped=74 failed=3"


def test_corpus_check_runs_under_the_cap(capsys):
    # every verified entry has more than 10 codewords, so at --cap 10 each
    # claim on d or on the weights is inconclusive; without --cap all pass
    code, out, err = run(capsys, "--cap", "10", "corpus-check")
    assert (code, err) == (1, "")
    fails = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert len(fails) == 16 and all("min weight: inconclusive" in line for line in fails)
    assert "weight distribution: inconclusive (2^8 codewords exceed the cap)" in next(
        line for line in fails if line.startswith("FAIL b_14_8_4 ")
    )
    assert out.splitlines()[-1] == "summary verified=0 skipped=74 failed=16"
    code, out, err = run(capsys, "corpus-check")
    assert (code, err, out.splitlines()[-1]) == (0, "", "summary verified=16 skipped=74 failed=0")


def test_replay_record(capsys):
    code, out, err = run(capsys, "replay", corpus_file("records/t_23_9_9.rec"))
    assert code == 0
    assert "base t_22_8_9" in out
    assert "final n=23 k=9 d=9 exact=true" in out


def test_replay_missing_base_exits_1(capsys):
    code, out, err = run(capsys, "replay", corpus_file("records/b_30_15_7.rec"))
    assert code == 1
    assert "not distributed" in err


def test_replay_finds_a_base_code_file_beside_the_record(capsys, tmp_path):
    # the base is looked up beside the record, not in the working directory
    (tmp_path / "full.code").write_text("gf2 3 3\n100\n010\n001\n")
    (tmp_path / "mine.rec").write_text("base full.code\npad\n")
    code, out, err = run(capsys, "replay", str(tmp_path / "mine.rec"))
    assert (code, err) == (0, "")
    assert out.splitlines()[:2] == ["base full.code n=3 k=3", "step pad -> n=4 k=3 lcd=true"]


def test_replay_refuses_a_base_path_under_the_data_dir(capsys, tmp_path):
    # a base that is no entry id is a code file beside the record or nothing:
    # the data directory's file of that name is not read
    assert (data_dir() / "codes" / "b_13_7_4.code").is_file()
    (tmp_path / "mine.rec").write_text("base codes/b_13_7_4.code\npad\n")
    code, out, err = run(capsys, "replay", str(tmp_path / "mine.rec"))
    assert (code, out, err) == (1, "", "error: unknown corpus entry 'codes/b_13_7_4.code'\n")


def test_replay_prefers_an_entry_id_to_a_file_of_that_name(capsys, tmp_path):
    (tmp_path / "t_22_8_9").write_text("gf3 2 1\n10\n")
    (tmp_path / "mine.rec").write_text("base t_22_8_9\npad\n")
    code, out, err = run(capsys, "replay", str(tmp_path / "mine.rec"))
    assert (code, err) == (0, "")
    assert out.splitlines()[:2] == ["base t_22_8_9 n=22 k=8", "step pad -> n=23 k=8 lcd=true"]


def test_bounds_render_deterministic(capsys):
    args = ("bounds", "--field", "gf3", "--range", "20..25,4..25", "--format", "csv")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    lines = out1.splitlines()
    assert lines[0].startswith("n\\k,")
    assert lines[1].startswith("20,12,11,10,9,8,7-8,7,6,6,5,4")


@pytest.mark.parametrize("field", ["gf2", "gf3"])
def test_bounds_grid_matches_benchmark_reference(capsys, field):
    # the published grids as the verify benchmark checks them, byte for byte
    reference = Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "verify.json"
    want = json.loads(reference.read_text(encoding="utf-8"))[f"bounds.{field}"]
    code, out, err = run(capsys, "--threads", "1", "bounds", "--field", field)
    assert (code, out, err) == (want["exit"], want["stdout"], want["stderr"])


def test_bounds_custom_seed_file(capsys, tmp_path):
    seeds = tmp_path / "seeds.csv"
    seeds.write_text(
        "field,n,k,lower,upper,kind,provenance\n"
        "gf2,29,11,9,9,literature-exact,known\n"
    )
    code, out, err = run(capsys, "bounds", "--field", "gf2", "--seeds", str(seeds), "--range", "29..31,11..11", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "29,9"
    assert lines[2] == "30,9-"  # padded lower, no upper known
    assert lines[3] == "31,10-"  # odd-distance two-column growth


def test_bounds_malformed_range_exits_2(capsys):
    code, out, err = run(capsys, "bounds", "--field", "gf2", "--range", "1..x,2..3")
    assert (code, out) == (2, "")
    assert err == "error: malformed range '1..x,2..3'; expected n1..n2,k1..k2\n"


def test_bounds_seed_file_without_rows_for_the_field_exits_1(capsys, tmp_path):
    # the file's rows are all gf2, so a gf4h table has no cell to propagate
    seeds = tmp_path / "seeds.csv"
    seeds.write_text("field,n,k,lower,upper,kind,provenance\ngf2,29,11,9,9,literature-exact,known\n")
    code, out, err = run(capsys, "bounds", "--field", "gf4h", "--seeds", str(seeds))
    assert (code, out, err) == (1, "", "error: no seeds for this field\n")


def test_bounds_without_bundled_grid_needs_seeds(capsys, tmp_path):
    # no grid ships for gf4h: the command says so instead of failing to open a file
    code, out, err = run(capsys, "--threads", "1", "bounds", "--field", "gf4h")
    assert (code, out) == (1, "")
    assert err == "error: no bundled grid for gf4h; pass --seeds FILE\n"
    seeds = tmp_path / "seeds.csv"
    seeds.write_text("field,n,k,lower,upper,kind,provenance\ngf4h,10,5,4,4,literature-exact,known\n")
    code, out, err = run(capsys, "bounds", "--field", "gf4h", "--seeds", str(seeds), "--range", "10..11,5..5", "--format", "csv")
    assert code == 0
    assert out.splitlines()[1:] == ["10,4", "11,4-"]


def test_eaqecc_output(capsys):
    code, out, _ = run(capsys, "eaqecc", "22", "12", "7")
    assert code == 0
    assert out.strip() == "[[22,12,7;10]]"
    code, out, _ = run(capsys, "eaqecc", "22", "12", "7", "--s", "1")
    assert out.strip() == "[[5592427,12,4194311;5592415]]"
    code, out, err = run(capsys, "eaqecc", "5", "6", "1")
    assert code == 2
    # a member past Python's int-to-str limit is refused, not printed as a traceback
    code, out, err = run(capsys, "eaqecc", "20000", "8000", "3", "--s", "1")
    assert (code, out) == (2, "")
    assert err == "error: the s=1 member has more than 4300 digits, Python's int-to-str limit\n"
    assert run(capsys, "eaqecc", "20000", "8000", "3") == (0, "[[20000,8000,3;12000]]\n", "")


def test_corpus_check_clean(capsys):
    code, out, err = run(capsys, "corpus-check")
    assert code == 0
    assert "summary verified=16" in out
    assert "failed=0" in out
    assert "ok b_14_8_4" in out
    assert "skip ext_b_36_21_7" in out


def test_cli_determinism_verify(capsys):
    argv = ("verify", corpus_file("codes/t_19_6_9.code"))
    _, out1, _ = run(capsys, *argv)
    _, out2, _ = run(capsys, *argv)
    assert out1 == out2


def test_cli_determinism_sampled_search(capsys, tmp_path):
    # 3^8 dual messages with budget 300 forces the seeded sampling path
    f = tmp_path / "c.code"
    f.write_text("gf3 10 2\n0201011121\n0010112021\n")
    argv = ("extend", str(f), "--method", "2", "--search", "--budget", "300", "--seed", "99")
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    assert "exhaustive=false" in out1


@pytest.mark.parametrize("value, command", [("0", ("minweight", "codes/b_13_7_4.code")), ("-2", ("corpus-check",))])
def test_threads_below_one_is_a_usage_error(capsys, value, command):
    with pytest.raises(SystemExit) as exc:
        main(["--threads", value, command[0], *map(corpus_file, command[1:])])
    out = capsys.readouterr()
    assert exc.value.code == 2
    assert out.out == ""
    assert f"lcdkit: error: argument --threads: must be a whole number of at least 1, got '{value}'\n" in out.err


@pytest.mark.parametrize(
    "command", [("minweight", "codes/b_13_7_4.code"), ("extend", "codes/b_13_7_4.code", "--method", "1", "--search")]
)
def test_cap_below_zero_is_a_usage_error(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main(["--cap", "-3", command[0], corpus_file(command[1]), *command[2:]])
    out = capsys.readouterr()
    assert exc.value.code == 2
    assert out.out == ""
    assert "lcdkit: error: argument --cap: must be a whole number of at least 0, got '-3'\n" in out.err


@pytest.mark.parametrize("command", ["verify", "minweight"])
def test_length_past_packed_weights_is_a_usage_error(capsys, tmp_path, command):
    # packed batches count weights in uint16, so n = 2^15 cannot be scanned
    f = tmp_path / "long.code"
    f.write_text("gf2 32768 1\n" + "1" * 32768 + "\n")
    code, out, err = run(capsys, "--threads", "1", command, str(f))
    assert code == 2
    assert out == ""
    assert err == "error: length 32768 is too long for the uint16 weights of a packed batch\n"


def test_threads_values_at_parse_level():
    # large counts are only parsed here: running them would fork one worker each
    parser = build_parser()
    assert parser.parse_args(["--threads", "1", "corpus-check"]).threads == 1
    assert parser.parse_args(["--threads", "4096", "corpus-check"]).threads == 4096
    assert parser.parse_args(["corpus-check"]).threads is None  # main fills in the usable CPUs
    with pytest.raises(SystemExit):
        parser.parse_args(["--threads", "two", "corpus-check"])


@pytest.mark.parametrize(
    "cpu_max, want",
    [
        ("150000 100000\n", 2),  # 1.5 CPUs of quota round up to 2
        ("50000 100000\n", 1),
        ("1200000 100000\n", 8),  # a quota above the affinity set does not raise it
        ("max 100000\n", 8),
        (None, 8),  # no such file
        ("garbage\n", 8),
    ],
)
def test_usable_cpus_respects_cgroup_quota(tmp_path, monkeypatch, cpu_max, want):
    path = tmp_path / "cpu.max"
    if cpu_max is not None:
        path.write_text(cpu_max)
    monkeypatch.setattr(cli, "CGROUP_CPU_MAX", str(path))
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    assert cli._usable_cpus() == want


def test_usable_cpus_unreadable_quota_falls_back(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "CGROUP_CPU_MAX", str(tmp_path))  # a directory: open() raises
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    assert cli._usable_cpus() == 3


def test_cached_parser_keeps_no_state(capsys, monkeypatch):
    assert build_parser() is build_parser()
    calls = [
        ("corpus-check",),
        ("replay", corpus_file("records/t_20_7_9.rec")),
        ("bounds", "--field", "gf2"),
        ("eaqecc", "22", "12", "7", "--s", "3"),
    ]
    first = [run(capsys, "--threads", "1", *argv) for argv in calls]
    second = [run(capsys, "--threads", "1", *argv) for argv in calls]
    assert first == second
    assert [c for c, _, _ in first] == [0, 0, 0, 0]

    # a usage error leaves nothing behind for the next call
    with pytest.raises(SystemExit) as exc:
        main(["extend", corpus_file("codes/b_13_7_4.code"), "--method", "1"])
    assert exc.value.code == 2
    assert "one of the arguments --vector --search is required" in capsys.readouterr().err
    assert run(capsys, "--threads", "1", *calls[3]) == first[3]

    # the default --threads is the usable CPU count at each call, not at parser build
    seen = []
    monkeypatch.setattr(corpus_mod, "check_all", lambda threads, cap: seen.append(threads) or [])
    for cpus in (3, 5):
        monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
        assert run(capsys, "corpus-check")[0] == 0
    run(capsys, "--threads", "2", "corpus-check")
    assert seen == [3, 5, 2]


def test_non_ascii_code_file_exits_2(capsys, tmp_path):
    f = tmp_path / "c.code"
    f.write_bytes("gf2 3 2\n110\n001\n# café\n".encode("utf-8"))
    code, out, err = run(capsys, "verify", str(f))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {f}: not an ASCII text file")


def test_non_ascii_record_exits_2(capsys, tmp_path):
    f = tmp_path / "r.rec"
    f.write_bytes("base t_22_8_9\n# étape\npad\n".encode("utf-8"))
    code, out, err = run(capsys, "replay", str(f))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {f}: not an ASCII text file")


def test_non_ascii_manifest_exits_2(capsys, tmp_path, monkeypatch):
    copy = tmp_path / "data"
    shutil.copytree(data_dir(), copy)
    with open(copy / "manifest.csv", "ab") as fh:
        fh.write(b"\xc3\xa9\n")
    monkeypatch.setenv("LCDKIT_CORPUS", str(copy))
    code, out, err = run(capsys, "corpus-check")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {copy / 'manifest.csv'}: not an ASCII text file") and "Traceback" not in err


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda rows: rows[1].__setitem__(4, "x"), "line 2: invalid literal for int() with base 10: 'x'"),
        (lambda rows: rows[8].__setitem__(8, "0:1 3:x"), "line 9: invalid literal for int() with base 10: 'x'"),
        (lambda rows: rows[8].__setitem__(8, "3"), "line 9: not enough values to unpack"),
        (lambda rows: [row.pop() for row in rows], "no column 'optional'"),
    ],
)
def test_malformed_manifest_exits_2(capsys, tmp_path, monkeypatch, edit, message):
    # a bad cell (n, a weight) or a missing column names the file, and the
    # line where there is one
    copy = tmp_path / "data"
    shutil.copytree(data_dir(), copy)
    path = copy / "manifest.csv"
    rows = [line.split(",") for line in path.read_text().splitlines()]
    assert rows[0][4] == "n" and rows[0][8] == "weights" and rows[0][-1] == "optional"
    edit(rows)
    path.write_text("".join(",".join(row) + "\n" for row in rows))
    monkeypatch.setenv("LCDKIT_CORPUS", str(copy))
    code, out, err = run(capsys, "corpus-check")
    assert (code, out) == (2, "")
    prefix = f"error: {path}: " if message.startswith("no column") else f"error: {path} "
    assert err.startswith(prefix + message) and "Traceback" not in err


@pytest.mark.parametrize("budget", ["0", "-5"])
def test_extend_search_budget_below_1_exits_2(capsys, budget):
    # the dual of b_13_7_4 has method-1 vectors, so the error must name the budget;
    # it is refused when parsed, before the code is read
    argv = ("extend", corpus_file("codes/b_13_7_4.code"), "--method", "1", "--search", "--budget", budget)
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    out = capsys.readouterr()
    assert (exc.value.code, out.out) == (2, "")
    assert f"lcdkit extend: error: argument --budget: must be a whole number of at least 1, got '{budget}'\n" in out.err


@pytest.mark.parametrize("option, value, minimum", [("--target", "-3", 1), ("--target", "0", 1), ("--seed", "-5", 0)])
def test_extend_search_options_are_checked_when_parsed(capsys, option, value, minimum):
    # a target below 1 was met by every search, and seed -s drew what seed s draws
    argv = ["extend", corpus_file("codes/t_19_6_9.code"), "--method", "1", "--search", "--budget", "50", option, value]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out = capsys.readouterr()
    assert (exc.value.code, out.out) == (2, "")
    assert f"argument {option}: must be a whole number of at least {minimum}, got '{value}'\n" in out.err


def test_extend_target_without_search_exits_2(capsys):
    # --target was ignored next to --vector, and the run reported success
    argv = ("extend", corpus_file("codes/t_19_6_9.code"), "--method", "1", "--vector", "0000102210220001222")
    code, out, err = run(capsys, *argv, "--target", "30")
    assert (code, out, err) == (2, "", "error: --target applies to --search only\n")
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "") and "d=9 exact=true" in out


def test_extension_vector_length_error_counts_symbols(capsys):
    code, out, err = run(capsys, "extend", corpus_file("codes/t_19_6_9.code"), "--method", "1", "--vector", "012")
    assert (code, out) == (2, "")
    assert err == "error: extension vector has 3 symbols, expected 19\n"


@pytest.mark.parametrize("symbol", ["x", "2", "w", "\u00e9"])  # foreign ASCII, GF(3) and GF(4) symbols, non-ASCII
@pytest.mark.parametrize("where", ["code file", "record step", "--vector"])
def test_a_symbol_outside_the_field_exits_2_naming_it(capsys, tmp_path, where, symbol):
    error = f"symbol {symbol!r} not in alphabet '01' of gf2"
    vector = f"10011100{symbol}1100"  # b_13_7_4.rec's extension vector with one symbol replaced
    if where == "--vector":
        argv, text = ("extend", corpus_file("codes/b_13_7_4.code"), "--method", "1", "--vector", vector), None
        want_out, want_err = "", f"error: {error}\n"
    elif where == "code file":
        text = f"gf2 3 2\n101\n0{symbol}1\n"
        argv = ("verify", str(tmp_path / "c.code"))
        want_out, want_err = "", f"error: row 2: {error}\n"
        with pytest.raises(CodeError) as exc:
            parse_code(text)
        assert str(exc.value) == f"row 2: {error}"
    else:
        text = f"base b_13_7_4\nextend-m1 {vector}\n"
        argv = ("replay", str(tmp_path / "r.rec"))
        want_out, want_err = "base b_13_7_4 n=13 k=7\n", f"error: {error}\n"
        with pytest.raises(FieldError) as exc:
            apply_record(parse_record(text), corpus_mod.resolve_code("b_13_7_4"))
        assert str(exc.value) == error
    if text is not None:
        Path(argv[1]).write_bytes(text.encode())
        if not symbol.isascii():  # the file is refused before any symbol is read
            at = text.encode().index(symbol.encode())
            want_out = ""
            want_err = (
                f"error: {argv[1]}: not an ASCII text file ('ascii' codec can't decode byte 0x{symbol.encode()[0]:x} "
                f"in position {at}: ordinal not in range(128))\n"
            )
    assert run(capsys, *argv) == (2, want_out, want_err)


def test_extend_reports_the_vector_error_on_a_non_lcd_code(capsys, tmp_path):
    # the vector is checked before the code's LCD test; both exit 2
    path = tmp_path / "hull.code"
    path.write_text("gf2 4 2\n1100\n0010\n")
    code, out, err = run(capsys, "extend", str(path), "--method", "1", "--vector", "1000")
    assert (code, out, err) == (2, "", "error: vector does not pair to zero with every generator row\n")
    code, out, err = run(capsys, "extend", str(path), "--method", "1", "--vector", "1100")
    assert (code, out, err) == (2, "", "error: method 1 extends LCD codes only\n")


@pytest.mark.parametrize(
    "rows, message",
    [
        ("field,n,k,lower,kind,provenance\ngf2,10,5,4,witness,x\n", "no column 'upper'"),
        ("field,n,k,lower,upper,kind,provenance\ngf2,10,5,four,,witness,x\n", "line 2: invalid literal for int()"),
        ("field,n,k,lower,upper,kind,provenance\ngf2,10,5,4,,guess,x\n", "line 2: unknown seed kind 'guess'"),
        ("field,n,k,lower,upper,kind,provenance\ngf2,10,5,4,,witness,x\ngf2,10,5,11,,witness,y\n", "line 3: lower bound 11 out of range for [10,5]"),
        ("field,n,k,lower,upper,kind,provenance\ngf2,10,5,5,,witness,x\ngf2,10,5,,4,literature-bound,y\n", "line 3: [10,5] gf2: new upper 4"),
        ("field,n,k,lower,upper,kind,provenance\ngf2,10,5,4,,witness,café\n", "not an ASCII text file"),
    ],
)
def test_malformed_seed_file_exits_2(capsys, tmp_path, rows, message):
    seeds = tmp_path / "seeds.csv"
    seeds.write_text(rows, encoding="utf-8")
    code, out, err = run(capsys, "bounds", "--field", "gf2", "--seeds", str(seeds))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and message in err and "Traceback" not in err


@pytest.mark.parametrize("text", ["5..3,1..2", "1..2,5..3"])
def test_bounds_empty_range_exits_2(capsys, text):
    code, out, err = run(capsys, "bounds", "--field", "gf3", "--range", text)
    assert (code, out) == (2, "")
    assert err == f"error: empty range {text!r}; expected n1 <= n2 and k1 <= k2\n"


@pytest.mark.parametrize("text", ["0..2,0..2", "0..2,1..2", "1..2,0..2", "1..2,-1..1"])
def test_bounds_range_below_1_exits_2(capsys, text):
    # no code has n or k below 1, so such a row or column is refused, not printed
    code, out, err = run(capsys, "bounds", "--field", "gf3", "--range", text)
    assert (code, out) == (2, "")
    assert err == f"error: range {text!r} starts below 1; n and k are at least 1\n"


def test_bounds_conflict_found_by_propagation_exits_1(capsys, tmp_path):
    # each seed holds alone; padding a column carries the lower 5 to [11,5], above its upper 4
    seeds = tmp_path / "seeds.csv"
    seeds.write_text(
        "field,n,k,lower,upper,kind,provenance\n"
        "gf2,10,5,5,,witness,a code\n"
        "gf2,11,5,,4,literature-bound,a table\n"
    )
    code, out, err = run(capsys, "bounds", "--field", "gf2", "--seeds", str(seeds), "--range", "10..11,5..5")
    assert (code, out) == (1, "")
    assert err.startswith("error: [11,5] gf2: new lower 5 via rule pad-column") and "a table" in err


def test_puncture_lcd_writes_its_code(capsys, tmp_path):
    f = tmp_path / "c.code"
    f.write_text("gf2 5 2\n00111\n11001\n")  # d = 3 above the hull dimension 1
    outfile = tmp_path / "out.code"
    code, out, err = run(capsys, "puncture-lcd", str(f), "-o", str(outfile))
    assert code == 0
    assert out.splitlines() == ["punctured n=4 k=2 lcd=true d=2 exact=true T=1", f"wrote {outfile}"]
    assert read_code_file(outfile).params() == (4, 2)


def test_extend_search_writes_the_extended_code(capsys, tmp_path):
    f = tmp_path / "c.code"
    f.write_text("gf3 6 2\n101120\n010210\n")
    outfile = tmp_path / "ext.code"
    args = ("extend", str(f), "--method", "1", "--search", "--budget", "2000", "--seed", "5")
    code, plain, _ = run(capsys, *args)
    code_o, out, err = run(capsys, *args, "-o", str(outfile))
    assert code == code_o == 0
    assert out == plain + f"wrote {outfile}\n"
    ext = read_code_file(outfile)
    assert ext.params() == (7, 3) and is_lcd(ext)


def test_replay_writes_the_final_code(capsys, tmp_path):
    outfile = tmp_path / "final.code"
    code, out, err = run(capsys, "replay", corpus_file("records/t_23_9_9.rec"), "-o", str(outfile))
    assert code == 0
    assert out.splitlines()[-2:] == ["final n=23 k=9 d=9 exact=true", f"wrote {outfile}"]
    final = read_code_file(outfile)
    assert final.params() == (23, 9) and min_weight(final) == 9
