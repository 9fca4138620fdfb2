import os
import shutil

import numpy as np
import pytest

from lcdkit import construct, corpus, enumeration
from lcdkit.codes import is_even_like, is_lcd, min_weight, weight_distribution
from lcdkit.corpus import CorpusError, MissingBase, data_dir, manifest, resolve_code, verify_entry


def test_manifest_loads():
    entries = manifest()
    assert "b_13_7_4" in entries
    assert "t_19_6_9" in entries
    e = entries["b_14_8_4"]
    assert e.kind == "record"
    assert e.claims_lcd() and e.claims_odd_like()
    assert e.weights[4] == 24 and e.weights[12] == 2
    assert not e.optional
    assert entries["ext_b_36_21_7"].optional


def test_load_unknown_id():
    with pytest.raises(CorpusError, match="^unknown corpus entry 'no_such_entry'$"):
        resolve_code("no_such_entry")


def test_printed_matrices_resolve():
    for cid, n, k in [
        ("b_13_7_4", 13, 7),
        ("b_15_9_4", 15, 9),
        ("t_19_6_9", 19, 6),
        ("t_20_5_11", 20, 5),
        ("t_20_6_10", 20, 6),
        ("t_20_8_8", 20, 8),
    ]:
        c = resolve_code(cid)
        assert c.params() == (n, k)
        assert is_lcd(c)


def test_load_record_refuses_a_code_entry():
    with pytest.raises(CorpusError, match="^b_13_7_4 is not a record entry$"):
        corpus.load_record(manifest()["b_13_7_4"])


def test_base_given_as_a_data_dir_path_is_refused():
    # a base is an entry id: a path under the data directory names no entry,
    # even where a code file lies there
    assert (data_dir() / "codes" / "b_13_7_4.code").is_file()
    with pytest.raises(CorpusError, match="^unknown corpus entry 'codes/b_13_7_4.code'$"):
        resolve_code("codes/b_13_7_4.code")


def test_stored_matrices_kept_verbatim():
    c = resolve_code("b_13_7_4")
    assert np.array_equal(c.generator[:, :7], np.eye(7, dtype=np.uint8))
    assert list(c.generator[0][7:]) == [1, 1, 0, 1, 0, 1]


def test_printed_matrix_already_in_standard_form():
    from lcdkit.linalg import rref

    c = resolve_code("b_13_7_4")
    res = rref(c.generator, c.field)
    assert res.pivots == tuple(range(c.k))
    assert np.array_equal(res.matrix, c.generator)


def test_replay_single_extension():
    assert len(corpus.load_record(manifest()["t_20_7_9"]).steps) == 1
    final = resolve_code("t_20_7_9")
    assert final.params() == (20, 7)
    assert is_lcd(final)
    assert min_weight(final) == 9


def test_replay_resolves_chained_bases():
    final = resolve_code("t_23_9_9")
    assert final.params() == (23, 9)
    assert min_weight(final) == 9


def test_missing_base_raises():
    with pytest.raises(MissingBase):
        resolve_code("ext_b_36_21_7")
    with pytest.raises(MissingBase):
        resolve_code("b_30_15_7")  # record over a missing base


def test_verify_entry_reports():
    entries = manifest()
    rep = verify_entry(entries["b_14_8_4"], entries)
    assert rep.ok and not rep.skipped
    assert any("weight distribution: ok" in m for m in rep.messages)
    rep = verify_entry(entries["b_30_15_7"], entries)
    assert rep.ok and rep.skipped


def test_check_all_clean():
    reports = corpus.check_all()
    assert all(r.ok for r in reports)
    verified = [r for r in reports if not r.skipped]
    skipped = [r for r in reports if r.skipped]
    assert len(verified) == 16
    assert len(skipped) == len(reports) - 16
    ids = {r.entry_id for r in verified}
    assert {"b_13_7_4", "b_14_8_4", "b_16_10_4", "t_23_9_9", "t_23_8_10", "t_21_9_8"} <= ids


def test_counterexample_weight_distributions_match_claims():
    entries = manifest()
    for cid in ("b_14_8_4", "b_16_10_4"):
        e = entries[cid]
        code = resolve_code(cid, entries)
        wd = weight_distribution(code)
        assert dict(wd.nonzero()) == e.weights
        assert not is_even_like(code)
        assert wd.min_weight == e.d == 4


def test_corpus_dir_override(tmp_path, monkeypatch):
    monkeypatch.setenv("LCDKIT_CORPUS", str(tmp_path))
    with pytest.raises(FileNotFoundError):
        manifest()
    monkeypatch.delenv("LCDKIT_CORPUS")
    assert "b_13_7_4" in manifest()


def test_manifest_cache_follows_file_version(tmp_path, monkeypatch):
    bundled = manifest()
    copy = tmp_path / "data"
    shutil.copytree(data_dir(), copy)
    monkeypatch.setenv("LCDKIT_CORPUS", str(copy))
    assert manifest() == bundled

    # a rewrite in place that drops one row
    path = copy / "manifest.csv"
    lines = path.read_text(encoding="ascii").splitlines(keepends=True)
    dropped = [line for line in lines if line.startswith("t_20_7_9,")]
    path.write_text("".join(line for line in lines if line not in dropped), encoding="ascii")
    assert set(manifest()) == set(bundled) - {"t_20_7_9"}

    # a same-size file swapped in under the same name
    text = path.read_text(encoding="ascii")
    swapped = copy / "manifest.new"
    swapped.write_text(text.replace("printed binary generator matrix", "PRINTED binary generator matrix"), encoding="ascii")
    os.replace(swapped, path)
    assert manifest()["b_13_7_4"].source == "PRINTED binary generator matrix"

    monkeypatch.delenv("LCDKIT_CORPUS")
    assert manifest() == bundled


def test_manifest_results_cannot_corrupt_the_cache():
    entries = manifest()
    del entries["b_13_7_4"]
    entries["intruder"] = None
    fresh = manifest()
    assert "b_13_7_4" in fresh and "intruder" not in fresh
    weights = fresh["b_14_8_4"].weights
    assert weights == {0: 1, 4: 24, 5: 36, 6: 36, 7: 60, 8: 45, 9: 28, 10: 20, 11: 4, 12: 2}
    with pytest.raises(TypeError):
        weights[4] = 0
    assert manifest()["b_14_8_4"].weights[4] == 24


def _record_steps_over_resolvable_bases(entries):
    total = 0
    for e in entries.values():
        if e.kind == "record":
            try:
                resolve_code(e.id, entries)
            except MissingBase:
                continue
            total += len(corpus.load_record(e).steps)
    return total


@pytest.mark.parametrize("threaded", [False, True])
def test_check_all_resolves_each_entry_once(monkeypatch, threaded):
    # the memo must hold with a worker pool for minimum distances too
    entries = manifest()
    want_steps = _record_steps_over_resolvable_bases(entries)
    unmemoized = [verify_entry(e, entries) for e in entries.values()]
    calls = []
    apply_step = construct.apply_step
    monkeypatch.setattr(construct, "apply_step", lambda C, step: calls.append(step) or apply_step(C, step))
    reports = corpus.check_all(threads=2 if threaded else 1)
    assert len(calls) == want_steps
    assert reports == unmemoized
    for rep in reports:
        if rep.skipped:
            with pytest.raises(MissingBase) as exc:
                resolve_code(rep.entry_id, entries)
            assert rep.messages == [f"skipped: {exc.value}"]
    assert next(r for r in reports if r.entry_id == "b_30_15_7").messages == [
        "skipped: ext_b_36_21_7: matrix not distributed (external best-known-code database (matrix not distributed))"
    ]


def test_check_all_cycle_text_names_each_entry_own_walk(tmp_path, monkeypatch):
    # an optional entry's failed walk must not give a later entry its cycle text
    copy = tmp_path / "data"
    shutil.copytree(data_dir(), copy)
    (copy / "records" / "cyc_a.rec").write_text("base cyc_b\npad\n", encoding="ascii")
    (copy / "records" / "cyc_b.rec").write_text("base cyc_a\npad\n", encoding="ascii")
    with open(copy / "manifest.csv", "a", encoding="ascii") as fh:
        fh.write("cyc_a,record,records/cyc_a.rec,gf2,3,1,,,,test,yes\n")
        fh.write("cyc_b,record,records/cyc_b.rec,gf2,3,1,,,,test,no\n")
    monkeypatch.setenv("LCDKIT_CORPUS", str(copy))
    reports = {r.entry_id: r for r in corpus.check_all()}
    assert not reports["cyc_a"].ok and reports["cyc_a"].messages == ["record base cycle through 'cyc_a'"]
    assert not reports["cyc_b"].ok and reports["cyc_b"].messages == ["record base cycle through 'cyc_b'"]
    with pytest.raises(CorpusError, match="record base cycle through 'cyc_a'"):
        resolve_code("cyc_a")


def test_verify_entry_fails_any_unresolved_entry(tmp_path, monkeypatch):
    # only an optional entry with a missing base matrix is skipped
    copy = tmp_path / "data"
    shutil.copytree(data_dir(), copy)
    (copy / "records" / "broken.rec").write_text("base no_such_entry\npad\n", encoding="ascii")
    (copy / "records" / "missing.rec").write_text("base ext_b_36_21_7\npad\n", encoding="ascii")
    with open(copy / "manifest.csv", "a", encoding="ascii") as fh:
        fh.write("broken,record,records/broken.rec,gf2,3,1,,,,test,no\n")
        fh.write("broken_opt,record,records/broken.rec,gf2,3,1,,,,test,yes\n")
        fh.write("missing_base,record,records/missing.rec,gf2,37,21,,,,test,no\n")
    monkeypatch.setenv("LCDKIT_CORPUS", str(copy))
    reports = {r.entry_id: r for r in corpus.check_all()}
    for entry_id in ("broken", "broken_opt"):
        rep = reports[entry_id]
        assert (rep.ok, rep.skipped, rep.messages) == (False, False, ["unknown corpus entry 'no_such_entry'"])
    rep = reports["missing_base"]
    assert not rep.ok and not rep.skipped and rep.messages[0].startswith("missing base: ")
    assert sum(r.ok and not r.skipped for r in reports.values()) == 16


def test_verify_entry_scans_each_code_once_and_reports_budgets(monkeypatch):
    entries = manifest()
    for entry_id in ("b_14_8_4", "b_16_10_4"):
        want = verify_entry(entries[entry_id], entries)
        assert want.ok and any(m.startswith("min weight 4") for m in want.messages)
        # d comes from the weight distribution, so no separate min-weight scan runs
        with monkeypatch.context() as m:
            m.setattr(corpus, "min_weight", lambda *a, **kw: pytest.fail("second scan"))
            assert verify_entry(entries[entry_id], entries) == want
    # past the cap the distribution is inconclusive, and Brouwer-Zimmermann
    # decides the distance under the same cap
    monkeypatch.setitem(enumeration.DEFAULT_CAPS, 2, 100)
    rep = verify_entry(entries["b_14_8_4"], entries)
    assert not rep.ok and not rep.skipped
    assert "min weight 4 (got 4): ok" in rep.messages
    assert rep.messages[-1] == "weight distribution: inconclusive (2^8 codewords exceed the cap)"


def test_verify_entry_min_weight_inconclusive_past_a_tiny_cap(monkeypatch):
    # b_13_7_4 claims d and no weight distribution; at cap 5 neither the
    # scan nor Brouwer-Zimmermann decides it, so the claim fails as inconclusive
    entries = manifest()
    monkeypatch.setitem(enumeration.DEFAULT_CAPS, 2, 5)
    rep = verify_entry(entries["b_13_7_4"], entries)
    assert not rep.ok and not rep.skipped
    assert "min weight: inconclusive (work budget exhausted after 6 steps; best upper bound so far 4)" in rep.messages
    assert "lcd: ok" in rep.messages


def test_record_entry_without_a_file_fails(tmp_path, monkeypatch):
    # an empty file cell on a record row fails that entry, not the whole check
    copy = tmp_path / "data"
    shutil.copytree(data_dir(), copy)
    with open(copy / "manifest.csv", "a", encoding="ascii") as fh:
        fh.write("nofile,record,,gf2,3,1,,,,test,no\n")
    monkeypatch.setenv("LCDKIT_CORPUS", str(copy))
    reports = {r.entry_id: r for r in corpus.check_all()}
    rep = reports["nofile"]
    assert (rep.ok, rep.skipped, rep.messages) == (False, False, ["nofile: the manifest names no record file"])
    assert sum(r.ok and not r.skipped for r in reports.values()) == 16
