import numpy as np
import pytest

from lcdkit import corpus
from lcdkit.codes import is_lcd, min_weight, weight_distribution
from lcdkit.corpus import CorpusError, MissingBase, load, manifest, replay, resolve_code, verify_entry


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
    with pytest.raises(CorpusError):
        load("no_such_entry")


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
    steps = replay("t_20_7_9")
    assert len(steps) == 1
    final = steps[-1]
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
        assert wd.odd_like is True
        assert wd.min_weight == e.d == 4


def test_corpus_dir_override(tmp_path, monkeypatch):
    monkeypatch.setenv("LCDKIT_CORPUS", str(tmp_path))
    with pytest.raises(FileNotFoundError):
        manifest()
    monkeypatch.delenv("LCDKIT_CORPUS")
    assert "b_13_7_4" in manifest()
