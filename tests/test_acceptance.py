"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines and
timings.  Every tolerance is exact; randomized sweeps use fixed seeds.
"""

import random
import time

import numpy as np
import pytest

import oracles
from lcdkit import bounds, corpus, enumeration, linalg
from lcdkit.codes import (
    EmptyCode,
    LinearCode,
    dual,
    hull,
    is_even_like,
    is_lcd,
    min_weight,
    puncture,
    shorten,
    weight_distribution,
)
from lcdkit.construct import (
    M1,
    M2,
    decompose_m1,
    extend_m1,
    puncture_to_lcd,
    shorten_to_lcd,
    weight_condition,
)
from lcdkit.eaqecc import EaqeccParams, family, from_hermitian_lcd
from lcdkit.gf import GF2, GF3, GF4H
from lcdkit.linalg import NotOrthonormalizable, congruence_orthonormalize, gram, matmul

FIELDS = [GF2, GF3, GF4H]

WD_14_8_4 = {0: 1, 4: 24, 5: 36, 6: 36, 7: 60, 8: 45, 9: 28, 10: 20, 11: 4, 12: 2}
WD_16_10_4 = {0: 1, 4: 43, 5: 81, 6: 96, 7: 189, 8: 207, 9: 162, 10: 144, 11: 66, 12: 21, 13: 13, 15: 1}


def test_criterion_1_counterexample_reproduction():
    entries = corpus.manifest()
    timings = []
    for base_id, vec, expect_wd, n, k in [
        ("b_13_7_4", "1001110001100", WD_14_8_4, 14, 8),
        ("b_15_9_4", "111111011001111", WD_16_10_4, 16, 10),
    ]:
        t0 = time.perf_counter()
        base = corpus.resolve_code(base_id, entries)
        from lcdkit.codes import parse_vector

        ext = extend_m1(base, parse_vector(GF2, vec))
        assert ext.params() == (n, k)
        assert is_lcd(ext)
        assert not is_even_like(ext)
        wd = weight_distribution(ext)
        assert wd.min_weight == 4
        assert any(c for w, c in wd.nonzero() if w % 2)  # an odd weight occurs: odd-like
        assert dict(wd.nonzero()) == expect_wd
        dt = time.perf_counter() - t0
        timings.append(dt)
        assert dt < 1.0
    print(f"criterion 1 (counterexample reproduction): PASS ({timings[0]:.3f}s, {timings[1]:.3f}s)")


def test_criterion_2_ternary_printed_matrices():
    t0 = time.perf_counter()
    entries = corpus.manifest()
    for cid, d in [("t_19_6_9", 9), ("t_20_5_11", 11), ("t_20_6_10", 10), ("t_20_8_8", 8)]:
        code = corpus.resolve_code(cid, entries)
        assert is_lcd(code)
        assert min_weight(code) == d
    dt = time.perf_counter() - t0
    assert dt < 1.0
    print(f"criterion 2 (ternary printed matrices): PASS ({dt:.3f}s)")


def test_criterion_3_ternary_replay_chains():
    t0 = time.perf_counter()
    entries = corpus.manifest()
    chains = [
        ["t_20_7_9"],
        ["t_21_7_9", "t_22_8_9", "t_23_9_9"],
        ["t_21_6_10", "t_22_7_10", "t_23_8_10"],
        ["t_21_9_8"],
    ]
    for chain in chains:
        for entry_id in chain:
            entry = entries[entry_id]
            code = corpus.resolve_code(entry_id, entries)
            assert code.params() == (entry.n, entry.k), entry_id
            assert is_lcd(code), entry_id
            assert min_weight(code) == entry.d, entry_id
    dt = time.perf_counter() - t0
    assert dt < 30.0
    print(f"criterion 3 (ternary replay chains): PASS ({dt:.3f}s)")


def test_criterion_4_bound_derivation_rows():
    import csv

    with open(corpus.data_dir() / "derivations_gf2.csv", newline="", encoding="ascii") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 42
    for row in rows:
        rule = bounds.RULES[row["rule"]]
        n1, k1 = int(row["n1"]), int(row["k1"])
        # one lower-bound source, so exactly one shot, at the published cell with the exact value
        assert "gf2" in rule.fields and rule.side == "lower" and not rule.extra, row
        assert (n1 + rule.target[0], k1 + rule.target[1]) == (int(row["n2"]), int(row["k2"])), row
        assert rule.derive(n1, k1, int(row["d1"])) == int(row["d2"]), row
    print(f"criterion 4 (published derivation rows): PASS ({len(rows)} rows)")


def _seed_verified_witnesses(table, field_name, entries):
    """Seed every corpus entry this toolkit actually re-verified."""
    for entry in entries.values():
        if entry.optional or entry.field_name != field_name or entry.d is None:
            continue
        code = corpus.resolve_code(entry.id, entries)
        assert is_lcd(code) and min_weight(code) == entry.d
        table.seed(entry.n, entry.k, lower=entry.d, kind="witness", provenance=f"verified {entry.id}")


def test_criterion_5_rendered_grids():
    # binary: every covered cell matches the published string exactly,
    # except cells where propagation soundly improves the published lower
    # bound; those are listed, as are cells with no published value
    entries = corpus.manifest()
    t = bounds.bundled_table("gf2")
    grid = bounds.load_grid(bounds.grid_path("gf2"))
    _seed_verified_witnesses(t, "gf2", entries)
    bounds.propagate(t)
    improved = []
    for (n, k), cell in sorted(grid.items()):
        got = bounds.cell_string(t, n, k)
        if got == cell:
            continue
        lo, hi = bounds.parse_cell_string(cell)
        glo, ghi = bounds.parse_cell_string(got)
        assert ghi == hi and glo > lo, f"unsound mismatch at [{n},{k}]: {cell} vs {got}"
        assert bounds.replay_chain(t, n, k, "lower")
        improved.append(((n, k), cell, got))
    uncovered = [
        (n, k)
        for n in range(29, 41)
        for k in range(9, 31)
        if k <= n and (n, k) not in grid
    ]
    assert improved == [((40, 14), "11-13", "12-13")]

    # ternary rows 20..25: exact match on every covered cell
    t3 = bounds.bundled_table("gf3")
    grid3 = bounds.load_grid(bounds.grid_path("gf3"))
    bounds.seed_from_csv(t3, corpus.data_dir() / "seeds_extra_gf3.csv")
    _seed_verified_witnesses(t3, "gf3", entries)
    bounds.propagate(t3)
    for (n, k), cell in sorted(grid3.items()):
        assert bounds.cell_string(t3, n, k) == cell, (n, k)
    print(
        "criterion 5 (rendered grids): PASS "
        f"(binary cells={len(grid)}, improved={improved}, uncovered={uncovered}; ternary cells={len(grid3)})"
    )


def _random_dual_vector(C, rng):
    dgen = dual(C).generator
    if dgen.shape[0] == 0:
        return None
    coeffs = np.array([rng.randrange(C.field.order) for _ in range(dgen.shape[0])], dtype=np.uint8)
    return oracles.table_matmul(C.field, coeffs.reshape(1, -1), dgen)[0]


def test_criterion_6_property_suites():
    t0 = time.perf_counter()
    trials = 500

    # (a) is_lcd iff brute-force intersection is trivial
    for f in FIELDS:
        rng = random.Random(1001)
        for _ in range(trials):
            k = rng.randrange(1, 7)
            n = rng.randrange(k, 11)
            c = oracles.random_code(f, n, k, rng)
            inter = oracles.brute_hull_set(c)
            assert is_lcd(c) == (len(inter) == 1)

    # (b) hull-shortening contract: LCD [n-l, k-l, >= d]
    for f in FIELDS:
        rng = random.Random(1002)
        done = 0
        while done < trials:
            k = rng.randrange(2, 7)
            n = rng.randrange(k + 1, 13)
            c = oracles.random_code(f, n, k, rng)
            l = hull(c).dim
            if l == k:
                continue
            done += 1
            d = min_weight(c)
            s, tset = shorten_to_lcd(c)
            assert len(tset) == l
            assert s.params() == (n - l, k - l)
            assert is_lcd(s)
            assert min_weight(s) >= d

    # (c) hull-puncturing contract when l < d: LCD [n-l, k, >= d-l]
    for f in FIELDS:
        rng = random.Random(1003)
        done = 0
        while done < trials:
            k = rng.randrange(2, 6)
            n = rng.randrange(k + 2, 13)
            c = oracles.random_code(f, n, k, rng)
            l = hull(c).dim
            if l == 0:
                continue
            d = min_weight(c)
            if l >= d:
                continue
            done += 1
            p, tset = puncture_to_lcd(c)
            assert p.params() == (n - l, k)
            assert is_lcd(p)
            assert min_weight(p) >= d - l

    # (d) extension methods: weight condition <=> extension is LCD
    for f in FIELDS:
        rng = random.Random(1004)
        done = 0
        while done < trials:
            k = rng.randrange(1, 6)
            n = rng.randrange(k + 1, 11)
            c = oracles.random_lcd_code(f, n, k, rng)
            v = _random_dual_vector(c, rng)
            if v is None:
                continue
            done += 1
            w = int((v != 0).sum())
            for method in (M1, M2):
                if method == M2 and w == 0:
                    continue
                if method == M1:
                    g = np.zeros((k + 1, n + 1), dtype=np.uint8)
                    g[0, 0] = 1
                    g[0, 1:] = v
                    g[1:, 1:] = c.generator
                else:
                    g = np.vstack([v.reshape(1, -1), c.generator])
                ext = LinearCode(f, g)
                assert is_lcd(ext) == weight_condition(f, method, w)

    # (e) shortening/puncturing duality identities
    for f in FIELDS:
        rng = random.Random(1005)
        done = 0
        while done < trials:
            k = rng.randrange(2, 6)
            n = rng.randrange(k + 2, 12)
            c = oracles.random_code(f, n, k, rng)
            d = min_weight(c)
            if d < 2:
                continue
            tset = sorted(rng.sample(range(n), rng.randrange(1, d)))
            done += 1
            dc = dual(c)
            rhs = dual(puncture(c, tset))
            try:
                lhs = shorten(dc, tset)
                assert oracles.same_row_space(lhs, rhs)
            except EmptyCode:
                assert rhs.k == 0
            try:
                rhs2 = dual(shorten(c, tset))
            except EmptyCode:
                assert puncture(dc, tset).k == n - len(tset)
                continue
            try:
                lhs2 = puncture(dc, tset)
                assert oracles.same_row_space(lhs2, rhs2)
            except EmptyCode:
                assert rhs2.k == 0

    # (f) ternary hull growth under single-coordinate shortening
    rng = random.Random(1006)
    done = 0
    while done < trials:
        k = rng.randrange(2, 6)
        n = rng.randrange(k + 1, 11)
        c = oracles.random_code(GF3, n, k, rng)
        l = hull(c).dim
        done += 1
        for i in range(n):
            try:
                s = shorten(c, (i,))
            except EmptyCode:
                continue
            assert hull(s).dim <= l + 1

    # (g) MacWilliams consistency for binary n <= 14
    rng = random.Random(1007)
    for _ in range(trials):
        k = rng.randrange(1, 8)
        n = rng.randrange(k + 1, 15)
        c = oracles.random_code(GF2, n, k, rng)
        primal = weight_distribution(c)
        direct = list(weight_distribution(dual(c)).counts)
        assert direct == enumeration.macwilliams_transform(2, n, k, primal.counts)

    dt = time.perf_counter() - t0
    assert dt < 120.0
    print(f"criterion 6 (property suites, {trials} trials each): PASS ({dt:.1f}s)")


def test_criterion_7_tiny_scale_completeness():
    t0 = time.perf_counter()
    checked = 0
    for n in range(2, 7):
        for k in range(2, n + 1):
            for rows in oracles.rref_generator_bitrows(n, k):
                mat = np.array([[(r >> j) & 1 for j in range(n)] for r in rows], dtype=np.uint8)
                c = LinearCode(GF2, mat)
                if not is_lcd(c) or is_even_like(c):
                    continue
                i, base, x = decompose_m1(c)
                rebuilt = extend_m1(base, x)
                assert weight_distribution(rebuilt).counts == weight_distribution(c).counts
                assert min_weight(base) >= weight_distribution(c).min_weight
                checked += 1
    dt = time.perf_counter() - t0
    assert dt < 60.0
    print(f"criterion 7 (exhaustive decomposition, n<=6): PASS ({checked} codes, {dt:.1f}s)")


def test_criterion_8_orthonormalization():
    rng = random.Random(2024)
    done = 0
    while done < 200:
        k = rng.randrange(1, 9)
        n = rng.randrange(k + 1, 14)
        c = oracles.random_code(GF2, n, k, rng)
        if not is_lcd(c) or is_even_like(c):
            continue
        done += 1
        g = gram(c.generator, GF2)
        u = congruence_orthonormalize(g)
        assert np.array_equal(matmul(GF2, matmul(GF2, u, g), u.T), np.eye(k, dtype=np.uint8))
    # even-like LCD codes must be rejected
    done = 0
    while done < 200:
        k = rng.randrange(1, 5) * 2
        n = rng.randrange(k + 1, 14)
        mat = np.zeros((k, n), dtype=np.uint8)
        for i in range(k):
            row = [rng.randrange(2) for _ in range(n - 1)]
            row.append(sum(row) % 2)
            mat[i] = row
        if linalg.rank(mat, GF2) != k:
            continue
        c = LinearCode(GF2, mat)
        if not is_lcd(c):
            continue
        assert is_even_like(c)
        done += 1
        with pytest.raises(NotOrthonormalizable):
            congruence_orthonormalize(gram(c.generator, GF2))
    print("criterion 8 (orthonormalization, 200+200 codes): PASS")


def test_criterion_9_eaqecc():
    for n, k, d in [(22, 12, 7), (23, 13, 7), (24, 14, 7), (25, 15, 7)]:
        assert from_hermitian_lcd(n, k, d) == EaqeccParams(n, k, d, n - k)
    # independent big-integer evaluation of the s = 1 family member
    step = sum(4**i for i in range(12))
    expect = EaqeccParams(22 + step, 12, 7 + 4**11, 22 + step - 12)
    assert family(22, 12, 7, 1) == expect
    assert expect == EaqeccParams(5592427, 12, 4194311, 5592415)
    print("criterion 9 (EAQECC parameters): PASS")


def test_criterion_10_quaternary_hermitian_extension():
    rng = random.Random(404)
    even_checked = odd_checked = 0
    while even_checked < 500 or odd_checked < 500:
        k = rng.randrange(1, 6)
        n = rng.randrange(k + 1, 11)
        c = oracles.random_lcd_code(GF4H, n, k, rng)
        v = _random_dual_vector(c, rng)
        if v is None:
            continue
        w = int((v != 0).sum())
        if w % 2 == 0 and even_checked < 500:
            even_checked += 1
            ext = extend_m1(c, v)
            assert ext.params() == (n + 1, k + 1)
            assert is_lcd(ext)
        elif w % 2 == 1 and odd_checked < 500:
            odd_checked += 1
            g = np.zeros((k + 1, n + 1), dtype=np.uint8)
            g[0, 0] = 1
            g[0, 1:] = v
            g[1:, 1:] = c.generator
            assert not is_lcd(LinearCode(GF4H, g))
    print("criterion 10 (Hermitian method-1 property, 500+500): PASS")


def test_criterion_11_performance_and_thread_independence():
    rng = random.Random(4023)
    c = oracles.random_code(GF2, 40, 23, rng)
    t0 = time.perf_counter()
    d8 = min_weight(c, threads=8)
    dt_par = time.perf_counter() - t0
    assert dt_par < 60.0
    t0 = time.perf_counter()
    d1 = min_weight(c, threads=1)
    dt_seq = time.perf_counter() - t0
    assert d1 == d8
    wd1 = weight_distribution(c, threads=1)
    wd8 = weight_distribution(c, threads=8)
    assert wd1.counts == wd8.counts
    print(
        f"criterion 11 (binary [40,23] exhaustive): PASS "
        f"(d={d1}, 8 threads {dt_par:.1f}s, 1 thread {dt_seq:.1f}s)"
    )
