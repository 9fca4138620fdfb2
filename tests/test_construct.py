import math
import os
import random
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from lcdkit import construct, enumeration, linalg
from lcdkit.codes import (
    EmptyCode,
    LinearCode,
    dual,
    hull,
    is_even_like,
    is_lcd,
    min_weight,
    new_code,
    parse_vector,
    puncture,
    shorten,
)
from lcdkit.construct import (
    M1,
    M2,
    ConstructError,
    NoCandidate,
    NotDecomposable,
    NotInDual,
    NotLcd,
    WeightCondition,
    apply_record,
    decompose_m1,
    extend,
    extend_m1,
    extend_m2,
    extension_vector,
    format_record,
    pad_zero_column,
    parse_record,
    project_split,
    puncture_to_lcd,
    _draw_messages,
    search_extend,
    shorten_to_lcd,
    weight_condition,
)
from lcdkit.gf import GF2, GF3, GF4H

FIELDS = [GF2, GF3, GF4H]


def random_dual_vector(C, rng):
    dgen = dual(C).generator
    if dgen.shape[0] == 0:
        return np.zeros(C.n, dtype=np.uint8)
    coeffs = np.array([rng.randrange(C.field.order) for _ in range(dgen.shape[0])], dtype=np.uint8)
    return oracles.table_matmul(C.field, coeffs.reshape(1, -1), dgen)[0]


def raw_extension_matrix(C, vec, method):
    if method == M1:
        g = np.zeros((C.k + 1, C.n + 1), dtype=np.uint8)
        g[0, 0] = 1
        g[0, 1:] = vec
        g[1:, 1:] = C.generator
    else:
        g = np.vstack([vec.reshape(1, -1), C.generator])
    return g


def test_weight_condition_table():
    assert weight_condition(GF2, M1, 4) and not weight_condition(GF2, M1, 3)
    assert weight_condition(GF2, M2, 3) and not weight_condition(GF2, M2, 4)
    assert weight_condition(GF3, M1, 0) and weight_condition(GF3, M1, 4)
    assert not weight_condition(GF3, M1, 5)  # 5 = 2 mod 3
    assert weight_condition(GF3, M2, 4) and not weight_condition(GF3, M2, 6)
    assert weight_condition(GF4H, M1, 2) and not weight_condition(GF4H, M1, 3)
    assert weight_condition(GF4H, M2, 5) and not weight_condition(GF4H, M2, 2)


def test_shorten_to_lcd_noop_on_lcd():
    c = new_code(GF2, np.eye(3, dtype=np.uint8))
    got, t = shorten_to_lcd(c)
    assert got is c and t == ()


def test_shorten_to_lcd_small_example():
    c = new_code(GF2, [[1, 1, 0], [0, 0, 1]])
    h = hull(c)
    assert h.dim == 1 and h.pivot_set == (0,)
    got, t = shorten_to_lcd(c)
    assert t == (0,)
    assert got.params() == (2, 1)
    # oracle: codewords zero on coordinate 0, restricted
    words = oracles.codeword_array(c)
    expected = set(map(tuple, words[words[:, 0] == 0][:, 1:].tolist()))
    assert oracles.codeword_set(got) == expected
    assert is_lcd(got)


def test_shorten_to_lcd_self_orthogonal_errors():
    c = new_code(GF2, [[1, 1, 0, 0], [0, 0, 1, 1]])
    assert hull(c).dim == 2
    with pytest.raises(EmptyCode):
        shorten_to_lcd(c)


@pytest.mark.parametrize("f", FIELDS)
def test_shorten_to_lcd_contract_sweep(f):
    rng = random.Random(101)
    done = 0
    while done < 60:
        k = rng.randrange(2, 7)
        n = rng.randrange(k + 1, 13)
        c = oracles.random_code(f, n, k, rng)
        l = hull(c).dim
        if l == 0 or l == k:
            continue
        done += 1
        d = oracles.brute_min_weight(c)
        got, t = shorten_to_lcd(c)
        assert len(t) == l
        assert got.params() == (n - l, k - l)
        assert is_lcd(got)
        assert oracles.brute_min_weight(got) >= d


@pytest.mark.parametrize("f", FIELDS)
def test_puncture_to_lcd_contract_sweep(f):
    rng = random.Random(103)
    done = 0
    while done < 40:
        k = rng.randrange(2, 6)
        n = rng.randrange(k + 2, 13)
        c = oracles.random_code(f, n, k, rng)
        l = hull(c).dim
        d = oracles.brute_min_weight(c)
        if not 1 <= l < d:
            continue
        done += 1
        got, t = puncture_to_lcd(c)
        assert got.params() == (n - l, k)
        assert is_lcd(got)
        assert oracles.brute_min_weight(got) >= d - l
        # dual-side identity: dual of the punctured code is the shortened dual
        try:
            ds, t2 = shorten_to_lcd(dual(c))
        except EmptyCode:
            assert dual(got).k == 0  # dual was self-orthogonal
            continue
        assert t2 == t
        assert oracles.same_row_space(dual(got), ds)


def test_puncture_to_lcd_of_an_lcd_code_is_the_code():
    c = new_code(GF3, [[1, 0, 0], [0, 1, 1]])
    assert is_lcd(c)
    got, t = puncture_to_lcd(c)
    assert got is c and t == ()


def test_puncture_to_lcd_requires_hull_below_distance():
    # hull dimension 1 equals the minimum distance: no dimension guarantee
    c = new_code(GF2, [[1, 1, 0], [0, 0, 1]])
    assert hull(c).dim == 1
    assert oracles.brute_min_weight(c) == 1
    with pytest.raises(ConstructError):
        puncture_to_lcd(c)


def test_extend_m1_requires_lcd_dual_membership_and_weight():
    non_lcd = new_code(GF2, [[1, 1, 0], [0, 0, 1]])
    with pytest.raises(NotLcd):
        extend_m1(non_lcd, np.zeros(3, dtype=np.uint8))
    c = new_code(GF2, [[1, 0, 1], [0, 1, 1]])
    assert is_lcd(c)
    with pytest.raises(NotInDual):
        extend_m1(c, np.array([1, 0, 0], dtype=np.uint8))
    # dual is spanned by (1,1,1): weight 3 is odd, method 1 must refuse
    with pytest.raises(WeightCondition):
        extend_m1(c, np.array([1, 1, 1], dtype=np.uint8))
    got = extend_m2(c, np.array([1, 1, 1], dtype=np.uint8))
    assert got.params() == (3, 3)


def test_extend_m1_zero_vector_degenerates():
    c = new_code(GF2, np.eye(3, dtype=np.uint8))
    with pytest.warns(UserWarning):
        got = extend_m1(c, np.zeros(3, dtype=np.uint8))
    assert got.params() == (4, 4)
    assert is_lcd(got)
    assert min_weight(got) == 1


@pytest.mark.parametrize("f", FIELDS)
def test_extension_forward_and_converse(f):
    # valid weight -> LCD extension; violating weight -> provably non-LCD
    rng = random.Random(107)
    for method in (M1, M2):
        good = bad = 0
        while good < 40 or bad < 40:
            k = rng.randrange(1, 5)
            n = rng.randrange(k + 1, 10)
            c = oracles.random_lcd_code(f, n, k, rng)
            v = random_dual_vector(c, rng)
            w = int((v != 0).sum())
            if method == M2 and w == 0:
                continue
            if weight_condition(f, method, w):
                if good >= 40:
                    continue
                good += 1
                got = extend_m1(c, v) if method == M1 else extend_m2(c, v)
                assert is_lcd(got)
                assert got.params() == ((n + 1, k + 1) if method == M1 else (n, k + 1))
            else:
                if bad >= 40:
                    continue
                bad += 1
                raw = raw_extension_matrix(c, v, method)
                assert linalg.rank(raw, f) == k + 1
                assert not is_lcd(LinearCode(f, raw))


def test_extend_m1_gram_block_structure():
    rng = random.Random(109)
    for f in FIELDS:
        for _ in range(20):
            c = oracles.random_lcd_code(f, 8, 3, rng)
            v = random_dual_vector(c, rng)
            if not weight_condition(f, M1, int((v != 0).sum())):
                continue
            got = extend_m1(c, v)
            g = linalg.gram(got.generator, f)
            self_pair = 0
            for a in v:
                self_pair = int(f.add_table[self_pair, f.mul_table[a, f.conj_table[a]]])
            assert g[0, 0] == f.add_table[1, self_pair] != 0
            assert not g[0, 1:].any() and not g[1:, 0].any()
            assert np.array_equal(g[1:, 1:], linalg.gram(c.generator, f))


def test_extension_round_trips():
    rng = random.Random(113)
    for f in FIELDS:
        for _ in range(20):
            c = oracles.random_lcd_code(f, 7, 3, rng)
            v = random_dual_vector(c, rng)
            w = int((v != 0).sum())
            if weight_condition(f, M1, w):
                ext = extend_m1(c, v)
                assert oracles.same_row_space(shorten(ext, (0,)), c)
            if w and weight_condition(f, M2, w):
                ext = extend_m2(c, v)
                assert np.array_equal(ext.generator[1:], c.generator)


def test_construction_outputs_are_read_only():
    # LinearCode's generator is immutable: every construction hands back a
    # read-only array, so no caller can turn an LCD code into another code
    from lcdkit.codes import format_vector

    rng = random.Random(131)
    while True:
        c = oracles.random_code(GF3, 8, 3, rng)
        if 1 <= hull(c).dim < oracles.brute_min_weight(c):
            break
    C = oracles.random_lcd_code(GF3, 7, 3, rng)
    r1, r2 = search_extend(C, M1, budget=10**6), search_extend(C, M2, budget=10**6)
    y = search_extend(r1.code, M2, budget=10**6).vector
    rec = parse_record(
        f"base c\nextend-m1 {format_vector(GF3, r1.vector)}\nextend-m2 {format_vector(GF3, y)}\npad\nshorten 1\npuncture 2\n"
    )
    outputs = [
        extend_m1(C, r1.vector),
        extend_m2(C, r2.vector),
        pad_zero_column(C),
        shorten(C, (0,)),
        puncture(C, (0,)),
        dual(C),
        shorten_to_lcd(c)[0],
        puncture_to_lcd(c)[0],
        r1.code,
        r2.code,
        *apply_record(rec, C),
    ]
    assert len(outputs) == 15
    for out in outputs:
        assert not out.generator.flags.writeable
        with pytest.raises(ValueError):
            out.generator[0, 0] = 0


def test_pad_zero_column():
    c = new_code(GF2, np.eye(2, dtype=np.uint8))
    got = pad_zero_column(c)
    assert got.params() == (3, 2)
    assert is_lcd(got)
    assert min_weight(got) == 1
    rng = random.Random(127)
    for f in FIELDS:
        for _ in range(15):
            c = oracles.random_code(f, 8, 3, rng)
            p = pad_zero_column(c)
            assert np.array_equal(linalg.gram(p.generator, f), linalg.gram(c.generator, f))
            assert min_weight(p) == oracles.brute_min_weight(c)
            assert is_lcd(p) == is_lcd(c)


def test_project_split_members():
    rng = random.Random(131)
    for f in FIELDS:
        c = oracles.random_lcd_code(f, 8, 3, rng)
        dgen = dual(c).generator
        v_in = oracles.codeword_array(c)[5]
        cc, hh = project_split(v_in, c)
        assert np.array_equal(cc, v_in) and not hh.any()
        coeffs = np.array([1 + rng.randrange(f.order - 1) for _ in range(dgen.shape[0])], dtype=np.uint8)
        v_dual = oracles.table_matmul(f, coeffs.reshape(1, -1), dgen)[0]
        cc, hh = project_split(v_dual, c)
        assert not cc.any() and np.array_equal(hh, v_dual)


def test_project_split_random():
    rng = random.Random(137)
    for f in FIELDS:
        for _ in range(30):
            c = oracles.random_lcd_code(f, 9, 4, rng)
            v = np.array([rng.randrange(f.order) for _ in range(9)], dtype=np.uint8)
            cc, hh = project_split(v, c)
            assert np.array_equal(f.add_table[cc, hh], v)
            assert not oracles.pairings_with_generator(c, hh.reshape(1, -1)).any()
            assert linalg.rank(np.vstack([c.generator, cc]), f) == c.k


def test_project_split_requires_lcd():
    c = new_code(GF2, [[1, 1, 0], [0, 0, 1]])
    with pytest.raises(NotLcd):
        project_split(np.zeros(3, dtype=np.uint8), c)


def split_or_refusal(split, v, c):
    try:
        cc, hh = split(v, c)
    except (NotLcd, ValueError):  # the oracle refuses with ValueError
        return None
    assert cc.dtype == hh.dtype == np.uint8 and cc.shape == hh.shape == v.shape
    return cc.tobytes(), hh.tobytes()


def test_project_split_equals_the_stacked_dual_solve():
    """project_split (one elimination) is byte-identical to the solve
    against [G; dual generator] of tests/oracles.py, and refuses exactly the
    codes the oracle refuses: LCD and random codes for n <= 14 and every k,
    and n = 64, 65, 130, where a packed row spans several words."""
    rng = random.Random(141)
    shapes = [(n, k) for n in range(1, 15) for k in range(1, n + 1)]
    shapes += [(n, k) for n in (64, 65, 130) for k in (9, n // 2)]
    refused = 0
    for f in FIELDS:
        for n, k in shapes:
            for c in (oracles.random_lcd_code(f, n, k, rng), oracles.random_code(f, n, k, rng)):
                v = np.array([rng.randrange(f.order) for _ in range(n)], dtype=np.uint8)
                # v = 0 pairs with G inside Gram's row space, so a non-LCD code leaves two kernel rows
                for w in (v, np.zeros(n, dtype=np.uint8))[: 1 + (n < 15)]:
                    want = split_or_refusal(oracles.stacked_split, w, c)
                    assert split_or_refusal(project_split, w, c) == want
                    if want is None:
                        with pytest.raises(NotLcd, match="^the ambient space splits only for LCD codes$"):
                            project_split(w, c)
                        refused += 1
    assert refused > 100


def test_project_split_is_one_elimination(monkeypatch):
    # one kernel_image elimination decides LCD and gives c: no is_lcd, no x G product
    rng = random.Random(149)
    cases = []
    for f in FIELDS:
        cases.append(oracles.random_lcd_code(f, 9, 4, rng))
        cases.append(next(c for c in iter(lambda: oracles.random_code(f, 9, 4, rng), None) if not is_lcd(c)))
    calls, products = [], []
    eliminate, matmul = linalg._eliminate, linalg.matmul

    def counted_eliminate(*args):
        calls.append(args)
        return eliminate(*args)

    def logged_matmul(field, a, b):
        products.append(b.shape[1])
        return matmul(field, a, b)

    monkeypatch.setattr(linalg, "_eliminate", counted_eliminate)
    monkeypatch.setattr(linalg, "matmul", logged_matmul)
    monkeypatch.setattr(construct, "is_lcd", lambda C: pytest.fail("is_lcd ran"))
    for lcd, c in zip([True, False] * len(FIELDS), cases):
        calls.clear()
        products.clear()
        if lcd:
            project_split(np.ones(c.n, dtype=np.uint8), c)
        else:
            with pytest.raises(NotLcd):
                project_split(np.ones(c.n, dtype=np.uint8), c)
        assert len(calls) == 1 and products and set(products) == {c.k}


def test_decompose_equals_the_shorten_and_split_formula():
    """decompose_m1 (one RREF per coordinate) gives the coordinate, the
    shortening and the dual vector of the nullspace shortening and the
    stacked split, on seeded odd-like binary LCD codes."""
    rng = random.Random(143)
    seen = 0
    for n in range(2, 15):
        for k in range(2, n + 1):
            for _ in range(2):
                c = oracles.random_lcd_code(GF2, n, k, rng)
                if is_even_like(c):
                    continue
                seen += 1
                want = oracles.stacked_decompose_m1(c)
                if want is None:
                    with pytest.raises(NotDecomposable):
                        decompose_m1(c)
                    continue
                i, S, x = decompose_m1(c)
                assert i == want[0] and S.generator.shape == want[1].shape
                assert S.generator.tobytes() == want[1].tobytes() and x.tobytes() == want[2].tobytes()
    assert seen > 100


def test_decompose_recovers_extension_at_front():
    rng = random.Random(139)
    for _ in range(25):
        c = oracles.random_lcd_code(GF2, 8, 3, rng)
        v = random_dual_vector(c, rng)
        if int((v != 0).sum()) % 2:
            continue
        ext = extend_m1(c, v)
        i, back, x = decompose_m1(ext)
        assert i == 0
        assert oracles.same_row_space(back, c)
        assert np.array_equal(x, v)


def test_decompose_shortening_dimension_is_checked(monkeypatch):
    # an explicit error rather than an assert, so it also runs under python -O
    rng = random.Random(139)
    while True:
        c = oracles.random_lcd_code(GF2, 8, 3, rng)
        v = random_dual_vector(c, rng)
        if int((v != 0).sum()) % 2 == 0:
            break
    ext = extend_m1(c, v)
    assert puncture(ext, (0,)).k == ext.k == 4
    monkeypatch.setattr(construct, "shorten", puncture)  # dimension k on coordinate 0, not k - 1
    with pytest.raises(linalg.InvariantError, match="shortening on coordinate 0 has dimension 4, not 3"):
        decompose_m1(ext)


def test_decompose_preconditions():
    with pytest.raises(ConstructError):
        decompose_m1(new_code(GF3, [[1, 0], [0, 1]]))
    with pytest.raises(ConstructError):
        decompose_m1(new_code(GF2, [[1, 0]]))  # k < 2
    even_like = new_code(GF2, [[1, 1, 0, 0], [0, 1, 1, 0]])
    assert is_lcd(even_like)
    with pytest.raises(ConstructError):
        decompose_m1(even_like)


def test_decompose_round_trip_distribution():
    from lcdkit.codes import weight_distribution

    rng = random.Random(149)
    done = 0
    while done < 30:
        k = rng.randrange(2, 6)
        n = rng.randrange(k, 11)
        c = oracles.random_code(GF2, n, k, rng)
        from lcdkit.codes import is_even_like

        if not is_lcd(c) or is_even_like(c):
            continue
        done += 1
        i, base, x = decompose_m1(c)
        assert base.params() == (n - 1, k - 1)
        assert is_lcd(base)
        assert oracles.brute_min_weight(base) >= oracles.brute_min_weight(c)
        rebuilt = extend_m1(base, x)
        assert weight_distribution(rebuilt).counts == weight_distribution(c).counts


def test_search_no_candidate_for_m2_on_universe():
    c = new_code(GF2, np.eye(4, dtype=np.uint8))
    with pytest.raises(NoCandidate):
        search_extend(c, M2, budget=100, seed=1)


def test_search_beats_random_candidates():
    rng = random.Random(151)
    for f in FIELDS:
        for _ in range(4):
            c = oracles.random_lcd_code(f, 8, 4, rng)
            for method in (M1, M2):
                try:
                    res = search_extend(c, method, budget=10_000, seed=7)
                except NoCandidate:
                    continue
                assert res.exact and res.exhaustive
                assert min_weight(res.code) == res.min_weight
                # no sampled valid candidate may beat the search result
                for _ in range(100):
                    v = random_dual_vector(c, rng)
                    w = int((v != 0).sum())
                    if not weight_condition(f, method, w) or (method == M2 and w == 0):
                        continue
                    other = extend_m1(c, v) if method == M1 else extend_m2(c, v)
                    assert min_weight(other) <= res.min_weight


def brute_force_search(C, method, budget, seed):
    """Best (score, vector) over the same candidates, scored by brute force."""
    dgen = dual(C).generator
    q, m = C.field.order, dgen.shape[0]
    if q**m <= budget:
        msgs = oracles.all_messages(q, m)
    else:
        rng = random.Random(seed)
        msgs = list(dict.fromkeys(tuple(rng.randrange(q) for _ in range(m)) for _ in range(budget)))
        msgs = np.array(msgs, dtype=np.uint8).reshape(len(msgs), m)
    best = (-1, None)
    for v in oracles.table_matmul(C.field, msgs, dgen):
        if not weight_condition(C.field, method, int((v != 0).sum())):
            continue
        g = raw_extension_matrix(C, v, method)
        words = oracles.table_matmul(C.field, oracles.all_messages(q, g.shape[0]), g)
        w = (words != 0).sum(axis=1)
        d = int(w[w > 0].min()) if (w > 0).any() else 0
        if d > best[0] or (d == best[0] and tuple(v) < best[1]):
            best = (d, tuple(int(x) for x in v))
    return best


@pytest.mark.parametrize(
    "f,n,k,budget",
    [(GF2, 10, 4, 10_000), (GF3, 8, 3, 10_000), (GF4H, 7, 3, 10_000), (GF2, 70, 4, 300), (GF3, 66, 3, 200), (GF4H, 65, 2, 200)],
)
def test_search_matches_brute_force(f, n, k, budget):
    # score and lexicographic tie-break against brute force, exhaustive on
    # short codes and sampled past the 64-bit word boundary
    rng = random.Random(n * 31 + k)
    c = oracles.random_lcd_code(f, n, k, rng)
    for method in (M1, M2):
        res = search_extend(c, method, budget=budget, seed=5)
        assert res.exact and res.exhaustive == (f.order ** (n - k) <= budget)
        assert (res.min_weight, tuple(res.vector.tolist())) == brute_force_search(c, method, budget, 5)
        assert oracles.brute_min_weight(res.code) == res.min_weight


def test_search_truncated_scan_is_an_upper_bound():
    # q^k over the cap: d(C) comes from Brouwer-Zimmermann and the coset
    # listings hold at most cap words, so the answer is the reference's when
    # flagged exact and otherwise can only overstate the distance
    rng = random.Random(171)
    for f, n, k, cap in [(GF2, 20, 11, 64), (GF3, 14, 7, 100), (GF4H, 12, 6, 300)]:
        c = oracles.random_lcd_code(f, n, k, rng)
        check_against_reference(c, M1, 2_000, 3, cap)
        res = search_extend(c, M1, budget=2_000, seed=3, cap=cap)
        assert res.target_met is None


def test_search_deterministic():
    rng = random.Random(157)
    c = oracles.random_lcd_code(GF3, 9, 3, rng)
    a = search_extend(c, M1, budget=50, seed=42)
    b = search_extend(c, M1, budget=50, seed=42)
    assert np.array_equal(a.vector, b.vector) and a.min_weight == b.min_weight
    assert not a.exhaustive  # 3^6 > 50 forces sampling


def test_ternary_hull_growth_under_shortening():
    rng = random.Random(163)
    for _ in range(40):
        k = rng.randrange(2, 6)
        n = rng.randrange(k + 1, 11)
        c = oracles.random_code(GF3, n, k, rng)
        l = hull(c).dim
        for i in range(n):
            try:
                s = shorten(c, (i,))
            except EmptyCode:
                continue
            assert hull(s).dim <= l + 1


def test_search_exhaustive_ternary_19_6_9_reaches_9():
    # full search over the 3^13 dual of the stored [19,6,9] code: the best
    # method-1 extension reaches minimum distance exactly 9
    from lcdkit import corpus

    c = corpus.resolve_code("t_19_6_9")
    res = search_extend(c, M1, target=9, budget=3**13, seed=0)
    assert res.exhaustive and res.exact
    assert res.min_weight == 9
    assert res.target_met
    assert res.code.params() == (20, 7)
    assert min_weight(res.code) == 9


def test_record_roundtrip_and_replay():
    text = "# chain\nbase start\nextend-m2 111\npad\nshorten 1\n"
    rec = parse_record(text)
    assert rec.base == "start"
    assert [s.op for s in rec.steps] == ["extend-m2", "pad", "shorten"]
    assert format_record(rec) == "base start\nextend-m2 111\npad\nshorten 1\n"
    base = new_code(GF2, [[1, 0, 1], [0, 1, 1]])
    out = apply_record(rec, base)
    assert [c.params() for c in out] == [(3, 3), (4, 3), (3, 2)]


def test_record_parse_errors():
    with pytest.raises(ConstructError):
        parse_record("shorten 1\n")  # step before base
    with pytest.raises(ConstructError):
        parse_record("base a\nbase b\n")
    with pytest.raises(ConstructError):
        parse_record("base a\nshorten 0\n")  # 1-based coordinates
    with pytest.raises(ConstructError):
        parse_record("base a\nfrobnicate 1\n")
    with pytest.raises(ConstructError, match="pad takes no argument"):
        parse_record("base a\npad 3\n")
    with pytest.raises(ConstructError, match="extend-m1 needs an argument"):
        parse_record("base a\nextend-m1\n")
    with pytest.raises(ConstructError):
        parse_record("")


@pytest.mark.parametrize("f", FIELDS)
def test_weight_condition_is_the_new_rows_self_pairing(f):
    # method 1's row (1 x) pairs with itself as a method-2 row of one more
    # nonzero symbol; an array of weights, as the search passes, gives the
    # scalar answers
    for w in range(41):
        assert weight_condition(f, M1, w) == weight_condition(f, M2, w + 1)
    for method in (M1, M2):
        want = [weight_condition(f, method, w) for w in range(41)]
        for dtype in (np.uint16, np.int64):
            assert weight_condition(f, method, np.arange(41, dtype=dtype)).tolist() == want


@pytest.mark.parametrize("f", FIELDS)
def test_extend_builds_both_methods(f):
    rng = random.Random(151)
    built = {M1: 0, M2: 0}
    while min(built.values()) < 20:
        k = rng.randrange(1, 5)
        c = oracles.random_lcd_code(f, rng.randrange(k + 1, 10), k, rng)
        v = random_dual_vector(c, rng)
        for method, named in ((M1, extend_m1), (M2, extend_m2)):
            if not weight_condition(f, method, int((v != 0).sum())):
                continue
            built[method] += 1
            got = extend(c, v, method)
            assert np.array_equal(got.generator, raw_extension_matrix(c, v, method))
            assert np.array_equal(named(c, v).generator, got.generator)


@pytest.mark.parametrize("field,method", [(GF3, "m3"), (GF2, "M1")])
def test_extension_that_cannot_run_fails_before_any_work(field, method, monkeypatch):
    # an unknown method raises before C's LCD test
    c = new_code(field, [[1, 0, 0, 0], [0, 1, 0, 0]])
    with pytest.raises(ConstructError) as want:
        weight_condition(field, method, 0)
    monkeypatch.setattr(construct, "is_lcd", lambda C: pytest.fail("is_lcd ran"))
    with pytest.raises(ConstructError) as got:
        extend(c, np.array([0, 0, 1, 1], dtype=np.uint8), method)
    assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))


@pytest.mark.parametrize("f", FIELDS)
@pytest.mark.parametrize("method", [M1, M2])
def test_extension_vector_rejects_symbols_outside_the_field(f, method):
    # over GF(3) the entry 5 once reduced to 2 in the pairing, so [0,0,5,1]
    # passed as a weight-2 dual vector and became a generator row
    c = new_code(f, [[1, 0, 0, 0], [0, 1, 0, 0]])
    assert is_lcd(c)
    for bad in (f.order, f.order + 2, 255):
        y = np.array([0, 0, bad, 1], dtype=np.uint8)
        with pytest.raises(ConstructError, match="not an element"):
            extension_vector(c, y, method)
        with pytest.raises(ConstructError, match="not an element"):
            (extend_m1 if method == M1 else extend_m2)(c, y)


@pytest.mark.parametrize(
    "row", [[0, 0, 1.5, 0], [0, 0, 1.0, 0], [0, 0, "1", 0], [0, 0, -1, 0], [0, 0, 2**70, 0], np.array([0, 0, 257, 0])]
)
def test_non_symbols_are_refused_not_normalised(row):
    # 1.5, 1.0, "1" and an int64 257 once became the symbol 1, so both calls
    # took the row as [0, 0, 1, 0]; -1 and 2**70 raised OverflowError
    with pytest.raises(linalg.LinalgError):
        new_code(GF2, [row])
    with pytest.raises(ConstructError, match="not an element of gf2"):
        extension_vector(new_code(GF2, [[1, 0, 0, 0], [0, 1, 0, 0]]), row, M2)


@pytest.mark.parametrize("f", FIELDS)
@pytest.mark.parametrize("method", [M1, M2, "m3"])
def test_extend_checks_the_vector_before_c_is_lcd(f, method):
    # extend checks x first (extension_vector: length, symbols, dual
    # membership, method, weight) and C's LCD test after, so on a
    # non-LCD C every bad vector reports its own error and a good one NotLcd
    C = new_code(f, [[1, 1, 1, 0], [0, 0, 0, 1]] if f.order == 3 else [[1, 1, 0, 0], [0, 0, 1, 0]])
    assert not is_lcd(C)
    vectors = list(oracles.all_messages(f.order, 4)) + [np.array([0, 0, f.order, 1]), np.zeros(3)]
    kinds = set()
    for v in vectors:
        try:
            extension_vector(C, v, method)
            want = (NotLcd, f"method {method[1]} extends LCD codes only")
        except ConstructError as exc:
            want = (type(exc), str(exc))
        with pytest.raises(ConstructError) as got:
            extend(C, v, method)
        assert (type(got.value), str(got.value)) == want
        kinds.add(want[0])
    assert NotInDual in kinds and (NotLcd in kinds) == (method != "m3")
    with pytest.raises(NotInDual):
        extend(C, np.array([1, 0, 0, 0]), method)


def _non_lcd_with_dual_vectors(f, method):
    """A non-LCD C and every vector that passes extension_vector for it."""
    C = new_code(f, [[1, 1, 1, 0], [0, 0, 0, 1]] if f.order == 3 else [[1, 1, 0, 0], [0, 0, 1, 0]])
    assert not is_lcd(C)
    good = []
    for v in oracles.all_messages(f.order, 4):
        try:
            extension_vector(C, v, method)
        except ConstructError:
            continue
        good.append(v)
    return C, good


def _lcd_with_dual_vector(f, method):
    """An LCD C and a nonzero vector that passes extension_vector for it."""
    rng = random.Random(163 + f.order)
    while True:
        k = rng.randrange(1, 5)
        C = oracles.random_lcd_code(f, rng.randrange(k + 1, 10), k, rng)
        v = random_dual_vector(C, rng)
        if v.any() and weight_condition(f, method, int((v != 0).sum())):
            return C, v


@pytest.mark.parametrize("f", FIELDS)
@pytest.mark.parametrize("method", [M1, M2])
def test_extend_of_a_non_lcd_code_raises_not_lcd(f, method):
    # the extension's one LCD test fails, and C's own test names the cause
    C, good = _non_lcd_with_dual_vectors(f, method)
    assert len(good) > 1
    for v in good:
        with pytest.raises(NotLcd, match=f"^method {method[1]} extends LCD codes only$"):
            extend(C, v, method)


@pytest.mark.parametrize("f", FIELDS)
@pytest.mark.parametrize("method", [M1, M2])
def test_extend_of_a_non_lcd_code_by_the_zero_vector_does_not_warn(f, method):
    # method 1 warns on the all-zero vector only after the LCD test, so a
    # non-LCD C raises NotLcd without a warning; method 2 refuses the vector
    C, _ = _non_lcd_with_dual_vectors(f, method)
    want = NotLcd if method == M1 else WeightCondition
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        with pytest.raises(want):
            extend(C, np.zeros(4, dtype=np.uint8), method)
    assert seen == []


@pytest.mark.parametrize("f", FIELDS)
@pytest.mark.parametrize("method", [M1, M2])
def test_extend_reports_a_non_lcd_extension_of_an_lcd_code_as_a_bug(f, method, monkeypatch):
    C, v = _lcd_with_dual_vector(f, method)
    real = construct.is_lcd
    monkeypatch.setattr(construct, "is_lcd", lambda D: D.k == C.k and real(D))  # fails only on the extension
    with pytest.raises(linalg.InvariantError, match=f"^the method-{method[1]} extension is not LCD$"):
        extend(C, v, method)


@pytest.mark.parametrize("f", FIELDS)
@pytest.mark.parametrize("method", [M1, M2])
def test_extend_tests_lcd_once(f, method, monkeypatch):
    # Gram(out) = diag(<r, r>, Gram(C)) with <r, r> != 0, so the extension's
    # own test decides C's too
    C, v = _lcd_with_dual_vector(f, method)
    real, calls = construct.is_lcd, []
    monkeypatch.setattr(construct, "is_lcd", lambda D: calls.append(D) or real(D))
    out = extend(C, v, method)
    assert calls == [out]
    assert np.array_equal(out.generator, raw_extension_matrix(C, v, method))


def test_decompose_and_search_refuse_a_non_lcd_code():
    C = new_code(GF2, [[1, 1, 0, 0], [0, 0, 1, 0]])
    with pytest.raises(NotLcd, match="^input must be LCD$"):
        decompose_m1(C)
    for method in (M1, M2):
        with pytest.raises(NotLcd, match="^search extends LCD codes only$"):
            search_extend(C, method, budget=16)


def test_apply_step_refuses_an_unknown_op():
    # parse_record refuses unknown ops, but a Step can be built directly
    C = new_code(GF2, [[1, 0, 1]])
    with pytest.raises(ConstructError, match="^unknown step 'rotate'$"):
        construct.apply_step(C, construct.Step("rotate", "1"))


# -- the pruned, projective search against the symbol-domain reference scorer


def reference_search(C, method, budget, seed):
    """(score, vector, candidates, d_base, tied) of the extension search,
    scoring every candidate against every codeword with the oracles;
    ``tied`` counts the candidates that reach the score."""
    q = C.field.order
    dgen = dual(C).generator
    m = dgen.shape[0]
    if q**m <= budget:
        msgs = oracles.all_messages(q, m)
    else:
        rng = random.Random(seed)
        msgs = list(dict.fromkeys(tuple(rng.randrange(q) for _ in range(m)) for _ in range(budget)))
        msgs = np.array(msgs, dtype=np.uint8).reshape(len(msgs), m)
    cands = oracles.table_matmul(C.field, msgs, dgen)
    cands = cands[[weight_condition(C.field, method, int(w)) for w in (cands != 0).sum(axis=1)]]
    d_base = oracles.brute_min_weight(C)
    if not len(cands):
        return None, None, 0, d_base, 0
    scores = np.minimum(d_base, oracles.coset_min_weights(C, cands) + (method == M1))
    best = int(scores.max())
    tied = cands[scores == best]
    return best, min(map(tuple, tied.tolist())), len(cands), d_base, len(tied)


def check_against_reference(C, method, budget, seed, cap):
    """The search under ``cap`` against the reference: the same candidates,
    the same answer when exact, as it always is within the cap, and
    otherwise a score no lower than the distance of the code it returns."""
    want = reference_search(C, method, budget, seed)
    if not want[2]:
        with pytest.raises(NoCandidate):
            search_extend(C, method, budget=budget, seed=seed, cap=cap)
        return want
    res = search_extend(C, method, budget=budget, seed=seed, cap=cap)
    assert res.candidates == want[2]
    assert res.exact or C.field.order**C.k > cap
    if res.exact:
        assert (res.min_weight, tuple(res.vector.tolist())) == want[:2]
    else:
        assert res.min_weight >= oracles.brute_min_weight(res.code)
    assert res.exhaustive == (C.field.order ** (C.n - C.k) <= budget)
    return want


MAX_N = {2: 10, 3: 8, 4: 6}

# candidates in the first and in the largest batch of a search
BATCHES = st.sampled_from([1, 2, 7, construct.FIRST_BATCH, construct.SEARCH_BATCH])


@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from(FIELDS),
    st.sampled_from([M1, M2]),
    st.sampled_from(["exhaustive", "sampled"]),
    st.integers(0, 2**32 - 1),
    st.data(),
)
def test_search_matches_reference_scorer(f, method, mode, seed, data):
    # exhaustive and sampled scans, both methods, in batches that start at
    # and grow to drawn sizes
    q = f.order
    n = data.draw(st.integers(3, MAX_N[q]))
    k = data.draw(st.integers(1, n - 1))
    C = oracles.random_lcd_code(f, n, k, random.Random(seed))
    budget = 10**9 if mode == "exhaustive" else data.draw(st.integers(1, q ** (n - k) - 1))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(construct, "FIRST_BATCH", data.draw(BATCHES))
        patch.setattr(construct, "SEARCH_BATCH", data.draw(BATCHES))
        check_against_reference(C, method, budget, seed % 1000, 10**9)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(FIELDS),
    st.sampled_from([M1, M2]),
    st.sampled_from(["exhaustive", "sampled"]),
    st.integers(0, 2**32 - 1),
    st.data(),
)
def test_search_past_the_cap(f, method, mode, seed, data):
    # cap < q^k: d(C) comes from Brouwer-Zimmermann under the cap, and a
    # coset listing past the cap lists the first matrix's whole levels that
    # fit.  An exact answer is the uncapped search's; any other overstates
    # the returned code's distance.  Both score the same candidates, and
    # the capped search gives the same answer in batches of drawn sizes
    q = f.order
    n = data.draw(st.integers(3, MAX_N[q]))
    k = data.draw(st.integers(1, n - 1))
    C = oracles.random_lcd_code(f, n, k, random.Random(seed))
    budget = 10**9 if mode == "exhaustive" else data.draw(st.integers(1, q ** (n - k) - 1))
    cap = data.draw(st.integers(0, q**k - 1))
    try:
        full = search_extend(C, method, budget=budget, seed=seed % 1000, cap=10**9)
    except NoCandidate:
        with pytest.raises(NoCandidate):
            search_extend(C, method, budget=budget, seed=seed % 1000, cap=cap)
        return
    res = search_extend(C, method, budget=budget, seed=seed % 1000, cap=cap)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(construct, "FIRST_BATCH", data.draw(BATCHES))
        patch.setattr(construct, "SEARCH_BATCH", data.draw(BATCHES))
        again = search_extend(C, method, budget=budget, seed=seed % 1000, cap=cap)
    fields = ("min_weight", "exact", "exhaustive", "candidates")
    assert [getattr(again, a) for a in fields] == [getattr(res, a) for a in fields]
    assert np.array_equal(again.vector, res.vector)
    assert res.candidates == full.candidates and res.exhaustive == full.exhaustive
    if res.exact:
        assert (res.min_weight, tuple(res.vector.tolist())) == (full.min_weight, tuple(full.vector.tolist()))
    else:
        assert res.min_weight >= oracles.brute_min_weight(res.code)


def test_exhaustive_search_memory_does_not_grow_with_the_dual():
    # a binary [30,10] LCD code has a 2^20-vector dual, 2^19 candidates of
    # even weight: the search holds a batch of them at a time, about 7 MiB
    # of traced peak, where holding every candidate at once took 21.5 MiB
    C = oracles.random_lcd_code(GF2, 30, 10, random.Random(7))
    tracemalloc.start()
    try:
        res = search_extend(C, M1, budget=2**20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.exhaustive and res.exact and res.candidates == 2**19
    assert peak < 12 * 2**20


def test_search_from_gf4h_k14_past_the_cap():
    # a Hermitian GF(4) [24,14,7] LCD code grown in-repo: the double-circulant
    # [I | A] [22,11,8] code, A circulant with first row 1wW0010w01w,
    # punctured on coordinate 0 to [21,11,7], then extended by three sampled
    # method-1 searches.  Its 4^14 codewords are past the default cap of
    # 4^13: d(C) comes from Brouwer-Zimmermann and every coset listing fits
    # the cap, so the answer is exact, and it is the distance of the code it returns
    a = parse_vector(GF4H, "1wW0010w01w")
    A = np.array([np.roll(a, i) for i in range(11)])
    C = puncture(new_code(GF4H, np.hstack([np.eye(11, dtype=np.uint8), A])), (0,))
    for _ in range(3):
        C = search_extend(C, M1, budget=2**16, seed=0).code
    assert C.params() == (24, 14) and is_lcd(C) and min_weight(C, "bz") == 7
    assert C.field.order**C.k > enumeration.DEFAULT_CAPS[4]
    res = search_extend(C, M1, budget=2**10, seed=0)
    assert res.exact and not res.exhaustive
    assert res.min_weight == min_weight(res.code, "bz")


@pytest.mark.parametrize("f", FIELDS)
def test_search_below_base_distance(f):
    # best scores one and two below d(C): every candidate drops at the
    # higher levels, and the scan restarts at the highest upper bound a
    # dropped candidate kept; common on bases of dimension 1 and 2
    rng = random.Random(197)
    depths = {M1: set(), M2: set()}
    while not (1 in depths[M1] and {1, 2} <= depths[M2]):
        n = rng.randrange(4, 8)
        C = oracles.random_lcd_code(f, n, rng.randrange(1, 3), rng)
        for method in (M1, M2):
            best, _, count, d_base, _ = check_against_reference(C, method, 10**9, 0, 10**9)
            if count:
                depths[method].add(d_base - best)
            # a sampled scan of the same code
            check_against_reference(C, method, f.order ** (n - C.k) // 2, 3, 10**9)


@pytest.mark.parametrize("f", FIELDS)
def test_search_on_distance_one_base(f):
    # d(C) = 1 caps every score at 1: method 1 picks the zero vector, method 2
    # (which excludes it) the smallest candidate
    C = new_code(f, np.eye(2, 5, dtype=np.uint8))
    assert is_lcd(C) and oracles.brute_min_weight(C) == 1
    assert check_against_reference(C, M1, 10**6, 0, 10**9)[:2] == (1, (0,) * 5)
    assert check_against_reference(C, M2, 10**6, 0, 10**9)[0] == 1


@pytest.mark.parametrize("method", [M1, M2])
@pytest.mark.parametrize("budget", [10**9, 6_000])
def test_search_tie_break_among_many(method, budget):
    # a GF(4)H [9,2,5] code where thousands of dual vectors tie at d(C):
    # the exhaustive search scores one vector per projective class and
    # breaks the tie over all their multiples, the sampled one over the
    # distinct draws; both must pick the reference's tuple minimum
    C = oracles.random_lcd_code(GF4H, 9, 2, random.Random(0))
    best, _, _, d_base, tied = check_against_reference(C, method, budget, 11, 10**9)
    assert best == d_base and tied >= 1_000


@pytest.mark.parametrize("f", FIELDS)
def test_exhaustive_count_reads_the_candidate_tables(f, monkeypatch):
    # a dual scanned directly is counted from the tables the candidate
    # stream already holds (its rows reversed), so they are built once; the
    # count is that of the dual's weight distribution on either route (the
    # dual route, forced on small codes here, scans C's side)
    rng = random.Random(30 + f.order)
    monkeypatch.setitem(enumeration.DUAL_MIN_CODEWORDS, f.order, 1)
    built, routes = [], set()
    tables = enumeration.codeword_tables
    monkeypatch.setattr(enumeration, "codeword_tables", lambda *args: built.append(1) or tables(*args))
    for n, k in [(9, 4), (10, 3), (12, 9)]:
        C = oracles.random_lcd_code(f, n, k, rng)
        dist = oracles.brute_weight_counts(dual(C))
        route = enumeration.scan_plan(f.order, n, n - k)[0]
        routes.add(route)
        for method in (M1, M2):
            built.clear()
            _, count, _ = construct._candidates(C, weight_condition(f, method, np.arange(n + 1)), 10**9, 0, 1)
            assert count == sum(a for w, a in enumerate(dist) if weight_condition(f, method, w))
            assert len(built) == (1 if route == "direct" else 2)
    assert routes == {"direct", "dual"}


@pytest.mark.parametrize("f", FIELDS)
def test_exhaustive_candidates_come_in_lexicographic_order(f, monkeypatch):
    # the batches of an exhaustive search's candidate stream, read to its
    # end, hold one vector per projective class of the dual that passes the
    # weight condition, each class once, its smallest vector (first nonzero
    # symbol 1), in strictly increasing lexicographic order across batches
    rng = random.Random(f.order)
    monkeypatch.setattr(construct, "FIRST_BATCH", 2)
    monkeypatch.setattr(construct, "SEARCH_BATCH", 5)
    for _ in range(12):
        n = rng.randrange(3, MAX_N[f.order] + 1)
        C = oracles.random_lcd_code(f, n, rng.randrange(1, n), rng)
        for method in (M1, M2):
            _, _, batches = construct._candidates(C, weight_condition(f, method, np.arange(n + 1)), 10**9, 0, 1)
            got = [tuple(v) for b in batches for v in enumeration.unpack_matrix(b, n).tolist()]
            assert got == sorted(set(got))
            assert all(next((s for s in v if s), 1) == 1 for v in got)
            words = oracles.table_matmul(f, oracles.all_messages(f.order, n - C.k), dual(C).generator)
            classes = {min(tuple(f.mul_table[a][w].tolist()) for a in range(1, f.order)) for w in words}
            assert set(got) == {v for v in classes if weight_condition(f, method, sum(map(bool, v)))}


def test_headline_search_stops_at_the_first_winning_batch(monkeypatch):
    # the t_19_6_9 search first reaches d(C) = 9 in its fifth batch, so it
    # scores 128 + 256 + 512 + 1,024 + 2,048 candidates and builds no
    # candidate block past that batch's last candidate, yet counts every
    # candidate.  Every batch starts again at floor 8, and the levels below
    # it ask again for lower floors, but each floor's listing is planned
    # once (_bz_order) and every one is held
    from lcdkit import corpus

    C = corpus.resolve_code("t_19_6_9")
    batches, passing, plans, floors = [], [], [], []
    best_scores, blocks = construct._best_scores, enumeration.codeword_blocks
    bz_order, coset_floor = enumeration._bz_order, enumeration._coset_floor

    def counted_blocks(*args):
        for first, w in blocks(*args):
            passing.append(int(np.count_nonzero(weight_condition(C.field, M1, enumeration._weigh(w)))))
            yield first, w

    def scored(listings, cand, *args):
        batches.append(cand.shape[-1])
        return best_scores(listings, cand, *args)

    def scanned(q, cand, active, floor, stages):
        floors.append(floor)
        assert all(isinstance(words, list) for _, words in stages)  # held, not streamed
        return coset_floor(q, cand, active, floor, stages)

    monkeypatch.setattr(construct, "_best_scores", scored)
    monkeypatch.setattr(enumeration, "codeword_blocks", counted_blocks)
    monkeypatch.setattr(enumeration, "_bz_order", lambda *args: plans.append(args[3]) or bz_order(*args))
    monkeypatch.setattr(enumeration, "_coset_floor", scanned)
    res = search_extend(C, M1, budget=3**13, seed=0)
    assert (res.min_weight, res.candidates) == (9, 1_062_153)
    assert batches == [128, 256, 512, 1_024, 2_048]
    assert sum(passing[:-1]) < 3_968 <= sum(passing)
    assert sorted(plans) == sorted(set(floors)) and floors.count(8) == len(batches)


def test_sampled_search_counts_every_distinct_draw_past_an_early_stop(monkeypatch):
    # a GF(4)H [9,2,5] code where thousands of dual vectors tie at d(C): the
    # first batch of the sampled search already reaches d(C) and the search
    # stops there, yet it counts every distinct draw that passes
    C = oracles.random_lcd_code(GF4H, 9, 2, random.Random(0))
    calls = []
    best_scores = construct._best_scores
    monkeypatch.setattr(construct, "_best_scores", lambda *args: calls.append(args) or best_scores(*args))
    best, vector, count, d_base, _ = reference_search(C, M1, 6_000, 11)
    res = search_extend(C, M1, budget=6_000, seed=11)
    assert best == d_base and len(calls) == 1 and count > construct.FIRST_BATCH
    assert (res.min_weight, tuple(res.vector.tolist()), res.candidates) == (best, vector, count)


@pytest.mark.parametrize("f", FIELDS)
def test_search_on_a_code_with_zero_dual(f):
    # an [n, n] code has the dual {0}: method 1 extends by the zero vector,
    # its one candidate, and method 2, which excludes it, has none
    C = new_code(f, np.eye(4, dtype=np.uint8))
    res = search_extend(C, M1, budget=1)
    assert (tuple(res.vector.tolist()), res.candidates, res.exhaustive) == ((0,) * 4, 1, True)
    with pytest.raises(NoCandidate):
        search_extend(C, M2, budget=1)


@pytest.mark.parametrize("budget", [0, -1, -(10**6)])
def test_search_budget_below_1_is_refused(budget):
    # the dual has method-1 vectors, so the old "no dual vector satisfies"
    # answer was false; a budget below 1 is refused as such
    from lcdkit import corpus

    C = corpus.resolve_code("b_13_7_4")
    with pytest.raises(ConstructError, match="budget must be at least 1"):
        search_extend(C, M1, budget=budget)


@pytest.mark.parametrize("seed", [-1, -5])
def test_search_seed_below_0_is_refused(seed):
    # random.Random(-s) has the state of random.Random(s), so a negative seed
    # would repeat another seed's draw
    from lcdkit import corpus

    C = corpus.resolve_code("b_13_7_4")
    with pytest.raises(ConstructError, match=f"search seed must be at least 0, got {seed}"):
        search_extend(C, M1, budget=50, seed=seed)


@pytest.mark.parametrize("field,method", [(GF3, "m3")])
def test_search_that_cannot_run_fails_before_any_work(field, method, monkeypatch):
    # an unknown method raises before d(C), the dual's tables or the coset chain are computed
    C = oracles.random_lcd_code(field, 12, 5, random.Random(12))
    with pytest.raises(ConstructError) as want:
        weight_condition(field, method, 0)
    for mod, attr in ((construct, "min_weight"), (enumeration, "codeword_tables"), (enumeration, "_coset_chain")):
        monkeypatch.setattr(mod, attr, lambda *a, attr=attr, **kw: pytest.fail(f"{attr} ran"))
    with pytest.raises(ConstructError) as got:
        search_extend(C, method, budget=10**6)
    assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))


# -- coset scoring in Brouwer-Zimmermann order against the oracle's coset minima


def coset_candidates(C, count, rng):
    """Random vectors, half of them codewords plus errors of weight 0..3, so
    that low and high coset minima both occur."""
    f = C.field
    cands = oracles.random_matrix(f, count, C.n, rng)
    msgs = oracles.random_matrix(f, count // 2, C.k, rng)
    near = oracles.table_matmul(f, msgs, C.generator)
    for row in near:
        for i in rng.sample(range(C.n), rng.randrange(4)):
            row[i] = rng.randrange(f.order)
    return np.vstack([cands, near])


@pytest.mark.parametrize(
    "f,n,k", [(GF2, 70, 8), (GF3, 66, 5), (GF4H, 65, 4), (GF2, 16, 10), (GF3, 12, 7), (GF4H, 10, 6), (GF3, 9, 3)]
)
@pytest.mark.parametrize("chunk", [5, 64, enumeration.BZ_CHUNK])
def test_bz_coset_scorer_matches_oracle(f, n, k, chunk, monkeypatch):
    # n > 64 spans two words per plane, k > n / 2 gives the chain deficits,
    # and small chunks split passes, reductions and compactions.  A
    # candidate stays alive exactly when its coset minimum reaches the
    # floor, and a dropped one reports an upper bound on it below the floor
    monkeypatch.setattr(enumeration, "BZ_CHUNK", chunk)
    rng = random.Random(n * 7 + k)
    C = oracles.random_code(f, n, k, rng)
    cands = coset_candidates(C, 40, rng)
    truth = oracles.coset_min_weights(C, cands)
    packed = enumeration.pack_matrix(f.order, cands)
    chain = enumeration._coset_chain(C.field, C.generator)
    active = np.flatnonzero(np.arange(len(cands)) % 5 != 3)  # scorers see a subset of the candidates
    want = truth[active]
    # every listing streamed (hold 0), or held and read again by later floors
    for hold in (0, f.order**k):
        listings = enumeration._CosetListings(f.order, k, chain, f.order**k, hold)
        for floor in [*range(1, int(truth.max()) + 2), 2, 1]:
            stages, complete = listings(floor)
            assert complete
            low = enumeration._coset_floor(f.order, packed, active, floor, stages)
            alive = low >= floor
            assert np.array_equal(alive, want >= floor)
            assert (low >= want).all()


@pytest.mark.parametrize("f,n,k", [(GF2, 70, 8), (GF3, 12, 7), (GF4H, 65, 4)])
def test_coset_scorer_on_every_candidate_and_a_subset(f, n, k, monkeypatch):
    # the search scores all of a batch's candidates at once (active None),
    # then a subset; through compactions of a small chunk both agree with
    # scoring the same positions listed explicitly, and neither writes to
    # the candidates
    monkeypatch.setattr(enumeration, "BZ_CHUNK", 5)
    rng = random.Random(n * 11 + k)
    C = oracles.random_code(f, n, k, rng)
    cands = coset_candidates(C, 40, rng)
    packed = enumeration.pack_matrix(f.order, cands)
    cand = packed.copy()
    chain = enumeration._coset_chain(C.field, C.generator)
    subset = np.flatnonzero(np.arange(len(cands)) % 3 != 1)
    listings = enumeration._CosetListings(f.order, k, chain, f.order**k, f.order**k)
    for floor in (1, 2, 3, 5, 8, 13, 21):
        def scored(active):
            stages, _ = listings(floor)
            return enumeration._coset_floor(f.order, cand, active, floor, stages)

        everyone = scored(np.arange(len(cands)))
        assert np.array_equal(scored(None), everyone)
        assert np.array_equal((scored(subset) >= floor), everyone[subset] >= floor)
    assert np.array_equal(cand, packed)  # scoring leaves the candidates alone


# ids skip the Euclidean GF(4) case that lcdkit no longer has
@pytest.mark.parametrize("f", [GF2, GF3, GF4H], ids=["f0", "f1", "f3"])
@pytest.mark.parametrize("n", [19, 63, 64, 65, 130])
def test_pivot_reduction_matches_symbol_arithmetic(f, n):
    # the byte-lookup reduction of every link of the chain against table
    # arithmetic: x - sum_i x[p_i] row_i, zero on the pivots, and x minus it
    # a codeword.  k above TABLE_ROWS gives two negated tables, and the
    # chain's pivots cover every column, so some sit in a word's last byte
    # and on both sides of a word boundary.  Batches: whole, and sliced out
    # of a wider buffer like the scorer's working copy
    rng = random.Random(n * 13 + f.order)
    k = min({2: 20, 3: 10, 4: 8}[f.order], n - 3)
    C = oracles.random_code(f, n, k, rng)
    X = oracles.random_matrix(f, 40, n, rng)
    packed = enumeration.pack_matrix(f.order, X)
    wide = np.zeros(packed.shape[:-1] + (50,), dtype=np.uint64)
    wide[..., 5:45] = packed
    R, basis_pivots, _ = oracles.table_rref(C.generator, f)
    add, neg = f.add_table, f.neg_table
    chain = enumeration._coset_chain(C.field, C.generator)
    matrices = enumeration._information_set_chain(f, C.generator)
    assert len(chain) == len(matrices)
    assert set().union(*(link.pivots for link in chain)) == set(range(n))
    for link, (mat, pivots, _deficit) in zip(chain, matrices):
        assert link.pivots == pivots and len(link.negated) == 2
        pivots = list(pivots)
        want = add[X, neg[oracles.table_matmul(f, X[:, pivots], mat)]]
        assert not want[:, pivots].any()
        coset_step = add[X, neg[want]]  # x minus the reduced word lies in C
        assert np.array_equal(oracles.table_matmul(f, coset_step[:, list(basis_pivots)], R), coset_step)
        for batch, rows in ((packed, slice(None)), (wide[..., 5:45], slice(None)), (packed[..., 3:20], slice(3, 20))):
            got = enumeration.unpack_matrix(enumeration._reduce(f.order, batch, link), n)
            assert not got[:, pivots].any()
            assert np.array_equal(got, want[rows])


@pytest.mark.parametrize("f,n,k", [(GF2, 70, 20), (GF3, 19, 6), (GF4H, 30, 12)])
def test_coset_chain_packs_each_matrix_once(f, n, k, monkeypatch):
    # one scaled pack per chain matrix serves its negated tables and its BZ levels
    C = oracles.random_code(f, n, k, random.Random(n + k))
    packed = []
    pack_scaled = enumeration._pack_scaled
    monkeypatch.setattr(enumeration, "_pack_scaled", lambda field, G: packed.append(G) or pack_scaled(field, G))
    chain = enumeration._coset_chain(f, C.generator)
    assert len(chain) >= 2 and len(packed) == len(chain)
    for link, G in zip(chain, packed):
        assert np.array_equal(link.scaled, pack_scaled(f, G))


@pytest.mark.parametrize("f", FIELDS)
@pytest.mark.parametrize("chunk", [2, enumeration.BZ_CHUNK])
def test_coset_scorer_weighs_long_vectors_exactly(f, chunk, monkeypatch):
    # n = 300: coset weights past 255 (a uint8 sum would wrap) are exact,
    # one word per pass (chunk 2) and words x candidates in one pass.  With
    # every codeword listed, a surviving candidate's minimum is its coset's
    monkeypatch.setattr(enumeration, "BZ_CHUNK", chunk)
    rng = random.Random(300 + f.order)
    G = np.zeros((2, 300), dtype=np.uint8)
    G[0, 0:4], G[1, 250:256] = 1, f.order - 1  # light rows keep the cosets heavy
    C = new_code(f, G)
    cands = oracles.random_matrix(f, 5, 300, rng)
    cands[0], cands[1] = f.order - 1, 0
    truth = oracles.coset_min_weights(C, cands)
    assert truth.max() >= 256
    packed = enumeration.pack_matrix(f.order, cands)
    chain = enumeration._coset_chain(C.field, C.generator)
    every = enumeration.pack_matrix(f.order, oracles.codeword_array(C))
    listings = enumeration._CosetListings(f.order, 2, chain, f.order**2, 0)
    for floor in (1, 200, int(truth.max()), int(truth.max()) + 1):
        stages, complete = listings(floor)
        low = enumeration._coset_floor(f.order, packed, None, floor, stages)
        assert complete and np.array_equal(low >= floor, truth >= floor)
        assert (low >= truth).all()
        low = enumeration._coset_floor(f.order, packed, None, floor, [(chain[0], [every])])
        alive = low >= floor
        assert np.array_equal(alive, truth >= floor) and np.array_equal(low[alive], truth[alive])
        assert (low >= truth).all()


def test_bz_order_schedule():
    # t_19_6_9 has deficits (0, 0, 0, 5): floor 8 needs level 2 of the first
    # three matrices, but the bound reaches 8 with levels 0..2, 0..2 and
    # 0..1 of them, 2 * (1 + 12 + 60) + 13 words; floor 1 with level 0 of
    # the first; floor 13 would need level 4 of three matrices, more than
    # the 3^6 words of the coset, so G_1 is scanned whole.  Completeness is
    # the common-level listing's (219 words at floor 8, 3 at floor 1) under
    # the cap.  Past the cap the listing is G_1's levels that fit: 1 + 12 +
    # 60 words under a cap of 218, the zero word under a cap of 2, no
    # matrix under 0.  The plan's word count is what a listing lists,
    # streamed or held
    from lcdkit import corpus

    C = corpus.resolve_code("t_19_6_9")
    chain = enumeration._coset_chain(C.field, C.generator)
    assert [link.deficit for link in chain] == [0, 0, 0, 5]
    cases = [(8, 3**6, chain[:3], 159, True), (1, 3**6, chain[:1], 1, True), (13, 3**6, chain[:1], 3**6, True)]
    cases += [(8, 219, chain[:3], 159, True), (8, 218, chain[:1], 73, False), (13, 3**6 - 1, chain[:1], 665, False)]
    cases += [(1, 2, chain[:1], 1, False), (1, 0, [], 0, False)]
    for floor, cap, links, words, complete in cases:
        listed, planned, listed_all = enumeration._bz_order(3, 6, chain, floor, cap)
        assert [link for link, _ in listed] == links and (planned, listed_all) == (words, complete)
        for hold in (0, 3**6):
            stages, _ = enumeration._CosetListings(3, 6, chain, cap, hold)(floor)
            assert sum(w.shape[-1] for _, batches in stages for w in batches) == words
    listed, _, _ = enumeration._bz_order(3, 6, chain, 8, 3**6)
    assert [(chain.index(link), W) for link, W in listed] == [(0, 2), (1, 2), (2, 1)]
    stages, _ = enumeration._CosetListings(3, 6, chain, 3**6, 3**6)(8)
    assert [sum(w.shape[-1] for w in batches) for _, batches in stages] == [73, 73, 13]


@pytest.mark.parametrize("chunk", [1, 3, 7])
@pytest.mark.parametrize("f,n,k", [(GF2, 40, 9), (GF3, 19, 6), (GF4H, 30, 5)])
def test_held_listing_matches_a_fresh_one(f, n, k, chunk, monkeypatch):
    # with BZ_CHUNK at 1, 3 and 7 a level's words come from several
    # _support_blocks buffers, each a view of one array that the next block
    # overwrites.  Floors are asked down, up and down again, so held arrays
    # are read as prefixes, listed again for a higher level and read after
    # other floors were listed; each listing must equal, word for word, the
    # one _level_words makes afresh for the floor's plan.  A listing past
    # the hold is streamed and leaves the held arrays alone, and no held
    # array exceeds the hold
    monkeypatch.setattr(enumeration, "BZ_CHUNK", chunk)
    q = f.order
    C = oracles.random_code(f, n, k, random.Random(n * 31 + chunk))
    chain = enumeration._coset_chain(C.field, C.generator)
    floors = list(range(1, min(n - k, 18) + 2))
    plans = {floor: enumeration._bz_order(q, k, chain, floor, q**k) for floor in floors}
    sizes = sorted({words for _, words, _ in plans.values()})
    hold = sizes[len(sizes) // 2]  # the larger plans stream
    listings = enumeration._CosetListings(q, k, chain, q**k, hold)
    # the fresh listing copies each batch as it comes
    fresh = {(link, W): np.concatenate([w.copy() for w in enumeration._level_words(q, k, link, W, {})], axis=-1)
             for listed, _, _ in plans.values() for link, W in listed}
    held = streamed = 0
    for floor in floors[::-1] + floors + floors[::-1]:
        listed, words, complete = plans[floor]
        before = dict(listings.held)
        stages, listed_all = listings(floor)
        assert listed_all == complete and [link for link, _ in stages] == [link for link, _ in listed]
        for (link, batches), (_, W) in zip(stages, listed):
            assert isinstance(batches, list) == (words <= hold)
            assert np.array_equal(np.concatenate([w.copy() for w in batches], axis=-1), fresh[link, W])
        if words > hold:
            streamed += 1
            assert listings.held.keys() == before.keys()
            assert all(listings.held[link] is array for link, array in before.items())
        else:
            held += 1
        assert all(array.shape[-1] <= hold for array in listings.held.values())
    assert held and streamed


@pytest.mark.parametrize("chunk", [1, 3, 7])
def test_search_with_held_listings_over_small_support_blocks(chunk, monkeypatch):
    # BZ_CHUNK at 1, 3 and 7 splits every level over several _support_blocks
    # buffers, and a first batch of 1 makes each later batch read the held
    # listings again.  With every listing held (the default largest batch)
    # or most streamed (a largest batch of 3 words), the search gives the
    # reference's answer in every field, by both methods, exhaustive and sampled
    monkeypatch.setattr(enumeration, "BZ_CHUNK", chunk)
    monkeypatch.setattr(construct, "FIRST_BATCH", 1)
    rng = random.Random(chunk)
    shapes = [(GF2, 10, k) for k in (3, 4, 5, 6)] + [(GF3, 8, k) for k in (3, 4, 5)] + [(GF4H, 6, k) for k in (2, 3, 4)]
    largest_batches = (construct.SEARCH_BATCH, 3)
    for f, n, k in shapes:
        C = oracles.random_lcd_code(f, n, k, rng)
        for largest in largest_batches:
            monkeypatch.setattr(construct, "SEARCH_BATCH", largest)
            for method in (M1, M2):
                check_against_reference(C, method, 10**9, 0, 10**9)
                check_against_reference(C, method, f.order ** (n - k) // 2, 7, 10**9)


@pytest.mark.parametrize("f,n,k", [(GF2, 70, 10), (GF2, 24, 12), (GF3, 19, 6), (GF4H, 30, 5)])
def test_bz_order_lists_no_more_than_the_common_level(f, n, k):
    # the per-matrix levels stop within the first common level W whose
    # bound reaches the floor, so they never list more words than every
    # matrix through level W, or the whole code when that is fewer; that
    # count, not the trimmed one, decides completeness under the cap
    q = f.order
    C = oracles.random_code(f, n, k, random.Random(n * 17 + k))
    chain = enumeration._coset_chain(C.field, C.generator)
    deficits = [link.deficit for link in chain]
    sizes = np.cumsum([math.comb(k, w) * (q - 1) ** w for w in range(k + 1)])
    for floor in range(1, n + 2):
        W = next((w for w in range(k) if enumeration._bz_lower(w, deficits) >= floor), k)
        common = min(sum(int(sizes[W]) for d in deficits if d <= W), q**k)
        _, words, complete = enumeration._bz_order(q, k, chain, floor, common)
        assert complete and words <= common
        assert not enumeration._bz_order(q, k, chain, floor, common - 1)[2]


@pytest.mark.parametrize(
    "method,vector,score,candidates",
    [(M1, "00000110201211202001", 8, 354_051), (M2, "00000000110100221202", 7, 354_780)],
)
def test_search_exhaustive_ternary_20_8_8(method, vector, score, candidates):
    # exhaustive over the 3^12 dual of the stored [20,8,8] code; the results
    # of scoring every candidate against all 3^8 codewords in message order
    from lcdkit import corpus
    from lcdkit.codes import format_vector

    C = corpus.resolve_code("t_20_8_8")
    res = search_extend(C, method, budget=3**13, seed=0)
    assert res.exhaustive and res.exact
    assert (format_vector(C.field, res.vector), res.min_weight, res.candidates) == (vector, score, candidates)


@pytest.mark.parametrize("q", [2, 3, 4])
@pytest.mark.parametrize("m", [1, 13, 70])
def test_draw_messages_matches_randrange(q, m, monkeypatch):
    # the bulk draw must give the digit stream of randrange(q), one call per
    # digit, also when it is split into chunks of a few words; --seed takes
    # negative seeds too
    for chunk in (construct.DRAW_CHUNK_WORDS, 3):
        monkeypatch.setattr(construct, "DRAW_CHUNK_WORDS", chunk)
        for seed in (0, 1, -5, 12345, 2**40 + 7):
            for count in (0, 1, 7, 300):
                rng = random.Random(seed)
                want = [[rng.randrange(q) for _ in range(m)] for _ in range(count)]
                got = _draw_messages(q, m, count, seed)
                assert got.dtype == np.uint8 and got.shape == (count, m)
                assert got.tolist() == want


@pytest.mark.parametrize("q,m", [(2, 63), (2, 64), (3, 39), (3, 40), (4, 31), (4, 32), (2, 150), (4, 150)])
def test_sorted_unique_matches_sorted_set(q, m):
    # the sorted distinct messages of _message_numbers, one int64 message
    # number per message while q^m <= 2^63, one key per table sorted with
    # lexsort beyond: both sides of the switch against the numbers (digit 0
    # on top, as the tables are built from the dual's rows reversed) of a
    # sorted set of tuples, on batches of 0, 1 and 2 messages, an all-equal
    # batch, one whose messages repeat or differ in a single digit, and
    # messages supported on the first two and last two digits, twice: a
    # number that overflows or drops digits merges or misorders some
    rng = np.random.default_rng(m * q)
    base = rng.integers(0, q, size=(40, m), dtype=np.uint8)
    near = base[:20].copy()
    near[np.arange(20), rng.integers(m, size=20)] = rng.integers(0, q, size=20)
    mixed = np.vstack([base, near, base[rng.integers(40, size=200)]])
    ends = np.zeros((q**4, m), dtype=np.uint8)
    ends[:, [0, 1, m - 2, m - 1]] = oracles.all_messages(q, 4)
    ends = np.vstack([ends, ends])
    batches = [base[:0], base[:1], base[:2], np.repeat(base[:1], 9, axis=0)]
    batches += [mixed[rng.permutation(len(mixed))], ends[rng.permutation(len(ends))]]
    T = q ** enumeration.TABLE_ROWS[q]
    tables = -(-m // enumeration.TABLE_ROWS[q])
    for M in batches:
        got = enumeration._message_numbers(q, M)
        want = [int("".join(map(str, t)), q) for t in sorted(set(map(tuple, M.tolist())))]
        if q**m <= 1 << 63:
            assert got.dtype == np.int64 and got.tolist() == want
        else:
            assert got.T.tolist() == [[w // T**c % T for c in range(tables)] for w in want]


@pytest.mark.parametrize("f", FIELDS)
@pytest.mark.parametrize("method", [M1, M2])
def test_sampled_candidates_match_oracle(f, method):
    # the sampled candidate stream against a plain reference: the digits of
    # randrange(q), a set of tuples of the distinct draws, sorted, their
    # codewords by table arithmetic and the weight condition; where q^m is
    # a little above the budget most draws repeat, and m on both sides of
    # the int64 switch (binary 63/64, ternary 39/40, GF(4) 31/32)
    q = f.order
    rng = random.Random(40 + q)
    small, switch = {2: (9, 63), 3: (6, 39), 4: (5, 31)}[q]
    for m, budget in [(small, q**small - 2), (small + 1, q**small), (switch, 300), (switch + 1, 300)]:
        C = oracles.random_code(f, m + 2, 2, rng)
        for seed in (0, 7):
            draw = random.Random(seed)
            msgs = sorted({tuple(draw.randrange(q) for _ in range(m)) for _ in range(budget)})
            words = oracles.table_matmul(f, np.array(msgs, dtype=np.uint8), dual(C).generator)
            want = [w for w in words.tolist() if weight_condition(f, method, sum(map(bool, w)))]
            _, count, batches = construct._candidates(C, weight_condition(f, method, np.arange(C.n + 1)), budget, seed, 1)
            got = [v for b in batches for v in enumeration.unpack_matrix(b, C.n).tolist()]
            assert count == len(want) and got == want


def test_shorten_to_lcd_postcondition_is_checked(monkeypatch):
    c = new_code(GF2, [[1, 1, 0], [0, 0, 1]])
    monkeypatch.setattr(construct, "is_lcd", lambda C: False)
    with pytest.raises(linalg.InvariantError):
        shorten_to_lcd(c)


def test_puncture_to_lcd_postcondition_is_checked(monkeypatch):
    rng = random.Random(103)
    while True:
        c = oracles.random_code(GF2, 8, 3, rng)
        if 1 <= hull(c).dim < oracles.brute_min_weight(c):
            break
    monkeypatch.setattr(construct, "puncture", lambda C, T: C)
    with pytest.raises(linalg.InvariantError):
        puncture_to_lcd(c)


@pytest.mark.parametrize("method", [M1, M2])
def test_extension_postcondition_is_checked(monkeypatch, method):
    # dual vectors that fail the weight test give non-LCD extensions once
    # the test is forced to pass
    c = new_code(GF2, [[1, 0, 0, 0], [0, 1, 0, 0]])
    bad = np.array([0, 0, 1, 0] if method == M1 else [0, 0, 1, 1], dtype=np.uint8)
    monkeypatch.setattr(construct, "weight_condition", lambda field, method, weight: True)
    with pytest.raises(linalg.InvariantError):
        (extend_m1 if method == M1 else extend_m2)(c, bad)


def test_decompose_even_weight_invariant_is_checked(monkeypatch):
    rng = random.Random(139)
    while True:
        c = oracles.random_lcd_code(GF2, 8, 3, rng)
        v = random_dual_vector(c, rng)
        if int((v != 0).sum()) % 2 == 0:
            break
    ext = extend_m1(c, v)
    odd = np.zeros(8, dtype=np.uint8)
    odd[0] = 1
    monkeypatch.setattr(construct, "project_split", lambda v, S: (v, odd))
    with pytest.raises(linalg.InvariantError):
        decompose_m1(ext)


OPTIMISED_CHECKS = """
import numpy as np
from lcdkit import construct, linalg
from lcdkit.codes import new_code
from lcdkit.gf import GF2

construct.weight_condition = lambda field, method, weight: True
try:
    construct.extend_m1(new_code(GF2, [[1, 0, 1], [0, 1, 1]]), np.ones(3, dtype=np.uint8))
    print("bad extension returned")
except linalg.InvariantError:
    print("invariant raised")
print("debug", __debug__)
"""


def test_checks_survive_python_O():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run([sys.executable, "-O", "-c", OPTIMISED_CHECKS], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split("\n")[:2] == ["invariant raised", "debug False"]


LAZY_RANDOM = """
import sys
from lcdkit import cli, construct, corpus

C = corpus.resolve_code("t_20_8_8")
construct.search_extend(C, construct.M1, budget=10**9)
print("numpy.random" in sys.modules)
construct.search_extend(C, construct.M1, budget=100)
print("numpy.random" in sys.modules)
"""


def test_numpy_random_is_loaded_by_sampled_draws_only():
    # numpy loads numpy.random on first use, at a cost of milliseconds, so
    # importing the CLI or running an exhaustive search must not touch it
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run([sys.executable, "-c", LAZY_RANDOM], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["False", "True"]


def test_no_assert_in_src():
    # python -O strips asserts, so no check a result depends on may be one
    import ast

    found = []
    for path in sorted((Path(__file__).resolve().parents[1] / "src" / "lcdkit").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


# public functions kept although no program code calls them yet
KEPT_WITHOUT_A_CALLER = {
    "format_record",  # the witness sweep of ROADMAP item 4 writes its records with it
    "replay_chain",  # the bound explanations of ROADMAP item 6 replay each chain they print
    "from_hermitian_lcd",  # public and documented: an EAQECC from a Hermitian LCD code
    "congruence_orthonormalize",  # acceptance criterion 8, and named in README's layout
}


def test_every_public_function_has_a_program_caller():
    # API that only tests call is dead code; a reference is module.name,
    # an import of the name, or a bare use inside its own module
    import ast

    root = Path(__file__).resolve().parents[1]
    src = root / "src" / "lcdkit"
    paths = [p for d in (src, root / "scripts", root / "perfbench") for p in sorted(d.glob("*.py"))]
    trees = {p: ast.parse(p.read_text(), filename=str(p)) for p in paths}
    refs = set()
    for path, tree in trees.items():
        imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
        alias = {a.asname or a.name: a.name.rsplit(".", 1)[-1] for node in imports for a in node.names}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                refs.add((alias.get(node.value.id, node.value.id), node.attr))
            elif isinstance(node, ast.ImportFrom):
                module = (node.module or "").rsplit(".", 1)[-1]
                refs.update((None if module in ("", "lcdkit") else module, a.name) for a in node.names)
            elif isinstance(node, ast.Name) and path.parent == src:
                refs.add((path.stem, node.id))
    unused = [
        f"{path.stem}.{node.name}"
        for path in sorted(src.glob("*.py"))
        for node in trees[path].body
        if isinstance(node, ast.FunctionDef)
        and not node.name.startswith("_")
        and node.name not in KEPT_WITHOUT_A_CALLER
        and not {(path.stem, node.name), (None, node.name)} & refs
    ]
    assert unused == [], f"public functions no program code calls: {unused}"
