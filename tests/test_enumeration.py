import itertools
import random
import tracemalloc
from math import comb
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from lcdkit import enumeration
from lcdkit.enumeration import (
    BudgetExceeded,
    _add,
    _combinations,
    _distance,
    _information_set_chain,
    _scale,
    _scan_jobs,
    _support_blocks,
    _weigh,
    codeword_blocks,
    codeword_tables,
    codewords_at,
    macwilliams_transform,
    min_weight_bz,
    min_weight_exhaustive,
    pack_matrix,
    packed_weight,
    scan_plan,
    unpack_matrix,
    weight_distribution_exhaustive,
)
from lcdkit.gf import GF2, GF3, GF4H
from lcdkit.linalg import InvariantError, _pack_rows, rank, row_space_basis

FIELDS = [GF2, GF3, GF4H]
# case ids skip f2, the Euclidean GF(4) that lcdkit no longer has, so the
# GF(4) cases keep the names they have always had
FIELD_IDS = ["f0", "f1", "f3"]


def pack_vector(f, vec):
    """Python-int planes of one vector, as linalg's elimination packs its rows."""
    return tuple(plane[0] for plane in _pack_rows(f.order, np.array([vec], dtype=np.uint8)))


def message_order(f, k):
    """All messages, message index sum_j d_j q^j ascending (row 0 fastest)."""
    return oracles.all_messages(f.order, k)[:, ::-1]


def test_pack_vector_weight():
    assert packed_weight(pack_vector(GF2, [1, 0, 1, 1])) == 3
    assert packed_weight(pack_vector(GF3, [0, 1, 2, 2, 0])) == 3
    assert packed_weight(pack_vector(GF4H, [0, 1, 2, 3])) == 3


def test_add_packed_matches_field_add():
    rng = random.Random(21)
    for f in (GF2, GF3, GF4H):
        # the batch add, word against batch and batch against batch, past one word
        A, B = oracles.random_matrix(f, 40, 70, rng), oracles.random_matrix(f, 40, 70, rng)
        pa, pb = pack_matrix(f.order, A), pack_matrix(f.order, B)
        assert np.array_equal(unpack_matrix(_add(f.order, pa, pb), 70), f.add_table[A, B])
        assert np.array_equal(unpack_matrix(_add(f.order, pa, pb[..., :1]), 70), f.add_table[A, B[:1]])
        assert np.array_equal(_weigh(pa), (A != 0).sum(axis=1))


@pytest.mark.parametrize("f", FIELDS, ids=FIELD_IDS)
def test_packed_scale_symbols_and_distance(f):
    # multiples, symbol reads and distances against the symbol tables, past
    # one word and on a sliced batch like the scorer's working copy
    rng = random.Random(41)
    A, B = oracles.random_matrix(f, 30, 70, rng), oracles.random_matrix(f, 30, 70, rng)
    pa, pb = pack_matrix(f.order, A), pack_matrix(f.order, B)
    for a in range(1, f.order):
        assert np.array_equal(unpack_matrix(_scale(f.order, a, pa), 70), f.mul_table[a][A])
    assert np.array_equal(unpack_matrix(pa, 70), A)
    assert np.array_equal(unpack_matrix(pa[..., 3:20], 70), A[3:20])
    assert np.array_equal(_distance(pa, pb), (A != B).sum(axis=1))
    pairs = _distance(pa[..., :, None], pb[..., None, :5])
    assert np.array_equal(pairs, (A[:, None] != B[None, :5]).sum(axis=2))


@pytest.mark.parametrize("f", FIELDS, ids=FIELD_IDS)
def test_long_vector_weights_are_exact(f):
    # n = 300 spans five words per plane: the per-word counts are summed in
    # uint16, where a uint8 sum of the all-nonzero vector would wrap to 44
    rng = random.Random(43)
    n = 300
    A = oracles.random_matrix(f, 6, n, rng)
    A[0], A[1], A[2] = f.order - 1, 0, 1
    A[3] = np.arange(n) < 257  # weight 257, one past 256
    pa, zero = pack_matrix(f.order, A), pack_matrix(f.order, A[1:2])
    assert np.array_equal(_weigh(pa), (A != 0).sum(axis=1))
    assert _weigh(pa)[0] == n and _weigh(pa).dtype == np.uint16
    assert np.array_equal(_distance(pa, zero), (A != 0).sum(axis=1))
    assert np.array_equal(_distance(pa[..., :1], pa[..., 2:3]), [n if f.order > 2 else 0])
    pairs = _distance(pa[..., None, :], pa[..., :, None])  # words x candidates, as the coset scorer lays them out
    assert np.array_equal(pairs, (A[:, None] != A[None, :]).sum(axis=2))


@pytest.mark.parametrize("f,k,n", [(GF2, 9, 14), (GF3, 6, 11), (GF4H, 5, 10), (GF2, 18, 70), (GF3, 11, 66)])
def test_partitioned_scan_consistency(f, k, n):
    # a scan split at any message index must agree with a full scan,
    # including split points inside a block and, for the wide codes,
    # ranges that span more than one codeword table
    rng = random.Random(9)
    c = oracles.random_code(f, n, k, rng)
    q = f.order
    total = q**k
    tables = codeword_tables(f, c.generator)
    full_best, full_counts = _scan_jobs((q, tables, n, [(0, total, 1)], True))
    if total <= 4**5:
        assert full_counts.tolist() == oracles.brute_weight_counts(c)
    for split in (1, q - 1, q**2, total // 3, total // 2 + 7, total - 1):
        b1, c1 = _scan_jobs((q, tables, n, [(0, split, 1)], True))
        b2, c2 = _scan_jobs((q, tables, n, [(split, total, 1)], True))
        assert min(b1, b2) == full_best
        assert (c1 + c2).tolist() == full_counts.tolist()


@pytest.mark.parametrize("f", FIELDS, ids=FIELD_IDS)
def test_pack_round_trip_across_word_boundary(f):
    rng = random.Random(61)
    for n in (1, 63, 64, 65, 130):
        M = oracles.random_matrix(f, 7, n, rng)
        planes = pack_matrix(f.order, M)
        assert planes.shape == (1 if f.order == 2 else 2, -(-n // 64), 7)
        assert np.array_equal(unpack_matrix(planes, n), M)
        for row in M[:2]:
            planes = tuple(sum(((int(v) >> p) & 1) << j for j, v in enumerate(row)) for p in range(len(planes)))
            assert pack_vector(f, row) == planes
        assert [packed_weight(pack_vector(f, row)) for row in M] == (M != 0).sum(axis=1).tolist()


@pytest.mark.parametrize("f", FIELDS, ids=FIELD_IDS)
def test_codewords_in_message_order(f):
    # the tables' codewords, both scanned as blocks and gathered by message
    # number, are the oracle's codewords in message order; numbers past the
    # first table are gathered from every table, also as per-table indices
    rng = random.Random(67)
    q = f.order
    T = q ** enumeration.TABLE_ROWS[q]
    for n, k in [(12, 3), (65, 4), (40, 16), (65, 17)]:
        c = oracles.random_code(f, n, k, rng)
        msgs = message_order(f, min(k, 6))
        G = c.generator[: msgs.shape[1]]
        tables = codeword_tables(f, G)
        expect = oracles.table_matmul(f, msgs, G)
        scanned = np.concatenate([w for _, w in codeword_blocks(q, tables, 0, len(msgs))], axis=-1)
        assert np.array_equal(unpack_matrix(scanned, n), expect)
        gathered = codewords_at(q, tables, np.arange(len(msgs), dtype=np.int64))
        assert np.array_equal(unpack_matrix(gathered, n), expect)
        tables = codeword_tables(f, c.generator)
        numbers = [rng.randrange(q**k) for _ in range(50)] + [0, q**k - 1, min(T, q**k) - 1, min(T, q**k - 1)]
        digits = np.array([[x // q**j % q for j in range(k)] for x in numbers], dtype=np.uint8)
        expect = oracles.table_matmul(f, digits, c.generator)
        gathered = codewords_at(q, tables, np.array(numbers, dtype=np.int64))
        assert np.array_equal(unpack_matrix(gathered, n), expect)
        indices = np.array([[x // T**t % T for x in numbers] for t in range(len(tables))], dtype=np.int64)
        assert np.array_equal(unpack_matrix(codewords_at(q, tables, indices), n), expect)


@pytest.mark.parametrize("f", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("n", [63, 64, 65, 70])
def test_kernel_against_oracles_across_word_boundary(f, n):
    rng = random.Random(1000 + n)
    k = {2: 9, 3: 6, 4: 5}[f.order]
    c = oracles.random_code(f, n, k, rng)
    d = oracles.brute_min_weight(c)
    assert min_weight_exhaustive(f, c.generator) == d
    assert weight_distribution_exhaustive(f, c.generator) == oracles.brute_weight_counts(c)
    # past the cap nothing is scanned
    for cap in (1, 5, f.order**3, f.order**k - 1):
        with pytest.raises(BudgetExceeded) as exc:
            min_weight_exhaustive(f, c.generator, cap=cap)
        assert (exc.value.best_upper, exc.value.steps) == (None, 0)


@pytest.mark.parametrize("f", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_table_builder_and_one_table_scan_against_oracles(f, extra):
    # k = TABLE_ROWS - 1 and TABLE_ROWS fit one table, built from a low and
    # a high sub-table, which a scan hands out in slices; TABLE_ROWS + 1
    # needs a second table of one row
    q, L = f.order, enumeration.TABLE_ROWS[f.order]
    k = L + extra
    total = q**k
    rng = random.Random(500 + 10 * q + extra)
    c = oracles.random_code(f, 2 * k + 3, k, rng)
    words = oracles.message_order_codewords(c)
    tables = codeword_tables(f, c.generator)
    assert [t.shape[-1] for t in tables] == ([q**L, q] if extra == 1 else [total])
    blocks = list(codeword_blocks(q, tables, 0, total))
    if extra < 1:
        assert [first for first, _ in blocks] == [0]
        assert np.shares_memory(blocks[0][1], tables[0])
    scanned = np.concatenate([w for _, w in blocks], axis=-1)
    assert np.array_equal(unpack_matrix(scanned, c.n), words)
    start, stop = total // 3 + 1, total - q - 1  # a range inside the table(s)
    inner = np.concatenate([w for _, w in codeword_blocks(q, tables, start, stop)], axis=-1)
    assert np.array_equal(unpack_matrix(inner, c.n), words[start:stop])
    d = oracles.brute_min_weight(c)
    assert min_weight_exhaustive(f, c.generator) == d
    for cap in (1, q + 1, total // 2, total - 1, total, total + 1):
        if cap >= total:
            assert min_weight_exhaustive(f, c.generator, cap=cap) == d
            continue
        # past the cap nothing is scanned
        with pytest.raises(BudgetExceeded) as exc:
            min_weight_exhaustive(f, c.generator, cap=cap)
        assert (exc.value.best_upper, exc.value.steps) == (None, 0)


def test_worker_pool_matches_serial_scan(monkeypatch):
    # force the fork pool on small scans; the split must not change results
    import lcdkit.enumeration as enumeration

    rng = random.Random(71)
    monkeypatch.setattr(enumeration, "PARALLEL_THRESHOLD", 1)
    for f, n, k in [(GF2, 70, 17), (GF3, 20, 10), (GF4H, 66, 8)]:
        c = oracles.random_code(f, n, k, rng)
        serial = (min_weight_exhaustive(f, c.generator), weight_distribution_exhaustive(f, c.generator))
        for threads in (2, 3):
            assert min_weight_exhaustive(f, c.generator, threads=threads) == serial[0]
            assert weight_distribution_exhaustive(f, c.generator, threads=threads) == serial[1]


def test_pool_failure_falls_back_to_a_serial_scan(monkeypatch):
    # a fork pool that cannot start (OSError) leaves the split runs to this
    # process; the answers are those of one worker
    rng = random.Random(73)
    cases = [(f, oracles.random_code(f, n, k, rng)) for f, n, k in [(GF2, 40, 17), (GF3, 20, 10), (GF4H, 30, 8)]]
    serial = [(min_weight_exhaustive(f, c.generator), weight_distribution_exhaustive(f, c.generator)) for f, c in cases]

    def no_pool(method):
        raise OSError("no processes")

    monkeypatch.setattr(enumeration, "PARALLEL_THRESHOLD", 1)
    monkeypatch.setattr(enumeration.multiprocessing, "get_context", no_pool)
    for (f, c), want in zip(cases, serial):
        got = min_weight_exhaustive(f, c.generator, threads=2), weight_distribution_exhaustive(f, c.generator, threads=3)
        assert got == want


def test_pack_matrix_rejects_lengths_past_uint16_weights():
    assert pack_matrix(2, np.zeros((1, (1 << 15) - 1), dtype=np.uint8)).shape == (1, 512, 1)
    with pytest.raises(ValueError, match="too long"):
        pack_matrix(2, np.zeros((1, 1 << 15), dtype=np.uint8))


def test_projective_ranges_hold_one_message_per_class():
    # the first range is every message below q^low; past it, each nonzero
    # message has exactly one of its q - 1 multiples in the ranges
    for f in (GF2, GF3, GF4H):
        q = f.order
        for k in range(5):
            digits = message_order(f, k)
            powers = q ** np.arange(k)
            multiples = np.stack([f.mul_table[a][digits] @ powers for a in range(1, q)])
            for low in range(k + 1):
                ranges = enumeration._projective_ranges(q, k, low)
                picked = np.concatenate([np.arange(lo, hi) for lo, hi in ranges])
                assert np.array_equal(picked, np.unique(picked))
                assert picked[: q**low].tolist() == list(range(q**low))
                hits = np.isin(multiples, picked).sum(axis=0)
                assert (hits[q**low :] == 1).all()


def test_split_runs_tile_the_jobs():
    # runs tile the (start, stop, multiplicity) ranges in order, cut at
    # multiples of T past a range's start, with block counts within one
    jobs = [(0, 10, 1), (10, 20, 2), (30, 61, 2), (90, 180, 2)]
    messages = [(m, mult) for start, stop, mult in jobs for m in range(start, stop)]
    starts = [start for start, _, _ in jobs]
    for T in (1, 3, 10, 100):
        for parts in range(1, 6):
            runs = enumeration._split(jobs, parts, T)
            assert 1 <= len(runs) <= parts and all(runs)
            pieces = [piece for run in runs for piece in run]
            assert [(m, mult) for start, stop, mult in pieces for m in range(start, stop)] == messages
            owner = [max(s for s in starts if s <= start) for start, _, _ in pieces]
            assert all((start - s) % T == 0 for (start, _, _), s in zip(pieces, owner))
            blocks = [sum(-(-(stop - start) // T) for start, stop, _ in run) for run in runs]
            assert max(blocks) - min(blocks) <= 1


@pytest.mark.parametrize("f", [GF2, GF3, GF4H])
@pytest.mark.parametrize("extra", [1, 2, 3])
def test_projective_scan_matches_message_order_scan(f, extra, monkeypatch):
    # past the first table, GF(3) and GF(4) scans weigh one message per
    # projective class and count it q - 1 times (GF(2) weighs them all); the
    # minimum and counts must equal a message-order scan of all q^k messages,
    # the brute-force counts of the shortest code where they are few, and be
    # the same for 1 to 3 workers; n = 64, 65 and 130 take one, two and three
    # words per plane.  Ranges that start or end inside a block must weigh
    # exactly their own messages, in the sign of each high word
    q = f.order
    k = enumeration.TABLE_ROWS[q] + extra
    T = q ** enumeration.TABLE_ROWS[q]
    rng = random.Random(900 + 10 * q + extra)
    monkeypatch.setattr(enumeration, "PARALLEL_THRESHOLD", 1)
    for n in (2 * k + 3, 64, 65, 130):
        c = oracles.random_code(f, n, k, rng)
        tables = codeword_tables(f, c.generator)
        best, counts = _scan_jobs((q, tables, n, [(0, q**k, 1)], True))
        if n == 2 * k + 3 and q**k <= 1 << 16:
            assert counts.tolist() == oracles.brute_weight_counts(c)
            weights = (oracles.message_order_codewords(c) != 0).sum(axis=1)
            for start, stop in [(1, 2), (T - 3, T + 5), (T + 1, q**k - 1)]:
                got_best, got = _scan_jobs((q, tables, n, [(start, stop, 1)], True))
                assert got_best == weights[start:stop].min()
                assert got.tolist() == np.bincount(weights[start:stop], minlength=n + 1).tolist()
        for threads in (1, 2, 3):
            assert min_weight_exhaustive(f, c.generator, threads=threads) == best
            assert weight_distribution_exhaustive(f, c.generator, threads=threads) == counts.tolist()


# (n, k, route) on both sides of each field's crossover; n - k = 0 and 1 at
# the smallest size that takes the dual route
ROUTE_CASES = {
    2: [(30, 16, "direct"), (35, 18, "direct"), (36, 20, "dual"), (17, 17, "dual"), (18, 17, "dual")],
    3: [(16, 9, "direct"), (20, 10, "direct"), (19, 10, "dual"), (10, 10, "dual"), (11, 10, "dual")],
    4: [(14, 8, "direct"), (18, 9, "direct"), (17, 9, "dual"), (9, 9, "dual"), (10, 9, "dual")],
}


@pytest.mark.parametrize("f", FIELDS, ids=FIELD_IDS)
def test_dual_route_matches_direct_scan(f, monkeypatch):
    # min weight and counts through the dual equal a direct scan of the
    # code itself, for 1 to 3 workers (the pool forced on every scan)
    q = f.order
    rng = random.Random(1100 + 10 * q + len(f.name))
    monkeypatch.setattr(enumeration, "PARALLEL_THRESHOLD", 1)
    for n, k, route in ROUTE_CASES[q]:
        assert scan_plan(q, n, k)[0] == route
        G = oracles.random_code(f, n, k, rng).generator
        best, counts = enumeration._scan(f, G, True, 1)
        for threads in (1, 2, 3):
            assert min_weight_exhaustive(f, G, threads=threads) == best
            assert weight_distribution_exhaustive(f, G, threads=threads) == counts.tolist()


@pytest.mark.parametrize("f", FIELDS, ids=FIELD_IDS)
def test_dual_route_against_oracles(f, monkeypatch):
    # small codes forced onto the dual route, n - k = 0 and 1 included
    q = f.order
    rng = random.Random(1200 + 10 * q + len(f.name))
    monkeypatch.setitem(enumeration.DUAL_MIN_CODEWORDS, q, 1)
    for n, k in [(2, 2), (5, 5), (6, 5), (8, 6), (9, 7), (11, 8)]:
        if q**k > 4**7:
            continue
        c = oracles.random_code(f, n, k, rng)
        assert scan_plan(q, n, k) == ("dual", q ** (n - k))
        for threads in (1, 2, 3):
            assert min_weight_exhaustive(f, c.generator, threads=threads) == oracles.brute_min_weight(c)
            assert weight_distribution_exhaustive(f, c.generator, threads=threads) == oracles.brute_weight_counts(c)


def test_scan_plan_counts_weighed_codewords():
    # a one-table scan weighs every word; past it, the first table and one
    # word per projective class (_projective_ranges), of the side scanned
    for q in (2, 3, 4):
        L = enumeration.TABLE_ROWS[q]

        def weighed(m):
            ranges = enumeration._projective_ranges(q, m, L) if m > L else [(0, q**m)]
            return sum(hi - lo for lo, hi in ranges)

        for m in range(1, L + 4):
            assert scan_plan(q, 3 * m, m) == ("direct", weighed(m))
            past = q ** (2 * m) >= enumeration.DUAL_MIN_CODEWORDS[q]
            assert scan_plan(q, 3 * m, 2 * m) == (("dual", weighed(m)) if past else ("direct", weighed(2 * m)))


@pytest.mark.parametrize("f", FIELDS, ids=FIELD_IDS)
def test_dual_route_budget_counts_the_code(f):
    # the cap counts the code's q^k words, also when its dual's would fit
    q = f.order
    rng = random.Random(1300 + q)
    k = {2: 17, 3: 10, 4: 9}[q]
    G = oracles.random_code(f, k + 1, k, rng).generator
    assert scan_plan(q, k + 1, k)[0] == "dual"
    for cap in (1, q, q**k - 1):
        for fn in (min_weight_exhaustive, weight_distribution_exhaustive):
            with pytest.raises(BudgetExceeded) as exc:
                fn(f, G, cap=cap)
            assert (exc.value.best_upper, exc.value.steps) == (None, 0)
    assert min_weight_exhaustive(f, G, cap=q**k) == enumeration._scan(f, G, False, 1)[0]
    # past the default cap, with a dual of q words
    big = {2: 27, 3: 17, 4: 14}[q]
    G = oracles.random_code(f, big + 1, big, rng).generator
    assert q**big > enumeration.DEFAULT_CAPS[q] and scan_plan(q, big + 1, big)[0] == "dual"
    for fn in (min_weight_exhaustive, weight_distribution_exhaustive):
        with pytest.raises(BudgetExceeded) as exc:
            fn(f, G)
        assert (exc.value.best_upper, exc.value.steps) == (None, 0)


@pytest.mark.parametrize("f", FIELDS, ids=FIELD_IDS)
def test_corrupted_dual_counts_raise(f, monkeypatch):
    # one dual count off by one, or missing, fails the transform's checks
    q = f.order
    monkeypatch.setitem(enumeration.DUAL_MIN_CODEWORDS, q, 1)
    n, k = 9, 6
    G = oracles.random_code(f, n, k, random.Random(1400 + q)).generator
    real_scan = enumeration._scan
    dual_counts = real_scan(f, enumeration.nullspace(G, f), True, 1)[1]
    assert macwilliams_transform(q, n, n - k, dual_counts.tolist()) == real_scan(f, G, True, 1)[1].tolist()
    for j in np.flatnonzero(dual_counts).tolist():
        for corrupt in ("plus one", "minus one", "missing"):
            bad = dual_counts.copy()
            bad[j] = {"plus one": bad[j] + 1, "minus one": bad[j] - 1, "missing": 0}[corrupt]
            monkeypatch.setattr(enumeration, "_scan", lambda *args, bad=bad: (0, bad))
            for fn in (min_weight_exhaustive, weight_distribution_exhaustive):
                with pytest.raises(InvariantError):
                    fn(f, G)
            with pytest.raises(InvariantError):
                macwilliams_transform(q, n, n - k, bad.tolist())


def test_information_set_chain_disjoint_blocks():
    rng = random.Random(33)
    for f in (GF2, GF3, GF4H):
        c = oracles.random_code(f, 13, 5, rng)
        chain = _information_set_chain(f, c.generator)
        assert chain
        assert chain[0][2] == 0  # the first matrix is fully systematic
        for mat, _pivots, deficit in chain:
            assert 0 <= deficit < c.k
            assert rank(mat, f) == c.k


def test_information_set_chain_pivots():
    # each matrix generates the code and is the identity on its pivots, and
    # its deficit counts the pivots an earlier matrix already used; k > n / 2
    # forces deficits
    rng = random.Random(37)
    for f, n, k in [(GF2, 16, 10), (GF3, 12, 7), (GF4H, 10, 6), (GF2, 70, 40), (GF3, 66, 9)]:
        c = oracles.random_code(f, n, k, rng)
        chain = _information_set_chain(f, c.generator)
        used = set()
        for mat, pivots, deficit in chain:
            assert np.array_equal(mat[:, list(pivots)], np.eye(k, dtype=np.uint8))
            assert np.array_equal(row_space_basis(mat, f), row_space_basis(c.generator, f))
            assert deficit == len(used.intersection(pivots))
            used.update(pivots)
        assert 2 * k <= n or any(deficit for *_, deficit in chain)


@pytest.mark.parametrize(
    "f, n, k",
    [(GF2, 64, 9), (GF3, 65, 12), (GF4H, 130, 9), (GF2, 130, 70), (GF3, 64, 40), (GF4H, 65, 33), (GF2, 13, 5)],
)
def test_information_set_chain_matches_table_oracle(f, n, k):
    # each link is the RREF scanning the unused columns, in order, then the
    # used ones; the chain stops when that RREF has no pivot left to use
    G = oracles.random_code(f, n, k, random.Random(n * 100 + k)).generator
    remaining, used = set(range(n)), []
    for mat, pivots, deficit in _information_set_chain(f, G):
        want, want_pivots, _ = oracles.table_rref(G, f, col_order=sorted(remaining) + used)
        assert np.array_equal(mat, want) and pivots == want_pivots
        new_piv = sorted(remaining.intersection(pivots))
        assert new_piv and deficit == k - len(new_piv)
        remaining.difference_update(new_piv)
        used += new_piv
    assert not remaining or not remaining.intersection(oracles.table_rref(G, f, col_order=sorted(remaining) + used)[1])


def test_bz_agrees_at_moderate_scale():
    # wide enough for two full-rank systematic blocks, so the early-stop
    # lower bound actually drives termination
    rng = random.Random(47)
    for f, n, k in [(GF2, 30, 15), (GF3, 18, 7), (GF4H, 16, 6)]:
        c = oracles.random_code(f, n, k, rng)
        assert min_weight_bz(f, c.generator) == min_weight_exhaustive(f, c.generator)


def test_caps_and_budget():
    rng = random.Random(35)
    c = oracles.random_code(GF2, 12, 9, rng)
    with pytest.raises(BudgetExceeded):
        weight_distribution_exhaustive(GF2, c.generator, cap=10)
    with pytest.raises(BudgetExceeded) as exc:
        min_weight_exhaustive(GF2, c.generator, cap=16)
    assert (exc.value.best_upper, exc.value.steps) == (None, 0)
    assert min_weight_exhaustive(GF2, c.generator, cap=2**9) == oracles.brute_min_weight(c)


def test_support_blocks_cover_combinations_in_order():
    for m in range(9):
        for r in range(m + 1):
            assert _combinations(m, r).T.tolist() == [list(c) for c in itertools.combinations(range(m), r)]
    for k in range(1, 11):
        for w in range(1, k + 1):
            for limit in (1, 2, 3, 5, 17, 10**6):
                # blocks share one buffer, so copy each before asking for the next
                blocks = [b.copy() for b in _support_blocks(k, w, limit)]
                assert all(0 < b.shape[1] <= limit for b in blocks)
                assert np.hstack(blocks).T.tolist() == [list(c) for c in itertools.combinations(range(k), w)]


@pytest.mark.parametrize("f", FIELDS, ids=FIELD_IDS)
def test_scaled_pack_layout_and_constant_block_index(f):
    # column a * k + j of the scaled pack is a * row_j, so a block of b rows
    # holds a * row_(lo+j) at column a * b + j and its gather index depends
    # only on q and b
    q = f.order
    G = oracles.random_matrix(f, 9, 70, random.Random(89 + q))
    words = unpack_matrix(enumeration._pack_scaled(f, G), 70)
    assert words.shape == (q * 9, 70)
    for j in range(9):
        for a in range(q):
            assert np.array_equal(words[a * 9 + j], f.mul_table[a, G[j]])
    for b in range(1, -(-enumeration.TABLE_ROWS[q] // 2) + 1):
        index = enumeration._row_index(q, b)
        digits = oracles.all_messages(q, b)[:, ::-1].T  # digit j of message m, low digit first
        assert np.array_equal(index, digits * b + np.arange(b)[:, None])
        assert not index.flags.writeable
        with pytest.raises(ValueError):
            index[0, 0] = 1
        # a block inside the pack and one that is all of it
        for lo, k in ((9 - b, 9), (0, b)):
            table = unpack_matrix(enumeration._sub_table(q, enumeration._pack_scaled(f, G[:k]), k, lo, b), 70)
            assert np.array_equal(table, oracles.table_matmul(f, digits.T.astype(np.uint8), G[lo : lo + b]))


@pytest.mark.parametrize("f", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("chunk", [1, 2, 5, 64, enumeration.BZ_CHUNK])
def test_bz_level_batches_follow_loop_order(f, chunk):
    # every level's weights, batch after batch, in the loop's codeword order,
    # with batches split between supports and inside a support's scalars
    c = oracles.random_code(f, 14, 6, random.Random(83))
    mat = _information_set_chain(f, c.generator)[0][0]
    scaled = enumeration._pack_scaled(f, mat)
    with mock.patch.object(enumeration, "BZ_CHUNK", chunk):
        for w in range(1, 7):
            batches = [enumeration._weigh(b) for b in enumeration._bz_level(f.order, 6, w, scaled)]
            assert all(0 < b.size <= chunk for b in batches)
            want = [np.count_nonzero(cw) for cw in oracles.loop_bz_level(f, mat, w)]
            assert np.concatenate(batches).tolist() == want


@pytest.mark.parametrize("f", [GF2, GF3, GF4H])
def test_bz_level_words_are_nonzero_on_w_pivots(f):
    # a chain matrix is the identity on its pivots, so each level-w word has
    # w nonzero pivot symbols and weight >= w: a batch holds no zero word
    c = oracles.random_code(f, 16, 9, random.Random(87 + f.order))
    for mat, pivots, _deficit in _information_set_chain(f, c.generator):
        scaled = enumeration._pack_scaled(f, mat)
        for w in range(1, 10):
            for batch in enumeration._bz_level(f.order, 9, w, scaled):
                assert (_weigh(batch) >= w).all()
                assert ((unpack_matrix(batch, 16)[:, list(pivots)] != 0).sum(axis=1) == w).all()


def _bz_outcome(fn, field, G, cap):
    try:
        return ("d", fn(field, G, cap=cap))
    except BudgetExceeded as exc:
        return ("budget", exc.best_upper, exc.steps)


@st.composite
def bz_cases(draw):
    f = draw(st.sampled_from(FIELDS))
    k = draw(st.integers(1, 8))
    n = draw(st.integers(k, 22))
    c = oracles.random_code(f, n, k, random.Random(draw(st.integers(0, 2**32 - 1))))
    # codewords counted by the end of each level
    chain = len(_information_set_chain(f, c.generator))
    ends = list(itertools.accumulate(chain * comb(k, w) * (f.order - 1) ** (w - 1) for w in range(1, k + 1)))
    level = draw(st.integers(0, k - 1))
    start = ends[level - 1] if level else 0
    kind = draw(st.sampled_from(["default", "-1", "0", "1", "2", "mid-level", "level boundary"]))
    if kind == "default":
        cap = None
    elif kind == "mid-level" and ends[level] - start > 1:
        cap = draw(st.integers(start + 1, ends[level] - 1))
    elif kind in ("mid-level", "level boundary"):
        cap = ends[level]
    else:
        cap = int(kind)
    # small batches split levels by support and single supports by scalars
    chunk = draw(st.sampled_from([1, 2, 3, 7, 64, enumeration.BZ_CHUNK]))
    return f, c.generator, cap, chunk


@settings(max_examples=300, deadline=None)
@given(bz_cases())
def test_bz_matches_loop_oracle(case):
    f, G, cap, chunk = case
    with mock.patch.object(enumeration, "BZ_CHUNK", chunk):
        got = _bz_outcome(min_weight_bz, f, G, cap)
    assert got == _bz_outcome(oracles.loop_bz_min_weight, f, G, cap)


def test_bz_refuses_the_zero_code():
    with pytest.raises(ValueError, match="^the zero code has no nonzero codewords$"):
        min_weight_bz(GF2, np.zeros((0, 5), dtype=np.uint8))


def test_bz_budget_exit_on_wide_code_stays_small():
    # level 4 of a k = 60 code has C(60, 4) = 487,635 supports per matrix; the
    # cap falls inside it, and only bounded batches of it may be built
    c = oracles.random_code(GF2, 120, 60, random.Random(60))
    cap = 2 * 10**5
    below = len(_information_set_chain(GF2, c.generator)) * sum(comb(60, w) for w in (1, 2, 3))
    assert below < cap < below + comb(60, 4)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded) as exc:
            min_weight_bz(GF2, c.generator, cap=cap)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert exc.value.steps == cap + 1
    assert exc.value.best_upper is not None
    assert peak < 8 << 20
