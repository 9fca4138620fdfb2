import random

import numpy as np
import pytest

import oracles
from lcdkit.enumeration import (
    BudgetExceeded,
    _add,
    _information_set_chain,
    _scan_worker,
    _weigh,
    add_packed,
    codeword_blocks,
    codeword_tables,
    codewords_of,
    min_weight_exhaustive,
    pack_matrix,
    pack_rows_scaled,
    packed_weight,
    unpack_matrix,
    weight_distribution_exhaustive,
)
from lcdkit.gf import GF2, GF3, GF4, GF4H
from lcdkit.linalg import rank

FLAVOURS = [GF2, GF3, GF4, GF4H]


def pack_vector(f, vec):
    """Python-int planes of one vector, as Brouwer-Zimmermann packs its rows."""
    return pack_rows_scaled(f, np.array([vec], dtype=np.uint8))[0][1]


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
        for _ in range(100):
            a = [rng.randrange(f.order) for _ in range(12)]
            b = [rng.randrange(f.order) for _ in range(12)]
            expect = [int(f.add(x, y)) for x, y in zip(a, b)]
            got = add_packed(f.order, pack_vector(f, a), pack_vector(f, b))
            assert got == pack_vector(f, expect)
        # the batch add, word against batch and batch against batch, past one word
        A, B = oracles.random_matrix(f, 40, 70, rng), oracles.random_matrix(f, 40, 70, rng)
        pa, pb = pack_matrix(f.order, A), pack_matrix(f.order, B)
        assert np.array_equal(unpack_matrix(_add(f.order, pa, pb), 70), f.add(A, B))
        assert np.array_equal(unpack_matrix(_add(f.order, pa, pb[..., :1]), 70), f.add(A, B[:1]))
        assert np.array_equal(_weigh(pa), (A != 0).sum(axis=1))


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
    full_best, full_counts = _scan_worker((q, tables, n, 0, total, True))
    if total <= 4**5:
        assert full_counts.tolist() == oracles.brute_weight_counts(c)
    for split in (1, q - 1, q**2, total // 3, total // 2 + 7, total - 1):
        b1, c1 = _scan_worker((q, tables, n, 0, split, True))
        b2, c2 = _scan_worker((q, tables, n, split, total, True))
        assert min(b1, b2) == full_best
        assert (c1 + c2).tolist() == full_counts.tolist()


@pytest.mark.parametrize("f", FLAVOURS)
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


@pytest.mark.parametrize("f", FLAVOURS)
def test_codewords_in_message_order(f):
    # the tables' codewords, both scanned as blocks and gathered from
    # message digits, are the oracle's codewords in message order
    rng = random.Random(67)
    for n, k in [(12, 3), (65, 4), (40, 16)]:
        c = oracles.random_code(f, n, k, rng)
        msgs = message_order(f, min(k, 6))
        G = c.generator[: msgs.shape[1]]
        tables = codeword_tables(f, G)
        expect = oracles.table_matmul(f, msgs, G)
        scanned = np.concatenate([w for _, w in codeword_blocks(f.order, tables, 0, len(msgs))], axis=-1)
        assert np.array_equal(unpack_matrix(scanned, n), expect)
        gathered = codewords_of(f.order, tables, msgs)
        assert np.array_equal(unpack_matrix(gathered, n), expect)
        tables = codeword_tables(f, c.generator)
        sample = np.array([[rng.randrange(f.order) for _ in range(k)] for _ in range(50)], dtype=np.uint8)
        gathered = codewords_of(f.order, tables, sample)
        assert np.array_equal(unpack_matrix(gathered, n), oracles.table_matmul(f, sample, c.generator))


@pytest.mark.parametrize("f", FLAVOURS)
@pytest.mark.parametrize("n", [63, 64, 65, 70])
def test_kernel_against_oracles_across_word_boundary(f, n):
    rng = random.Random(1000 + n)
    k = {2: 9, 3: 6, 4: 5}[f.order]
    c = oracles.random_code(f, n, k, rng)
    d = oracles.brute_min_weight(c)
    assert min_weight_exhaustive(f, c.generator) == d
    assert weight_distribution_exhaustive(f, c.generator) == oracles.brute_weight_counts(c)
    # a truncated scan covers the first max(cap, 2) codewords in message order
    words = oracles.table_matmul(f, message_order(f, k), c.generator)
    weights = (words != 0).sum(axis=1)
    for cap in (1, 5, f.order**3, f.order**k - 1):
        with pytest.raises(BudgetExceeded) as exc:
            min_weight_exhaustive(f, c.generator, cap=cap)
        assert exc.value.best_upper == int(weights[1 : max(cap, 2)].min())
        assert exc.value.best_upper >= d
        assert exc.value.steps == max(cap, 2)


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


def test_information_set_chain_disjoint_blocks():
    rng = random.Random(33)
    for f in (GF2, GF3, GF4H):
        c = oracles.random_code(f, 13, 5, rng)
        chain = _information_set_chain(f, c.generator)
        assert chain
        assert chain[0][1] == 0  # the first matrix is fully systematic
        for mat, deficit in chain:
            assert 0 <= deficit < c.k
            assert rank(mat, f) == c.k


def test_bz_agrees_at_moderate_scale():
    # wide enough for two full-rank systematic blocks, so the early-stop
    # lower bound actually drives termination
    rng = random.Random(47)
    for f, n, k in [(GF2, 30, 15), (GF3, 18, 7), (GF4H, 16, 6)]:
        c = oracles.random_code(f, n, k, rng)
        from lcdkit.enumeration import min_weight_bz

        assert min_weight_bz(f, c.generator) == min_weight_exhaustive(f, c.generator)


def test_caps_and_budget():
    rng = random.Random(35)
    c = oracles.random_code(GF2, 12, 9, rng)
    with pytest.raises(BudgetExceeded):
        weight_distribution_exhaustive(GF2, c.generator, cap=10)
    with pytest.raises(BudgetExceeded) as exc:
        min_weight_exhaustive(GF2, c.generator, cap=16)
    assert exc.value.best_upper is not None
    d = min_weight_exhaustive(GF2, c.generator)
    assert exc.value.best_upper >= d
