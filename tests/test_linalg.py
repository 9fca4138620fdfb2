import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from lcdkit import linalg
from lcdkit.gf import GF2, GF3, GF4H
from lcdkit.linalg import (
    InvariantError,
    LinalgError,
    NotOrthonormalizable,
    congruence_orthonormalize,
    gram,
    kernel_image,
    matmul,
    nullspace,
    rank,
    rref,
)

FIELDS = [GF2, GF3, GF4H]
# case ids skip f2, the Euclidean GF(4) that lcdkit no longer has, so the
# GF(4) cases keep the names they have always had
FIELD_IDS = ["f0", "f1", "f3"]


def test_rref_identity():
    for f in FIELDS:
        ident = np.eye(4, dtype=np.uint8)
        res = rref(ident, f)
        assert np.array_equal(res.matrix, ident)
        assert res.pivots == (0, 1, 2, 3)
        assert res.rank == 4


def test_rref_dependent_rows_gf2():
    m = np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1]], dtype=np.uint8)
    assert rank(m, GF2) == 2


def test_rref_rank_matches_rowspace_enumeration():
    rng = random.Random(7)
    for _ in range(20):
        m = oracles.random_matrix(GF3, 6, 10, rng)
        size = oracles.brute_rowspace_size(GF3, m)
        r = rank(m, GF3)
        assert 3**r == size


def test_rref_idempotent_and_canonical():
    rng = random.Random(11)
    for f in FIELDS:
        for _ in range(50):
            m = oracles.random_matrix(f, rng.randrange(1, 6), rng.randrange(1, 9), rng)
            res = rref(m, f)
            again = rref(res.matrix, f)
            assert np.array_equal(res.matrix, again.matrix)
            # canonical: any row-shuffled generator of the same space reduces equally
            perm = list(range(m.shape[0]))
            rng.shuffle(perm)
            assert np.array_equal(rref(m[perm], f).matrix, res.matrix)


def test_nullspace_identity_empty():
    for f in FIELDS:
        ns = nullspace(np.eye(3, dtype=np.uint8), f)
        assert ns.shape == (0, 3)


def test_nullspace_repetition_gf2():
    ns = nullspace(np.array([[1, 1]], dtype=np.uint8), GF2)
    assert np.array_equal(ns, np.array([[1, 1]], dtype=np.uint8))


def test_nullspace_hermitian_pair_by_exhaustion():
    # solve 1*conj(y1) + w*conj(y2) = 0 over all 16 pairs, independently
    m = np.array([[1, 2]], dtype=np.uint8)
    expected = set()
    for y1, y2 in itertools.product(range(4), repeat=2):
        s = GF4H.add_table[GF4H.mul_table[1, GF4H.conj_table[y1]], GF4H.mul_table[2, GF4H.conj_table[y2]]]
        if s == 0:
            expected.add((y1, y2))
    ns = nullspace(m, GF4H)
    assert ns.shape == (1, 2)
    spanned = {tuple(int(v) for v in GF4H.mul_table[a, ns[0]]) for a in range(4)}
    assert spanned == expected


@pytest.mark.parametrize("f", FIELDS, ids=FIELD_IDS)
def test_nullspace_random_orthogonality(f):
    rng = random.Random(17)
    for _ in range(200):
        rows = rng.randrange(1, 9)
        cols = rng.randrange(rows, 13)
        m = oracles.random_matrix(f, rows, cols, rng)
        ns = nullspace(m, f)
        assert ns.shape[0] == cols - rank(m, f)
        if ns.shape[0]:
            pair = matmul(f, m, f.conj_table[ns].T)
            assert not pair.any()
            assert rank(ns, f) == ns.shape[0]
            assert np.array_equal(rref(ns, f).matrix, ns)


def test_gram_examples():
    for f in FIELDS:
        assert np.array_equal(gram(np.eye(3, dtype=np.uint8), f), np.eye(3, dtype=np.uint8))
    assert gram(np.array([[1, 1]], dtype=np.uint8), GF2)[0, 0] == 0


def test_gram_symmetry():
    rng = random.Random(19)
    for f in FIELDS:
        for _ in range(30):
            m = oracles.random_matrix(f, 4, 7, rng)
            g = gram(m, f)
            assert np.array_equal(g, f.conj_table[g].T)


@pytest.mark.parametrize("f", FIELDS, ids=FIELD_IDS)
def test_gram_rank_vs_intersection(f):
    # rank(gram) = k - dim(rowspace ∩ nullspace), intersection enumerated
    rng = random.Random(23)
    for _ in range(40):
        k = rng.randrange(1, 5)
        n = rng.randrange(k, 8)
        c = oracles.random_code(f, n, k, rng)
        words = oracles.codeword_array(c)
        mask = oracles.dual_member_mask(c, words)
        inter_size = int(mask.sum())  # q^dim
        dim = 0
        while f.order**dim != inter_size:
            dim += 1
        assert rank(gram(c.generator, f), f) == c.k - dim
        got = oracles.intersect_row_spaces(c.generator, nullspace(c.generator, f), f)
        assert got.shape[0] == dim


def test_congruence_orthonormalize_identity():
    for k in (0, 4):
        u = congruence_orthonormalize(np.eye(k, dtype=np.uint8))
        assert np.array_equal(u, np.eye(k, dtype=np.uint8)) and u.shape == (k, k)


def test_as_matrix_reads_a_vector_as_one_row():
    m = linalg.as_matrix(GF3, [1, 2, 0])
    assert m.shape == (1, 3) and np.array_equal(m, [[1, 2, 0]])


def test_congruence_orthonormalize_small_example():
    m = np.array([[1, 1], [1, 0]], dtype=np.uint8)
    u = congruence_orthonormalize(m)
    assert np.array_equal(matmul(GF2, matmul(GF2, u, m), u.T), np.eye(2, dtype=np.uint8))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: linalg.as_matrix(GF3, [[0, 1, 3]]), "entry 3 out of range for gf3"),
        (lambda: linalg.as_matrix(GF2, np.zeros((2, 2, 2), dtype=np.uint8)), "expected a 2-D matrix, got ndim=3"),
        (lambda: matmul(GF2, np.eye(2, 3, dtype=np.uint8), np.eye(2, dtype=np.uint8)), "shape mismatch"),
        (lambda: congruence_orthonormalize(np.array([[1, 1], [0, 1]], dtype=np.uint8)), "symmetric square"),
        (lambda: congruence_orthonormalize(np.ones((2, 2), dtype=np.uint8)), "singular"),
    ],
)
def test_malformed_input_raises_linalg_error(call, message):
    with pytest.raises(LinalgError, match=message):
        call()


def test_congruence_orthonormalize_alternating_rejected():
    with pytest.raises(NotOrthonormalizable):
        congruence_orthonormalize(np.array([[0, 1], [1, 0]], dtype=np.uint8))


def _all_invertible(k):
    for bits in itertools.product([0, 1], repeat=k * k):
        m = np.array(bits, dtype=np.uint8).reshape(k, k)
        if rank(m, GF2) == k:
            yield m


def test_congruence_exhaustive_small():
    # for k <= 3, compare against exhaustive search over invertible U
    for k in (1, 2, 3):
        for diag_bits in itertools.product([0, 1], repeat=k * (k + 1) // 2):
            m = np.zeros((k, k), dtype=np.uint8)
            it = iter(diag_bits)
            for i in range(k):
                for j in range(i, k):
                    m[i, j] = m[j, i] = next(it)
            if rank(m, GF2) != k:
                continue
            solvable = any(
                np.array_equal(matmul(GF2, matmul(GF2, u, m), u.T), np.eye(k, dtype=np.uint8))
                for u in _all_invertible(k)
            )
            if solvable:
                u = congruence_orthonormalize(m)
                assert np.array_equal(matmul(GF2, matmul(GF2, u, m), u.T), np.eye(k, dtype=np.uint8))
            else:
                with pytest.raises(NotOrthonormalizable):
                    congruence_orthonormalize(m)


def test_congruence_random_sweep():
    rng = random.Random(29)
    done = 0
    while done < 100:
        k = rng.randrange(1, 8)
        m = np.zeros((k, k), dtype=np.uint8)
        for i in range(k):
            for j in range(i, k):
                m[i, j] = m[j, i] = rng.randrange(2)
        if rank(m, GF2) != k or not m.diagonal().any():
            continue
        u = congruence_orthonormalize(m)
        assert rank(u, GF2) == k
        assert np.array_equal(matmul(GF2, matmul(GF2, u, m), u.T), np.eye(k, dtype=np.uint8))
        done += 1


def test_congruence_orthonormalize_postcondition_is_checked(monkeypatch):
    # the U M U^T = I check is an explicit error, so it also runs under python -O
    monkeypatch.setattr(linalg, "matmul", lambda f, a, b: np.zeros((a.shape[0], b.shape[1]), dtype=np.uint8))
    with pytest.raises(InvariantError):
        congruence_orthonormalize(np.eye(2, dtype=np.uint8))


# -- packed elimination and vectorised products against the table oracles ------

# widths around the 64-bit word boundary as well as tiny ones
WIDTHS = [0, 1, 2, 3, 5, 8, 12, 63, 64, 65, 130]


@st.composite
def field_matrices(draw, max_rows=9):
    """(field, matrix): random, sparse or rank-deficient, 0..max_rows rows."""
    f = draw(st.sampled_from(FIELDS))
    rows = draw(st.integers(0, max_rows))
    cols = draw(st.sampled_from(WIDTHS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["random", "sparse", "dependent"]))
    m = rng.integers(0, f.order, (rows, cols), dtype=np.uint8)
    if kind == "sparse":
        m[rng.random(m.shape) < 0.8] = 0
    elif kind == "dependent" and rows:
        base = rng.integers(0, f.order, (rng.integers(0, rows + 1), cols), dtype=np.uint8)
        coeffs = rng.integers(0, f.order, (rows, base.shape[0]), dtype=np.uint8)
        m = oracles.table_matmul(f, coeffs, base)
    return f, m


def check_rref_against_oracle(f, m):
    before = m.copy()
    res = rref(m, f)
    want, pivots, r = oracles.table_rref(m, f)
    assert res.matrix.dtype == np.uint8
    assert np.array_equal(res.matrix, want)
    assert res.pivots == pivots and res.rank == r
    assert np.array_equal(m, before)
    assert not np.shares_memory(res.matrix, m)
    assert rank(m, f) == r


def check_nullspace_against_oracle(f, m):
    before = m.copy()
    ns = nullspace(m, f)
    assert np.array_equal(m, before)
    cols = m.shape[1]
    assert ns.dtype == np.uint8
    assert ns.shape == (cols - oracles.table_rref(m, f)[2], cols)
    # every basis vector lies in the kernel, the rows are independent and the
    # basis is the canonical RREF one
    assert not oracles.table_matmul(f, m, f.conj_table[ns].T).any()
    want, _, r = oracles.table_rref(ns, f)
    assert r == ns.shape[0] and np.array_equal(ns, want)
    # byte for byte the oracle's kernel RREF of conj(M), as a fresh, writable,
    # C-contiguous array
    kernel = oracles.table_rref(oracles.table_nullspace(f.conj_table[m] if f.order == 4 else m, f), f)[0]
    assert ns.shape == kernel.shape and ns.tobytes() == kernel.tobytes()
    assert ns.flags.c_contiguous and ns.flags.writeable and ns.flags.owndata and not np.shares_memory(ns, m)


@settings(max_examples=300, deadline=None)
@given(field_matrices())
def test_rref_matches_table_oracle(fm):
    check_rref_against_oracle(*fm)


@settings(max_examples=200, deadline=None)
@given(field_matrices())
def test_nullspace_matches_table_oracle(fm):
    check_nullspace_against_oracle(*fm)


@pytest.mark.parametrize("f", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("rows,cols", [(0, 5), (4, 0), (0, 0), (1, 1), (7, 3), (5, 63), (5, 64), (5, 65), (9, 130)])
def test_elimination_edge_shapes_match_table_oracle(f, rows, cols):
    rng = random.Random(rows * 1000 + cols)
    full = oracles.random_matrix(f, rows, cols, rng).reshape(rows, cols)
    deficient = full.copy()
    if rows > 1:
        deficient[-1] = deficient[0]
        deficient[1:2, : cols // 2] = 0
    for m in (full, deficient):
        check_rref_against_oracle(f, m)
        check_nullspace_against_oracle(f, m)
        b = oracles.random_matrix(f, cols, 3, rng).reshape(cols, 3)
        got = matmul(f, m, b)
        assert got.dtype == np.uint8 and np.array_equal(got, oracles.table_matmul(f, m, b))


@pytest.mark.parametrize("f", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("n", [12, 63, 64, 65])
def test_kernel_image_edge_splits_match_table_oracle(f, n):
    """split = 0 is the RREF without its zero rows, split = n leaves a (0, 0)
    basis, and a rank-deficient left block A gives the RREF of (left kernel
    of A) times B, both computed by table arithmetic."""
    rng = random.Random(n * 10 + f.order)
    M = oracles.random_matrix(f, 8, n, rng).reshape(8, n)
    M[-1] = M[0]  # a zero row in the RREF
    before = M.copy()
    whole = rref(M, f)
    res = kernel_image(M, 0, f)
    assert res.matrix.dtype == np.uint8 and np.array_equal(res.matrix, whole.matrix[: whole.rank])
    assert res.pivots == whole.pivots and res.rank == whole.rank
    res = kernel_image(M, n, f)
    assert res.matrix.shape == (0, 0) and res.pivots == () and res.rank == 0
    assert np.array_equal(M, before)
    for split in (1, 5, n // 2, n - 1):
        base = oracles.random_matrix(f, 3, split, rng).reshape(3, split)
        M[:, :split] = oracles.table_matmul(f, oracles.random_matrix(f, 8, 3, rng).reshape(8, 3), base)
        before = M.copy()
        A, B = M[:, :split], M[:, split:]
        want, pivots, r = oracles.table_rref(oracles.table_matmul(f, oracles.table_nullspace(A.T, f), B), f)
        res = kernel_image(M, split, f)
        assert 0 < r and res.matrix.shape == (r, n - split) and np.array_equal(res.matrix, want[:r])
        assert res.pivots == pivots and res.rank == r
        assert np.array_equal(M, before)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(FIELDS), st.sampled_from([0, 1, 3, 9]), st.sampled_from(WIDTHS), st.sampled_from([0, 1, 4, 65]),
       st.integers(0, 2**32 - 1))
def test_matmul_matches_table_oracle(f, rows, inner, cols, seed):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, f.order, (rows, inner), dtype=np.uint8)
    b = rng.integers(0, f.order, (inner, cols), dtype=np.uint8)
    a0, b0 = a.copy(), b.copy()
    got = matmul(f, a, b)
    assert got.dtype == np.uint8
    assert np.array_equal(got, oracles.table_matmul(f, a, b))
    assert np.array_equal(a, a0) and np.array_equal(b, b0)


@pytest.mark.parametrize("f", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("inner", [62, 63, 64, 126, 127, 255, 256, 257])
def test_matmul_largest_sums_match_table_oracle(f, inner):
    # every entry q - 1 makes every inner sum as large as it gets, and the
    # widths sit on both sides of 63 and 256: a GF(3) block wider than 63
    # inner indices, or a GF(2) sum read past its parity bit, wraps wrongly
    a = np.full((3, inner), f.order - 1, dtype=np.uint8)
    b = np.full((inner, 2), f.order - 1, dtype=np.uint8)
    got = matmul(f, a, b)
    assert got.dtype == np.uint8 and np.array_equal(got, oracles.table_matmul(f, a, b))


@pytest.mark.parametrize("f", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("zeros", [(0,), (2,), (4,), (0, 4), (1, 2, 3), (0, 1, 2, 3, 4)])
def test_rank_of_singular_gram_matches_table_oracle(f, zeros):
    # G = L H with L unit lower triangular and the rows of H on disjoint
    # supports, each self-pairing d_j = 0 for j in zeros and 1 otherwise, so
    # gram(G) = L diag(d) conj(L)^T has no pivot exactly at the columns in zeros
    k = 5
    rng = random.Random(sum(zeros) * 10 + f.order)
    blocks = [[1] * (3 if f.order == 3 else 2) if j in zeros else [1] for j in range(k)]
    H = np.zeros((k, sum(map(len, blocks))), dtype=np.uint8)
    start = 0
    for j, b in enumerate(blocks):
        H[j, start : start + len(b)] = b
        start += len(b)
    L = np.tril(oracles.random_matrix(f, k, k, rng), -1) + np.eye(k, dtype=np.uint8)
    g = gram(oracles.table_matmul(f, L, H), f)
    _, pivots, r = oracles.table_rref(g, f)
    assert pivots == tuple(j for j in range(k) if j not in zeros)
    assert rank(g, f) == r == k - len(zeros)
    assert rank(g.T, f) == r
    assert rank(g[::-1], f) == r
