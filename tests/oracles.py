"""Brute-force reference implementations used as test oracles.

Everything here enumerates explicitly in the symbol domain (numpy uint8
arrays) and never calls the packed enumeration paths, the one-elimination
hull, shortening and LCD split, or the construction shortcuts it is used
to check.  The one exception is same_row_space, which compares codes
through linalg's RREF; test_linalg checks that RREF against table_rref.
full_sweep_propagate is bounds propagation without its semi-naive
shortcut: every firing of every rule derives from every cell.
"""

from __future__ import annotations

import itertools

import numpy as np

from lcdkit.bounds import BoundsTable, Provenance, rules_for
from lcdkit.codes import LinearCode, new_code
from lcdkit.gf import FieldSpec
from lcdkit.linalg import row_space_basis


def all_messages(q: int, k: int) -> np.ndarray:
    return np.array(list(itertools.product(range(q), repeat=k)), dtype=np.uint8).reshape(q**k, k)


def table_matmul(field: FieldSpec, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """(N x k) @ (k x n) with table arithmetic, vectorized over rows of A."""
    add, mul = field.add_table, field.mul_table
    acc = np.zeros((A.shape[0], B.shape[1]), dtype=np.uint8)
    for col in range(A.shape[1]):
        acc = add[acc, mul[A[:, col]][:, B[col]]]
    return acc


def table_rref(M: np.ndarray, field: FieldSpec, col_order=None):
    """Reduced row echelon form by table arithmetic on dense uint8 rows.

    Returns (matrix, pivots, rank) with the same pivot rule and canonical
    form that linalg.rref promises: pivots are taken in ``col_order`` (all
    columns left to right by default), each scaled to 1, and cleared from
    every other row.
    """
    work = np.array(M, dtype=np.uint8)
    rows, cols = work.shape
    add, mul, neg, inv = field.add_table, field.mul_table, field.neg_table, field.inv_table
    order = range(cols) if col_order is None else col_order
    r = 0
    pivots = []
    for c in order:
        pr = next((i for i in range(r, rows) if work[i, c]), None)
        if pr is None:
            continue
        if pr != r:
            work[[r, pr]] = work[[pr, r]]
        if work[r, c] != 1:
            work[r] = mul[inv[work[r, c]], work[r]]
        factors = neg[work[:, c]]
        factors[r] = 0
        work = add[work, mul[factors[:, None], work[r]]]  # clear column c from every other row
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return work, tuple(pivots), r


def table_nullspace(M: np.ndarray, field: FieldSpec) -> np.ndarray:
    """Basis of the plain right kernel {y : M y^T = 0}, one row per free column."""
    work, pivots, _ = table_rref(M, field)
    free = [c for c in range(M.shape[1]) if c not in pivots]
    basis = np.zeros((len(free), M.shape[1]), dtype=np.uint8)
    for b, j in enumerate(free):
        basis[b, j] = 1
        for i, p in enumerate(pivots):
            basis[b, p] = field.neg_table[work[i, j]]
    return basis


def table_gram(field: FieldSpec, G: np.ndarray) -> np.ndarray:
    """<row_i(G), row_j(G)>, conjugating the right operand over GF(4)."""
    return table_matmul(field, G, field.conj_table[G].T)


def kernel_hull(C: LinearCode) -> tuple[np.ndarray, int, tuple[int, ...]]:
    """(RREF basis, dimension, pivot set) of C ∩ C^perp as {xG : x Gram = 0}:
    the left kernel of the Gram matrix times G, then reduced."""
    kernel = table_nullspace(table_gram(C.field, C.generator).T, C.field)
    basis, _, r = table_rref(table_matmul(C.field, kernel, C.generator), C.field)
    basis = basis[:r]
    return basis, r, tuple(int(np.nonzero(row)[0][0]) for row in basis)


def kernel_shorten(C: LinearCode, T) -> np.ndarray | None:
    """RREF generator of the shortening on T, from the messages whose
    codewords vanish on T; None when only the zero codeword does."""
    keep = [j for j in range(C.n) if j not in T]
    msgs = table_nullspace(C.generator[:, list(T)].T, C.field)
    if not len(msgs):
        return None
    basis, _, r = table_rref(table_matmul(C.field, msgs, C.generator)[:, keep], C.field)
    return basis[:r]


def stacked_split(v: np.ndarray, C: LinearCode) -> tuple[np.ndarray, np.ndarray]:
    """(c, h) with v = c + h, c in C and h in C^perp, for an LCD code C: one
    solve of x [G; D] = v, with D a basis of the dual (h pairs to zero with
    G iff conj(G) h^T = 0).  ValueError for any other code, whatever v is."""
    F, G, n = C.field, C.generator, C.n
    stacked = np.vstack([G, table_nullspace(F.conj_table[G], F)])
    work, pivots, _ = table_rref(np.concatenate([stacked.T, v.reshape(n, 1)], axis=1), F)
    if pivots[:n] != tuple(range(n)):  # [G; D] has rank below n
        raise ValueError("C + C^perp does not span the ambient space: C is not LCD")
    x = np.zeros(n, dtype=np.uint8)
    for i, p in enumerate(pivots):
        x[p] = work[i, n]
    c = table_matmul(F, x[: C.k].reshape(1, -1), G)[0]
    return c, F.add_table[v, F.neg_table[c]]


def stacked_decompose_m1(C: LinearCode):
    """(i, shortening generator, x) of method 1's inverse on an odd-like
    binary LCD code, or None: the first coordinate i whose shortening is an
    LCD [n-1, k-1] code, and x the dual part of the RREF row with pivot i
    (coordinate i deleted) split against that shortening."""
    F, G, k = C.field, C.generator, C.k
    for i in range(C.n):
        if not G[:, i].any():
            continue
        S = kernel_shorten(C, (i,))
        if S is None or len(S) != k - 1 or table_rref(table_gram(F, S), F)[2] != k - 1:
            continue
        u = table_rref(G, F, col_order=[i] + [j for j in range(C.n) if j != i])[0][0]
        _, x = stacked_split(np.delete(u, i), LinearCode(F, S))
        return i, S, x
    return None


def intersect_row_spaces(A: np.ndarray, B: np.ndarray, field: FieldSpec) -> np.ndarray:
    """RREF basis of rowspace(A) ∩ rowspace(B) (Zassenhaus block trick), by table arithmetic."""
    n = A.shape[1] if A.size else B.shape[1]
    if A.size == 0 or B.size == 0:
        return np.zeros((0, n), dtype=np.uint8)
    top = np.concatenate([A, A], axis=1)
    bot = np.concatenate([B, np.zeros_like(B)], axis=1)
    work, _, r = table_rref(np.concatenate([top, bot], axis=0), field)
    inter = np.array([row[n:] for row in work[:r] if not row[:n].any()], dtype=np.uint8).reshape(-1, n)
    basis, _, r = table_rref(inter, field)
    return basis[:r]


def codeword_array(C: LinearCode) -> np.ndarray:
    """All q^k codewords, one per row."""
    msgs = all_messages(C.field.order, C.k)
    return table_matmul(C.field, msgs, C.generator)


def message_order_codewords(C: LinearCode) -> np.ndarray:
    """All q^k codewords in message order: row sum_j d_j q^j is sum_j d_j row_j."""
    msgs = all_messages(C.field.order, C.k)[:, ::-1]
    return table_matmul(C.field, msgs, C.generator)


def coset_min_weights(C: LinearCode, cands: np.ndarray) -> np.ndarray:
    """Minimum weight of x + c over the codewords c of C, for every candidate row x."""
    add = C.field.add_table
    best = np.full(len(cands), C.n + 1, dtype=np.int64)
    for c in codeword_array(C):
        np.minimum(best, (add[cands, c] != 0).sum(axis=1), out=best)
    return best


def loop_bz_level(field: FieldSpec, mat: np.ndarray, w: int):
    """Yield the level-w codewords of one systematic matrix one at a time,
    by table arithmetic: w-row supports in combinations order and, per
    support, the scalars of rows 2..w in product order (row 1 scaled by 1).
    """
    add, mul = field.add_table, field.mul_table
    for support in itertools.combinations(range(mat.shape[0]), w):
        for scalars in itertools.product(range(1, field.order), repeat=w - 1):
            cw = mat[support[0]]
            for row, a in zip(support[1:], scalars):
                cw = add[cw, mul[a, mat[row]]]
            yield cw


def loop_bz_min_weight(field: FieldSpec, G: np.ndarray, cap: int | None = None) -> int:
    """Brouwer-Zimmermann one codeword at a time.

    Level w takes every matrix of enumeration's chain in order and its
    codewords in loop_bz_level order.  Past ``cap`` codewords it raises
    BudgetExceeded at codeword cap + 1, carrying the best weight seen up
    to it.
    """
    from lcdkit.enumeration import DEFAULT_CAPS, BudgetExceeded, _information_set_chain

    k, n = G.shape
    if k == 0:
        raise ValueError("the zero code has no nonzero codewords")
    cap = DEFAULT_CAPS[field.order] if cap is None else cap
    chain = _information_set_chain(field, G)
    best = n + 1
    work = 0
    for w in range(1, k + 1):
        for mat, _pivots, _deficit in chain:
            for cw in loop_bz_level(field, mat, w):
                ww = int(np.count_nonzero(cw))
                if ww and ww < best:
                    best = ww
                work += 1
                if work > cap:
                    raise BudgetExceeded(best if best <= n else None, work)
        if sum(max(0, w + 1 - deficit) for _mat, _pivots, deficit in chain) >= best:
            return best
    return best


def same_row_space(A: LinearCode, B: LinearCode) -> bool:
    """Code equality, generators aside: one field and one canonical RREF.

    Comparing codeword sets would be independent of linalg, but makes the
    property suites several times slower."""
    return A.field == B.field and np.array_equal(
        row_space_basis(A.generator, A.field), row_space_basis(B.generator, B.field)
    )


def codeword_set(C: LinearCode) -> set[tuple[int, ...]]:
    return set(map(tuple, codeword_array(C).tolist()))


def pairings_with_generator(C: LinearCode, vectors: np.ndarray) -> np.ndarray:
    """<row_i(G), v> for every generator row and every given vector."""
    conj = C.field.conj_table
    return table_matmul(C.field, C.generator, conj[vectors].T)


def dual_member_mask(C: LinearCode, vectors: np.ndarray) -> np.ndarray:
    """Which of the given vectors pair to zero with every generator row."""
    return ~pairings_with_generator(C, vectors).any(axis=0)


def brute_hull_set(C: LinearCode) -> set[tuple[int, ...]]:
    """C ∩ C^perp by filtering the enumerated codewords on orthogonality."""
    words = codeword_array(C)
    mask = dual_member_mask(C, words)
    return set(map(tuple, words[mask].tolist()))


def brute_min_weight(C: LinearCode) -> int:
    words = codeword_array(C)
    weights = (words != 0).sum(axis=1)
    return int(weights[weights > 0].min())


def brute_weight_counts(C: LinearCode) -> list[int]:
    words = codeword_array(C)
    weights = (words != 0).sum(axis=1)
    return np.bincount(weights, minlength=C.n + 1).tolist()


def brute_rowspace_size(field: FieldSpec, M: np.ndarray) -> int:
    """Number of distinct vectors in the row space (q^rank)."""
    msgs = all_messages(field.order, M.shape[0])
    return len(set(map(tuple, table_matmul(field, msgs, M).tolist())))


def random_matrix(field: FieldSpec, rows: int, cols: int, rng) -> np.ndarray:
    return np.array([[rng.randrange(field.order) for _ in range(cols)] for _ in range(rows)], dtype=np.uint8)


def random_code(field: FieldSpec, n: int, k: int, rng) -> LinearCode:
    from lcdkit import linalg

    if k > n:
        raise ValueError(f"no full-rank {k}x{n} generator exists")
    while True:
        m = random_matrix(field, k, n, rng)
        if linalg.rank(m, field) == k:
            return new_code(field, m)


def random_lcd_code(field: FieldSpec, n: int, k: int, rng) -> LinearCode:
    from lcdkit.codes import is_lcd

    while True:
        c = random_code(field, n, k, rng)
        if is_lcd(c):
            return c


def rref_generator_bitrows(n: int, k: int):
    """All binary [n,k] codes, one canonical RREF generator each, rows as ints."""
    for pivots in itertools.combinations(range(n), k):
        free = [(i, j) for i in range(k) for j in range(pivots[i] + 1, n) if j not in pivots]
        base = [1 << pivots[i] for i in range(k)]
        for bits in range(1 << len(free)):
            rows = base[:]
            bb, idx = bits, 0
            while bb:
                if bb & 1:
                    i, j = free[idx]
                    rows[i] |= 1 << j
                bb >>= 1
                idx += 1
            yield rows


def _bitrows_gram_is_nonsingular(rows, k):
    gram = []
    for i in range(k):
        g = 0
        for j in range(k):
            if (rows[i] & rows[j]).bit_count() & 1:
                g |= 1 << j
        gram.append(g)
    work = gram[:]
    rank = 0
    for col in range(k):
        piv = next((r for r in range(rank, k) if (work[r] >> col) & 1), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        for r in range(k):
            if r != rank and ((work[r] >> col) & 1):
                work[r] ^= work[rank]
        rank += 1
    return rank == k


def bitrows_min_weight(rows, k, n):
    cw = 0
    dmin = n + 1
    for m in range(1, 1 << k):
        cw ^= rows[(m & -m).bit_length() - 1]
        w = cw.bit_count()
        if w < dmin:
            dmin = w
    return dmin


def true_binary_lcd_table(n_max: int) -> dict[tuple[int, int], int]:
    """Largest minimum weight over all binary LCD [n,k] codes, by full
    enumeration of canonical RREF generators."""
    truth = {}
    for n in range(1, n_max + 1):
        for k in range(1, n + 1):
            best = 0
            for rows in rref_generator_bitrows(n, k):
                if not _bitrows_gram_is_nonsingular(rows, k):
                    continue
                d = bitrows_min_weight(rows, k, n)
                if d > best:
                    best = d
            truth[(n, k)] = best
    return truth


def _as_strong(side: str, value: int, than: int) -> bool:
    return value >= than if side == "lower" else value <= than


def _full_sweep_shots(rule, table: BoundsTable, box) -> list:
    """[(n, k, value, sources)] for every bound ``rule`` derives from any cell inside ``box``."""
    n_lo, n_hi, k_lo, k_hi = box
    out = []
    for (n, k), c in table.cells.items():
        b = getattr(c, rule.side)
        tn, tk = n + rule.target[0], k + rule.target[1]
        if b is None or not (n_lo <= tn <= n_hi and k_lo <= tk <= k_hi and 1 <= tk <= tn):
            continue
        sources = [(n, k, rule.side, b.value)]
        for en, ek in rule.extra:
            e = table.cell(n + en, k + ek)
            e = None if e is None else getattr(e, rule.side)
            if e is None:
                break
            sources.append((n + en, k + ek, rule.side, e.value))
        else:
            value = rule.derive(n, k, *(s[3] for s in sources))
            if value is not None:
                out.append((tn, tk, value, tuple(sources)))
    return out


def full_sweep_propagate(table: BoundsTable, box=None) -> int:
    """bounds.propagate as one loop: each round fires every rule on every cell
    and applies each derived value that is stronger than its target's bound,
    until a round changes nothing; returns the number of updates."""
    if not table.cells:
        return 0
    box = table.bounding_box() if box is None else box
    total = 0
    changed = True
    while changed:
        changed = False
        for rule in rules_for(table.field_name):
            for n, k, value, sources in _full_sweep_shots(rule, table, box):
                now = table.cell(n, k)
                now = None if now is None else getattr(now, rule.side)
                if now is not None and _as_strong(rule.side, now.value, value):
                    continue
                if table.improve(n, k, rule.side, value, Provenance("rule", rule.id, sources)):
                    changed = True
                    total += 1
    return total
