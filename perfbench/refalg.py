"""Small-field arithmetic the benchmark uses to make its inputs and check answers.

Written apart from lcdkit on purpose: the input generator and the answer
checks share no code with the program they measure.  Element encoding
matches lcdkit's code files: GF(4) index bits are polynomial coefficients
over GF(2) with w^2 = w + 1, so 2 = w, 3 = w^2 and addition is XOR.  The
Hermitian flavor pairs x with y^2 (conjugation swaps w and w^2).
"""

from __future__ import annotations

import itertools

import numpy as np


class Field:
    def __init__(self, q: int, hermitian: bool = False):
        self.q = q
        self.hermitian = hermitian
        self.name = "gf4h" if hermitian else f"gf{q}"
        if q == 4:
            add = np.array([[a ^ b for b in range(4)] for a in range(4)])
            # w * w = w^2, w * w^2 = 1, w^2 * w^2 = w
            mul = np.array([[0, 0, 0, 0], [0, 1, 2, 3], [0, 2, 3, 1], [0, 3, 1, 2]])
        else:
            add = np.array([[(a + b) % q for b in range(q)] for a in range(q)])
            mul = np.array([[(a * b) % q for b in range(q)] for a in range(q)])
        self.add = add.astype(np.uint8)
        self.mul = mul.astype(np.uint8)
        self.neg = np.array([int(np.nonzero(self.add[a] == 0)[0][0]) for a in range(q)], dtype=np.uint8)
        self.inv = np.array([0] + [int(np.nonzero(self.mul[a] == 1)[0][0]) for a in range(1, q)], dtype=np.uint8)
        self.conj = np.array([0, 1, 3, 2] if hermitian else range(q), dtype=np.uint8)

    def __repr__(self):
        return f"Field({self.name})"


GF2 = Field(2)
GF3 = Field(3)
GF4H = Field(4, hermitian=True)
FIELDS = {f.name: f for f in (GF2, GF3, GF4H)}


def _sum_axis(F: Field, prods: np.ndarray, axis: int) -> np.ndarray:
    if F.q == 3:
        return (prods.astype(np.int64).sum(axis=axis) % 3).astype(np.uint8)
    return np.bitwise_xor.reduce(prods, axis=axis).astype(np.uint8)


def matmul(F: Field, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    if A.shape[0] == 0 or B.shape[1] == 0 or A.shape[1] == 0:
        return np.zeros((A.shape[0], B.shape[1]), dtype=np.uint8)
    return _sum_axis(F, F.mul[A[:, :, None], B[None, :, :]], axis=1)


def pairings(F: Field, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """<row_i(A), row_j(B)> under the field's inner product."""
    return matmul(F, A, F.conj[B].T)


def echelon(F: Field, M: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form, pivots chosen left to right."""
    W = np.array(M, dtype=np.uint8)
    rows, cols = W.shape
    r = 0
    pivots = []
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(W[r:, c])[0]
        if len(nz) == 0:
            continue
        p = r + int(nz[0])
        if p != r:
            W[[r, p]] = W[[p, r]]
        W[r] = F.mul[F.inv[W[r, c]], W[r]]
        for i in np.nonzero(W[:, c])[0]:
            if i != r:
                W[i] = F.add[W[i], F.mul[F.neg[W[i, c]], W[r]]]
        pivots.append(c)
        r += 1
    return W[:r], pivots


def rank(F: Field, M: np.ndarray) -> int:
    if M.size == 0:
        return 0
    return len(echelon(F, M)[1])


def gram(F: Field, G: np.ndarray) -> np.ndarray:
    return pairings(F, G, G)


def is_lcd(F: Field, G: np.ndarray) -> bool:
    return G.shape[0] == 0 or rank(F, gram(F, G)) == G.shape[0]


def hull_dim(F: Field, G: np.ndarray) -> int:
    return G.shape[0] - rank(F, gram(F, G))


def dual_basis(F: Field, G: np.ndarray) -> np.ndarray:
    """Basis of {y : G conj(y)^T = 0}, the right kernel of conj(G)."""
    k, n = G.shape
    R, piv = echelon(F, F.conj[G])
    free = [j for j in range(n) if j not in piv]
    B = np.zeros((len(free), n), dtype=np.uint8)
    for bi, j in enumerate(free):
        B[bi, j] = 1
        for ri, c in enumerate(piv):
            B[bi, c] = F.neg[R[ri, j]]
    return B


def same_row_space(F: Field, A: np.ndarray, B: np.ndarray) -> bool:
    ra = rank(F, A)
    return ra == rank(F, B) == rank(F, np.vstack([A, B]))


def messages(q: int, k: int) -> np.ndarray:
    return np.array(list(itertools.product(range(q), repeat=k)), dtype=np.uint8).reshape(-1, k)


def codewords(F: Field, G: np.ndarray) -> np.ndarray:
    """All q^k codewords, one per row (small codes only)."""
    return matmul(F, messages(F.q, G.shape[0]), G)


def weights(words: np.ndarray) -> np.ndarray:
    return np.count_nonzero(words, axis=1)


def weight_distribution(F: Field, G: np.ndarray) -> list[int]:
    return np.bincount(weights(codewords(F, G)), minlength=G.shape[1] + 1).tolist()


def min_weight(F: Field, G: np.ndarray) -> int:
    w = weights(codewords(F, G))
    return int(w[w > 0].min())


def weight_condition(F: Field, method: str, w: int) -> bool:
    """The paper's test: extension method 1 or 2 by a dual vector of weight w is LCD."""
    if F.q == 3:
        return w % 3 != (2 if method == "m1" else 0)
    return w % 2 == (0 if method == "m1" else 1)


def extend_m1_matrix(G: np.ndarray, x: np.ndarray) -> np.ndarray:
    k, n = G.shape
    out = np.zeros((k + 1, n + 1), dtype=np.uint8)
    out[0, 0] = 1
    out[0, 1:] = x
    out[1:, 1:] = G
    return out


def pack_words(words: np.ndarray) -> np.ndarray:
    """Rows of symbols as uint64 words, 2 bits per symbol (n <= 32)."""
    n = words.shape[1]
    packed = np.zeros(len(words), dtype=np.uint64)
    for j in range(n):
        packed |= words[:, j].astype(np.uint64) << np.uint64(2 * j)
    return packed


def coset_min_weights(F: Field, cands: np.ndarray, code_words: np.ndarray) -> np.ndarray:
    """min over c in C of wt(x + c), for each candidate row x (GF(2), GF(4) only)."""
    if F.q == 3:
        raise ValueError("packed coset scan needs characteristic 2")
    lo = np.uint64(0x5555555555555555)
    xs = pack_words(cands)
    best = np.full(len(cands), 1 << 30, dtype=np.int64)
    for c in pack_words(code_words):
        s = xs ^ c
        np.minimum(best, np.bitwise_count((s | (s >> np.uint64(1))) & lo), out=best)
    return best
