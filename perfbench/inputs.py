"""Seeded input generator: the benchmark's own, so the program sees only matrices.

Every generator takes a numpy Generator made by ``rng_for(seed, tag)``;
the same seed and tag give the same matrices on every machine.  Codes are
rejection-sampled: a draw is kept only when it has full rank and the asked
property (LCD or not).  The Brouwer-Zimmermann codes are built without
rejection, so their cost is the same for every seed.
"""

from __future__ import annotations

import zlib

import numpy as np

import refalg
from refalg import Field

MAX_DRAWS = 10_000


def rng_for(seed: int, tag: str) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, zlib.crc32(tag.encode())]))


def _draw(rng: np.random.Generator, F: Field, k: int, n: int, accept) -> np.ndarray:
    for _ in range(MAX_DRAWS):
        G = rng.integers(0, F.q, size=(k, n), dtype=np.uint8)
        if refalg.rank(F, G) == k and accept(G):
            return G
    raise RuntimeError(f"no {F.name} [{n},{k}] draw met the condition in {MAX_DRAWS} tries")


def full_rank(rng, F: Field, k: int, n: int) -> np.ndarray:
    return _draw(rng, F, k, n, lambda G: True)


def lcd(rng, F: Field, k: int, n: int) -> np.ndarray:
    return _draw(rng, F, k, n, lambda G: refalg.is_lcd(F, G))


def non_lcd(rng, F: Field, k: int, n: int) -> np.ndarray:
    return _draw(rng, F, k, n, lambda G: not refalg.is_lcd(F, G))


def invertible(rng, F: Field, k: int) -> np.ndarray:
    """Random invertible k x k matrix: unit lower- times upper-triangular, columns shuffled.

    Invertible by construction, so its cost does not depend on the seed.
    """
    L = np.tril(rng.integers(0, F.q, size=(k, k), dtype=np.uint8), -1)
    U = np.triu(rng.integers(0, F.q, size=(k, k), dtype=np.uint8), 1)
    np.fill_diagonal(L, 1)
    np.fill_diagonal(U, rng.integers(1, F.q, size=k, dtype=np.uint8))
    return refalg.matmul(F, L, U)[:, rng.permutation(k)]


def invertible_with_row(rng, F: Field, c: np.ndarray) -> np.ndarray:
    """Random invertible matrix whose first row is the nonzero vector ``c``.

    Writes c = t R in a random invertible R and swaps c in for a row of R
    with t_j != 0, which keeps the rows independent.
    """
    k = len(c)
    R = invertible(rng, F, k)
    R_inv = refalg.echelon(F, np.hstack([R, np.eye(k, dtype=np.uint8)]))[0][:, k:]
    t = refalg.matmul(F, c.reshape(1, -1), R_inv)[0]
    j = int(np.nonzero(t)[0][0])
    return np.vstack([c.reshape(1, -1), np.delete(R, j, axis=0)])


def with_information_blocks(rng, F: Field, k: int, n: int, plant: tuple[int, ...]) -> np.ndarray:
    """Random [n,k] code whose consecutive k-column blocks are information sets.

    Brouwer-Zimmermann work depends on how many disjoint information sets
    the code has and on the information weight at which it first meets a
    minimum-weight word.  Row 0 is a planted codeword with ``plant[b]``
    nonzero symbols in block b (one weight per block), so every seed meets
    a word of that weight at the same level, and the work of one seed is
    close to that of any other.  Each block is built invertible with the
    planted word as its first row, and the columns after the last block
    are uniform, so no draw is rejected.
    """
    blocks = [list(range(s, s + k)) for s in range(0, n - k + 1, k)]
    assert len(plant) == len(blocks), "one planted weight per block"
    G = rng.integers(0, F.q, size=(k, n), dtype=np.uint8)
    G[0] = 0
    for b, w in zip(blocks, plant):
        c = np.zeros(k, dtype=np.uint8)
        c[rng.choice(k, size=w, replace=False)] = rng.integers(1, F.q, size=w, dtype=np.uint8)
        G[:, b] = invertible_with_row(rng, F, c)
    return G


def nonzero_dual_vector(rng, F: Field, G: np.ndarray) -> np.ndarray | None:
    """A uniformly random nonzero vector of the dual code (None if the dual is zero)."""
    D = refalg.dual_basis(F, G)
    if D.shape[0] == 0:
        return None
    while True:
        msg = rng.integers(0, F.q, size=(1, D.shape[0]), dtype=np.uint8)
        if msg.any():
            return refalg.matmul(F, msg, D)[0]
