"""Matrix algebra over GF(2)/GF(3)/GF(4).

Matrices at the API are 2-D numpy uint8 arrays of element indices, and
every result is a fresh uint8 array.  Products stay in uint8, with no
int64 casts: GF(2) keeps the parity bit of a wrapping sum, GF(3) reduces
blocks of at most 63 inner indices (4 * 63 < 256) and GF(4) XOR-reduces a
multiplication-table gather.  Elimination runs on packed rows, one Python
int per bit plane in the layout of enumeration's kernel, so clearing a
column is one whole-row operation.  _eliminate has one loop per field,
with the pivot scaling and row update written out on the planes, and
serves RREF, rank and kernel_image: rank clears only the rows below each
pivot and never unpacks, kernel_image eliminates the one matrix [A | B]
its caller builds, split after A's columns, and unpacks only the rows it
returns, and nullspace reads the kernel's RREF basis off the packed rows
of one RREF of the reversed columns, unpacking only the pivot rows.
Everything here is a pure function of its inputs; results with a
canonical form (RREF) are unique for a given row space, which downstream
code relies on for deterministic coordinate choices.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .gf import FieldSpec, GF2


class LinalgError(ValueError):
    pass


class NotOrthonormalizable(LinalgError):
    """The symmetric form has an all-zero diagonal, so no congruence to I exists."""


class InvariantError(RuntimeError):
    """A result failed a check that holds for every valid input: a bug, not bad input."""


def as_matrix(field: FieldSpec, rows) -> np.ndarray:
    """A fresh uint8 copy of integer or bool entries, each checked to be an element index."""
    m = np.asarray(rows)
    if m.ndim == 1:
        m = m.reshape(1, -1)
    if m.ndim != 2:
        raise LinalgError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if m.size and m.dtype.kind not in "biu":
        raise LinalgError(f"entries of dtype {m.dtype} are not element indices of {field.name}")
    if m.size and (m.max() >= field.order or m.dtype.kind == "i" and m.min() < 0):
        raise LinalgError(f"entry {int(m.max() if m.max() >= field.order else m.min())} out of range for {field.name}")
    return m.astype(np.uint8)


def matmul(field: FieldSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Plain (unconjugated) matrix product over the field."""
    if a.shape[1] != b.shape[0]:
        raise LinalgError(f"shape mismatch {a.shape} x {b.shape}")
    if field.order == 2:
        return (a @ b) & 1  # a uint8 sum wraps mod 256 and so keeps its parity
    if field.order == 3:
        # products are at most 4 and 4 * 63 = 252, so a block of 63 inner indices sums without wrapping
        out = (a[:, :63] @ b[:63]) % 3
        for s in range(63, a.shape[1], 63):
            out += (a[:, s : s + 63] @ b[s : s + 63]) % 3
            out %= 3
        return out
    # GF(4) addition is XOR of element indices: gather every product, XOR-reduce the inner index
    return np.bitwise_xor.reduce(field.mul_table[a[:, :, None], b[None]], axis=1, initial=0)


@dataclass(frozen=True)
class RrefResult:
    matrix: np.ndarray
    pivots: tuple[int, ...]
    rank: int


# -- packed rows -------------------------------------------------------------
#
# Elimination holds a matrix as one list of Python ints per bit plane, bit j
# of a row's int for column j, in enumeration's layout: GF(2) [bits],
# GF(3) [ones, twos], GF(4) [lo, hi] with lo/hi the coefficients of 1/w.  In
# both two-plane layouts the element index at a column is the plane-0 bit
# plus twice the plane-1 bit.  A whole plane packs through one int, row i at
# bits i*cols .. (i+1)*cols - 1, so packing and unpacking cost a handful of
# calls whatever the shape.

# byte translations: element index -> ASCII digit of its plane-p bit, and back
# from that digit to the plane's share (0 or 1 << p) of the element index
_DIGITS = tuple(bytes(48 + ((v >> p) & 1) for v in range(256)) for p in range(2))
_SHARES = tuple(bytes.maketrans(b"01", bytes([0, 1 << p])) for p in range(2))


def _pack_rows(order: int, M: np.ndarray) -> list[list[int]]:
    """Packed planes, one list of row ints each, of a uint8 matrix with at least one column."""
    rows, cols = M.shape
    text = M.tobytes()[::-1]  # last entry first: it is the top digit of int(text, 2)
    mask = (1 << cols) - 1
    starts = range(0, rows * cols, cols)
    lo = int(text.translate(_DIGITS[0]), 2)
    if order == 2:
        return [[lo >> s & mask for s in starts]]
    hi = int(text.translate(_DIGITS[1]), 2)
    return [[lo >> s & mask for s in starts], [hi >> s & mask for s in starts]]


def _unpack_rows(planes: list[list[int]], cols: int) -> np.ndarray:
    """uint8 matrix of packed planes; the inverse of _pack_rows."""
    size = len(planes[0]) * cols
    entries = 0  # one byte per entry, last entry in the top byte
    for p, plane in enumerate(planes):
        whole = 0
        for w in reversed(plane):
            whole = whole << cols | w
        entries |= int.from_bytes(format(whole, f"0{size}b").encode().translate(_SHARES[p]), "big")
    return np.frombuffer(bytearray(entries.to_bytes(size, "little")), dtype=np.uint8).reshape(-1, cols)


def _eliminate(q: int, planes: list[list[int]], reduce: bool) -> list[int]:
    """Eliminate packed rows in place; return the pivot columns.

    Rows hold no bit past the matrix width, as _pack_rows leaves them, so
    every set bit is a column to eliminate.

    The next pivot column is the lowest set bit of the rows not yet used as
    pivots.  The rows below a pivot are cleared, and their support gathered
    for the next pivot, in one pass; ``reduce`` also clears the rows above,
    which leaves the RREF, and otherwise the result is an echelon form with
    the same pivots.  Each field has its own loop, with the pivot scaling
    and the row update written out on the planes: GF(2) clears a column by
    one XOR; GF(3) scales by a plane swap (2 = -1) and adds in six
    bitsliced operations; GF(4) scales by the w/w^2 plane maps and adds by
    XOR.
    """
    lo, hi = planes[0], planes[-1]  # a GF(2) matrix reads its one plane twice
    rows = len(lo)
    support = 0
    for x1, x2 in zip(lo, hi):
        support |= x1 | x2
    pivots: list[int] = []
    r = 0
    if q == 2:
        while support:  # rows r.. are zero left of the next pivot column
            bit = support & -support
            pr = r
            while not lo[pr] & bit:
                pr += 1
            p = lo[pr]
            lo[pr] = lo[r]
            lo[r] = p
            for i in range(r if reduce else 0):
                if lo[i] & bit:
                    lo[i] ^= p
            r += 1
            support = 0
            for i in range(r, rows):
                x = lo[i]
                if x & bit:
                    x = lo[i] = x ^ p
                support |= x
            pivots.append(bit.bit_length() - 1)
    elif q == 3:
        # x[c] = 1 adds -p, which is p with its planes swapped; x[c] = 2 adds p
        while support:
            bit = support & -support
            pr = r
            while not (lo[pr] | hi[pr]) & bit:
                pr += 1
            p1, p2 = (lo[pr], hi[pr]) if lo[pr] & bit else (hi[pr], lo[pr])
            lo[pr], hi[pr] = lo[r], hi[r]
            lo[r], hi[r] = p1, p2
            for i in range(r if reduce else 0):
                x1, x2 = lo[i], hi[i]
                if x1 & bit:
                    t = (x1 | p1) ^ (x2 | p2)
                    lo[i], hi[i] = (x2 | p1) ^ t, (x1 | p2) ^ t
                elif x2 & bit:
                    t = (x1 | p2) ^ (x2 | p1)
                    lo[i], hi[i] = (x2 | p2) ^ t, (x1 | p1) ^ t
            r += 1
            support = 0
            for i in range(r, rows):
                x1, x2 = lo[i], hi[i]
                if x1 & bit:
                    t = (x1 | p1) ^ (x2 | p2)
                    x1, x2 = lo[i], hi[i] = (x2 | p1) ^ t, (x1 | p2) ^ t
                elif x2 & bit:
                    t = (x1 | p2) ^ (x2 | p1)
                    x1, x2 = lo[i], hi[i] = (x2 | p2) ^ t, (x1 | p1) ^ t
                support |= x1 | x2
            pivots.append(bit.bit_length() - 1)
    else:
        # w * (lo, hi) = (hi, lo ^ hi) and w^2 * (lo, hi) = (lo ^ hi, lo); x += x[c] * p,
        # since -a = a in characteristic 2
        while support:
            bit = support & -support
            pr = r
            while not (lo[pr] | hi[pr]) & bit:
                pr += 1
            p1, p2 = lo[pr], hi[pr]
            if p2 & bit:  # p[c] = w^2 = 1 + w: times w; p[c] = w: times w^2
                p1, p2 = (p2, p1 ^ p2) if p1 & bit else (p1 ^ p2, p1)
            p3 = p1 ^ p2
            lo[pr], hi[pr] = lo[r], hi[r]
            lo[r], hi[r] = p1, p2
            for i in range(r if reduce else 0):
                x1, x2 = lo[i], hi[i]
                if x1 & bit:
                    lo[i], hi[i] = (x1 ^ p3, x2 ^ p1) if x2 & bit else (x1 ^ p1, x2 ^ p2)
                elif x2 & bit:
                    lo[i], hi[i] = x1 ^ p2, x2 ^ p3
            r += 1
            support = 0
            for i in range(r, rows):
                x1, x2 = lo[i], hi[i]
                if x1 & bit:
                    x1, x2 = lo[i], hi[i] = (x1 ^ p3, x2 ^ p1) if x2 & bit else (x1 ^ p1, x2 ^ p2)
                elif x2 & bit:
                    x1, x2 = lo[i], hi[i] = x1 ^ p2, x2 ^ p3
                support |= x1 | x2
            pivots.append(bit.bit_length() - 1)
    return pivots


def rref(M: np.ndarray, field: FieldSpec) -> RrefResult:
    """Reduced row echelon form, pivots chosen left to right; canonical for
    a given row space.  The elimination runs on packed rows (see _eliminate).
    """
    M = np.asarray(M, dtype=np.uint8)
    rows, cols = M.shape
    if rows == 0 or cols == 0:
        return RrefResult(M.copy(), (), 0)
    packed = _pack_rows(field.order, M)
    work = [plane[:] for plane in packed]
    pivots = _eliminate(field.order, work, True)
    R = M.copy() if work == packed else _unpack_rows(work, cols)  # M may already be its own RREF
    return RrefResult(R, tuple(pivots), len(pivots))


def kernel_image(M: np.ndarray, split: int, field: FieldSpec) -> RrefResult:
    """RREF basis of {xB : xA = 0} for M = [A | B], A = M[:, :split], and its
    pivots, from one elimination of M's packed rows.

    Each RREF row of M stays [xA | xB] for some x.  The rows past the pivots
    in A's columns have xA = 0 and span every such xB, so their B parts are
    the basis; only those rows are unpacked.
    """
    cols = M.shape[1] - split
    pivots = []
    if M.size:
        planes = _pack_rows(field.order, M)
        pivots = _eliminate(field.order, planes, True)
    r = bisect_left(pivots, split)  # pivots in A's columns come first
    if r == len(pivots):
        return RrefResult(np.zeros((0, cols), dtype=np.uint8), (), 0)
    basis = _unpack_rows([[w >> split for w in plane[r : len(pivots)]] for plane in planes], cols)
    return RrefResult(basis, tuple(p - split for p in pivots[r:]), len(pivots) - r)


def rank(M: np.ndarray, field: FieldSpec) -> int:
    """Rank by forward elimination only: no back-substitution, nothing unpacked."""
    M = np.asarray(M, dtype=np.uint8)
    if M.size == 0:
        return 0
    return len(_eliminate(field.order, _pack_rows(field.order, M), False))


def row_space_basis(M: np.ndarray, field: FieldSpec) -> np.ndarray:
    """RREF basis with zero rows dropped."""
    res = rref(M, field)
    return res.matrix[: res.rank]


def pairing_matrix(A: np.ndarray, B: np.ndarray, field: FieldSpec) -> np.ndarray:
    """All pairings <row_i(A), row_j(B)>, conjugating B over GF(4)."""
    return matmul(field, A, (field.conj_table[B] if field.order == 4 else B).T)


def gram(G: np.ndarray, field: FieldSpec) -> np.ndarray:
    """k x k pairing matrix of the rows of G.

    GF(2) and GF(3) give a symmetric matrix; Hermitian GF(4) gives a
    conjugate-symmetric one.
    """
    return pairing_matrix(G, G, field)


def nullspace(M: np.ndarray, field: FieldSpec) -> np.ndarray:
    """Full-rank RREF basis of {y : M conj(y)^T = 0}, from one elimination.

    Below GF(4) this is the plain right kernel; over Hermitian GF(4) it
    equals the kernel of the entrywise-conjugated matrix, since
    M conj(y)^T = 0 iff conj(M) y^T = 0, and conj(lo + hi w) = (lo ^ hi) + hi w
    conjugates the packed rows.  The elimination runs on the columns in
    reverse, so the basis vector of a free column c (1 at c, minus the
    RREF's column c on the pivot columns) is nonzero only at c and at pivot
    columns right of c: sorted by c, the basis already is the kernel's RREF.

    The basis is read off the packed rows a column at a time: column p of a
    pivot is its pivot row on the free columns, negated (GF(3) swaps the
    planes), and a free column's column is the identity's.  Only the pivot
    rows are unpacked, into the identity, and one gather of the free
    columns gives the basis rows.
    """
    M = np.asarray(M, dtype=np.uint8)
    rows, cols = M.shape
    if rows == 0 or cols == 0:
        return np.eye(cols, dtype=np.uint8)
    q = field.order
    planes = _pack_rows(q, M[:, ::-1])
    if q == 4:
        planes[0] = [lo ^ hi for lo, hi in zip(*planes)]
    pivots = _eliminate(q, planes, True)
    free = (1 << cols) - 1
    for p in pivots:
        free ^= 1 << p
    if not free:
        return np.zeros((0, cols), dtype=np.uint8)
    # row c of the transposed basis belongs to reversed column c of M; -x swaps the GF(3) planes
    T = np.eye(cols, dtype=np.uint8)
    negated = planes[::-1] if q == 3 else planes
    T[pivots] = _unpack_rows([[x & free for x in plane[: len(pivots)]] for plane in negated], cols)
    # reversed column c is column cols - 1 - c; the free ones in increasing order
    return T[::-1].T[[c for c in range(cols - 1, -1, -1) if free >> c & 1]]


def congruence_orthonormalize(M: np.ndarray) -> np.ndarray:
    """Invertible U over GF(2) with U M U^T = I, for symmetric nonsingular M.

    Greedy reduction: pick a basis vector with self-pairing 1, clear its
    pairings with the rest, recurse on the residual.  When the residual
    form turns alternating (all self-pairings 0) it must contain a
    hyperbolic pair u, v; together with an already-processed vector e the
    triple is rebased as e+u, e+v, e+u+v, each of self-pairing 1 and
    mutually orthogonal.  A symmetric form with an all-zero diagonal is
    alternating for every basis, so no U exists and we raise instead.
    """
    M = np.asarray(M, dtype=np.uint8)
    k = M.shape[0]
    if M.shape != (k, k) or not np.array_equal(M, M.T):
        raise LinalgError("congruence_orthonormalize expects a symmetric square matrix")
    if k == 0:
        return np.zeros((0, 0), dtype=np.uint8)
    if rank(M, GF2) != k:
        raise LinalgError("matrix is singular")
    if not M.diagonal().any():
        raise NotOrthonormalizable("alternating form: zero diagonal is congruence-invariant over GF(2)")

    Mi = M.astype(np.int64)

    def pair(x, y):
        return int(x.astype(np.int64) @ Mi @ y.astype(np.int64)) & 1

    basis = [np.eye(k, dtype=np.uint8)[i] for i in range(k)]
    done: list[np.ndarray] = []
    pending = basis
    while pending:
        idx = next((i for i, v in enumerate(pending) if pair(v, v)), None)
        if idx is None:
            # alternating residual: find a hyperbolic pair and repair with
            # the most recent processed vector
            ui, vi = next(
                (i, j)
                for i in range(len(pending))
                for j in range(i + 1, len(pending))
                if pair(pending[i], pending[j])
            )
            e = done.pop()
            u, v = pending[ui], pending[vi]
            rest = [w for i, w in enumerate(pending) if i not in (ui, vi)]
            trio = [(e + u) % 2, (e + v) % 2, (e + u + v) % 2]
            new_pending = []
            for w in rest:
                for t in trio:
                    if pair(w, t):
                        w = (w + t) % 2
                new_pending.append(w)
            done.extend(trio)
            pending = new_pending
            continue
        e = pending.pop(idx)
        pending = [(w + e) % 2 if pair(w, e) else w for w in pending]
        done.append(e)
    U = np.array(done, dtype=np.uint8)
    if not np.array_equal(matmul(GF2, matmul(GF2, U, M), U.T), np.eye(k, dtype=np.uint8)):
        raise InvariantError("congruence_orthonormalize: U M U^T is not the identity")
    return U
