"""Exhaustive and Brouwer-Zimmermann weight enumeration on packed bit planes.

A vector is packed into bit planes, one per bit of its symbols' element
indices: GF(2) uses a single plane, GF(3) uses planes (ones, twos) with a
bitsliced add, GF(4) uses the low/high index bits (so addition is XOR on
both planes).  This is the bitsliced layout of Boothby and Bradshaw
(arXiv:0901.1413).

Exhaustive scans hold a batch of N vectors of length n as a numpy uint64
array of shape (planes, ceil(n/64), N) and work on the whole batch at
once.  The codewords of a generator come in message order (message
index sum_j d_j q^j is the codeword sum_j d_j row_j) from a table of the
codewords of the low rows, about 2^14 words, plus one high word per value
of the high digits.  A table is one broadcast add of two sub-tables, each
one gather of its rows' multiples: the scaled pack holds a * row_j at
column a * k + j, a block's b rows cut from it hold a * row_(lo+j) at
column a * b + j, and so the gather index is a constant of q and b
(_row_index).

One walk (_blocks) hands out any message range as blocks: a slice t of
the first table and the block's high word h, none for block 0, and none
at all for a code whose messages fit in one table.  The extension
search's candidate blocks are the sums t + h (codeword_blocks), and its
sampled draws are keyed by message number (_message_numbers), their
digits read top first, before codewords_at gathers them.  A scan
weighs them without forming the sums: wt(t + h) = d(t, -h), the popcount
(np.bitwise_count, numpy >= 2.0) of the planes' differences, where -h
swaps the GF(3) planes and is h in characteristic 2 (_negate).  A full
scan weighs the first table whole and then, since a c and c have the same
weight, one message of each projective class: for every high digit
position j, the messages in [q^j, 2 q^j), whose top nonzero digit is 1
(_projective_ranges).  Their weight counts stand for all q - 1 multiples,
so GF(3) weighs about half and GF(4) a third of the codewords.  The
ranges can be split across worker processes; min/sum reductions make the
result identical for every worker count.  A code with more codewords than
its cap is not scanned at all: past the cap, codes.min_weight decides the
distance with Brouwer-Zimmermann.

Exhaustive minimum weight and weight distribution enumerate the smaller
of C and its dual (scan_plan).  A code of at least DUAL_MIN_CODEWORDS
whose dual has at most a third of its codewords has the dual's exact
weight counts B_j scanned and turned into its own A_i by the MacWilliams
identity (macwilliams_transform): exact integers, checked (every A_i a
non-negative integer, A_0 = 1, sum A_i = q^k) or InvariantError.  The
cap still counts C's q^k codewords, whichever side is scanned.

Brouwer-Zimmermann runs on the same kernel, on C (min_weight_bz) and on
the cosets x + C that the extension search scores (_coset_floor).  A
level's codewords (w rows of a systematic generator, the first scaled by
1) come in batches of at most BZ_CHUNK: their index rows are generated a
range of supports at a time, each batch gathers its scaled rows from one
pack with np.take, adds them and is weighed once.  A level's C(k, w)
supports are never held whole.  A coset's words are listed from the same
batches and their scalar multiples, level by level per chain matrix
(_bz_order), once each candidate is moved to the word of its coset that
vanishes on the matrix's pivots (_reduce).  One extension search asks for
the same listings again and again, so it keeps them (_CosetListings):
each matrix's levels as one copied array, up to a bound on the words held.
The popcounts of a vector's words are added in uint16, exact since
pack_matrix keeps n < 2^15.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from math import comb

import numpy as np

from .gf import FieldSpec
from .linalg import InvariantError, LinalgError, nullspace, rref

DEFAULT_CAPS = {2: 2**26, 3: 3**16, 4: 4**13}

# An exhaustive scan goes through the dual (scan_plan) when the code has at
# least DUAL_MIN_CODEWORDS[q] codewords and the dual at most 1 / DUAL_RATIO
# of them.  Measured on 2 cores against the direct minimum-weight scan: the
# dual route costs about 0.2-0.6 ms (nullspace, the O(n^2) transform) on top
# of its scan, as much as a direct scan of 2^17 binary, 3^10 ternary or 4^9
# quaternary codewords (binary [30,16] 0.22 ms direct, 0.48 ms dual; GF(4)H
# [14,8] 0.13 ms and 0.29 ms; GF(3) [16,10] 0.62 ms and 0.22 ms).  An
# exact-count scan of the dual costs 2-3x a minimum-weight scan per codeword,
# so a dual with half the codewords loses (binary [47,24] 15 ms direct, 22 ms
# dual) and one with a third wins (GF(3) [31,16] 34 ms and 22 ms, GF(4)H
# [25,13] 33 ms and 18 ms).
DUAL_MIN_CODEWORDS = {2: 2**17, 3: 3**10, 4: 4**9}
DUAL_RATIO = 3

# codewords weighed (one per projective class past the first table) from
# which a scan is split across workers.  Measured on 2 cores, 2 workers
# against 1: a pool costs about 15-20 ms and a scan weighs about 2^29
# codewords/s, so 2 workers lose at 2^24 (0.92x), break even near 2^24.4,
# which GF(3) 3^16 and GF(4) 4^13 weigh (0.97x, 1.05x), and win on GF(2) 2^25
# and 2^26 (59 -> 53 ms, 104 -> 82 ms).
PARALLEL_THRESHOLD = 1 << 25

# low rows per codeword table: tables of about 2^14 words keep a block's
# temporaries near 128 KiB per plane, so they stay cheap to allocate and in cache
TABLE_ROWS = {2: 14, 3: 9, 4: 7}

# codewords per Brouwer-Zimmermann batch, candidate-word pairs per pass of
# the coset scorer and candidates per chunk of its reduction: small enough
# that a pass's temporaries stay in cache, whatever C(k, w) is
BZ_CHUNK = 1 << 14

# compact the candidates still scored once this share of them has died.
# Exhaustive method-1 search of t_19_6_9 (531,077 candidates scored in
# Brouwer-Zimmermann order), median of 6 on a 2-core x86-64 host: at 5%
# 0.112 s, 10% 0.103 s, 25% 0.088 s, 50% 0.079 s, 75% 0.075 s, 90% 0.086 s;
# t_20_8_8 behaves alike
COMPACT_SHARE = 0.5


class BudgetExceeded(Exception):
    """Enumeration ran out of budget; carries the best (non-exact) upper bound."""

    def __init__(self, best_upper: int | None, steps: int):
        self.best_upper = best_upper
        self.steps = steps
        extra = f"; best upper bound so far {best_upper}" if best_upper is not None else ""
        super().__init__(f"work budget exhausted after {steps} steps{extra}")


# -- packed-plane kernel ---------------------------------------------------


def pack_matrix(order: int, M: np.ndarray) -> np.ndarray:
    """Pack the rows of a symbol matrix (N x n) into planes of shape (P, W, N)."""
    M = np.asarray(M, dtype=np.uint8)
    N, n = M.shape
    if n >= 1 << 15:
        raise LinalgError(f"length {n} is too long for the uint16 weights of a packed batch")
    P = 1 if order == 2 else 2
    W = -(-n // 64)
    bits = np.zeros((P, N, W * 64), dtype=np.uint8)
    for p in range(P):
        bits[p, :, :n] = (M >> p) & 1
    words = np.packbits(bits.reshape(P, N, W, 64), axis=-1, bitorder="little").view("<u8")
    return np.ascontiguousarray(words[..., 0].transpose(0, 2, 1)).astype(np.uint64, copy=False)


def unpack_matrix(planes: np.ndarray, n: int) -> np.ndarray:
    """Symbol matrix (N x n) of packed planes; inverse of pack_matrix."""
    rows = np.ascontiguousarray(planes.transpose(0, 2, 1)).astype("<u8", copy=False)
    bits = np.unpackbits(rows.view(np.uint8), axis=-1, bitorder="little")[..., :n]
    out = bits[0]
    for p in range(1, len(bits)):
        out = out | (bits[p] << p)
    return out


def _add(order: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise sum of two packed batches (a batch of one word broadcasts).

    GF(3) uses a six-operation bitsliced add on (ones, twos) planes; it
    maps zero padding to zero padding.  Its steps write into the result
    and one temporary, so a large sum allocates no more than that.
    """
    if order != 3:
        return a ^ b
    a1, a2 = a
    b1, b2 = b
    t = a1 | b2
    out = np.empty((2,) + t.shape, dtype=np.uint64)
    ones, twos = out
    np.bitwise_or(a2, b1, out=ones)
    t ^= ones  # t = (a1 | b2) ^ (a2 | b1)
    np.bitwise_or(a2, b2, out=ones)
    ones ^= t
    np.bitwise_or(a1, b1, out=twos)
    twos ^= t
    return out


def _scale(order: int, a: int, batch: np.ndarray) -> np.ndarray:
    """a times every vector of a packed batch, for a nonzero element index a."""
    if a == 1:
        return batch
    if order == 3:
        return _negate(order, batch)  # 2 = -1
    # GF(4): index b0 + 2 b1 is b0 + b1 w with w^2 = w + 1, so
    # w (b0 + b1 w) = b1 + (b0 + b1) w and w^2 (b0 + b1 w) = (b0 + b1) + b0 w
    lo, hi = batch
    return np.stack([hi, lo ^ hi] if a == 2 else [lo ^ hi, lo])


def _negate(order: int, batch: np.ndarray) -> np.ndarray:
    """-v for every vector of a packed batch: the GF(3) planes swapped, the
    batch itself in characteristic 2."""
    return batch[::-1] if order == 3 else batch


def _distance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamming distance between the vectors of two packed batches (shapes
    broadcast), as in _popcount.  Each layout encodes a symbol injectively
    in its planes, so two symbols differ where any plane does."""
    diff = a[0] ^ b[0]
    for p in range(1, len(a)):
        diff |= a[p] ^ b[p]
    return _popcount(diff)


def _weigh(batch: np.ndarray) -> np.ndarray:
    """Hamming weight of every vector in a packed batch, as in _popcount."""
    support = batch[0]
    for plane in batch[1:]:
        support = support | plane
    return _popcount(support)


def _popcount(words: np.ndarray) -> np.ndarray:
    """Set bits of each vector of W words (axis 0): uint8 when W = 1, else
    uint16, the words' counts added one word at a time."""
    bits = np.bitwise_count(words)
    if len(bits) == 1:
        return bits[0]
    total = bits[0].astype(np.uint16)  # pack_matrix keeps n < 2^15, so the sums are exact
    for word in bits[1:]:
        total += word
    return total


def _pack_scaled(field: FieldSpec, G: np.ndarray) -> np.ndarray:
    """Planes of every a * row_j, in one pack: column a * k + j."""
    k, n = G.shape
    return pack_matrix(field.order, field.mul_table[:, G].reshape(field.order * k, n))


@lru_cache(maxsize=None)
def _row_index(q: int, b: int) -> np.ndarray:
    """Columns a * b + j of a b-row block of a scaled pack, where a is
    base-q digit j (low digit first) of each of 0 .. q^b - 1: rows of
    shape (b, q^b); read-only, since it is shared."""
    index = np.arange(q**b) // q ** np.arange(b)[:, None] % q * b + np.arange(b)[:, None]
    index.setflags(write=False)
    return index


def _sub_table(q: int, scaled: np.ndarray, k: int, lo: int, b: int) -> np.ndarray:
    """Packed codewords of the q^b messages on rows lo .. lo + b - 1, in
    message order: one gather of every row's multiples, summed over the rows."""
    if b == 0:
        return np.zeros(scaled.shape[:2] + (1,), dtype=np.uint64)
    # column a * k + j of the scaled pack is a * row_j, so the block's column a * b + j
    # is a * row_(lo+j); it is a view when the block holds every row, else a small copy
    P, W = scaled.shape[:2]
    block = scaled.reshape(P, W, q, k)[..., lo : lo + b].reshape(P, W, q * b)
    terms = np.take(block, _row_index(q, b), axis=-1)
    if q != 3:
        return np.bitwise_xor.reduce(terms, axis=2)
    table = terms[:, :, 0]
    for j in range(1, b):
        table = _add(q, table, terms[:, :, j])
    return table


def codeword_tables(field: FieldSpec, G: np.ndarray) -> list[np.ndarray]:
    """Packed codeword tables of G, one per block of TABLE_ROWS rows.

    tables[c][..., i] is the codeword of the message whose digits on the
    rows of block c spell i in base q (low digit first) and vanish
    elsewhere, so every codeword is one word from each table, added.  A
    block's table is the sum, in one broadcast add, of the tables of its
    low and high rows; each of those has at most q^ceil(TABLE_ROWS / 2)
    words and comes from one gather.
    """
    return _tables(field.order, _pack_scaled(field, G), G.shape[0])


def _tables(q: int, scaled: np.ndarray, k: int) -> list[np.ndarray]:
    """codeword_tables of the k rows of G from their scaled pack (_pack_scaled)."""
    L = TABLE_ROWS[q]
    tables = []
    for lo in range(0, max(k, 1), L):
        rows = min(L, k - lo)
        low = min(rows, -(-L // 2))
        table = _sub_table(q, scaled, k, lo, low)
        if rows > low:
            high = _sub_table(q, scaled, k, lo + low, rows - low)
            table = _add(q, table[:, :, None, :], high[:, :, :, None]).reshape(table.shape[:2] + (-1,))
        tables.append(table)
    return tables


def codewords_at(order: int, tables: list[np.ndarray], numbers: np.ndarray) -> np.ndarray:
    """Packed codewords of the messages numbered ``numbers`` (int64; message
    number sum_i d_i q^i, digit i multiplying row i).  Each table's index
    is the next base-q^TABLE_ROWS digit of the number, low table first, and
    the last table's is what is left.  A 2-D ``numbers`` holds those
    indices instead, row c for table c, as for messages past 2^63."""
    T = order ** TABLE_ROWS[order]
    out = None
    for c, table in enumerate(tables):
        if numbers.ndim == 2:
            index = numbers[c]
        elif c + 1 < len(tables):
            high = numbers // T  # with the product and difference, half of np.divmod's time
            index, numbers = numbers - high * T, high
        else:
            index = numbers
        words = np.take(table, index, axis=-1)
        out = words if out is None else _add(order, out, words)
    return out


def _message_numbers(q: int, msgs: np.ndarray) -> np.ndarray:
    """The distinct rows of a digit matrix (N x m), sorted, as codewords_at
    message numbers with column 0 the top digit: sum_j msgs[:, j] q^(m-1-j),
    so numeric order is the rows' lexicographic order, and a caller whose
    column j multiplies row j builds the tables from its rows reversed.
    Each table's index is read by Horner over its digit columns in uint16,
    and the indices are joined into one int64 number, sorted with np.sort
    (50,000 keys on a 2-core x86-64 host: 0.44 ms; np.argsort 1.2,
    np.lexsort 5.4, np.unique 12 ms).  Past q^m > 2^63 the indices are the
    keys, sorted with np.lexsort, the highest table's first (Python-int
    numbers cost 4-10x as much).
    """
    N, m = msgs.shape
    L = TABLE_ROWS[q]
    wide = q**m > 1 << 63
    keys = np.zeros((-(-m // L), N), dtype=np.uint16)  # q^TABLE_ROWS <= 3^9 < 2^16
    for c, key in enumerate(keys):
        for j in range(max(m - (c + 1) * L, 0), m - c * L):
            key *= q
            key += msgs[:, j]
    if wide:
        keys = np.take(keys, np.lexsort(keys), axis=-1)
    else:
        number = keys[-1].astype(np.int64)
        for key in keys[-2::-1]:
            number *= q**L
            number += key
        keys = np.sort(number)[None]
    fresh = np.ones(N, dtype=bool)
    fresh[1:] = (keys[:, 1:] != keys[:, :-1]).any(axis=0)
    keys = np.compress(fresh, keys, axis=-1)
    return keys if wide else keys[0]


def _blocks(order: int, tables: list[np.ndarray], start: int, stop: int):
    """Yield (first message, slice t of tables[0], high word h) covering
    [start, stop) in message order, a block of messages being t + h.

    h, the sum of the higher tables' words (codewords_at), is None for
    block 0, whose high word is zero; high words are computed only past
    the first table.
    """
    T = tables[0].shape[-1]
    first, last = start // T, -(-stop // T)
    if last > 1:
        highs = codewords_at(order, tables[1:], np.arange(first, last, dtype=np.int64))
    for b in range(first, last):
        lo, hi = max(start - b * T, 0), min(stop - b * T, T)
        yield b * T + lo, tables[0][..., lo:hi], None if b == 0 else highs[..., b - first : b - first + 1]


def codeword_blocks(order: int, tables: list[np.ndarray], start: int, stop: int):
    """Yield (first message index, packed codewords t + h) of each _blocks block of [start, stop)."""
    for first, t, h in _blocks(order, tables, start, stop):
        yield first, t if h is None else _add(order, t, h)


def packed_weight(planes: tuple[int, ...]) -> int:
    """Hamming weight of one vector held as Python-int planes (linalg's packed rows)."""
    acc = 0
    for p in planes:
        acc |= p
    return acc.bit_count()


# -- exhaustive scans --------------------------------------------------------


def _projective_ranges(q: int, k: int, low: int) -> list[tuple[int, int]]:
    """Message ranges: the first q^low messages, then one message of every
    projective class {a m : a != 0} above them, the one whose top nonzero
    digit (at a position j >= low) is 1."""
    return [(0, q**low)] + [(q**j, 2 * q**j) for j in range(low, k)]


def _scan_jobs(args):
    """Minimum nonzero-message weight and (optionally) weight counts over
    (start, stop, multiplicity) message ranges, each range's counts taken
    multiplicity times.  A _blocks block t + h is weighed without forming
    the sums: as t in block 0, else as the distances d(t, -h)."""
    order, tables, n, jobs, want_dist = args
    best = n + 1
    counts = np.zeros(n + 1, dtype=np.int64) if want_dist else None
    for start, stop, mult in jobs:
        for first, t, h in _blocks(order, tables, start, stop):
            w = _weigh(t) if h is None else _distance(t, _negate(order, h))
            if want_dist:
                counts += mult * np.bincount(w, minlength=n + 1)
            if first == 0:
                w = w[1:]  # message 0 is the zero codeword
            if w.size:
                best = min(best, int(w.min()))
    return best, counts


def _split(jobs: list[tuple[int, int, int]], parts: int, T: int) -> list[list[tuple[int, int, int]]]:
    """(start, stop, multiplicity) ranges cut at multiples of T past their
    starts into at most ``parts`` runs with near-equal numbers of T-message blocks."""
    sizes = [-(-(stop - start) // T) for start, stop, _ in jobs]
    total = sum(sizes)
    runs = [[] for _ in range(parts)]
    done = 0
    for (start, stop, mult), size in zip(jobs, sizes):
        for r, run in enumerate(runs):  # run r holds blocks total * r // parts onwards
            lo = max(total * r // parts - done, 0)
            hi = min(total * (r + 1) // parts - done, size)
            if lo < hi:
                run.append((start + lo * T, min(start + hi * T, stop), mult))
        done += size
    return [run for run in runs if run]


def _scan(field: FieldSpec, G: np.ndarray, want_dist: bool, threads: int, tables: list[np.ndarray] | None = None):
    """Minimum nonzero weight and (optionally) weight counts, as an array,
    of all q^k codewords, from ``tables``, codeword tables of G's rows in
    any order, or else from G's own.

    As a c has the weight of c, only one message of each projective class
    past the first table is weighed, and its counts stand for all q - 1.
    """
    q = field.order
    k, n = G.shape
    tables = codeword_tables(field, G) if tables is None else tables
    jobs = [(lo, hi, 1 if lo == 0 else q - 1) for lo, hi in _projective_ranges(q, k, min(k, TABLE_ROWS[q]))]
    if threads > 1 and sum(hi - lo for lo, hi, _ in jobs) >= PARALLEL_THRESHOLD:
        args = [(q, tables, n, run, want_dist) for run in _split(jobs, threads, tables[0].shape[-1])]
        try:
            with multiprocessing.get_context("fork").Pool(len(args)) as pool:
                parts = pool.map(_scan_jobs, args)
        except (OSError, ValueError):
            parts = [_scan_jobs(a) for a in args]
        return min(p[0] for p in parts), sum(p[1] for p in parts) if want_dist else None
    return _scan_jobs((q, tables, n, jobs, want_dist))


def scan_plan(q: int, n: int, k: int) -> tuple[str, int]:
    """How an exhaustive scan decides an [n, k] code over GF(q): its route,
    "direct" or "dual" (past DUAL_MIN_CODEWORDS, when the dual has at most
    1 / DUAL_RATIO of the codewords), and the codewords it weighs: the
    first table, of the low min(m, TABLE_ROWS) rows of the m scanned, and
    one word of each projective class past it (_projective_ranges)."""
    dual = q**k >= max(DUAL_MIN_CODEWORDS[q], DUAL_RATIO * q ** (n - k))
    m = n - k if dual else k
    low = min(m, TABLE_ROWS[q])
    weighed = q**low + (q**m - q**low) // (q - 1)
    return ("dual" if dual else "direct"), weighed


def macwilliams_transform(q: int, n: int, dim: int, counts) -> list[int]:
    """Weight counts of the dual of a length-n code of dimension ``dim`` over
    GF(q), from the code's own counts B_0 .. B_n (MacWilliams identity).

    A_i = q^-dim sum_x B_x K_i(x), in exact integers.  The Krawtchouk values
    of every weight x with B_x != 0 advance together by the three-term
    recurrence, K_0 = 1, K_{-1} = 0 and
        (i + 1) K_{i+1}(x) = (i + (q - 1)(n - i) - q x) K_i(x) - (q - 1)(n - i + 1) K_{i-1}(x),
    kept multiplied by B_x: O(n^2) work.  The identity holds for the
    Hermitian dual too, the conjugate of the Euclidean one, with the same
    weights.  Raises InvariantError unless every A_i is a non-negative
    integer, A_0 = 1 and sum A_i = q^(n - dim).
    """
    xs = [x for x, b in enumerate(counts) if b]
    prev, cur = [0] * len(xs), [int(counts[x]) for x in xs]  # B_x K_{i-1}(x), B_x K_i(x)
    sums = [sum(cur)]
    for i in range(n):
        a, c = i + (q - 1) * (n - i), (q - 1) * (n - i + 1)
        prev, cur = cur, [((a - q * x) * u - c * p) // (i + 1) for x, u, p in zip(xs, cur, prev)]
        sums.append(sum(cur))
    size = q**dim
    out = [s // size for s in sums]
    if any(s % size for s in sums) or min(out) < 0 or out[0] != 1 or sum(out) != q ** (n - dim):
        raise InvariantError(f"MacWilliams transform: the counts are not those of a [{n},{dim}] code over GF({q})")
    return out


def _exhaustive(
    field: FieldSpec, G: np.ndarray, cap: int | None, want_dist: bool, threads: int, tables: list[np.ndarray] | None = None
):
    """Minimum nonzero weight and (optionally) the counts A_0 .. A_n of the
    code of G, by scan_plan's route: a scan of C, from ``tables`` if the
    caller holds them (_scan), or an exact-count scan of its dual and C's
    checked MacWilliams transform."""
    q = field.order
    k, n = G.shape
    cap = DEFAULT_CAPS[q] if cap is None else cap
    if q**k > cap:
        raise BudgetExceeded(None, 0)
    if scan_plan(q, n, k)[0] == "dual":
        dual_counts = _scan(field, nullspace(G, field), True, threads)[1]
        counts = macwilliams_transform(q, n, n - k, dual_counts.tolist())
        return next(i for i in range(1, n + 1) if counts[i]), counts
    best, counts = _scan(field, G, want_dist, threads, tables)
    return best, counts.tolist() if want_dist else None


def min_weight_exhaustive(field: FieldSpec, G: np.ndarray, cap: int | None = None, threads: int = 1) -> int:
    """Exact minimum nonzero weight by enumerating the smaller of C and its
    dual (scan_plan).  Through the dual it is the first i >= 1 with A_i > 0
    of C's MacWilliams transform, checked for non-negative integer counts,
    A_0 = 1 and sum A_i = q^k (InvariantError otherwise).  The cap counts
    C's q^k codewords, whichever side is scanned: past it BudgetExceeded(None,
    0) is raised, nothing weighed, and codes.min_weight runs Brouwer-Zimmermann."""
    if G.shape[0] == 0:
        raise ValueError("the zero code has no nonzero codewords")
    return _exhaustive(field, G, cap, False, threads)[0]


def weight_distribution_exhaustive(field: FieldSpec, G: np.ndarray, cap: int | None = None, threads: int = 1) -> list[int]:
    """A_0 .. A_n by enumerating the smaller of C and its dual (scan_plan);
    through the dual they are C's MacWilliams transform, checked for
    non-negative integer counts, A_0 = 1 and sum A_i = q^k (InvariantError
    otherwise).  Raises BudgetExceeded(None, 0), nothing weighed, when C's
    q^k codewords exceed the cap, whichever side would be scanned."""
    return _exhaustive(field, G, cap, True, threads)[1]


# -- Brouwer-Zimmermann --------------------------------------------------


def _information_set_chain(field: FieldSpec, G: np.ndarray):
    """Systematic generators on pairwise disjoint column sets.

    Returns [(matrix, pivots, deficit)]: row i of the matrix is 1 at
    column pivots[i] and 0 at the other pivots; deficit = k minus the
    number of pivots inside the matrix's own (previously unused) column
    block.  Each matrix is the RREF of G with its columns permuted to the
    unused ones, in order, then the used ones, mapped back to G's columns.
    """
    k, n = G.shape
    remaining = set(range(n))
    used: list[int] = []
    chain = []
    while remaining:
        perm = sorted(remaining) + used
        res = rref(G[:, perm], field)
        pivots = tuple(perm[c] for c in res.pivots)
        new_piv = [p for p in pivots if p in remaining]
        if not new_piv:
            break
        chain.append((res.matrix[:, np.argsort(perm)], pivots, k - len(new_piv)))
        remaining -= set(new_piv)
        used.extend(sorted(new_piv))
    return chain


def _combinations(m: int, r: int) -> np.ndarray:
    """itertools.combinations(range(m), r) as an index array of shape (r, C(m, r)).

    Built from the last position back: the j-subsets starting at c are c
    followed by the (j-1)-subsets of range(c + 1, m), which are a suffix
    of the (j-1)-subsets of any larger range in lex order.
    """
    table = np.zeros((0, 1), dtype=np.intp)  # the 0-subsets
    for j in range(1, r + 1):
        # table holds the (j-1)-subsets of range(r - j + 1, m)
        firsts = np.arange(r - j, m - j + 1)
        sizes = np.array([comb(m - c - 1, j - 1) for c in firsts.tolist()], dtype=np.intp)
        ends = np.cumsum(sizes)
        rows = np.arange(ends[-1]) + np.repeat(table.shape[1] - ends, sizes)
        table = np.vstack([np.repeat(firsts, sizes), table[:, rows]])
    return table


def _support_blocks(k: int, w: int, limit: int, tables: dict | None = None):
    """Yield index arrays (w, N) of at most ``limit`` w-subsets of range(k)
    each, together itertools.combinations(range(k), w) in order.

    The subsets that share a prefix are filled in at once when they fit;
    a larger range splits on its next index.  The r-subsets of range(s, k)
    end with those of range(s', k) for every s' > s, so one generated
    table of tails serves the prefixes after it.  ``tables`` keeps the
    largest table of each (k, r) built so far; one dict passed to several
    calls lets them share it.  Consecutive small ranges share a block.
    Every block is a view of one buffer, so it is overwritten when the
    next block is asked for.
    """
    tables = {} if tables is None else tables
    out = np.empty((w, min(limit, comb(k, w))), dtype=np.intp)
    stack = [((), 0)]  # (prefix, first index the rest may use)
    held = 0
    while stack:
        prefix, start = stack.pop()
        r = w - len(prefix)
        count = comb(k - start, r)
        if count > limit:
            stack.extend(((*prefix, c), c + 1) for c in reversed(range(start, k - r + 1)))
            continue
        if held + count > limit:
            yield out[:, :held]
            held = 0
        tails = tables.get((k, r))
        if tails is None or tails.shape[1] < count:
            tails = tables[k, r] = _combinations(k - start, r) + start
        piece = out[:, held : held + count]
        piece[: len(prefix)] = np.array(prefix, dtype=np.intp)[:, None]
        piece[len(prefix) :] = tails[:, tails.shape[1] - count :]
        held += count
    if held:
        yield out[:, :held]


def _scalar_rows(q: int, w: int, lo: int, hi: int) -> np.ndarray:
    """Tuples lo..hi-1 of (1,) + itertools.product(range(1, q), repeat=w - 1), as columns (w, hi - lo)."""
    powers = (q - 1) ** np.arange(w - 1, -1, -1, dtype=np.intp)
    return np.arange(lo, hi, dtype=np.intp) // powers[:, None] % (q - 1) + 1


def _bz_level(q: int, k: int, w: int, scaled: np.ndarray, tables: dict | None = None):
    """Yield one matrix's level-w codewords in packed batches.

    Supports come in lex order and, within a support, scalar tuples in
    product order with the first scalar 1, at most BZ_CHUNK codewords per
    batch.  ``tables`` shares the support tables between calls
    (_support_blocks).
    """
    per_support = (q - 1) ** (w - 1)
    step = min(per_support, BZ_CHUNK)
    first = _scalar_rows(q, w, 0, step)
    for supports in _support_blocks(k, w, max(1, BZ_CHUNK // per_support), tables):
        for lo in range(0, per_support, step):
            scalars = first if lo == 0 else _scalar_rows(q, w, lo, min(lo + step, per_support))
            cw = None
            for rows, coeffs in zip(supports, scalars):
                # column a * k + j of the scaled pack is a * row_j
                words = np.take(scaled, (coeffs * k + rows[:, None]).ravel(), axis=-1)
                cw = words if cw is None else _add(q, cw, words)
            yield cw


def _bz_lower(w: int, deficits) -> int:
    """Brouwer-Zimmermann lower bound on the words not listed after level w
    of each chain matrix: information weight > w on a matrix leaves at least
    w + 1 - deficit nonzero symbols in its own column block, and the blocks
    are disjoint."""
    return sum(max(0, w + 1 - deficit) for deficit in deficits)


def min_weight_bz(field: FieldSpec, G: np.ndarray, cap: int | None = None) -> int:
    """Brouwer-Zimmermann minimum weight.

    Enumerates information-weight-w combinations over a chain of
    systematic generator matrices, in batches of at most BZ_CHUNK
    codewords; stops once the accumulated lower bound for unseen codewords
    reaches the best weight found.  Past ``cap`` codewords it raises
    BudgetExceeded at codeword cap + 1 (the first one for a negative cap),
    carrying the best weight seen up to it.
    """
    k, n = G.shape
    if k == 0:
        raise ValueError("the zero code has no nonzero codewords")
    cap = DEFAULT_CAPS[field.order] if cap is None else max(cap, 0)
    q = field.order
    chain = [(_pack_scaled(field, mat), deficit) for mat, _pivots, deficit in _information_set_chain(field, G)]
    tables: dict = {}  # support tables, built once for every matrix of the chain
    best = n + 1
    work = 0
    for w in range(1, k + 1):
        for scaled, _deficit in chain:
            for words in _bz_level(q, k, w, scaled, tables):
                weights = _weigh(words)
                take = min(weights.size, cap + 1 - work)  # up to the codeword past the cap
                seen = weights[:take]  # a level-w word is nonzero on w pivots
                if seen.size:
                    best = min(best, int(seen.min()))
                work += take
                if work > cap:
                    raise BudgetExceeded(best if best <= n else None, work)
        if _bz_lower(w, [deficit for _scaled, deficit in chain]) >= best:
            return best
    return best


# -- coset listing for the extension search ----------------------------------


@dataclass(frozen=True, eq=False)
class _Link:
    """One matrix G_j of C's information-set chain, ready to scan cosets.

    ``lookups`` holds, for each negated table, the bytes of a packed vector
    that hold its rows' pivots, spots[i] = (plane, word, byte), and what
    each adds to the table index: parts[i][v] when byte spots[i] reads v
    (_pivot_lookups, _reduce).
    """

    pivots: tuple[int, ...]
    deficit: int
    negated: list[np.ndarray]  # codeword tables of -G_j
    lookups: list[tuple[tuple[tuple[int, int, int], ...], np.ndarray]]  # per table: spots, uint16 parts (spots, 256)
    scaled: np.ndarray  # _pack_scaled(G_j)


# bit b of each byte value, one row per value: a byte's lookup is this times its bits' weights
_BYTE_BITS = np.arange(256)[:, None] >> np.arange(8) & 1


def _pivot_lookups(q: int, n: int, pivots) -> list:
    """_Link.lookups for the pivots p_0, p_1, ... of a chain matrix of length n.

    Pivot i is digit i % TABLE_ROWS of table i // TABLE_ROWS, so bit b of
    its symbol, on plane b, adds 2^b q^(i % TABLE_ROWS) to that table's
    index.  The pivot columns are the same on every plane, so plane b's
    parts are plane 0's times 2^b.  A part is at most (q^TABLE_ROWS - 1) /
    (q - 1), twice that on plane 1, and the parts of a vector sum to its
    index, below q^TABLE_ROWS <= 3^9: uint16 holds them.
    """
    L, planes = TABLE_ROWS[q], (1 if q == 2 else 2)
    digit = np.arange(len(pivots))
    weight = np.zeros((-(-len(pivots) // L), -(-n // 64) * 8, 8), dtype=np.int64)  # per table: plane 0's bits, by byte
    weight.reshape(len(weight), -1)[digit // L, np.asarray(pivots, dtype=np.intp)] = q ** (digit % L)
    lookups = []
    for table in weight:
        held = np.flatnonzero(table.any(axis=1)).tolist()  # the bytes that hold a pivot
        parts = table[held] @ _BYTE_BITS.T
        spots = tuple((p, b // 8, b % 8) for p in range(planes) for b in held)
        lookups.append((spots, np.concatenate([parts << p for p in range(planes)]).astype(np.uint16)))
    return lookups


def _coset_chain(field: FieldSpec, G: np.ndarray) -> list[_Link]:
    """The _Link of each matrix of G's information-set chain; each matrix is packed once."""
    q = field.order
    chain = []
    for mat, pivots, deficit in _information_set_chain(field, G):
        scaled = _pack_scaled(field, mat)
        negated = [_negate(q, t) for t in _tables(q, scaled, mat.shape[0])]
        chain.append(_Link(pivots, deficit, negated, _pivot_lookups(q, G.shape[1], pivots), scaled))
    return chain


def _reduce(q: int, x: np.ndarray, link: _Link) -> np.ndarray:
    """x - sum_i x[p_i] row_i over G_j's pivots p_i: the word of x + C that vanishes on them.

    For each negated table, the index of x's pivot symbols in it is the
    uint16 sum of a few 256-entry lookups (_Link.lookups), one per byte of
    x that holds a pivot, read as uint8; one gather of the table at those
    indices is added to x.  The batch's last axis must be contiguous.
    """
    # byte c % 64 // 8 of word c // 64 holds column c, little-endian
    octets = x.astype("<u8", copy=False).view(np.uint8).reshape(x.shape + (8,))
    for table, (spots, parts) in zip(link.negated, link.lookups):
        index = sum(np.take(part, octets[plane, word, :, byte]) for (plane, word, byte), part in zip(spots, parts))
        x = _add(q, x, np.take(table, index, axis=-1))
    return x


def _level_words(q: int, k: int, link: _Link, W: int, tables: dict):
    """Packed batches of G_j's codewords of information weight 0, 1, ..., W,
    every nonzero scalar tuple: the BZ level batches and their multiples.
    ``tables`` shares the support tables between calls (_support_blocks)."""
    if W >= 0:
        yield np.zeros(link.scaled.shape[:2] + (1,), dtype=np.uint64)
    for w in range(1, W + 1):
        for words in _bz_level(q, k, w, link.scaled, tables):
            for a in range(1, q):
                yield _scale(q, a, words)


def _level_sizes(q: int, k: int) -> list[int]:
    """[W + 1]: the words of levels 0 .. W of a k-row chain matrix, every
    nonzero scalar tuple (_level_words); [0] is 0, for no level."""
    return [0, *accumulate(comb(k, w) * (q - 1) ** w for w in range(k + 1))]


def _bz_order(q: int, k: int, chain: list[_Link], floor: int, cap: int) -> tuple[list[tuple[_Link, int]], int, bool]:
    """The levels that list coset words at ``floor``: (link, W_j) for each
    matrix G_j listed, how many words they hold, and whether the listing
    is complete.

    A matrix G_j lists its codewords c of information weight 0, 1, ...,
    W_j, every nonzero scalar tuple (_level_words).  The set is closed
    under negation, so the words x_j - c are the words of the coset x + C
    of information weight at most W_j on G_j.

    Every coset word not listed weighs at least sum_j max(0, W_j + 1 -
    deficit_j), the chain's Brouwer-Zimmermann bound.  W is the first common
    level W_j = W at which it reaches ``floor`` (_bz_lower), or k, where
    G_1's levels are the whole coset.  Up to W, the W_j rise one unit of
    the bound at a time, each where it adds the fewest words; G_1 alone
    serves whenever they would list more than q^k words.

    The listing is complete when the common-level one (deficit <= W through
    level W, or G_1 whole if fewer words) has at most ``cap`` words, so the
    W_j never change a result; otherwise G_1's levels 0 .. W' that fit in
    ``cap`` are listed instead (no matrix when cap < 1), closed under
    multiples.  Nothing is listed here: the word count comes from the
    level sizes (_level_sizes).
    """
    sizes = _level_sizes(q, k)  # [W + 1]: words in levels 0..W of a matrix
    W = next((w for w in range(k) if _bz_lower(w, [link.deficit for link in chain]) >= floor), k)
    complete = min(sum(sizes[W + 1] for link in chain if link.deficit <= W), q**k) <= cap
    tops = [-1] * len(chain)  # W_j, -1 while G_j lists nothing
    for _ in range(floor if W < k else 0):
        up = [max(t + 1, link.deficit) for t, link in zip(tops, chain)]  # the level that adds 1 to the bound
        j = min((sizes[u + 1] - sizes[t + 1], j) for j, (t, u) in enumerate(zip(tops, up)) if u <= W)[1]
        tops[j] = up[j]
    listed = [(link, t) for link, t in zip(chain, tops) if t >= 0]
    if W == k or sum(sizes[t + 1] for _, t in listed) > q**k:
        listed = [(chain[0], k)]
    if not complete:
        fit = sum(size <= cap for size in sizes[1:]) - 1
        listed = [(chain[0], fit)] if fit >= 0 else []
    return listed, sum(sizes[t + 1] for _, t in listed), complete


class _CosetListings:
    """The coset listings of one extension search, by floor.

    C's chain and ``cap`` are fixed for the search, so a floor's listing
    (_bz_order) is a function of the floor alone, and it is planned once
    per floor.  Calling the object with a floor gives (stages, complete):
    one (link, batches) stage per matrix listed, its levels 0 .. W_j, as
    _coset_floor reads them, and whether the listing is complete.

    A listing of at most ``hold`` words is held.  Each link keeps one
    array, a copy of its levels 0 .. W listed so far in _level_words'
    order, and a stage reads its levels 0 .. W_j as a prefix of it; the
    levels are listed again only for a higher W_j.  A larger listing is
    listed afresh on every call, as a stream of batches, so no held array
    exceeds ``hold`` words.  One dict of support tables (_support_blocks)
    serves every listing.
    """

    def __init__(self, q: int, k: int, chain: list[_Link], cap: int, hold: int):
        self.q, self.k, self.chain, self.cap, self.hold = q, k, chain, cap, hold
        self.sizes = _level_sizes(q, k)
        self.plans: dict[int, tuple[list[tuple[_Link, int]], int, bool]] = {}  # floor -> _bz_order's answer
        self.held: dict[_Link, np.ndarray] = {}  # link -> its levels 0 .. W, one array
        self.tables: dict = {}

    def __call__(self, floor: int) -> tuple[list, bool]:
        plan = self.plans.get(floor)
        if plan is None:
            plan = self.plans[floor] = _bz_order(self.q, self.k, self.chain, floor, self.cap)
        listed, words, complete = plan
        if words > self.hold:
            return [(link, _level_words(self.q, self.k, link, W, self.tables)) for link, W in listed], complete
        return [(link, [self._levels(link, W)]) for link, W in listed], complete

    def _levels(self, link: _Link, W: int) -> np.ndarray:
        """Levels 0 .. W of the link's matrix: a prefix of its held array,
        which is listed again, and copied, when it holds fewer levels."""
        size = self.sizes[W + 1]
        words = self.held.get(link)
        if words is None or words.shape[-1] < size:
            # the copy: one contiguous array, whatever the batches share
            words = self.held[link] = np.concatenate(list(_level_words(self.q, self.k, link, W, self.tables)), axis=-1)
        return words[..., :size]


def _coset_floor(q: int, cand: np.ndarray, active: np.ndarray | None, floor: int, stages) -> np.ndarray:
    """Running minimum weight over the cosets x + C of the packed candidates
    x = cand[..., active], or of every candidate when ``active`` is None.

    ``stages`` yields (link, batches) pairs.  For each link, every
    candidate still scored is first replaced, in one working copy and a
    chunk at a time, by the word of its coset that vanishes on the link's
    pivots (_reduce).  Then each candidate is compared with every packed
    word c of the batches, at most BZ_CHUNK pairs per pass: the distance
    from x to c is the weight of the coset word x - c.  A pass lays its
    pairs out words x candidates, so the minimum over its words is an
    elementwise minimum across rows; with one word per pass (the candidates
    fill it) there is none to take.  A candidate stops being scored
    once its running minimum falls below ``floor``.  The result bounds each
    coset minimum from above, and is below ``floor`` exactly where some
    listed word is.
    """
    x = cand.copy() if active is None else np.take(cand, active, axis=-1)
    where = np.arange(x.shape[-1])  # the position of each candidate still scored
    low = np.empty(where.size, dtype=np.uint16)
    run = np.full(where.size, np.iinfo(np.uint16).max, dtype=np.uint16)
    for link, batches in stages:
        for lo in range(0, run.size, BZ_CHUNK):
            x[..., lo : lo + BZ_CHUNK] = _reduce(q, x[..., lo : lo + BZ_CHUNK], link)
        for words in batches:
            s = 0
            while s < words.shape[-1]:
                group = max(1, BZ_CHUNK // run.size)  # words per pass; one when the candidates fill a pass
                part = words[..., s : s + group, None]
                s += group
                for lo in range(0, run.size, BZ_CHUNK // group):
                    hi = lo + BZ_CHUNK // group
                    dist = _distance(x[..., None, lo:hi], part)  # words x candidates
                    np.minimum(run[lo:hi], dist[0] if group == 1 else dist.min(axis=0), out=run[lo:hi])
                dead = run < floor
                died = np.count_nonzero(dead)
                if died and died >= COMPACT_SHARE * run.size:
                    low[where] = run
                    keep = np.flatnonzero(~dead)  # np.take: a random boolean mask indexes several times slower
                    where, run, x = np.take(where, keep), np.take(run, keep), np.take(x, keep, axis=-1)
                    if not run.size:
                        return low
    low[where] = run
    return low
